"""Scheduling for flexible job shops with machine calendars, sequence-dependent
setups, operation overlap, release times, and pinned operations.

The modules, each importing only earlier ones: rng, model, timing, generator,
jsonio, milp, gantt, solvers, cli; the README says what each holds. Import a
name from its module: the package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
