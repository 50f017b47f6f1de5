"""Scheduling for flexible job shops with machine calendars, sequence-dependent
setups, operation overlap, release times, and pinned operations.

The pieces: :mod:`flexshop.model` holds the data types and instance
validation, :mod:`flexshop.timing` the placement arithmetic, decoding, and
the schedule checker, :mod:`flexshop.generator` seeded random instances,
:mod:`flexshop.milp` the exact mixed-integer model and LP export,
:mod:`flexshop.solvers` branch and bound and a greedy heuristic,
:mod:`flexshop.gantt` SVG rendering, and :mod:`flexshop.cli` the
command-line front end.
"""

from .generator import GenParams, JobDag, gen_job_dag, generate, params_for_class
from .jsonio import (FormatError, dumps_instance, dumps_manifest, dumps_report, dumps_result,
                     dumps_schedule, instance_from_dict, instance_to_dict, loads_instance,
                     loads_schedule, schedule_from_dict, schedule_to_dict)
from .milp import MilpModel, Row, RowViolation, build_model, emit_lp, evaluate_schedule
from .model import (BigM, CycleError, Instance, Machine, Operation, Schedule,
                    ScheduledOp, SetupRule, SetupTable, Violation, big_m_constants,
                    topological_order, validate_instance)
from .rng import Rng
from .solvers import SolveResult, greedy_result, solve_exact, solve_greedy
from .timing import DecodeInfeasible, check_schedule, decode, makespan
from .gantt import render_svg

__version__ = "0.1.0"

__all__ = [
    "BigM", "CycleError", "DecodeInfeasible", "FormatError", "GenParams",
    "Instance", "JobDag", "Machine", "MilpModel", "Operation", "Rng", "Row",
    "RowViolation", "Schedule", "ScheduledOp", "SetupRule", "SetupTable", "SolveResult",
    "Violation", "big_m_constants", "build_model",
    "check_schedule", "decode", "dumps_instance", "dumps_manifest",
    "dumps_report", "dumps_result", "dumps_schedule", "emit_lp", "evaluate_schedule", "gen_job_dag",
    "generate", "greedy_result", "instance_from_dict", "instance_to_dict",
    "loads_instance", "loads_schedule", "makespan", "params_for_class",
    "render_svg", "schedule_from_dict", "schedule_to_dict", "solve_exact",
    "solve_greedy", "topological_order", "validate_instance", "__version__",
]
