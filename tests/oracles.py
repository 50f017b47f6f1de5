"""Independent brute-force oracles the real implementations are tested against.

Everything here trades speed for obviousness: time advances one unit at a
time and legality is re-derived from first principles at each step. Keep
these free of imports from flexshop.timing so the two code paths cannot
share a bug.
"""

from __future__ import annotations

import dataclasses

from flexshop.model import Instance, Schedule


def unit_free(windows, t: int) -> bool:
    """True when the unit interval [t, t+1) lies outside every window."""
    return not any(b <= t < e for b, e in windows)


def start_legal(windows, s: int) -> bool:
    """A start is legal strictly before a window begins, or from its end on."""
    return all(s <= b - 1 or s >= e for b, e in windows)


def setup_legal(windows, setup_start: int, start: int) -> bool:
    """The setup interval [setup_start, start] may only touch window endpoints."""
    return all(start <= b or setup_start >= e for b, e in windows)


def oracle_completion(windows, start: int, duration: int) -> int:
    """Walk forward one unit at a time until `duration` free units are spent."""
    t = start
    done = 0
    while done < duration:
        if unit_free(windows, t):
            done += 1
        t += 1
    return t


def oracle_earliest(windows, ready: int, setup_len: int, proc: int, partial: int):
    """Smallest legal start at or after `ready` whose setup also fits.

    Returns (setup_start, start, partial_completion, completion). The scan is
    bounded: past the last window end everything is legal.
    """
    s = max(ready, setup_len)
    horizon = max((e for _, e in windows), default=0) + setup_len + 1
    while s <= max(ready, setup_len) + horizon:
        if start_legal(windows, s) and setup_legal(windows, s - setup_len, s):
            return (s - setup_len, s,
                    oracle_completion(windows, s, partial),
                    oracle_completion(windows, s, proc))
        s += 1
    raise AssertionError("oracle scan ran past its horizon")


def iter_one_unit_left_shifts(inst, sched):
    """Variants of `sched` with one operation started one unit earlier.

    Yields (op id, variant) per operation. The shifted operation keeps its
    setup length; its setup start, partial completion and completion follow
    from the new start by the unit-step oracle, and everything else is
    untouched. A left-tight schedule turns every variant infeasible.
    """
    for i in sorted(sched.ops):
        so = sched.ops[i]
        op = inst.op(i)
        windows = inst.machine(so.machine).windows
        s = so.start - 1
        shifted = dataclasses.replace(
            so, setup_start=s - so.setup_len, start=s,
            partial_completion=oracle_completion(windows, s, op.partial_units(so.machine)),
            completion=oracle_completion(windows, s, op.eligible[so.machine]))
        yield i, Schedule(ops={**sched.ops, i: shifted}, sequences=sched.sequences)


def with_full_overlap(inst: Instance) -> Instance:
    """The same instance with every overlap fraction forced to 1."""
    ops = tuple(dataclasses.replace(op, theta_hundredths=100) for op in inst.operations)
    return Instance(num_machines=inst.num_machines, operations=ops, arcs=inst.arcs, machines=inst.machines)
