"""Independent brute-force oracles the real implementations are tested against.

Everything here trades speed for obviousness: time advances one unit at a
time and legality is re-derived from first principles at each step. Keep
the placement oracles free of flexshop.timing so the two code paths cannot
share a bug. The search oracles are the exception: :func:`decode` grows a
:class:`flexshop.timing.PlacementEngine` from a decision structure,
:func:`brute_force` decodes every structure through it and
:func:`plain_branch_and_bound` shares the exact search's placements, all on
purpose, because they check the search (which structures it visits and
which it prunes), not the placements. The search's bound, kept incrementally
there, is recomputed from scratch here by :func:`full_pass_bound`, the
greedy's heap, fed one chain entry per machine from a frontier of ready
operations and placing pairs lazily, by :func:`rescan_greedy`, and the
streamed MILP row check by :func:`listed_violations`.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Sequence
from time import perf_counter

from flexshop.milp import RowViolation, build_model, schedule_values
from flexshop.model import Instance, Schedule, SetupTable, SolveResult, makespan, topological_order
from flexshop.solvers import solve_greedy
from flexshop.timing import DecodeInfeasible, PlacementEngine


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


def oracle_earliest(windows, ready: int, setup_len: int, proc: int, partial: int, pred=None):
    """Smallest legal start at or after `ready` whose setup also fits.

    With `pred` = (partial completion, completion) of a predecessor, the
    start is also at or after the first and the completion at or after the
    second. Returns (setup_start, start, partial_completion, completion).
    The scan is bounded: past the last window end everything is legal, and a
    start at the completion floor completes above it.
    """
    start_floor, completion_floor = pred or (0, 0)
    first = max(ready, setup_len, start_floor)
    horizon = max((e for _, e in windows), default=0) + setup_len + 1 + completion_floor
    for s in range(first, first + horizon + 1):
        if (start_legal(windows, s) and setup_legal(windows, s - setup_len, s)
                and oracle_completion(windows, s, proc) >= completion_floor):
            return (s - setup_len, s,
                    oracle_completion(windows, s, partial),
                    oracle_completion(windows, s, proc))
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
        op = inst.ops_by_id[i]
        windows = inst.machines_by_id[so.machine].windows
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


def tabled(inst: Instance) -> Instance:
    """`inst` with each machine's setup rule written out as the explicit table it implies."""
    machines = []
    for mc in inst.machines:
        here = [inst.ops_by_id[i] for i in inst.eligible_ops[mc.id]]
        table = SetupTable({a.id: mc.setup.first(a) for a in here},
                           {(a.id, b.id): mc.setup.between(a, b) for a in here for b in here if a is not b})
        machines.append(dataclasses.replace(mc, setup=table))
    return dataclasses.replace(inst, machines=tuple(machines))


def full_pass_bound(inst: Instance, engine: PlacementEngine) -> int:
    """The exact search's lower bound on `engine`'s placement, from one pass over every operation.

    Three parts, each valid on its own: the largest placed completion; a
    head recursion through the precedence graph (an unplaced operation
    starts no earlier than its release and its predecessors' partial
    completions, placed ones exact, unplaced ones bounded by head plus their
    own minimum partial length); and per machine the completion of its tail,
    the last operation of its sequence in the engine, plus the processing
    still owed to it by unplaced operations eligible nowhere else.
    """
    preds = inst.predecessors
    pmin = {op.id: min(op.eligible.values()) for op in inst.operations}
    pbmin = {op.id: min(op.partial_units(k) for k in op.eligible) for op in inst.operations}
    solo = {op.id: next(iter(op.eligible)) for op in inst.operations if len(op.eligible) == 1}

    lb = 0
    head: dict[int, int] = {}
    for i in topological_order(inst):
        rec = engine.placed.get(i)
        if rec is not None:
            lb = max(lb, rec.completion)
            continue
        h = inst.ops_by_id[i].release
        for p in preds[i]:
            prec = engine.placed.get(p)
            if prec is not None:
                h = max(h, prec.partial_completion)
            else:
                h = max(h, head[p] + pbmin[p])
        head[i] = h
        lb = max(lb, h + pmin[i])

    owed: dict[int, int] = {}
    for i, k in solo.items():
        if i not in engine.placed:
            owed[k] = owed.get(k, 0) + inst.ops_by_id[i].eligible[k]
    for k, extra in owed.items():
        seq = engine.seqs[k]
        lb = max(lb, (engine.placed[seq[-1]].completion if seq else 0) + extra)
    return lb


def plain_branch_and_bound(inst: Instance, node_limit: int | None = None):
    """`solve_exact` branching on every interleaving of appends, no reduction.

    Same greedy incumbent, root test, child order, bound and node-limit rule.
    Returns (status, schedule, nodes).
    """
    engine = PlacementEngine(inst)
    try:
        best = solve_greedy(inst)
    except DecodeInfeasible:
        best = None
    ub = float("inf") if best is None else makespan(best)
    if best is not None and ub <= full_pass_bound(inst, engine):
        return "optimal", best, 0
    order = {op.id: sorted(op.eligible, key=lambda k: (op.eligible[k], k)) for op in inst.operations}
    nodes = 0

    def descend() -> bool:  # False once the node limit stops the search
        nonlocal best, ub, nodes
        if len(engine.placed) == len(inst.operations):
            if makespan(engine.schedule()) < ub:
                best = engine.schedule()
                ub = makespan(best)
            return True
        for i in sorted(engine.ready):
            for k in order[i]:
                if node_limit is not None and nodes >= node_limit:
                    return False
                try:
                    rec = engine.placement(i, k, engine.floors(i, k))
                except DecodeInfeasible:
                    continue
                engine.commit(i, rec)
                nodes += 1
                going = full_pass_bound(inst, engine) >= ub or descend()
                engine.undo()
                if not going:
                    return False
        return True

    if not descend():
        return "limit", best, nodes
    return ("infeasible" if best is None else "optimal"), best, nodes


def rescan_greedy(inst: Instance) -> tuple[Schedule, int]:
    """`solve_greedy` with nothing kept between steps: each step places every ready pair afresh.

    Each step also recomputes every machine's earliest unplaced pin from the
    operations, and rejects a pair after which that pin's setup would not fit
    between the pair's completion and the pinned start, would overlap a
    window, or the pinned start itself would be illegal. Returns the schedule
    and the number of pairs the pin check rejected over all steps; raises
    DecodeInfeasible when a step has no candidate left.
    """
    engine = PlacementEngine(inst)
    rejected = 0
    while len(engine.placed) < len(inst.operations):
        earliest_pin: dict[int, tuple[int, int]] = {}  # machine -> (pinned start, op)
        for op in inst.operations:
            if op.fixed is not None and op.id not in engine.placed:
                k, start = op.fixed
                earliest_pin[k] = min(earliest_pin.get(k, (start, op.id)), (start, op.id))
        best = None
        for i in sorted(engine.ready):
            for k in sorted(inst.ops_by_id[i].eligible):
                try:
                    rec = engine.placement(i, k, engine.floors(i, k))
                except DecodeInfeasible:
                    continue
                pin = earliest_pin.get(k)
                if pin is not None and pin[1] != i:
                    mc = inst.machines_by_id[k]
                    start, g = pin[0], mc.setup.between(inst.ops_by_id[i], inst.ops_by_id[pin[1]])
                    if not (rec.completion + g <= start and start_legal(mc.windows, start)
                            and setup_legal(mc.windows, start - g, start)):
                        rejected += 1
                        continue
                if best is None or (rec.completion, i, k) < best[:3]:
                    best = (rec.completion, i, k, rec)
        if best is None:
            raise DecodeInfeasible("pinned starts block every candidate")
        engine.commit(best[1], best[3])
    return engine.schedule(), rejected


def freeze(inst: Instance, sched: Schedule, t: int) -> Instance:
    """`inst` with every operation that starts before `t` in `sched` pinned at its machine and start.

    A pinned operation keeps only that machine in its eligible set; releases
    and every other operation stay as they are.
    """
    def pinned(op):
        so = sched.ops[op.id]
        if so.start >= t:
            return op
        return dataclasses.replace(op, eligible={so.machine: op.eligible[so.machine]}, fixed=(so.machine, so.start))
    return dataclasses.replace(inst, operations=tuple(pinned(op) for op in inst.operations))


def decode(inst: Instance, assignment: dict[int, int], sequences: dict[int, Sequence[int]]) -> Schedule:
    """Left-tight schedule from a machine assignment and per-machine orders.

    Operations are placed one at a time: among the operations whose graph
    predecessors are all placed and which sit at the front of their machine's
    remaining sequence, the lowest id goes next. A pinned operation must land
    exactly on its pinned start. Raises DecodeInfeasible when no operation is
    placeable (the sequences deadlock against the precedence graph) and
    ValueError when the structure itself is malformed.
    """
    ids = {op.id for op in inst.operations}
    if set(assignment) != ids:
        raise ValueError("assignment must cover exactly the instance's operations")
    for i, k in assignment.items():
        if k not in inst.ops_by_id[i].eligible:
            raise ValueError(f"operation {i} assigned to machine {k} outside its eligible set")
    seq: dict[int, list[int]] = {mc.id: list(sequences.get(mc.id, ())) for mc in inst.machines}
    unknown = set(sequences) - set(seq)
    if unknown:
        raise ValueError(f"sequences reference unknown machines {sorted(unknown)}")
    listed: list[int] = [i for k in sorted(seq) for i in seq[k]]
    if sorted(listed) != sorted(ids):
        raise ValueError("sequences must list every operation exactly once")
    for k, ops_here in seq.items():
        for i in ops_here:
            if assignment[i] != k:
                raise ValueError(f"operation {i} appears in machine {k}'s sequence but is assigned to {assignment[i]}")

    engine = PlacementEngine(inst)
    position = {i: n for ops_here in seq.values() for n, i in enumerate(ops_here)}
    while len(engine.placed) < len(ids):
        fronts = [i for i in engine.ready if position[i] == len(engine.seqs[assignment[i]])]
        if not fronts:
            stuck = sorted(ids - engine.placed.keys())
            raise DecodeInfeasible(f"deadlock: no placeable operation among {stuck}")
        i = min(fronts)
        engine.commit(i, engine.placement(i, assignment[i], engine.floors(i, assignment[i])))
    return engine.schedule()


def brute_force(inst: Instance) -> SolveResult:
    """Decode every assignment and every per-machine permutation.

    Only strict improvements replace the incumbent and structures are visited
    in lexicographic order (assignments, then sequences, machines ascending),
    so ties resolve to the lexicographically first optimal structure. Each
    decoded structure is one node. The result is "optimal" with the best
    makespan as its own lower bound, or "infeasible" when no structure
    decodes. The structure count is exponential: keep it to a handful of
    operations (no test uses more than 8).
    """
    t0 = perf_counter()
    ids = sorted(op.id for op in inst.operations)
    eligible = [sorted(inst.ops_by_id[i].eligible) for i in ids]
    machine_ids = sorted(mc.id for mc in inst.machines)

    best: Schedule | None = None
    best_mk: int | None = None
    tried = 0
    for combo in itertools.product(*eligible):
        assignment = dict(zip(ids, combo))
        groups = [[i for i in ids if assignment[i] == k] for k in machine_ids]
        for perms in itertools.product(*map(itertools.permutations, groups)):
            tried += 1
            try:
                sched = decode(inst, assignment, dict(zip(machine_ids, perms)))
            except DecodeInfeasible:
                continue
            mk = makespan(sched)
            if best_mk is None or mk < best_mk:
                best, best_mk = sched, mk
    wall_ms = int((perf_counter() - t0) * 1000)
    if best is None:
        return SolveResult(status="infeasible", makespan=None, lower_bound=None, gap=None, nodes=tried,
                           wall_ms=wall_ms, schedule=None)
    return SolveResult(status="optimal", makespan=best_mk, lower_bound=best_mk, gap=0.0, nodes=tried,
                       wall_ms=wall_ms, schedule=best)


def listed_violations(inst: Instance, sched: Schedule) -> list[RowViolation]:
    """The MILP row check over a list of every row, held at once.

    Bounds on the continuous variables come first, then the rows in model
    order, as :func:`flexshop.milp.evaluate_schedule` promises.
    """
    model = build_model(inst)
    rows = list(model.constraints)
    val = schedule_values(inst, sched)
    out = [RowViolation(f"bound_{name}", val[name], "in", 0) for name in model.continuous if val.get(name, 0) < 0]
    for name, terms, sense, rhs in rows:
        lhs = sum(coef * val.get(var, 0) for coef, var in terms)
        holds = {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[sense]
        if not holds:
            out.append(RowViolation(name, lhs, sense, rhs))
    return out
