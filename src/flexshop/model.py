"""Domain model: instances, schedules, solver results, the makespan, and instance validation.

Times are plain non-negative 64-bit integers everywhere. The overlap fraction
of an operation is stored in integer hundredths (``theta_hundredths``) so the
partial-processing length ``ceil(theta * p)`` is exact and instances serialize
losslessly.

Each machine holds one setup object, either a :class:`SetupTable` of explicit
maps (first setup per operation, pair setup per ordered operation pair) or a
:class:`SetupRule` of four constants from which both are computed out of the
operations' size/color/varnish features. The two answer the same questions
(first, between, longest, worst_into, violations), so nothing outside them
branches on the form. Rule machines keep large generated instances compact:
the pair map is quadratic in the number of eligible operations and is pure
arithmetic anyway.

Instances, machines and setups are frozen dataclasses. A schedule's
records, :class:`ScheduledOp`, are slots dataclasses that compare by value
but are neither frozen nor hashable, which makes them cheap to build; no
package code assigns to their fields.

A :class:`SolveResult` is what :func:`~flexshop.solvers.solve_exact` and
:func:`~flexshop.solvers.greedy_result` report, its fields the result
document's keys in order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

MAX_TIME = (1 << 63) - 1


class CycleError(ValueError):
    """A precedence cycle was found; ``witness`` lists op ids along the cycle."""

    def __init__(self, witness: list[int]):
        self.witness = witness
        super().__init__("precedence cycle: " + _cut(" -> ".join(map(str, witness))))


@dataclass(frozen=True)
class Violation:
    """One broken rule, naming the operations involved."""

    rule: str
    op_ids: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.rule} {brief(list(self.op_ids))}: {self.detail}"


@dataclass(frozen=True)
class Operation:
    id: int
    job: int
    eligible: dict[int, int]  # machine id -> processing time (>= 1)
    theta_hundredths: int = 100  # overlap fraction, in hundredths of the processing time
    release: int = 0
    fixed: tuple[int, int] | None = None  # (machine id, pinned start)
    size: int = 1
    color: int = 1
    varnish: int = 1

    def partial_units(self, machine: int) -> int:
        """ceil(theta * p) on the given machine: work required before successors may start."""
        p = self.eligible[machine]
        return -(-self.theta_hundredths * p // 100)


@dataclass(frozen=True)
class SetupRule:
    """Feature-driven setup times shared by every operation pair on one machine.

    The pair setup adds ``st_smaller`` when the predecessor's size is below the
    successor's (``st_larger`` when above, nothing when equal), plus ``ct`` on a
    color change and ``vt`` on a varnish change. The first-on-machine setup is
    the worst case: ``max(st_smaller, st_larger) + ct + vt``.
    """

    st_smaller: int
    st_larger: int
    ct: int
    vt: int

    def first(self, op: Operation) -> int:
        return self.longest()

    def between(self, pred: Operation, succ: Operation) -> int:
        g = 0
        if pred.size < succ.size:
            g += self.st_smaller
        elif pred.size > succ.size:
            g += self.st_larger
        if pred.color != succ.color:
            g += self.ct
        if pred.varnish != succ.varnish:
            g += self.vt
        return g

    def longest(self) -> int:
        return max(self.st_smaller, self.st_larger) + self.ct + self.vt

    def worst_into(self, op: Operation, hosts: tuple[int, ...]) -> int:
        return self.longest()  # no pair setup exceeds the first setup, so no loop over hosts

    def violations(self, machine_id: int, hosts: tuple[int, ...]) -> list[Violation]:
        report: list[Violation] = []
        for label in ("st_smaller", "st_larger", "ct", "vt"):
            _check_time(report, "setup", (), f"machine {machine_id} rule {label}", getattr(self, label))
        return report


@dataclass(frozen=True)
class SetupTable:
    """Explicit setup times: ``firsts[op id]`` on an empty machine, ``pairs[(pred id, succ id)]`` after another."""

    firsts: dict[int, int]
    pairs: dict[tuple[int, int], int]

    def first(self, op: Operation) -> int:
        return self.firsts[op.id]

    def between(self, pred: Operation, succ: Operation) -> int:
        return self.pairs[(pred.id, succ.id)]

    def longest(self) -> int:
        return max((*self.firsts.values(), *self.pairs.values()), default=0)

    def worst_into(self, op: Operation, hosts: tuple[int, ...]) -> int:
        return max([self.firsts[op.id], *(self.pairs[(i, op.id)] for i in hosts if i != op.id)])

    def violations(self, machine_id: int, hosts: tuple[int, ...]) -> list[Violation]:
        """Keys must match the hosted operations exactly; every value is a time."""
        report: list[Violation] = []
        bk = set(hosts)
        if set(self.firsts) != bk:
            report.append(Violation("setup", (), f"machine {machine_id} first-setup keys do not match its eligible operations"))
        n = len(bk)  # n(n - 1) distinct keys, each two distinct hosts, are exactly the ordered host pairs
        if len(self.pairs) != n * (n - 1) or not all(
                isinstance(key, tuple) and len(key) == 2 and key[0] != key[1] and bk.issuperset(key) for key in self.pairs):
            report.append(Violation("setup", (), f"machine {machine_id} pair-setup keys do not cover exactly its eligible pairs"))
        for g in self.firsts.values():
            _check_time(report, "setup", (), f"machine {machine_id} first setup", g)
        for g in self.pairs.values():
            _check_time(report, "setup", (), f"machine {machine_id} pair setup", g)
        return report


@dataclass(frozen=True)
class Machine:
    id: int
    setup: SetupRule | SetupTable
    windows: tuple[tuple[int, int], ...] = ()  # ordered disjoint unavailability [begin, end]

    def last_window_end(self) -> int:
        return self.windows[-1][1] if self.windows else 0


@dataclass(frozen=True)
class Instance:
    num_machines: int
    operations: tuple[Operation, ...]
    arcs: tuple[tuple[int, int], ...]
    machines: tuple[Machine, ...]

    # -- lookups -------------------------------------------------------------

    @cached_property
    def ops_by_id(self) -> dict[int, Operation]:
        return {op.id: op for op in self.operations}

    @cached_property
    def machines_by_id(self) -> dict[int, Machine]:
        return {mc.id: mc for mc in self.machines}

    @cached_property
    def successors(self) -> dict[int, tuple[int, ...]]:
        succ: dict[int, list[int]] = {op.id: [] for op in self.operations}
        for i, j in self.arcs:
            succ[i].append(j)
        return {i: tuple(sorted(js)) for i, js in succ.items()}

    @cached_property
    def predecessors(self) -> dict[int, tuple[int, ...]]:
        pred: dict[int, list[int]] = {op.id: [] for op in self.operations}
        for i, j in self.arcs:
            pred[j].append(i)
        return {j: tuple(sorted(is_)) for j, is_ in pred.items()}

    @cached_property
    def eligible_ops(self) -> dict[int, tuple[int, ...]]:
        """Machine id -> ascending ids of operations that may run on it."""
        bk: dict[int, list[int]] = {mc.id: [] for mc in self.machines}
        for op in self.operations:
            for k in op.eligible:
                if k in bk:
                    bk[k].append(op.id)
        return {k: tuple(sorted(ids)) for k, ids in bk.items()}

    # -- setup dispatch ------------------------------------------------------

    # no package module calls it; bench/spans.py wraps it when its tracer is built (ROADMAP item 19)
    def setup_between(self, machine_id: int, pred_id: int, succ_id: int) -> int:
        return self.machines_by_id[machine_id].setup.between(self.ops_by_id[pred_id], self.ops_by_id[succ_id])


@dataclass(slots=True)
class ScheduledOp:
    """Where and when one operation runs: its machine, its setup interval and its processing.

    A slots record that compares by value, neither frozen nor hashable: a
    frozen ``__init__`` sets each field through ``object.__setattr__``, about
    three times the cost of the record the exact search builds at every
    node. Records are still never changed once built, since a placement
    engine, every schedule it returns and the search's incumbent share them;
    a test fails on any package code that assigns to a field.
    """

    machine: int
    setup_start: int
    setup_len: int
    start: int
    partial_completion: int
    completion: int


@dataclass(frozen=True)
class Schedule:
    ops: dict[int, ScheduledOp]
    sequences: dict[int, tuple[int, ...]]  # machine id -> op ids in processing order


@dataclass(frozen=True)
class SolveResult:
    status: str  # optimal | feasible | infeasible | limit
    makespan: int | None
    lower_bound: int | None
    gap: float | None
    nodes: int
    wall_ms: int
    schedule: Schedule | None


def makespan(sched: Schedule) -> int:
    return max((so.completion for so in sched.ops.values()), default=0)


def refuse_unknown_ids(inst: Instance, sched: Schedule) -> None:
    """Raise ValueError naming the ids a schedule's records or sequences use that the instance lacks."""
    listed = {i for seq in sched.sequences.values() for i in seq}
    placed_on = {so.machine for so in sched.ops.values()}
    for what, used, known in (("operations", sched.ops.keys() | listed, inst.ops_by_id),
                              ("machines", sched.sequences.keys() | placed_on, inst.machines_by_id)):
        unknown = sorted(used - known.keys())
        if unknown:
            raise ValueError(f"schedule references unknown {what} {brief(unknown)}")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def brief(value: object) -> str:
    """``repr(value)`` cut to about 80 characters, so that a huge input value cannot flood a message."""
    return _cut(repr(value))


def _cut(text: str) -> str:
    return text if len(text) <= 80 else text[:72] + "...[cut]"


def _check_time(target: list[Violation], rule: str, op_ids: tuple[int, ...], label: str, value: int) -> bool:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= MAX_TIME:
        target.append(Violation(rule, op_ids, f"{label} must be a non-negative 64-bit integer, got {brief(value)}"))
        return False
    return True


def validate_instance(inst: Instance) -> list[Violation]:
    """Structural validation. Empty list means every domain invariant holds."""
    report: list[Violation] = []

    if inst.num_machines < 1:
        report.append(Violation("machine count", (), f"need at least one machine, got {brief(inst.num_machines)}"))
    machine_ids = {mc.id for mc in inst.machines}
    n_machines = len(inst.machines)  # compared first: m is untrusted and may be huge
    if n_machines != inst.num_machines or sorted(mc.id for mc in inst.machines) != list(range(1, n_machines + 1)):
        report.append(Violation("machine ids", (), f"machine ids must be 1..{brief(inst.num_machines)}"))

    op_ids = [op.id for op in inst.operations]
    if sorted(op_ids) != list(range(1, len(op_ids) + 1)):
        report.append(Violation("operation ids", (), f"operation ids must be 1..{len(op_ids)}"))
        return report  # everything below keys off well-formed ids

    known = set(op_ids)
    jobs = {op.id: op.job for op in inst.operations}

    for op in inst.operations:
        if not op.eligible:
            report.append(Violation("eligibility", (op.id,), "empty eligible-machine set"))
        for k, p in op.eligible.items():
            if k not in machine_ids:
                report.append(Violation("eligibility", (op.id,), f"eligible machine {brief(k)} does not exist"))
            if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= MAX_TIME:
                report.append(Violation("processing time", (op.id,), f"p on machine {k} must be an integer >= 1, got {brief(p)}"))
        if not 1 <= op.theta_hundredths <= 100:
            report.append(Violation("overlap fraction", (op.id,), f"theta_hundredths must be in 1..100, got {brief(op.theta_hundredths)}"))
        release_ok = _check_time(report, "release", (op.id,), "release", op.release)
        if op.fixed is not None:
            k_fix, s_fix = op.fixed
            if set(op.eligible) != {k_fix}:
                report.append(Violation("fixed", (op.id,), "fixed operation must have singleton machine set"))
            if _check_time(report, "fixed", (op.id,), "fixed start", s_fix) and release_ok and s_fix < op.release:
                report.append(Violation("fixed", (op.id,), f"fixed start {s_fix} is before release {op.release}"))

    # theta below 1 only makes sense for operations with successors
    has_succ = {i for i, _ in inst.arcs}
    for op in inst.operations:
        if op.theta_hundredths != 100 and op.id not in has_succ:
            report.append(Violation("overlap fraction", (op.id,), "theta below 1 on an operation with no successors"))

    seen_arcs = set()
    for i, j in inst.arcs:
        if i not in known or j not in known:
            report.append(Violation("arc", tuple(h for h in (i, j) if h in known),
                                    f"arc {brief([i, j])} references unknown operation"))
            continue
        if i == j:
            report.append(Violation("arc", (i,), "self-loop (a one-arc cycle)"))
            continue
        if (i, j) in seen_arcs:
            report.append(Violation("arc", (i, j), "duplicate arc"))
        seen_arcs.add((i, j))
        if jobs[i] != jobs[j]:
            report.append(Violation("arc", (i, j), f"arc crosses jobs {brief(jobs[i])} and {brief(jobs[j])}"))

    try:
        topological_order(inst)
    except CycleError as exc:
        report.append(Violation("precedence", tuple(exc.witness), "cycle: " + _cut(" -> ".join(map(str, exc.witness)))))

    for mc in inst.machines:
        prev_end = None
        for b, e in mc.windows:
            ok = _check_time(report, "calendar", (), f"machine {mc.id} window begin", b)
            ok = _check_time(report, "calendar", (), f"machine {mc.id} window end", e) and ok
            if not ok:
                continue
            if b >= e:
                report.append(Violation("calendar", (), f"machine {mc.id} window [{b},{e}] is empty or reversed"))
            if prev_end is not None and b <= prev_end:
                report.append(Violation("calendar", (), f"machine {mc.id} windows touch or overlap at {b} (previous end {prev_end})"))
            prev_end = e

        report += mc.setup.violations(mc.id, inst.eligible_ops[mc.id])

    return report


# ---------------------------------------------------------------------------
# Topological order
# ---------------------------------------------------------------------------


def topological_order(inst: Instance) -> list[int]:
    """Operation ids, every arc tail before its head, lowest id first among ready ops."""
    indegree = {op.id: 0 for op in inst.operations}
    succ: dict[int, list[int]] = {op.id: [] for op in inst.operations}
    for i, j in inst.arcs:
        if i in indegree and j in indegree and i != j:
            indegree[j] += 1
            succ[i].append(j)

    ready = [i for i, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, j)

    if len(order) != len(indegree):
        # walk predecessor links among the leftover nodes until one repeats
        pred_in_stuck: dict[int, list[int]] = {i: [] for i, d in indegree.items() if d > 0}
        for i, j in inst.arcs:
            if j in pred_in_stuck and i in pred_in_stuck:
                pred_in_stuck[j].append(i)
        node = min(pred_in_stuck)
        walk: dict[int, int] = {}  # node -> its position along the walk
        while node not in walk:
            walk[node] = len(walk)
            node = min(pred_in_stuck[node])
        cycle = list(walk)[walk[node]:] + [node]
        raise CycleError(list(reversed(cycle)))
    return order
