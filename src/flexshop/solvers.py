"""Exact search and a left-tight list heuristic.

Both grow schedules in a :class:`flexshop.timing.PlacementEngine`, appending
operations from its ready set, so a schedule either returns is by
construction the left-tight decoding of its decision structure and passes
the checker. :func:`solve_exact` and :func:`greedy_result` report through
one path into a :class:`flexshop.model.SolveResult`; :func:`solve_greedy`
returns the bare schedule, or None past its deadline.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from time import perf_counter

from .model import Instance, Schedule, ScheduledOp, SolveResult, brief, makespan, topological_order
from .timing import DecodeInfeasible, Floors, PlacementEngine

_INF = float("inf")


def _result(status: str, t0: float, nodes: int, schedule: Schedule | None = None,
            lower_bound: int | None = None) -> SolveResult:
    """A result timed from `t0`; makespan and gap follow from the schedule."""
    mk = None if schedule is None else makespan(schedule)
    gap = None if mk is None or lower_bound is None else (mk - lower_bound) / (1e-10 + mk)
    return SolveResult(status=status, makespan=mk, lower_bound=lower_bound, gap=gap, nodes=nodes,
                       wall_ms=int((perf_counter() - t0) * 1000), schedule=schedule)


# ---------------------------------------------------------------------------
# Shared lower bound
# ---------------------------------------------------------------------------


class _Bounder(PlacementEngine):
    """A partial placement that keeps a lower bound on its completions; `root` is the empty placement's.

    The bound is the largest of three independently valid parts: the largest
    placed completion; a head recursion through the precedence graph (an
    unplaced operation starts no earlier than its release and its
    predecessors' partial completions, placed ones exact, unplaced ones
    bounded by head plus their own minimum partial length, and completes no
    earlier than head plus its minimum processing time); and per machine the
    completion of its tail plus the processing still owed to it by unplaced
    operations eligible nowhere else.
    The bound is kept rather than recomputed: :meth:`push` commits and
    :meth:`pop` undoes the latest commit, so the placement changes through
    them only. A commit only ever raises heads, since a placed operation
    starts at or after its head, so the first two parts stay one running
    maximum that a push folds the raised values into. A push walks only the
    descendants of the placed operation whose head rises, and the third part
    reads the `tail` of each machine with single-machine operations. Every
    head a push overwrites goes on a trail, and a pop restores them.
    """

    def __init__(self, inst: Instance):
        super().__init__(inst)
        self.rank = {i: n for n, i in enumerate(topological_order(inst))}
        self.pmin = {op.id: min(op.eligible.values()) for op in inst.operations}
        # partial_units never falls as p grows, so a machine of least p gives the least partial length
        self.pbmin = {op.id: op.partial_units(min(op.eligible, key=op.eligible.get)) for op in inst.operations}
        self.solo: dict[int, int] = {}  # operation eligible on one machine only -> its processing time there
        self.owed: dict[int, int] = {}  # machine -> processing owed to it by unplaced solo operations
        for op in inst.operations:
            if len(op.eligible) == 1:
                [(k, p)] = op.eligible.items()
                self.solo[op.id] = p
                self.owed[k] = self.owed.get(k, 0) + p

        head: dict[int, int] = {}
        for i in self.rank:  # in topological order
            head[i] = max([self.ops[i].release, *(head[p] + self.pbmin[p] for p in self.preds[i])])
        self.head = head
        # the largest placed completion or unplaced head + pmin; nothing is placed yet
        self.reach = max((h + self.pmin[i] for i, h in head.items()), default=0)
        self._trail: list[tuple[int, int]] = []  # (operation, its head before a push raised it)
        self._frames: list[tuple[int, int, int]] = []  # per push: trail length, reach before, operation
        self.root = self.bound()

    def push(self, i: int, rec: ScheduledOp) -> int:
        """Commit the ready operation `i` at `rec`; returns the bound of the new placement."""
        head, pbmin, pmin, succs, rank, trail = self.head, self.pbmin, self.pmin, self.succs, self.rank, self._trail
        self.commit(i, rec)
        self._frames.append((len(trail), self.reach, i))
        if i in self.solo:
            self.owed[rec.machine] -= self.solo[i]

        reach = self.reach if self.reach > rec.completion else rec.completion
        j, out = i, rec.partial_completion  # out: the earliest start j allows its successors
        queue: list[tuple[int, int]] = []  # raised descendants by topological rank
        queued: set[int] = set()
        while True:
            for s in succs[j]:
                if out > head[s]:
                    trail.append((s, head[s]))
                    head[s] = out
                    if s not in queued:
                        queued.add(s)
                        heapq.heappush(queue, (rank[s], s))
            if not queue:
                break
            _, j = heapq.heappop(queue)  # every raise of j comes from a lower rank, so is in
            if head[j] + pmin[j] > reach:
                reach = head[j] + pmin[j]
            out = head[j] + pbmin[j]
        self.reach = reach
        return self.bound()

    def child_bound(self, i: int, k: int, floors: Floors) -> int:
        """From the `floors` of appending `i` to `k` alone, a bound at most what :meth:`push` would return.

        The placement completes no earlier than the start floor plus `i`'s
        processing time, nor before the completion floor, and `k` then owes
        what it owes now, less `i`'s processing if `i` is eligible on `k` only.
        """
        _, start_floor, completion_floor = floors
        c = start_floor + self.ops[i].eligible[k]
        return (c if c > completion_floor else completion_floor) + self.owed.get(k, 0) - self.solo.get(i, 0)

    def bound(self) -> int:
        """The bound of the current placement."""
        lb, tail = self.reach, self.tail
        for k, w in self.owed.items():
            if tail[k] + w > lb:
                lb = tail[k] + w
        return lb

    def pop(self) -> None:
        """Undo the latest push's commit."""
        mark, self.reach, i = self._frames.pop()
        head, trail = self.head, self._trail
        while len(trail) > mark:
            j, h = trail.pop()
            head[j] = h
        if i in self.solo:
            self.owed[self.placed[i].machine] += self.solo[i]
        self.undo(i)


# ---------------------------------------------------------------------------
# Depth-first branch and bound
# ---------------------------------------------------------------------------


def solve_exact(inst: Instance, time_limit: float | None = None,
                node_limit: int | None = None) -> SolveResult:
    """Branch over (ready operation, machine) appends, prune on bound.

    A node appends one operation whose graph predecessors are all placed to
    the end of one of its machines' current sequences; children are visited
    by ascending operation id, then ascending (processing time, machine id).
    Appends to different machines commute when neither operation precedes
    the other in the graph (a placement reads only its machine's tail and
    its predecessors), so after appending `i` to `k` a child `b < i` on
    another machine is skipped unless `i` precedes `b`: each partial schedule
    is reached only through its id-ascending append order, the first one this
    depth-first order visits anyway, and later visits could only tie the
    incumbent, never replace it. Skipped children are not nodes.
    The bound is kept incrementally (see :class:`_Bounder`): an append
    updates it along the appended operation's descendants only and an undo
    restores it from a trail, with no pass over every operation.
    One loop runs the search over a stack of frames, one per open node: its
    child iterator, over the ready set its commit left. A child is bounded
    before it is placed, from its floors alone (:meth:`_Bounder.child_bound`),
    and one that bound prunes still counts as a node, so the tree and its
    counts are those of pushing it; a pinned child, whose placement may raise
    (a child that raises is no node), is placed first. A child bounded below
    the incumbent pushes a frame unless it is a leaf; a frame out of children
    pops, and unless it was the root's the bounder undoes its node's commit.
    One budget, fixed at entry, covers the whole solve: a deadline
    `time_limit` seconds after the call, and a node cap. The greedy incumbent
    checks the deadline before each commit and gives up once it has passed.
    The search checks both before each candidate's placement, so a fixed
    node limit always explores the same tree regardless of wall time; a
    greedy incumbent that meets the root bound leaves it no frame to search.
    There is one return per status: "limit" with the best incumbent (none if
    the greedy gave up, and then 0 nodes) and the root bound; "infeasible"
    once an exhausted search holds no incumbent; otherwise "optimal", with
    the incumbent's makespan as its bound.
    """
    t0 = perf_counter()
    deadline = None if time_limit is None else t0 + time_limit
    cap = _INF if node_limit is None else node_limit
    n_ops, ops = len(inst.operations), inst.ops_by_id
    bounder = _Bounder(inst)

    try:
        incumbent = solve_greedy(inst, deadline)
    except DecodeInfeasible:
        incumbent = None
    ub: float = _INF if incumbent is None else makespan(incumbent)

    machine_order = {op.id: [k for k, p in sorted(op.eligible.items(), key=lambda kp: (kp[1], kp[0]))]
                     for op in inst.operations}

    def appends(ready: list[int], last: float, last_k: int | None):
        """The (operation, machine) children of the node that appended `last` to `last_k`, in visiting order."""
        for i in ready:
            commutes = i < last and last not in inst.predecessors[i]
            for k in machine_order[i]:
                if commutes and k != last_k:
                    continue  # reached through the id-ascending order instead
                yield i, k

    nodes = 0
    stack = [appends(sorted(bounder.ready), -_INF, None)] if ub > bounder.root else []
    while stack:
        for i, k in stack[-1]:
            if nodes >= cap or (deadline is not None and perf_counter() > deadline):
                return _result("limit", t0, nodes, incumbent, bounder.root)
            floors = bounder.floors(i, k)
            if ops[i].fixed is None and bounder.child_bound(i, k, floors) >= ub:
                nodes += 1  # the push would prune it; only a pin's placement can raise
                continue
            try:
                rec = bounder.placement(i, k, floors)
            except DecodeInfeasible:
                continue
            nodes += 1
            lb = bounder.push(i, rec)
            if lb < ub:
                if len(bounder.placed) < n_ops:
                    stack.append(appends(sorted(bounder.ready), i, k))
                    break
                ub = lb  # a leaf's bound is its makespan
                incumbent = bounder.schedule()
            bounder.pop()
        else:
            stack.pop()
            if stack:
                bounder.pop()

    if incumbent is None:
        return _result("infeasible", t0, nodes)
    return _result("optimal", t0, nodes, incumbent, ub)


# ---------------------------------------------------------------------------
# Greedy list heuristic
# ---------------------------------------------------------------------------


def solve_greedy(inst: Instance, deadline: float | None = None) -> Schedule | None:
    """Repeatedly commit the ready (operation, machine) pair finishing first.

    Ties break on the lower operation id, then machine id. A machine holding
    unplaced pinned operations accepts another operation only if it would
    complete in time for the setup of the earliest of them, the first of the
    machine's pins, sorted once by (start, op), that is not yet placed; when
    no candidate survives, raises DecodeInfeasible. Given a `deadline`, a
    :func:`time.perf_counter` reading, it reads the clock before each commit
    and returns None once the deadline has passed.
    Pairs wait in one heap of (key, op, machine, stamp, record or None) and
    are placed lazily. An entry's stamp is the length of the machine's
    sequence when it was pushed, its commit count, as the greedy never
    undoes; so a commit, the only event that moves a machine's tail or its
    earliest pin, makes the machine's older entries drop when popped. An entry
    holding None is keyed by a lower bound on the pair's completion, the
    machine's `tail` plus the processing time (a start follows the tail and
    its setup; windows only stretch the processing). Popped, it is placed,
    pin check included, and goes back keyed by its completion, or is dropped
    if the placement raises or the pin check rejects it. Each machine keeps
    its ready operations sorted by (processing time, op), the order of their
    keys under one stamp, and a cursor into that list: the heap holds one
    cursor entry per machine, the least bound entry it still owes, and
    popping it moves the cursor on and pushes the next one's. A commit takes
    the operation out of every list, moving on each cursor held there, and
    resets its machine's cursor. An operation that becomes ready joins the
    list of each of its machines, and is pushed directly where it sorts
    ahead of the cursor or the cursor is exhausted. No key exceeds its
    pair's completion, so the first answer popped is the smallest
    (completion, op, machine) over all live pairs, the pair a rescan of
    every pair would commit. Each (op, machine, stamp) has at most one entry
    at a time, so the record or None is never compared.
    """
    engine = PlacementEngine(inst)
    ops, placed, seqs, tail = engine.ops, engine.placed, engine.seqs, engine.tail
    n_ops = len(inst.operations)

    pins: dict[int, list[tuple[int, int]]] = {}  # machine -> every (pinned start, op) on it, ascending
    for k, start, i in sorted((*op.fixed, op.id) for op in inst.operations if op.fixed is not None):
        pins.setdefault(k, []).append((start, i))

    def candidate(i: int, k: int) -> ScheduledOp | None:
        """The placement appending `i` to `k`'s tail now, or None if it raises or blocks `k`'s earliest pin."""
        try:
            rec = engine.placement(i, k)
        except DecodeInfeasible:
            return None
        for start, pin in pins.get(k, ()):
            if pin not in placed:  # the earliest unplaced pin
                if pin != i and rec.completion + inst.setup_between(k, i, pin) > start:
                    return None
                break
        return rec

    front = {k: sorted((ops[i].eligible[k], i) for i in inst.eligible_ops[k] if i in engine.ready)
             for k in seqs}  # machine -> its ready eligible (p, op), ascending
    cursor = dict.fromkeys(seqs, 0)
    heap = [(f[0][0], f[0][1], k, 0, None) for k, f in front.items() if f]  # every tail is 0
    heapq.heapify(heap)

    def push_cursor(k: int, c: int) -> None:
        """Move `k`'s cursor to index `c` and push the bound entry of the operation there, if any."""
        cursor[k] = c
        if c < len(front[k]):
            p, j = front[k][c]
            heapq.heappush(heap, (tail[k] + p, j, k, len(seqs[k]), None))

    while len(placed) < n_ops:
        if deadline is not None and perf_counter() > deadline:
            return None
        while heap:
            _, i, k, n, rec = heapq.heappop(heap)
            if n != len(seqs[k]):
                continue
            if rec is None and cursor[k] < len(front[k]) and front[k][cursor[k]][1] == i:  # the cursor entry
                push_cursor(k, cursor[k] + 1)
            if i in placed:
                continue
            if rec is not None:
                break
            rec = candidate(i, k)
            if rec is not None:
                heapq.heappush(heap, (rec.completion, i, k, n, rec))
        else:
            stuck = sorted(op.id for op in inst.operations if op.id not in placed)
            raise DecodeInfeasible(
                f"no operation can be placed (pinned starts block every candidate) among {brief(stuck)}")
        engine.commit(i, rec)
        for kj, p in ops[i].eligible.items():  # `i` leaves every list, and `k`'s cursor starts over
            at = bisect_left(front[kj], (p, i))
            del front[kj][at]
            if kj == k or at == cursor[kj]:  # a reset, or `i` held the cursor: its entry is dead
                push_cursor(kj, 0 if kj == k else at)
            elif at < cursor[kj]:
                cursor[kj] -= 1
        for j in engine.succs[i]:
            if j in engine.ready:  # ready only now, since `i` was its unplaced predecessor
                for kj, p in ops[j].eligible.items():
                    at = bisect_left(front[kj], (p, j))
                    front[kj].insert(at, (p, j))
                    if at <= cursor[kj]:  # ahead of the cursor, or the cursor is exhausted
                        cursor[kj] += 1
                        heapq.heappush(heap, (tail[kj] + p, j, kj, len(seqs[kj]), None))
    return engine.schedule()


def greedy_result(inst: Instance) -> SolveResult:
    """:func:`solve_greedy` as a "feasible" result, with the root lower bound.

    Raises DecodeInfeasible when the greedy finds no schedule.
    """
    t0 = perf_counter()
    return _result("feasible", t0, 0, solve_greedy(inst), _Bounder(inst).root)
