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
from bisect import bisect_left, bisect_right, insort
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


def _root_bound(inst: Instance, order: list[int]) -> tuple[int, dict[int, int], dict[int, int], dict[int, int],
                                                          dict[int, int], dict[int, int]]:
    """The bound with nothing placed, and the per-operation tables it comes from, in one pass over `order`.

    `order` is the instance's topological order. Returns the bound, then per
    operation its least processing time (pmin), its least partial length
    (pbmin) and its head, then `solo`, each operation eligible on one machine
    only with its processing time there, and `owed`, per machine the
    processing its solo operations owe it. With every tail 0, the bound is
    the largest head + pmin or owed work.
    """
    ops, preds = inst.ops_by_id, inst.predecessors
    pmin, pbmin, head, solo, owed = {}, {}, {}, {}, {}
    bound = 0
    for i in order:  # a predecessor's entries come first
        op = ops[i]
        k = min(op.eligible, key=op.eligible.get)
        # partial_units never falls as p grows, so a machine of least p gives the least partial length
        pmin[i], pbmin[i] = op.eligible[k], op.partial_units(k)
        head[i] = max([op.release, *(head[p] + pbmin[p] for p in preds[i])])
        bound = max(bound, head[i] + pmin[i])
        if len(op.eligible) == 1:
            solo[i] = pmin[i]
            owed[k] = owed.get(k, 0) + pmin[i]
    return max([bound, *owed.values()]), pmin, pbmin, head, solo, owed


class _Bounder(PlacementEngine):
    """A partial placement that keeps a lower bound on its completions.

    The bound is the largest of three independently valid parts: the largest
    placed completion; a head recursion through the precedence graph (an
    unplaced operation starts no earlier than its release and its
    predecessors' partial completions, placed ones exact, unplaced ones
    bounded by head plus their own minimum partial length, and completes no
    earlier than head plus its minimum processing time); and per machine the
    completion of its tail plus the processing still owed to it by unplaced
    operations eligible nowhere else.
    `bound` is kept as one running maximum rather than recomputed:
    :meth:`commit` and :meth:`undo` extend the engine's, so the placement
    never changes without it. Along a branch no part ever falls. A commit
    only ever raises heads, since a placed operation starts at or after its
    head; and it raises its machine's tail by at least the operation's
    processing time while lowering what the machine owes by at most that
    much, leaving every other machine's tail + owed as it was. So a commit
    folds in only the values it raised: the placed completion plus what its
    machine still owes, and head + pmin of each descendant whose head rose,
    found by walking only those descendants. Every head or `owed` entry a
    commit changes goes on one trail as (table, key, value before), and an
    undo restores them and the bound.
    The same recursion, run backwards, gives each operation's Q, the least
    time from its start to the last completion among it and its descendants:
    Q_i = max(pmin_i, pbmin_i + the largest Q over i's successors). `chain`
    keeps that largest Q per operation, fixed at construction, for
    :meth:`child_bound`.
    The root bound and its tables (pmin, pbmin, head, `solo`, `owed`) come
    from :func:`_root_bound`, which :func:`greedy_result` calls alone.
    Construction adds what only the search reads, in one more pass over the
    topological order: `rank`, `machine_order`, and `partial`, each
    operation's partial length on each of its machines. It also sets the
    engine's `pair_setups` to a dict, so that a pair setup the search has
    read once is not computed again. Both only cache values: each entry is
    what :meth:`~flexshop.model.Operation.partial_units` or the machine's
    setup object gives, so the tree and its counts are those of reading them
    fresh. They cost memory in proportion to what the search reads: large
    100 seed 7 at 50,000 nodes holds 19,642 pair setups.
    """

    def __init__(self, inst: Instance):
        super().__init__(inst)
        order = topological_order(inst)
        self.bound, self.pmin, self.pbmin, self.head, self.solo, self.owed = _root_bound(inst, order)
        self.rank: dict[int, int] = {}  # operation -> its position in the topological order
        self.machine_order: dict[int, list[int]] = {}  # operation -> its eligible machines by (processing time, id)
        self.partial: dict[int, dict[int, int]] = {}  # operation -> machine -> its partial length there
        for n, i in enumerate(order):
            op = self.ops[i]
            self.rank[i] = n
            self.machine_order[i] = sorted(sorted(op.eligible), key=op.eligible.get)  # stable: ties by id
            # with θ = 1 the partial length is the processing time, so the eligible map serves as the row
            self.partial[i] = op.eligible if op.theta_hundredths == 100 else {
                k: op.partial_units(k) for k in op.eligible}
        self.pair_setups = {}  # sibling subtrees read the same pairs again
        q: dict[int, int] = {}
        self.chain: dict[int, int] = {}  # operation -> the largest Q over its successors, 0 without any
        for i in reversed(order):  # a successor's entries come first
            chain = max([q[s] for s in self.succs[i]], default=0)
            self.chain[i], q[i] = chain, max(self.pmin[i], self.pbmin[i] + chain)
        self._trail: list[tuple[dict[int, int], int, int]] = []  # (table, key, its value before a commit changed it)
        self._frames: list[tuple[int, int]] = []  # per commit: trail length and bound before it

    def commit(self, i: int, rec: ScheduledOp) -> None:
        """Commit the ready operation `i` at `rec` and keep the bound, trailing each head and `owed` entry it changes.

        A descendant is queued once per raise of its head. The queue pops by
        topological rank and every raise of an operation comes from a lower
        rank, so each pop of it follows all of its raises and reads its final
        head. A repeated pop folds in the bound already folded and raises no
        successor, whose head the first pop left at least as high.
        """
        head, pbmin, pmin, succs, rank, trail = self.head, self.pbmin, self.pmin, self.succs, self.rank, self._trail
        PlacementEngine.commit(self, i, rec)
        self._frames.append((len(trail), self.bound))
        k, owed = rec.machine, self.owed
        if i in self.solo:
            trail.append((owed, k, owed[k]))
            owed[k] -= self.solo[i]

        bound = rec.completion + owed.get(k, 0)  # the machine's new tail + what it owes
        if self.bound > bound:
            bound = self.bound
        j, out = i, rec.partial_completion  # out: the earliest start j allows its successors
        queue: list[tuple[int, int]] = []  # raised descendants by topological rank, one entry per raise
        while True:
            for s in succs[j]:
                if out > head[s]:
                    trail.append((head, s, head[s]))
                    head[s] = out
                    heapq.heappush(queue, (rank[s], s))
            if not queue:
                break
            _, j = heapq.heappop(queue)  # every raise of j comes from a lower rank, so is in
            if head[j] + pmin[j] > bound:
                bound = head[j] + pmin[j]
            out = head[j] + pbmin[j]
        self.bound = bound

    def child_bound(self, i: int, k: int, floors: Floors) -> int:
        """From the `floors` of appending `i` to `k` alone, a bound at most `bound` after that commit.

        The placement completes no earlier than the least completion the
        floors carry, and `k` then owes what it owes now, less `i`'s
        processing if `i` is eligible on `k` only. Nor can the chain after `i`
        end before the start floor plus `i`'s partial length on `k` plus the
        largest Q over its successors: the commit raises each successor's head
        to at least `i`'s partial completion. The partial length comes from
        the `partial` table, not from the operation.
        """
        _, start_floor, least_completion = floors
        lb = least_completion + self.owed.get(k, 0) - self.solo.get(i, 0)
        chain = start_floor + self.partial[i][k] + self.chain[i]
        return chain if chain > lb else lb

    def undo(self) -> None:
        """Undo the latest commit, restoring the heads, `owed` and the bound it changed."""
        mark, self.bound = self._frames.pop()
        trail = self._trail
        while len(trail) > mark:
            table, key, value = trail.pop()
            table[key] = value
        PlacementEngine.undo(self)


# ---------------------------------------------------------------------------
# Depth-first branch and bound
# ---------------------------------------------------------------------------


def solve_exact(inst: Instance, time_limit: float | None = None,
                node_limit: int | None = None) -> SolveResult:
    """Branch over (ready operation, machine) appends, prune on bound: the greedy incumbent, then :func:`_search`.

    One budget, fixed at entry, covers the whole solve: a deadline
    `time_limit` seconds after the call, and a node cap. The greedy incumbent
    checks the deadline before each commit and gives up once it has passed;
    the search checks both before each candidate's placement, so a fixed
    node limit always explores the same tree regardless of wall time.
    There is one return per status: "limit" with the best incumbent (none if
    the greedy gave up, and then 0 nodes) and the root bound; "infeasible"
    once an exhausted search holds no incumbent; otherwise "optimal", with
    the incumbent's makespan as its bound.
    """
    t0 = perf_counter()
    deadline = None if time_limit is None else t0 + time_limit
    bounder = _Bounder(inst)
    try:
        incumbent = solve_greedy(inst, deadline)
    except DecodeInfeasible:
        incumbent = None
    incumbent, ub, nodes, exhausted = _search(bounder, incumbent, _INF if node_limit is None else node_limit, deadline)
    if not exhausted:
        return _result("limit", t0, nodes, incumbent, bounder.bound)
    if incumbent is None:
        return _result("infeasible", t0, nodes)
    return _result("optimal", t0, nodes, incumbent, ub)


def _search(bounder: _Bounder, incumbent: Schedule | None, cap: float, deadline: float | None) -> tuple[Schedule | None, float, int, bool]:
    """Search every completion of the bounder's placement for one better than `incumbent`.

    Returns the best schedule found, or `incumbent` if none beats it; its
    makespan as the ub, infinite without one; the nodes; and whether the
    search was exhausted rather than stopped by the node `cap` or the
    `deadline`, a :func:`time.perf_counter` reading checked before each
    candidate's placement. On every return the bounder's own commits are
    undone, so it is back at the placement it was called with.
    A node appends one operation whose graph predecessors are all placed to
    the end of one of its machines' current sequences; children are visited
    by ascending operation id, then ascending (processing time, machine id).
    Appends to different machines commute when neither operation precedes
    the other in the graph (a placement reads only its machine's tail and
    its predecessors), so after appending `i` to `k` a child `b < i` on
    another machine is skipped unless `i` precedes `b`: each partial schedule
    is reached only through its id-ascending append order, the first one this
    depth-first order visits anyway, and later visits could only tie the
    incumbent, never replace it. Skipped children are not nodes. The first
    frame follows no append of its own, so it skips none.
    The bound is kept incrementally (see :class:`_Bounder`): an append
    folds into it what it raised, along the appended operation's descendants
    only, and an undo restores it from a trail, with no pass over every
    operation or machine. Each operation's machines are sorted once, by the
    bounder.
    One loop runs the search over a stack of frames, one per open node: its
    child iterator, over the ready set its commit left. A child is bounded
    before it is placed, from its floors alone (:meth:`_Bounder.child_bound`),
    and one that bound prunes still counts as a node, so the tree and its
    counts are those of committing it; a pinned child, whose placement may
    raise (a child that raises is no node), is placed first. A child bounded
    below the incumbent pushes a frame unless it is a leaf; a frame out of
    children pops, and unless it was the first the bounder undoes its node's
    commit. A placement whose bound already meets the incumbent's makespan
    leaves no frame to search. At a limit, each open frame but the first
    still holds its node's commit, and the bounder undoes each of them.
    """
    ub: float = _INF if incumbent is None else makespan(incumbent)

    preds, machine_order = bounder.preds, bounder.machine_order

    def appends(ready: list[int], last: float, last_k: int | None):
        """The (operation, machine) children of the node that appended `last` to `last_k`, in visiting order."""
        for i in ready:
            commutes = i < last and last not in preds[i]
            for k in machine_order[i]:
                if commutes and k != last_k:
                    continue  # reached through the id-ascending order instead
                yield i, k

    floors_of, child_bound, placement, commit, undo = (
        bounder.floors, bounder.child_bound, bounder.placement, bounder.commit, bounder.undo)
    ops = bounder.ops
    nodes = 0
    stack = [appends(sorted(bounder.ready), -_INF, None)] if ub > bounder.bound else []
    while stack:
        for i, k in stack[-1]:
            if nodes >= cap or (deadline is not None and perf_counter() > deadline):
                for _ in stack[1:]:
                    bounder.undo()
                return incumbent, ub, nodes, False
            floors = floors_of(i, k)
            if ops[i].fixed is None and child_bound(i, k, floors) >= ub:
                nodes += 1  # its commit would prune it; only a pin's placement can raise
                continue
            try:
                rec = placement(i, k, floors)
            except DecodeInfeasible:
                continue
            nodes += 1
            commit(i, rec)
            lb = bounder.bound
            if lb < ub:
                if bounder.ready:  # the bounder refused a cycle, so an unplaced operation leaves one ready
                    stack.append(appends(sorted(bounder.ready), i, k))
                    break
                ub = lb  # a leaf's bound is its makespan
                incumbent = bounder.schedule()
            undo()
        else:
            stack.pop()
            if stack:
                undo()
    return incumbent, ub, nodes, True


# ---------------------------------------------------------------------------
# Greedy list heuristic
# ---------------------------------------------------------------------------


def solve_greedy(inst: Instance, deadline: float | None = None) -> Schedule | None:
    """Repeatedly commit the ready (operation, machine) pair finishing first.

    Ties break on the lower operation id, then machine id. A machine holding
    unplaced pinned operations accepts another operation only if the earliest
    of them, by (start, op), could still be placed right after it: the pin's
    setup fits between the operation's completion and the pinned start and
    clears every window, and the start is legal
    (:meth:`~flexshop.timing.PlacementEngine.keeps_pin`); when no candidate
    survives, raises DecodeInfeasible. Given a `deadline`, a
    :func:`time.perf_counter` reading, it reads the clock before each commit
    and returns None once the deadline has passed.
    Pairs wait in one heap of (key, op, machine, stamp, held) and are placed
    lazily. An entry's stamp is the length of the machine's sequence when it
    was pushed, its commit count, as the greedy never undoes; so a commit,
    the only event that moves a machine's tail or its earliest pin, makes the
    machine's older entries drop when popped. What an entry holds makes it
    one of three kinds, each keyed by a lower bound on the pair's completion
    (a start follows the tail and its setup; windows only stretch the
    processing). A bound entry holds None and is keyed by the machine's
    `tail` plus the processing time; popped, it reads the pair's floors and
    goes back as a floors entry. A floors entry holds the pair's
    :meth:`~flexshop.timing.PlacementEngine.floors`, which hold under its
    stamp since a ready operation's predecessors are all placed, and is keyed
    by the least completion they carry, the larger of the start floor plus
    the processing time and the predecessors' latest completion; popped, it
    is placed from them, pin check included, and goes back as a record entry,
    or is dropped if the placement raises or the pin check rejects it. A
    record entry holds the placement and is keyed by its completion; popped,
    it is committed. Each machine keeps its ready operations sorted by
    (processing time, op), the order of their bound keys under one stamp, and
    a chain: the (p, op) element of that list whose bound entry is pending, or
    None once the list is spent. Popping the chain's entry pushes the element
    after it, found by value, so no change to the list moves a chain. A commit
    takes the operation out of every list; a chain left on it keeps that
    value, and its entry, keyed no higher than the elements after it, still
    pushes the next one. The commit's own machine starts its chain over from
    the front. An operation that becomes ready joins the list of each of its
    machines, and is pushed directly only where it sorts before the chain or
    the chain is spent; elsewhere the chain reaches it. No key exceeds its
    pair's completion, so the first answer popped is the smallest (completion,
    op, machine) over all live pairs, the pair a rescan of every pair would
    commit. Each (op, machine, stamp) has at most one entry at a time, as
    within a stamp a chain never moves back and a direct push happens only
    before the chain, so what the entries hold is never compared.
    """
    engine = PlacementEngine(inst)
    ops, placed, seqs, tail = engine.ops, engine.placed, engine.seqs, engine.tail

    front = {k: sorted((ops[i].eligible[k], i) for i in inst.eligible_ops[k] if i in engine.ready)
             for k in seqs}  # machine -> its ready eligible (p, op), ascending
    chain = {k: f[0] if f else None for k, f in front.items()}  # machine -> the (p, op) its pending bound entry is for
    heap = [(*c, k, 0, None) for k, c in chain.items() if c]  # every tail is 0
    heapq.heapify(heap)

    def push_chain(k: int, at: int) -> None:
        """Move `k`'s chain to the element at index `at` of its list and push its bound entry, or spend it past the end."""
        f = front[k]
        c = chain[k] = f[at] if at < len(f) else None
        if c:
            heapq.heappush(heap, (tail[k] + c[0], c[1], k, len(seqs[k]), None))

    while len(placed) < len(ops):
        if deadline is not None and perf_counter() > deadline:
            return None
        while heap:
            _, i, k, n, held = heapq.heappop(heap)
            if n != len(seqs[k]):
                continue
            if held is None and chain[k] and chain[k][1] == i:  # the chain entry: push the element after it
                push_chain(k, bisect_right(front[k], chain[k]))
            if i in placed:
                continue
            if held is None:  # a bound entry: key it again by the least completion its floors carry
                floors = engine.floors(i, k)
                heapq.heappush(heap, (floors[2], i, k, n, floors))
            elif isinstance(held, ScheduledOp):  # a record entry: the answer
                rec = held
                break
            else:  # a floors entry: place it, unless that raises or blocks `k`'s earliest unplaced pin
                try:
                    rec = engine.placement(i, k, held)
                except DecodeInfeasible:
                    continue
                if engine.keeps_pin(i, rec):
                    heapq.heappush(heap, (rec.completion, i, k, n, rec))
        else:
            stuck = sorted(op.id for op in inst.operations if op.id not in placed)
            raise DecodeInfeasible(
                f"no operation can be placed (pinned starts block every candidate) among {brief(stuck)}")
        engine.commit(i, rec)
        for kj, p in ops[i].eligible.items():  # `i` leaves every list; other chains keep their values
            del front[kj][bisect_left(front[kj], (p, i))]
        push_chain(k, 0)  # `k`'s stamp moved, so its chain starts over
        for j in engine.succs[i]:
            if j in engine.ready:  # ready only now, since `i` was its unplaced predecessor
                for kj, p in ops[j].eligible.items():
                    insort(front[kj], (p, j))
                    if chain[kj] is None or (p, j) < chain[kj]:  # before the chain, or the chain is spent
                        heapq.heappush(heap, (tail[kj] + p, j, kj, len(seqs[kj]), None))
    return engine.schedule()


def greedy_result(inst: Instance) -> SolveResult:
    """:func:`solve_greedy` as a "feasible" result, with the root lower bound.

    Raises DecodeInfeasible when the greedy finds no schedule.
    """
    t0 = perf_counter()
    return _result("feasible", t0, 0, solve_greedy(inst), _root_bound(inst, topological_order(inst))[0])
