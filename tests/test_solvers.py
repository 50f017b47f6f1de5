import functools
import heapq
import itertools
import json
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

from flexshop.generator import GenParams, generate, params_for_class
from flexshop.jsonio import dumps_result
from flexshop.model import (CycleError, Instance, Machine, Operation, SetupRule, SetupTable, makespan,
                            validate_instance)
from flexshop.solvers import _Bounder, _search, solve_exact, solve_greedy
from flexshop.timing import DecodeInfeasible, PlacementEngine, check_schedule

from oracles import (brute_force, decode, freeze, full_pass_bound, plain_branch_and_bound, rescan_greedy,
                     with_full_overlap)
from test_timing import named_trail, serial_instance


def flexible_instance() -> Instance:
    # splitting the jobs across machines beats any single-machine order
    inst = Instance(
        num_machines=2,
        operations=(Operation(1, 1, {1: 5, 2: 9}), Operation(2, 2, {1: 4, 2: 9})),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 1, 2: 1}, {(1, 2): 2, (2, 1): 2})),
                  Machine(2, setup=SetupTable({1: 0, 2: 0}, {(1, 2): 0, (2, 1): 0}))))
    assert validate_instance(inst) == []
    return inst


def test_exact_proves_at_the_root_when_the_greedy_meets_the_bound():
    inst = Instance(num_machines=1, operations=(Operation(1, 1, {1: 5}),), arcs=(),
                    machines=(Machine(1, setup=SetupRule(0, 0, 0, 0)),))
    res = solve_exact(inst)
    assert (res.status, res.nodes) == ("optimal", 0)
    assert res.lower_bound == res.makespan == 5


def test_brute_force_chain():
    res = brute_force(serial_instance())
    assert res.status == "optimal"
    assert res.makespan == 12
    assert res.lower_bound == 12 and res.gap == 0.0
    # the reversed order deadlocks against the arc, so only one structure counts
    assert res.schedule.sequences == {1: (1, 2)}


def test_brute_force_prefers_splitting():
    res = brute_force(flexible_instance())
    assert res.makespan == 9
    assert {so.machine for so in res.schedule.ops.values()} == {1, 2}
    assert check_schedule(flexible_instance(), res.schedule) == []


def test_brute_force_single_op_picks_the_faster_machine():
    inst = Instance(
        num_machines=2,
        operations=(Operation(1, 1, {1: 5, 2: 9}),),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 1}, {})),
                  Machine(2, setup=SetupTable({1: 1}, {}))))
    assert validate_instance(inst) == []
    res = brute_force(inst)
    assert res.makespan == 6
    assert res.schedule.ops[1].machine == 1


def test_brute_force_runs_independent_ops_in_parallel():
    inst = Instance(
        num_machines=2,
        operations=(Operation(1, 1, {1: 5, 2: 5}), Operation(2, 2, {1: 5, 2: 5})),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 0, 2: 0}, {(1, 2): 0, (2, 1): 0})),
                  Machine(2, setup=SetupTable({1: 0, 2: 0}, {(1, 2): 0, (2, 1): 0}))))
    assert validate_instance(inst) == []
    res = brute_force(inst)
    assert res.makespan == 5
    assert {so.machine for so in res.schedule.ops.values()} == {1, 2}


def test_brute_force_chain_stacks_setups_on_one_machine():
    # first setup 1, processing 3, changeover 2, processing 4
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 3}), Operation(2, 1, {1: 4})),
        arcs=((1, 2),),
        machines=(Machine(1, setup=SetupTable({1: 1, 2: 1}, {(1, 2): 2, (2, 1): 2})),))
    assert validate_instance(inst) == []
    res = brute_force(inst)
    assert res.makespan == 1 + 3 + 2 + 4


def test_brute_force_release_shapes_the_order():
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 5}), Operation(2, 2, {1: 5}, release=50)),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 0, 2: 0}, {(1, 2): 0, (2, 1): 0})),))
    res = brute_force(inst)
    # waiting for op 2 costs nothing before 50; putting it first costs 5 after
    assert res.makespan == 55
    assert res.schedule.sequences == {1: (1, 2)}


def test_brute_force_is_deterministic():
    a = brute_force(flexible_instance())
    b = brute_force(flexible_instance())
    assert a.schedule == b.schedule
    assert (a.status, a.makespan, a.nodes) == (b.status, b.makespan, b.nodes)


def pinned_at_zero() -> Instance:
    # the mandatory first setup makes a start of 0 unreachable
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 5}, fixed=(1, 0)),),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 2}, {})),))
    assert validate_instance(inst) == []
    return inst


def test_infeasible_instance_agreement():
    bf = brute_force(pinned_at_zero())
    ex = solve_exact(pinned_at_zero())
    assert bf.status == ex.status == "infeasible"
    assert bf.schedule is None and ex.schedule is None
    assert bf.makespan is None and ex.makespan is None


def test_two_overlapping_pins_are_infeasible():
    # both fixed starts share one machine and the intervals [5,8) and [6,9)
    # collide, so no order works
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 3}, fixed=(1, 5)),
                    Operation(2, 2, {1: 3}, fixed=(1, 6))),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 0, 2: 0}, {(1, 2): 0, (2, 1): 0})),))
    assert validate_instance(inst) == []
    assert brute_force(inst).status == "infeasible"
    assert solve_exact(inst).status == "infeasible"


def test_exact_matches_brute_force_on_random_instances():
    agreements = 0
    for seed in range(101, 113):
        inst = generate(GenParams(n=2, o_min=2, o_max=3, m_min=1, m_max=2, q=1, seed=seed))
        bf = brute_force(inst)
        ex = solve_exact(inst)
        assert bf.status == ex.status, seed
        if bf.status == "optimal":
            assert bf.makespan == ex.makespan, seed
            assert check_schedule(inst, ex.schedule) == []
            greedy = solve_greedy(inst)
            assert check_schedule(inst, greedy) == []
            assert makespan(greedy) >= bf.makespan, seed
            agreements += 1
    assert agreements >= 8  # the bulk of these seeds must actually solve


def test_exact_is_deterministic():
    a = solve_exact(flexible_instance())
    b = solve_exact(flexible_instance())
    assert a.schedule == b.schedule and a.nodes == b.nodes
    assert a.status == "optimal" and a.makespan == 9


@pytest.mark.parametrize("time_limit", [0, -1.0])
def test_zero_time_limit_returns_before_the_greedy_incumbent(time_limit):
    # the time limit covers the greedy too, and it is read before the greedy's first commit
    res = solve_exact(flexible_instance(), time_limit=time_limit)
    assert (res.status, res.nodes) == ("limit", 0)
    assert res.schedule is None and res.makespan is None and res.gap is None
    assert res.lower_bound == 5       # root bound: the longest minimal processing time


def test_a_deadline_inside_the_greedy_stops_it_between_commits(monkeypatch):
    # the fake clock ticks once per reading: the solve reads it once at entry and
    # the greedy once before each commit, so a limit of 100.5 ticks allows 100 commits
    inst = generate(replace(params_for_class("large", 25), seed=7))
    ticks = itertools.count()
    monkeypatch.setattr("flexshop.solvers.perf_counter", lambda: next(ticks))
    commits = 0
    commit = PlacementEngine.commit

    def counted(self, i, rec):
        nonlocal commits
        commits += 1
        return commit(self, i, rec)

    monkeypatch.setattr(PlacementEngine, "commit", counted)
    res = solve_exact(inst, time_limit=100.5)
    assert commits == 100 < len(inst.operations)
    assert (res.status, res.nodes, res.schedule, res.makespan, res.gap) == ("limit", 0, None, None, None)
    assert res.lower_bound == _Bounder(inst).bound


def test_a_generous_time_limit_changes_nothing_at_a_node_limit():
    cases = [replace(params_for_class("small", 1), seed=seed) for seed in range(1, 13)]
    cases.append(replace(params_for_class("small", 15), seed=42))
    for params in cases:
        inst = generate(params)
        a = solve_exact(inst, node_limit=5_000)
        b = solve_exact(inst, time_limit=3600, node_limit=5_000)
        assert (a.status, a.nodes, a.lower_bound, a.schedule) == (b.status, b.nodes, b.lower_bound, b.schedule)
    assert a.status == "limit"  # small 15 seed 42 needs more nodes than that to prove


def test_exact_search_leaves_the_recursion_limit_alone():
    inst = generate(replace(params_for_class("large", 25), seed=7))
    assert len(inst.operations) == 444
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = solve_exact(inst, node_limit=2_000)
        assert (res.status, res.nodes) == ("limit", 2_000)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


def test_node_limit_is_reproducible():
    a = solve_exact(flexible_instance(), node_limit=3)
    b = solve_exact(flexible_instance(), node_limit=3)
    assert a.status == b.status == "limit"
    assert a.nodes == b.nodes == 3
    assert a.makespan == b.makespan
    assert a.schedule == b.schedule


def test_growing_node_budgets_never_worsen_the_incumbent():
    inst = generate(GenParams(n=2, o_min=2, o_max=3, m_min=1, m_max=2, q=1, seed=102))
    spans = []
    for limit in (1, 16, 64, None):
        res = solve_exact(inst, node_limit=limit)
        assert res.schedule is not None
        assert check_schedule(inst, res.schedule) == []
        spans.append(res.makespan)
    assert spans == sorted(spans, reverse=True)
    assert spans[0] > spans[-1]  # this seed starts from a loose greedy incumbent
    assert spans[-1] == brute_force(inst).makespan == 232


def pinned_variant(inst: Instance, start: int) -> Instance:
    """`inst` with its lowest-id source operation pinned to its last eligible machine."""
    i = min(op.id for op in inst.operations if not inst.predecessors[op.id])
    op = inst.ops_by_id[i]
    k = max(op.eligible)
    pinned = replace(op, eligible={k: op.eligible[k]}, fixed=(k, start))
    return replace(inst, operations=tuple(pinned if o.id == i else o for o in inst.operations))


def reversed_ids(inst: Instance) -> Instance:
    """`inst` with operation ids in reverse order, so every arc runs to a lower id."""
    top = max(op.id for op in inst.operations) + 1
    return replace(inst, operations=tuple(replace(op, id=top - op.id) for op in reversed(inst.operations)),
                   arcs=tuple((top - i, top - j) for i, j in inst.arcs))


def unreduced_cases() -> list[Instance]:
    """Small two-job instances, some with full overlap, a pin, or arcs running to lower ids."""
    cases = []
    for seed in range(1, 31):
        base = generate(GenParams(n=2, o_min=2, o_max=3, m_min=2, m_max=3, q=2, seed=seed))
        cases.append(base)
        if seed % 3 == 0:
            cases.append(with_full_overlap(base))
        if seed % 2 == 0:
            cases.append(pinned_variant(base, 20 + seed))
        if seed % 4 == 1:
            cases.append(reversed_ids(base))
    return cases


def two_pins_on_one_machine() -> Instance:
    """Two pins on machine 1, the later start on the lower id; free operations fit before, between and after."""
    rule = SetupRule(st_smaller=2, st_larger=3, ct=1, vt=1)
    return Instance(
        num_machines=2,
        operations=(Operation(1, 1, {1: 3}, fixed=(1, 30)), Operation(2, 1, {1: 4, 2: 9}),
                    Operation(3, 2, {1: 5}, fixed=(1, 10)), Operation(4, 2, {1: 6, 2: 6}),
                    Operation(5, 3, {1: 2, 2: 7})),
        arcs=((1, 2), (3, 4)),
        machines=(Machine(1, windows=((50, 55),), setup=rule), Machine(2, setup=rule)))


def frontier_direct_pushes() -> list[Instance]:
    """Two instances in which an operation that becomes ready is pushed directly on another machine."""
    rule = SetupRule(0, 0, 0, 0)
    # ahead of the cursor: when 1 commits, machine 2's cursor holds 3 (key 10),
    # and 2, which 1 made ready, sorts ahead of it there (key 1) and wins
    ahead = Instance(
        num_machines=2,
        operations=(Operation(1, 1, {1: 2}), Operation(2, 1, {1: 9, 2: 1}), Operation(3, 2, {2: 10})),
        arcs=((1, 2),), machines=(Machine(1, setup=rule), Machine(2, setup=rule)))
    # the cursor exhausted: 3 (key 2) was popped on machine 2 and completes only
    # at 22, after its release, so machine 2's cursor has run off its list when
    # 1 commits; 2, which 1 made ready, sorts after 3 there and wins
    exhausted = Instance(
        num_machines=2,
        operations=(Operation(1, 1, {1: 3}), Operation(2, 1, {2: 4}), Operation(3, 2, {2: 2}, release=20)),
        arcs=((1, 2),), machines=(Machine(1, setup=rule), Machine(2, setup=rule)))
    assert validate_instance(ahead) == validate_instance(exhausted) == []
    return [ahead, exhausted]


@functools.cache
def frozen_small_21() -> tuple[Instance, Instance]:
    """Small 21 seed 21 with every operation its 20,000-node exact schedule (makespan 268) starts before 67, then 134, pinned.

    Op 14 on machine 2 at [27, 51] completes in time for pin 2 at 65 there,
    but pin 2's setup of 11 after it, over [54, 65], overlaps the window
    (52, 57), so the greedy must refuse that pair.
    """
    inst = generate(replace(params_for_class("small", 21), seed=21))
    res = solve_exact(inst, node_limit=20000)
    assert (res.status, res.makespan) == ("limit", 268)
    return freeze(inst, res.schedule, 67), freeze(inst, res.schedule, 134)


def test_the_greedy_and_the_exact_search_solve_a_frozen_prefix():
    # the greedy must refuse a pair after which the machine's earliest unplaced pin's setup
    # would overlap a window, not only one that completes too late for it
    for frozen in frozen_small_21():
        assert validate_instance(frozen) == []
        assert check_schedule(frozen, solve_greedy(frozen)) == []
        res = solve_exact(frozen, node_limit=20000)
        assert (res.status, res.makespan) == ("limit", 268)
        assert check_schedule(frozen, res.schedule) == []


def test_greedy_equals_a_rescan_from_scratch():
    # the greedy places a pair only when its lower-bound key reaches the top of
    # the heap and keeps the answer until a commit moves that machine's tail;
    # placing every pair afresh at every step, with each machine's earliest pin
    # recomputed, must give the same schedule. On large 10 seed 7 some pairs
    # complete earlier after their machine's tail moves; on medium 9 seed 7 a
    # heap keyed by such stale completions commits a different pair
    cases = [*unreduced_cases(), pinned_at_zero(), two_pins_on_one_machine(), *frontier_direct_pushes()]
    cases += [generate(replace(params_for_class(name, k), seed=seed))
              for name, k, seed in (("small", 16, 17), ("medium", 10, 2), ("medium", 17, 1),
                                    ("medium", 9, 7), ("large", 10, 7))]
    cases.append(reversed_ids(cases[-1]))  # every id tie-break flipped
    cases += frozen_small_21()
    assert len(cases) == 75
    rejected = 0
    for inst in cases:
        try:
            want, n = rescan_greedy(inst)
        except DecodeInfeasible:
            with pytest.raises(DecodeInfeasible):
                solve_greedy(inst)
            continue
        assert solve_greedy(inst) == want
        rejected += n
    assert rejected > 0  # the pin check fires


def count_greedy_work(monkeypatch) -> dict[str, int]:
    """Count the placements made, the floors read and the heap entries flexshop.solvers pushes, in the returned dict."""
    counts = {"placements": 0, "floors": 0, "pushes": 0}
    place, read_floors = PlacementEngine.placement, PlacementEngine.floors

    def counted_placement(self, i, k, floors):
        counts["placements"] += 1
        return place(self, i, k, floors)

    def counted_floors(self, i, k):
        counts["floors"] += 1
        return read_floors(self, i, k)

    def counted_push(heap, entry):
        counts["pushes"] += 1
        heapq.heappush(heap, entry)

    monkeypatch.setattr(PlacementEngine, "placement", counted_placement)
    monkeypatch.setattr(PlacementEngine, "floors", counted_floors)
    monkeypatch.setattr("flexshop.solvers.heapq",
                        SimpleNamespace(heappush=counted_push, heappop=heapq.heappop, heapify=heapq.heapify))
    return counts


def test_greedy_places_only_pairs_that_can_win(monkeypatch):
    # a pair's floors are read only once its tail + p key reaches the top of
    # the heap, and it is placed only once its floors key does; re-placing
    # every ready pair on a machine after each commit to it made 19,603
    # placements on large 25, and placing each pair at its tail + p key made
    # 3,646, 9,759 and 54,338, the floor reads pinned here. Each machine
    # pushes one cursor entry at a time; re-pushing every ready pair on a
    # machine after each commit to it pushed 21,736, 79,184 and 387,994
    # entries. The exact (placements, floor reads, pushes) are pinned, so a
    # rewrite of the greedy that places a different set of pairs, or pushes
    # more, shows here
    counts = count_greedy_work(monkeypatch)
    seen = {}
    for k in (25, 50, 100):
        counts.update(placements=0, floors=0, pushes=0)
        solve_greedy(generate(replace(params_for_class("large", k), seed=7)))
        seen[k] = (counts["placements"], counts["floors"], counts["pushes"])
    assert seen == {25: (931, 3646, 9456), 50: (2260, 9759, 24808), 100: (7378, 54338, 128049)}


def one_machine(n: int) -> Instance:
    """`n` operations on one machine, no arcs, processing times spread over 1..1009, mixed sizes and colors."""
    return Instance(
        num_machines=1,
        operations=tuple(Operation(i, i, {1: 1 + i * 389 % 1009}, size=1 + i % 3, color=1 + i % 4)
                         for i in range(1, n + 1)),
        arcs=(), machines=(Machine(1, setup=SetupRule(2, 3, 1, 0)),))


def crowded_machine(n: int) -> Instance:
    """`one_machine(n)` with processing times crowded into 1..10, so that many tail + p keys tie."""
    inst = one_machine(n)
    return replace(inst, operations=tuple(replace(op, eligible={1: 1 + 7 * op.id % 10}) for op in inst.operations))


def test_greedy_pushes_linearly_in_its_placements_on_one_machine(monkeypatch):
    # each pop of the machine's cursor entry reads the pair's floors and
    # pushes two entries, the next cursor entry and the floors entry, each
    # placement pushes its answer and each commit resets the cursor; pushing
    # every ready operation at each commit pushed about n^2 / 2 entries, some
    # 5 million here. Without windows, releases, arcs or pins a floors key is
    # the completion, so each commit places one pair; keyed by tail + p the
    # greedy placed 13,378 pairs on one_machine(3200) and 109,370 on the
    # crowded machine, where its floor reads still grow quadratically
    assert solve_greedy(one_machine(200)) == rescan_greedy(one_machine(200))[0]
    assert solve_greedy(crowded_machine(200)) == rescan_greedy(crowded_machine(200))[0]
    counts = count_greedy_work(monkeypatch)
    for inst in (one_machine(3200), crowded_machine(1600)):
        n = len(inst.operations)
        assert validate_instance(inst) == []
        counts.update(placements=0, floors=0, pushes=0)
        assert solve_greedy(inst) is not None
        assert counts["placements"] == n
        assert counts["pushes"] <= 2 * counts["floors"] + counts["placements"] + n


def test_exact_returns_the_unreduced_incumbent():
    # skipping commuting appends must leave the incumbent byte-identical, and
    # the plain search prunes on a bound recomputed from scratch at each node
    cases = unreduced_cases()
    assert len(cases) >= 40
    assert sum(any(op.fixed for op in inst.operations) for inst in cases) >= 10
    assert sum(any(i > j for i, j in inst.arcs) for inst in cases) >= 5
    assert all(any(mc.windows for mc in inst.machines) for inst in cases)
    statuses = set()
    saved = 0
    for inst in cases:
        assert validate_instance(inst) == []
        status, schedule, plain_nodes = plain_branch_and_bound(inst)
        res = solve_exact(inst)
        assert (res.status, res.schedule) == (status, schedule)
        assert res.makespan == (None if schedule is None else makespan(schedule))
        assert res.nodes <= plain_nodes
        statuses.add(status)
        saved += plain_nodes - res.nodes
    assert statuses == {"optimal", "infeasible"}
    assert saved > 0


def walk_every_append(inst: Instance, node_limit: int) -> int:
    """Check the incremental bound against the full pass, and the pre-placement bound below it, at every append.

    Walks depth first; returns the nodes.
    """
    bounder = _Bounder(inst)
    assert bounder.bound == full_pass_bound(inst, bounder)
    nodes = 0

    def descend() -> None:
        nonlocal nodes
        for i in sorted(bounder.ready):
            for k in sorted(inst.ops_by_id[i].eligible):
                if nodes >= node_limit:
                    return
                floors = bounder.floors(i, k)
                try:
                    rec = bounder.placement(i, k, floors)
                except DecodeInfeasible:
                    continue
                before, child_lb = bounder.bound, bounder.child_bound(i, k, floors)
                nodes += 1
                bounder.commit(i, rec)
                assert child_lb <= bounder.bound == full_pass_bound(inst, bounder), (i, k)
                descend()
                bounder.undo()
                assert bounder.bound == before == full_pass_bound(inst, bounder), (i, k)

    descend()
    return nodes


def test_incremental_bound_equals_the_full_pass_at_every_node():
    nodes = sum(walk_every_append(inst, 400) for inst in unreduced_cases())
    for seed in range(1, 13):
        nodes += walk_every_append(generate(replace(params_for_class("small", 1), seed=seed)), 1_000)
    assert nodes > 25_000


def test_skipped_appends_never_drop_the_only_feasible_order():
    # op 3 follows op 1 and cannot finish before op 2's pin on machine 1, so the
    # one feasible schedule runs 2 then 3 there; reaching it by appending 2
    # before the lower-id op 1 on machine 2 is the order the search skips
    inst = Instance(
        num_machines=2,
        operations=(Operation(1, 1, {2: 4}),
                    Operation(2, 2, {1: 2}, fixed=(1, 3)),
                    Operation(3, 1, {1: 3})),
        arcs=((1, 3),),
        machines=(Machine(1, setup=SetupTable({2: 1, 3: 1}, {(2, 3): 1, (3, 2): 1})),
                  Machine(2, setup=SetupTable({1: 0}, {}))))
    assert validate_instance(inst) == []
    status, schedule, plain_nodes = plain_branch_and_bound(inst)
    res = solve_exact(inst)
    assert (res.status, res.schedule) == (status, schedule)
    assert res.status == "optimal" and res.makespan == brute_force(inst).makespan
    assert res.schedule.sequences == {1: (2, 3), 2: (1,)}
    assert check_schedule(inst, res.schedule) == []
    assert res.nodes < plain_nodes


# Proven optima of small k=1, generator seeds 1-12
PROOF_SET_OPTIMA = (187, 201, 178, 217, 199, 163, 101, 228, 212, 194, 166, 258)


def test_proof_set_needs_few_nodes():
    # machine-independent guard on the search: branching on every interleaving
    # of commuting appends took 796,789 nodes here
    nodes = 0
    for seed, optimum in enumerate(PROOF_SET_OPTIMA, start=1):
        res = solve_exact(generate(replace(params_for_class("small", 1), seed=seed)))
        assert (res.status, res.makespan) == ("optimal", optimum), seed
        nodes += res.nodes
    assert nodes < 60_000


def bounder_state(bounder: _Bounder) -> tuple:
    """A copy of every table of the bounder's placement and bound; `placed` keeps its commit order."""
    return (list(bounder.placed.items()), {k: list(seq) for k, seq in bounder.seqs.items()}, dict(bounder.tail),
            set(bounder.ready), dict(bounder.pred_left), dict(bounder.head), dict(bounder.owed),
            named_trail(bounder), list(bounder._frames), bounder.bound)


def test_the_search_leaves_the_bounder_where_it_started():
    # exhausted, stopped by its node cap, or below a committed prefix, the search
    # takes back every commit it made before it returns
    for seed, optimum in enumerate(PROOF_SET_OPTIMA, start=1):
        inst = generate(replace(params_for_class("small", 1), seed=seed))
        bounder = _Bounder(inst)

        def search(incumbent, cap=float("inf")):
            before = bounder_state(bounder)
            found = _search(bounder, incumbent, cap, None)
            assert bounder_state(bounder) == before, seed
            return found

        best = solve_exact(inst).schedule
        found, ub, _, exhausted = search(best)
        assert (found, ub, exhausted) == (best, optimum, True), seed
        found, ub, nodes, exhausted = search(None)
        assert (makespan(found), ub, exhausted) == (optimum, optimum, True), seed
        assert check_schedule(inst, found) == [], seed
        assert search(None, nodes // 2)[2:] == (nodes // 2, False), seed

        prefix = list(best.ops.items())[:len(best.ops) // 2]
        for i, rec in prefix:
            again = bounder.placement(i, rec.machine, bounder.floors(i, rec.machine))
            assert again == rec, (seed, i)
            bounder.commit(i, again)
        found, ub, _, exhausted = search(None)
        assert (makespan(found), ub, exhausted) == (optimum, optimum, True), seed
        assert list(found.ops.items())[:len(prefix)] == prefix, seed
        assert list(bounder.placed.items()) == prefix, seed


def test_the_search_tree_keeps_its_node_counts_and_budget_outcomes():
    # machine-independent pins of the tree the search walks: a change in its
    # per-node cost must leave every count, incumbent and bound where it was
    def small(k: int, seed: int) -> Instance:
        return generate(replace(params_for_class("small", k), seed=seed))

    assert sum(solve_exact(small(1, seed)).nodes for seed in range(1, 13)) == 37_560
    res = solve_exact(small(15, 42))
    assert (res.status, res.makespan, res.nodes) == ("optimal", 263, 40_318)
    budget = [solve_exact(small(15, seed), node_limit=100_000) for seed in (1, 2, 3)]
    assert [(r.status, r.makespan, r.lower_bound, r.nodes) for r in budget] == [
        ("limit", 434, 197, 100_000), ("limit", 244, 131, 100_000), ("limit", 276, 189, 100_000)]


def test_the_pre_placement_bound_keeps_its_push_counts(monkeypatch):
    # machine-independent pins of the commits the same tree makes: a child the
    # bound from its floors prunes is never committed. Bounding on the
    # machine's tail alone committed 14,632, 20,065 and 43,419/38,440/54,111;
    # the successor chain after the appended operation lowers them
    commits = 0
    commit = _Bounder.commit

    def counted(self, i, rec):
        nonlocal commits
        commits += 1
        commit(self, i, rec)

    monkeypatch.setattr(_Bounder, "commit", counted)

    def small(k: int, seed: int) -> Instance:
        return generate(replace(params_for_class("small", k), seed=seed))

    def commits_of(*solves: tuple[Instance, int | None]) -> int:
        nonlocal commits
        commits = 0
        for inst, limit in solves:
            solve_exact(inst, node_limit=limit)
        return commits

    assert commits_of(*((small(1, seed), None) for seed in range(1, 13))) == 13_062
    assert commits_of((small(15, 42), None)) == 14_172
    assert [commits_of((small(15, seed), 100_000)) for seed in (1, 2, 3)] == [36_900, 33_932, 40_388]


def test_greedy_chain():
    sched = solve_greedy(serial_instance())
    assert makespan(sched) == 12
    assert check_schedule(serial_instance(), sched) == []


def test_greedy_single_op_matches_brute_force():
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 4}),),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 3}, {})),))
    assert validate_instance(inst) == []
    assert solve_greedy(inst) == brute_force(inst).schedule


def test_greedy_defers_to_a_pinned_operation():
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 2}, fixed=(1, 10)), Operation(2, 2, {1: 11})),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 0, 2: 0}, {(1, 2): 0, (2, 1): 0})),))
    assert validate_instance(inst) == []
    sched = solve_greedy(inst)
    # op 2 alone would finish at 11, one unit past the pinned start, so the
    # machine waits for the pin instead
    assert sched.sequences == {1: (1, 2)}
    assert sched.ops[1].start == 10
    assert makespan(sched) == 23
    assert check_schedule(inst, sched) == []


def test_greedy_defers_to_a_later_pin_once_the_first_is_placed():
    # op 2 fits neither before op 1's pin at 0 nor, once op 1 is placed,
    # before op 3's pin at 10; it must wait behind both
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 1}, fixed=(1, 0)), Operation(2, 2, {1: 11}),
                    Operation(3, 3, {1: 2}, fixed=(1, 10))),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 0, 2: 0, 3: 0}, {(a, b): 0 for a in (1, 2, 3) for b in (1, 2, 3) if a != b})),))
    assert validate_instance(inst) == []
    sched = solve_greedy(inst)
    assert check_schedule(inst, sched) == []
    assert sched.sequences == {1: (1, 3, 2)}
    assert makespan(sched) == 23 == brute_force(inst).makespan


def test_a_precedence_cycle_stops_every_placement_loop():
    # unvalidated on purpose: 1 and 2 precede each other, 3 is free, so a loop
    # that ended on an empty ready set would return after placing 3 alone
    inst = Instance(
        num_machines=1,
        operations=tuple(Operation(i, i, {1: 2}) for i in (1, 2, 3)),
        arcs=((1, 2), (2, 1)),
        machines=(Machine(1, setup=SetupTable({1: 0, 2: 0, 3: 0}, {(a, b): 0 for a in (1, 2, 3) for b in (1, 2, 3) if a != b})),))
    with pytest.raises(DecodeInfeasible):
        solve_greedy(inst)
    with pytest.raises(CycleError):
        solve_exact(inst)
    with pytest.raises(DecodeInfeasible, match="deadlock"):
        decode(inst, {1: 1, 2: 1, 3: 1}, {1: [3, 1, 2]})


def test_greedy_raises_when_pins_block_everything():
    with pytest.raises(DecodeInfeasible, match="pinned|placed"):
        solve_greedy(pinned_at_zero())


def test_solve_result_serializes():
    res = brute_force(serial_instance())
    d = json.loads(dumps_result(res))
    assert d["status"] == "optimal" and d["makespan"] == 12
    assert d["schedule"]["sequences"] == {"1": [1, 2]}
