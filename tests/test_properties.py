"""Property tests on drawn instances; skipped when hypothesis is not installed.

Examples are derandomized and no example database is kept, so every run
draws the same instances.
"""

import json
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from flexshop.generator import GenParams, generate, params_for_class
from flexshop.jsonio import dumps_instance, dumps_result, loads_instance, schedule_from_dict, schedule_to_dict
from flexshop.milp import build_model, emit_lp, evaluate_schedule
from flexshop.model import Instance, Schedule, SetupTable, makespan, validate_instance
from flexshop.solvers import _Bounder, _search, greedy_result, solve_exact, solve_greedy
from flexshop.timing import DecodeInfeasible, PlacementEngine, check_schedule

from lputil import parse_lp
from oracles import brute_force, decode, freeze, listed_violations, rescan_greedy, tabled
from test_solvers import pinned_variant, reversed_ids

classes = st.one_of(st.tuples(st.just("small"), st.integers(1, 30)),
                    st.tuples(st.just("medium"), st.integers(1, 20)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cls_k=classes, seed=st.integers(1, 10**6))
def test_greedy_equals_a_rescan_on_drawn_instances(cls_k, seed):
    # the reversed copy flips every id tie-break in the heap's order
    name, k = cls_k
    inst = generate(replace(params_for_class(name, k), seed=seed))
    for case in (inst, reversed_ids(inst)):
        try:
            want, _ = rescan_greedy(case)
        except DecodeInfeasible:
            with pytest.raises(DecodeInfeasible):
                solve_greedy(case)
            continue
        assert solve_greedy(case) == want


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 30), seed=st.integers(1, 10**6), exact=st.booleans(), data=st.data())
def test_the_greedy_solves_every_frozen_prefix_of_a_schedule(k, seed, exact, data):
    # every operation a checker-clean schedule starts before t is pinned where it runs, so that
    # schedule stays feasible and the greedy must find one; past the makespan, it finds that one
    inst = generate(replace(params_for_class("small", k), seed=seed))
    sched = solve_exact(inst, node_limit=300).schedule if exact else solve_greedy(inst)
    assert check_schedule(inst, sched) == []
    mk = makespan(sched)
    assert freeze(inst, sched, 0) == inst
    for t in (data.draw(st.integers(1, mk)), mk + 1):
        frozen = freeze(inst, sched, t)
        assert validate_instance(frozen) == []
        got = solve_greedy(frozen)
        assert check_schedule(frozen, got) == []
    assert json.dumps(schedule_to_dict(got)) == json.dumps(schedule_to_dict(sched))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 30), seed=st.integers(1, 10**6))
def test_milp_rows_read_back_and_the_greedy_schedule_meets_them(k, seed):
    # the row families on instances the LP pins do not reach, through both setup forms
    inst = generate(replace(params_for_class("small", k), seed=seed))
    model = build_model(inst)
    text = emit_lp(model)
    assert parse_lp(text).constraints == tuple(model.constraints)
    declared = (*model.binaries, *model.continuous)  # each variable a row names, declared exactly once
    assert len(set(declared)) == len(declared)
    assert {var for _, terms, _, _ in model.constraints for _, var in terms} <= set(declared)
    assert emit_lp(build_model(tabled(inst))) == text
    sched = solve_greedy(inst)
    assert evaluate_schedule(inst, sched) == listed_violations(inst, sched) == []


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cls_k=classes, seed=st.integers(1, 10**6))
def test_instances_and_greedy_results_round_trip_through_json(cls_k, seed):
    # instance_to_dict sorts the arcs: the bytes round-trip, the dataclass does up to arc order
    name, k = cls_k
    inst = generate(replace(params_for_class(name, k), seed=seed))
    for case in (inst, tabled(inst)):
        text = dumps_instance(case)
        loaded = loads_instance(text)
        assert dumps_instance(loaded) == text
        assert loaded == replace(case, arcs=tuple(sorted(case.arcs)))
        result = greedy_result(case)
        assert schedule_from_dict(json.loads(dumps_result(result))["schedule"]) == result.schedule
        assert result.lower_bound == _Bounder(case).bound


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 30), seed=st.integers(1, 10**6), data=st.data())
def test_a_mutated_greedy_schedule_is_reported_not_raised(k, seed, data):
    # a small instance has at least two machines, so every listing has another machine to move to
    inst = generate(replace(params_for_class("small", k), seed=seed))
    sched = solve_greedy(inst)
    seqs = {mc: list(seq) for mc, seq in sched.sequences.items()}
    mc, pos = data.draw(st.sampled_from([(mc, pos) for mc, seq in sorted(seqs.items()) for pos in range(len(seq))]))
    i = seqs[mc][pos]
    other = data.draw(st.sampled_from([m for m in range(1, inst.num_machines + 1) if m != mc]))
    there = seqs.get(other, [])
    at = data.draw(st.integers(0, len(there)))
    mutants = (
        Schedule(ops=sched.ops, sequences={**seqs, mc: seqs[mc][:pos + 1] + seqs[mc][pos:]}),  # i twice in a row
        Schedule(ops=sched.ops, sequences={**seqs, mc: seqs[mc][:pos] + seqs[mc][pos + 1:],
                                           other: there[:at] + [i] + there[at:]}),  # i listed on another machine
        Schedule(ops={j: so for j, so in sched.ops.items() if j != i}, sequences=sched.sequences),  # i dropped
    )
    for case in (inst, tabled(inst)):
        for mutant in mutants:
            assert check_schedule(case, mutant) != []
            assert isinstance(evaluate_schedule(case, mutant), list)


@st.composite
def tiny_instances(draw) -> Instance:
    """At most 6 operations on at most 3 machines; some with a pin, which may make them infeasible."""
    params = GenParams(n=draw(st.integers(1, 2)), o_min=draw(st.integers(1, 3)), o_max=3, m_min=1,
                       m_max=draw(st.integers(1, 3)), q=draw(st.integers(1, 2)), seed=draw(st.integers(1, 10**6)))
    inst = generate(params)
    if draw(st.integers(0, 3)) == 0:
        pinned = pinned_variant(inst, draw(st.integers(0, 40)))
        if not validate_instance(pinned):
            inst = pinned
    return inst


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(inst=tiny_instances(), data=st.data())
def test_a_drawn_structure_decodes_to_a_checked_schedule_or_raises(inst, data):
    assignment = {op.id: data.draw(st.sampled_from(sorted(op.eligible))) for op in inst.operations}
    sequences = {mc.id: data.draw(st.permutations(sorted(i for i, k in assignment.items() if k == mc.id)))
                 for mc in inst.machines}
    try:
        sched = decode(inst, assignment, sequences)
    except DecodeInfeasible:
        return
    assert check_schedule(inst, sched) == []


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 30), seed=st.integers(1, 10**6))
def test_exact_at_a_node_limit_never_reports_worse_than_the_greedy(k, seed):
    inst = generate(replace(params_for_class("small", k), seed=seed))
    res = solve_exact(inst, node_limit=300)
    if res.makespan is not None:
        assert res.lower_bound <= res.makespan
    try:
        greedy = solve_greedy(inst)
    except DecodeInfeasible:
        return
    assert res.makespan <= makespan(greedy)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(inst=tiny_instances())
def test_exact_equals_brute_force_on_tiny_instances(inst):
    bf, ex = brute_force(inst), solve_exact(inst)
    assert (ex.status, ex.makespan) == (bf.status, bf.makespan)


def best_completion(inst: Instance, engine: PlacementEngine) -> int | None:
    """The least makespan over every way to finish `engine`'s placement by appends, None if there is none."""
    if len(engine.placed) == len(inst.operations):
        return max((rec.completion for rec in engine.placed.values()), default=0)
    best = None
    for i in sorted(engine.ready):
        for k in sorted(inst.ops_by_id[i].eligible):
            try:
                rec = engine.placement(i, k, engine.floors(i, k))
            except DecodeInfeasible:
                continue
            engine.commit(i, rec)
            mk = best_completion(inst, engine)
            engine.undo()
            if mk is not None and (best is None or mk < best):
                best = mk
    return best


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(inst=tiny_instances(), data=st.data())
def test_the_bound_never_exceeds_the_best_completion(inst, data):
    bounder = _Bounder(inst)
    optimum = brute_force(inst).makespan
    if optimum is not None:
        assert bounder.bound <= optimum
    # a random feasible prefix, replayed in a second engine that the exhaustive search may walk;
    # at most 4 operations stay unplaced, to keep that search small
    replay = PlacementEngine(inst)
    lb = bounder.bound
    for _ in range(data.draw(st.integers(max(1, len(inst.operations) - 4), len(inst.operations)))):
        appends = []
        for i in sorted(bounder.ready):
            for k in sorted(inst.ops_by_id[i].eligible):
                try:
                    appends.append((i, bounder.placement(i, k, bounder.floors(i, k))))
                except DecodeInfeasible:
                    pass
        if not appends:
            break
        i, rec = data.draw(st.sampled_from(appends))
        bounder.commit(i, rec)
        lb = bounder.bound
        replay.commit(i, rec)
    best = best_completion(inst, replay)
    if best is not None:
        assert lb <= best


@st.composite
def pinned_overlapping_instances(draw) -> Instance:
    """A small instance, windows on every machine, θ below 1 before each arc and a pin where one is valid."""
    inst = generate(replace(params_for_class("small", draw(st.integers(1, 30))), seed=draw(st.integers(1, 10**6))))
    has_succ = {i for i, _ in inst.arcs}
    inst = replace(inst, operations=tuple(replace(op, theta_hundredths=draw(st.integers(50, 99)))
                                          if op.id in has_succ else op for op in inst.operations))
    pinned = pinned_variant(inst, draw(st.integers(0, 60)))
    return inst if validate_instance(pinned) else pinned


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(inst=pinned_overlapping_instances(), data=st.data())
def test_the_pre_placement_bound_never_exceeds_the_push(inst, data):
    # after a random feasible prefix, every child's bound from its floors alone stays
    # at or below the bound after its commit
    bounder = _Bounder(inst)
    for _ in range(data.draw(st.integers(0, len(inst.operations) - 1))):
        appends = []
        for i in sorted(bounder.ready):
            for k in sorted(inst.ops_by_id[i].eligible):
                floors = bounder.floors(i, k)
                try:
                    rec = bounder.placement(i, k, floors)
                except DecodeInfeasible:
                    continue
                child_lb = bounder.child_bound(i, k, floors)
                bounder.commit(i, rec)
                assert child_lb <= bounder.bound, (i, k)
                bounder.undo()
                appends.append((i, rec))
        if not appends:
            break
        bounder.commit(*data.draw(st.sampled_from(appends)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(inst=pinned_overlapping_instances(), data=st.data())
def test_the_search_tables_only_cache_values(inst, data):
    # the bounder's partial lengths and the pair setups its floors memoize are copies: every value the
    # search reads is what a fresh computation gives, so it walks the tree the uncached reads walk
    inst = replace(inst, machines=tuple(table if data.draw(st.booleans()) else rule  # rule and table setups
                                        for rule, table in zip(inst.machines, tabled(inst).machines)))
    ops = inst.ops_by_id
    try:
        incumbent = solve_greedy(inst)
    except DecodeInfeasible:
        incumbent = None
    cached, plain = _Bounder(inst), _Bounder(inst)
    plain.pair_setups = None  # the engine's default: every setup read from the setup object
    partial = {op.id: {k: op.partial_units(k) for k in op.eligible} for op in inst.operations}
    assert cached.partial == partial
    floors = cached.floors

    def replayed(i, k):
        # a fresh engine committed to the same records, which memoizes nothing, reads the same floors
        fresh = PlacementEngine(inst)
        for j, rec in cached.placed.items():
            fresh.commit(j, rec)
        got = floors(i, k)
        assert got == fresh.floors(i, k), (i, k)
        return got

    cached.floors = replayed
    cap = data.draw(st.integers(1, 400))
    assert _search(cached, incumbent, cap, None) == _search(plain, incumbent, cap, None)
    assert cached.partial == partial and plain.pair_setups is None
    for (last, i, k), g in cached.pair_setups.items():
        assert g == inst.machines_by_id[k].setup.between(ops[last], ops[i]), (last, i, k)


pair_keys = st.one_of(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(0, 5),
                      st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hosts=st.sets(st.integers(1, 4)), data=st.data())
def test_the_pair_key_check_is_set_equality_with_every_ordered_host_pair(hosts, data):
    # the host pairs less a drawn few plus drawn extra keys: self-pair, non-host, non-tuple and
    # three-id keys, often as many as were dropped, so that the key count alone cannot tell
    everything = {(i, j) for i in hosts for j in hosts if i != j}
    dropped = data.draw(st.sets(st.sampled_from(sorted(everything)), max_size=2)) if everything else set()
    keys = everything - dropped | data.draw(st.sets(pair_keys, max_size=len(dropped) + 1))
    table = SetupTable(dict.fromkeys(hosts, 0), dict.fromkeys(keys, 0))
    flagged = any("pair-setup keys" in v.detail for v in table.violations(1, tuple(sorted(hosts))))
    assert flagged == (keys != everything)
