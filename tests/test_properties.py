"""Property tests on drawn instances; skipped when hypothesis is not installed.

Examples are derandomized and no example database is kept, so every run
draws the same instances.
"""

import json
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from flexshop.generator import generate, params_for_class
from flexshop.jsonio import dumps_instance, dumps_result, loads_instance, schedule_from_dict
from flexshop.milp import build_model, emit_lp, evaluate_schedule
from flexshop.model import Instance, SetupTable
from flexshop.solvers import greedy_result, solve_greedy
from flexshop.timing import DecodeInfeasible

from lputil import parse_lp
from oracles import listed_violations, rescan_greedy
from test_solvers import reversed_ids

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


def tabled(inst: Instance) -> Instance:
    """`inst` with each machine's setup rule written out as the explicit table it implies."""
    machines = []
    for mc in inst.machines:
        here = [inst.ops_by_id[i] for i in inst.eligible_ops[mc.id]]
        table = SetupTable({a.id: mc.setup.first(a) for a in here},
                           {(a.id, b.id): mc.setup.between(a, b) for a in here for b in here if a is not b})
        machines.append(replace(mc, setup=table))
    return replace(inst, machines=tuple(machines))


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
