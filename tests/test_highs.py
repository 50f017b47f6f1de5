"""The MILP solved by HiGHS agrees with the exact search; skipped when scipy is not installed."""

import functools
from dataclasses import replace

import pytest

pytest.importorskip("scipy")

from flexshop.generator import generate, params_for_class
from flexshop.milp import build_model, evaluate_schedule
from flexshop.model import makespan
from flexshop.solvers import _Bounder, solve_exact
from flexshop.timing import check_schedule

from highs import solve_model
from oracles import decode

KS = [7, 10, 2, 15]


@functools.cache
def solved(k):
    """Small k seed k, HiGHS's result on its model, and the result's value of every column by name."""
    # HiGHS proves each in 0.1-1.1 s on a 2-vCPU host; 20 s is the cap
    inst = generate(replace(params_for_class("small", k), seed=k))
    model = build_model(inst)
    res = solve_model(model, time_limit=20)
    return inst, res, dict(zip([*model.binaries, *model.continuous], res.x))


@pytest.mark.parametrize("k", KS)
def test_highs_proves_the_exact_optimum_and_the_root_bound_stays_below_it(k):
    inst, res, _ = solved(k)
    assert res.status == 0, res.message
    optimum = round(res.fun)
    assert abs(res.fun - optimum) < 1e-6
    exact = solve_exact(inst)
    assert (exact.status, exact.makespan) == ("optimal", optimum)
    assert _Bounder(inst).root <= optimum


@pytest.mark.parametrize("k", KS)
def test_the_highs_solution_decodes_to_a_checked_schedule_at_its_optimum(k):
    # assignment from the x_i_k at 1, each machine's order from its chain of yI_i_j_k at 1
    inst, res, value = solved(k)
    assert res.status == 0, res.message
    assignment = {op.id: m for op in inst.operations for m in op.eligible if round(value[f"x_{op.id}_{m}"])}
    assert sorted(assignment) == sorted(op.id for op in inst.operations)
    sequences = {}
    for mc in inst.machines:
        here = [i for i, m in assignment.items() if m == mc.id]
        after = {i: j for i in here for j in here if i != j and round(value[f"yI_{i}_{j}_{mc.id}"])}
        order = [i for i in here if i not in after.values()]
        assert len(order) == min(1, len(here)), (mc.id, order)
        while len(order) < len(here):
            order.append(after[order[-1]])
        assert order == sorted(here, key=lambda i: value[f"s_{i}"])
        sequences[mc.id] = order
    sched = decode(inst, assignment, sequences)
    assert check_schedule(inst, sched) == []
    assert evaluate_schedule(inst, sched) == []
    assert makespan(sched) == round(res.fun)
