"""The MILP solved by HiGHS agrees with the exact search; skipped when scipy is not installed.

:func:`sweep` runs the agreement check of the drawn instances over a wider
draw: ``cd tests && python -c 'from test_highs import sweep; sweep(40)'``.
"""

import functools
from dataclasses import replace

import pytest

pytest.importorskip("scipy")

from flexshop.generator import generate, params_for_class
from flexshop.milp import build_model, evaluate_schedule
from flexshop.model import Instance, Schedule, makespan, validate_instance
from flexshop.rng import Rng
from flexshop.solvers import _Bounder, solve_exact
from flexshop.timing import check_schedule

from highs import solve_model
from oracles import decode, tabled, with_full_overlap
from test_milp import late_release
from test_solvers import pinned_variant, reversed_ids

KS = [7, 10, 2, 15]
STATUS = {0: "optimal", 1: "limit", 2: "infeasible"}  # by scipy.optimize.milp's status code


@functools.cache
def solved(k):
    """Small k seed k, HiGHS's result on its model, and the result's value of every column by name."""
    # HiGHS proves each in 0.1-1.1 s on a 2-vCPU host; 20 s is the cap
    inst = generate(replace(params_for_class("small", k), seed=k))
    model = build_model(inst)
    res = solve_model(model, time_limit=20)
    return inst, res, dict(zip([*model.binaries, *model.continuous], res.x))


def decoded(inst: Instance, value: dict[str, float]) -> Schedule:
    """The schedule of the assignment and machine orders that HiGHS's column values name.

    The assignment comes from the x_i_k at 1, each machine's order from its
    chain of yI_i_j_k at 1, which must also order the starts s_i.
    """
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
    return decode(inst, assignment, sequences)


@pytest.mark.parametrize("k", KS)
def test_highs_proves_the_exact_optimum_and_the_root_bound_stays_below_it(k):
    inst, res, _ = solved(k)
    assert res.status == 0, res.message
    optimum = round(res.fun)
    assert abs(res.fun - optimum) < 1e-6
    exact = solve_exact(inst)
    assert (exact.status, exact.makespan) == ("optimal", optimum)
    assert _Bounder(inst).bound() <= optimum


@pytest.mark.parametrize("k", KS)
def test_the_highs_solution_decodes_to_a_checked_schedule_at_its_optimum(k):
    inst, res, value = solved(k)
    assert res.status == 0, res.message
    sched = decoded(inst, value)
    assert check_schedule(inst, sched) == []
    assert evaluate_schedule(inst, sched) == []
    assert makespan(sched) == round(res.fun)


def test_highs_proves_the_optimum_of_a_pin_and_a_late_release():
    # the drawn instances below keep releases under 100 and pins before the first window,
    # so none puts a release or a pin past the last window end, where m2 must count from it
    inst = late_release(pinned=True)
    res = solve_model(build_model(inst), time_limit=20)
    assert res.status == 0, res.message
    exact = solve_exact(inst)
    assert (exact.status, exact.makespan, round(res.fun)) == ("optimal", 1005, 1005)


def drawn(count: int, seed: int):
    """`count` labelled small instances, k in 1..6, each with its setups tabled, full overlap, a pin or reversed ids at random."""
    rng = Rng(seed)
    for _ in range(count):
        k, gen_seed = rng.uniform(1, 6), rng.uniform(1, 10**6)
        inst = generate(replace(params_for_class("small", k), seed=gen_seed))
        label = f"small {k} seed {gen_seed}"
        if rng.bernoulli(1, 2):
            inst, label = with_full_overlap(inst), label + ", full overlap"
        if rng.bernoulli(1, 2):
            start = rng.uniform(0, 60)
            pinned = pinned_variant(inst, start)
            if not validate_instance(pinned):
                inst, label = pinned, label + f", pinned at {start}"
        if rng.bernoulli(1, 2):
            inst, label = reversed_ids(inst), label + ", reversed ids"
        if rng.bernoulli(1, 2):  # last, so that the table holds the final ids and eligible sets
            inst, label = tabled(inst), label + ", tabled"
        assert validate_instance(inst) == [], label
        yield label, inst


def agree(label: str, inst: Instance, time_limit: float) -> str:
    """Check that HiGHS and the exact search agree on `inst`; returns HiGHS's status.

    Past its `time_limit` HiGHS reports "limit", and only its bounds are
    checked: its dual bound, if it has one, is at or below the exact optimum,
    and its incumbent, if it holds one, decodes to a checked schedule at or
    above it.
    """
    model = build_model(inst)
    res = solve_model(model, time_limit)
    status = STATUS[res.status]
    exact = solve_exact(inst)
    assert status in (exact.status, "limit"), (label, res.message, exact.status)
    if res.x is not None:
        sched = decoded(inst, dict(zip([*model.binaries, *model.continuous], res.x)))
        assert check_schedule(inst, sched) == [] == evaluate_schedule(inst, sched), label
        assert exact.status == "optimal" and exact.makespan <= makespan(sched) <= res.fun + 1e-6, label
    if exact.status == "optimal":
        assert _Bounder(inst).bound() <= exact.makespan, label
        assert res.mip_dual_bound is None or res.mip_dual_bound <= exact.makespan + 1e-6, label
        if status == "optimal":
            assert abs(res.fun - exact.makespan) < 1e-6, label
    return status


def sweep(count: int, seed: int = 2020, time_limit: float = 10) -> None:
    """Run :func:`agree` over `count` drawn instances, printing each label and HiGHS's status."""
    for label, inst in drawn(count, seed):
        print(f"{label}: {agree(label, inst, time_limit)}", flush=True)


def test_highs_and_the_exact_search_agree_on_drawn_instances():
    # the two encodings of the paper's rules, independent of each other, on instances
    # the fixed cases above do not reach; infeasible on both sides counts as agreement.
    # HiGHS proves each of these draws in at most 5 s on a 2-vCPU host; 20 s is the cap
    statuses = [agree(label, inst, 20) for label, inst in drawn(10, 33)]
    assert sorted(set(statuses)) == ["infeasible", "optimal"]
