"""The MILP solved by HiGHS agrees with the exact search; skipped when scipy is not installed."""

from dataclasses import replace

import pytest

pytest.importorskip("scipy")

from flexshop.generator import generate, params_for_class
from flexshop.milp import build_model
from flexshop.solvers import _Bounder, solve_exact

from highs import solve_model


@pytest.mark.parametrize("k", [7, 10, 2, 15])
def test_highs_proves_the_exact_optimum_and_the_root_bound_stays_below_it(k):
    # small k seed k: HiGHS proves each in 0.1-1.1 s on a 2-vCPU host; 20 s is the cap
    inst = generate(replace(params_for_class("small", k), seed=k))
    res = solve_model(build_model(inst), time_limit=20)
    assert res.status == 0, res.message
    optimum = round(res.fun)
    assert abs(res.fun - optimum) < 1e-6
    exact = solve_exact(inst)
    assert (exact.status, exact.makespan) == ("optimal", optimum)
    assert _Bounder(inst).root <= optimum
