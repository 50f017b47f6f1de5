"""Property tests on drawn instances; skipped when hypothesis is not installed.

Examples are derandomized and no example database is kept, so every run
draws the same instances.
"""

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from flexshop.generator import generate, params_for_class
from flexshop.solvers import solve_greedy
from flexshop.timing import DecodeInfeasible

from oracles import rescan_greedy
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
