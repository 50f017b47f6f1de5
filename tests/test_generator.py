import hashlib

import pytest

from flexshop.generator import GenParams, gen_job_dag, generate, params_for_class
from flexshop.jsonio import dumps_instance
from flexshop.model import SetupRule, validate_instance
from flexshop.rng import Rng

from oracles import with_full_overlap


def _ceil_div(a, b):
    return -(-a // b)


def from_class(name, k, seed):
    p = params_for_class(name, k)
    return generate(GenParams(p.n, p.o_min, p.o_max, p.m_min, p.m_max, p.q, seed=seed))


def test_class_presets():
    cases = {
        ("small", 1): (2, 2, 4, 2, 4, 4),
        ("small", 30): (4, 2, 5, 2, 5, 4),
        ("medium", 1): (5, 6, 8, 6, 8, 8),
        ("medium", 20): (10, 6, 12, 6, 20, 8),
        ("large", 1): (13, 5, 7, 10, 11, 8),
        ("large", 50): (106, 5, 13, 19, 55, 8),
        ("large", 100): (200, 5, 20, 29, 100, 8),
    }
    for (name, k), want in cases.items():
        p = params_for_class(name, k)
        assert (p.n, p.o_min, p.o_max, p.m_min, p.m_max, p.q) == want, (name, k)


def test_class_preset_errors():
    with pytest.raises(ValueError, match="unknown instance class"):
        params_for_class("tiny", 1)
    with pytest.raises(ValueError, match="at least|>= 1"):
        params_for_class("small", 0)


def test_params_validate():
    with pytest.raises(ValueError):
        GenParams(n=0, o_min=1, o_max=2, m_min=1, m_max=2, q=1).validate()
    with pytest.raises(ValueError):
        GenParams(n=1, o_min=3, o_max=2, m_min=1, m_max=2, q=1).validate()
    GenParams(n=1, o_min=1, o_max=1, m_min=1, m_max=1, q=1).validate()


def test_params_validate_bounds_the_size_before_any_draw():
    # n * o_max * m_max: large 100 is 200 * 20 * 100 = 400,000, a tenth of the bound
    for name, k in (("small", 30), ("medium", 40), ("large", 100), ("large", 200)):
        params_for_class(name, k).validate()
    for params in (params_for_class("large", 250), params_for_class("small", 10**12),
                   GenParams(n=4_000_001, o_min=1, o_max=1, m_min=1, m_max=1, q=1)):
        with pytest.raises(ValueError, match="above the generator's bound of 4,000,000"):
            generate(params)


def test_generation_is_deterministic():
    params = GenParams(n=3, o_min=2, o_max=5, m_min=2, m_max=4, q=3, seed=77)
    assert dumps_instance(generate(params)) == dumps_instance(generate(params))
    shifted = GenParams(n=3, o_min=2, o_max=5, m_min=2, m_max=4, q=3, seed=78)
    assert dumps_instance(generate(params)) != dumps_instance(generate(shifted))


def test_class_tables_at_their_own_seeds_give_pinned_bytes():
    # one sha256 over every small and medium class instance and four large ones, each at seed = k: the solve
    # digests pin only three generated instances, so a draw that moves in any other one fails only here
    digest = hashlib.sha256()
    for name, ks in (("small", range(1, 31)), ("medium", range(1, 21)), ("large", (1, 25, 50, 100))):
        for k in ks:
            digest.update(dumps_instance(from_class(name, k, k)).encode())
    assert digest.hexdigest() == "edb6e208c27559c0664694f50916e747a582c4196f2d7be3196d32667be447c7"


def test_generated_instances_validate_clean():
    combos = [("small", 5, 1), ("small", 15, 2), ("small", 30, 3),
              ("medium", 1, 1), ("medium", 20, 1), ("large", 1, 1), ("large", 100, 100)]
    for name, k, seed in combos:
        inst = from_class(name, k, seed)
        assert validate_instance(inst) == [], (name, k, seed)


def test_job_dag_shapes():
    rng = Rng(5150)
    for _ in range(200):
        dag = gen_job_dag(rng, 6, 12)
        assert 6 <= dag.count <= 12
        flat = [v for layer in dag.layers for v in layer]
        assert flat == list(range(1, dag.count + 1))
        assert all(1 <= len(layer) <= 4 for layer in dag.layers)

        layer_of = {v: t for t, layer in enumerate(dag.layers) for v in layer}
        assert len(dag.arcs) == len(set(dag.arcs))
        outgoing = {v: 0 for v in flat}
        for v, w in dag.arcs:
            assert layer_of[w] == layer_of[v] + 1
            outgoing[v] += 1
        for t, layer in enumerate(dag.layers[:-1]):
            for v in layer:
                assert outgoing[v] >= 1, f"layer {t} op {v} has no successor"


def test_operation_fields_in_range():
    inst = from_class("medium", 20, 1)
    m = inst.num_machines
    lo, hi = _ceil_div(3 * m, 10), _ceil_div(7 * m, 10)
    for op in inst.operations:
        if op.fixed is None:
            assert lo <= len(op.eligible) <= hi
            pmin, pmax = min(op.eligible.values()), max(op.eligible.values())
            assert 1 <= pmin and pmax <= min(3 * pmin, 99)
        assert op.theta_hundredths == 100 or 50 <= op.theta_hundredths <= 99
        if op.theta_hundredths < 100:
            assert inst.successors[op.id], "reduced overlap on an op with no successor"
        assert op.release == 0 or 1 <= op.release <= 99
        assert 1 <= op.size <= 10 and 1 <= op.color <= 4 and 1 <= op.varnish <= 6


def test_machines_carry_setup_rules():
    inst = from_class("small", 20, 5)
    for mc in inst.machines:
        rule = mc.setup
        assert isinstance(rule, SetupRule)
        assert all(2 <= v <= 6 for v in (rule.st_smaller, rule.st_larger, rule.ct, rule.vt))


def test_window_pacing():
    # pacing is derived from pre-pinning loads, so stick to seeds without pins
    for seed in (1, 2, 3, 4, 5):
        inst = from_class("small", 20, seed)
        assert all(op.fixed is None for op in inst.operations)
        for mc in inst.machines:
            q_k = len(mc.windows)
            assert 1 <= q_k <= 4
            loads = [op.eligible[mc.id] for op in inst.operations if mc.id in op.eligible]
            gap = 1 + _ceil_div(sum(loads), len(loads) * q_k) if loads else 1
            prev_end = 0
            for ell, (b, e) in enumerate(mc.windows):
                assert b == (gap if ell == 0 else prev_end + gap)
                width = e - b
                assert _ceil_div(gap, 10) + 1 <= width <= _ceil_div(gap, 2) + 1
                prev_end = e


def test_pinned_operations_across_seeds():
    pinned_total = 0
    # in large 28 seed 3, op 303 draws a machine that op 166 already pins
    for inst in [*(from_class("medium", 10, seed) for seed in range(1, 61)), from_class("large", 28, 3)]:
        machines_used = set()
        for op in inst.operations:
            if op.fixed is None:
                continue
            pinned_total += 1
            k, start = op.fixed
            assert op.eligible.keys() == {k}
            assert inst.predecessors[op.id] == (), "only chain-starting ops may be pinned"
            assert k not in machines_used
            machines_used.add(k)
            assert start >= 20
            first_begin = inst.machines_by_id[k].windows[0][0]
            assert start + op.eligible[k] <= first_begin
    assert pinned_total >= 1


def test_pinned_example_frozen():
    inst = from_class("medium", 10, 2)
    op = inst.ops_by_id[3]
    assert op.fixed == (2, 20)
    assert op.eligible == {2: 4}
    assert inst.machines_by_id[2].windows[0] == (24, 33)


def test_with_full_overlap():
    inst = from_class("medium", 20, 1)
    assert any(op.theta_hundredths < 100 for op in inst.operations)
    flat = with_full_overlap(inst)
    assert all(op.theta_hundredths == 100 for op in flat.operations)
    assert flat.arcs == inst.arcs and flat.machines == inst.machines
    for before, after in zip(inst.operations, flat.operations):
        assert (before.id, before.eligible, before.release, before.fixed) == \
               (after.id, after.eligible, after.release, after.fixed)
