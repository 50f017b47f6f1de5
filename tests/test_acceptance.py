"""Acceptance battery: one test per shipped claim, named by number.

Run `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion. Criterion 7 needs external artifacts (reference instance files
and a standalone MILP solver) and is skipped unless both are configured
through FLEXSHOP_REFERENCE_DIR and FLEXSHOP_MILP_SOLVER.
"""

import json
import os
import pathlib
import re
import shlex
import subprocess
from time import perf_counter

import pytest

from flexshop.cli import main
from flexshop.generator import GenParams, gen_job_dag, generate, params_for_class
from flexshop.jsonio import loads_instance, loads_schedule
from flexshop.milp import big_m_constants, evaluate_schedule
from flexshop.model import makespan
from flexshop.rng import Rng
from flexshop.solvers import solve_exact, solve_greedy
from flexshop.timing import DecodeInfeasible, PlacementEngine, check_schedule

from oracles import (brute_force, decode, iter_one_unit_left_shifts, oracle_completion, oracle_earliest,
                     start_legal, with_full_overlap)
from test_timing import completion_at, place_one, random_pred, times

TINY = [GenParams(n=2, o_min=2, o_max=3, m_min=1, m_max=2, q=1, seed=s)
        for s in range(1, 51)]

_c1_cache = None


def criterion1_runs():
    global _c1_cache
    if _c1_cache is None:
        t0 = perf_counter()
        runs = []
        for params in TINY:
            inst = generate(params)
            runs.append((params.seed, inst, brute_force(inst), solve_exact(inst)))
        _c1_cache = (runs, perf_counter() - t0)
    return _c1_cache


def test_criterion_1_exact_equals_brute_force_on_fifty_seeds():
    runs, elapsed = criterion1_runs()
    optimal = 0
    for seed, inst, bf, ex in runs:
        assert bf.status == ex.status, f"seed {seed}: {bf.status} vs {ex.status}"
        if bf.status == "optimal":
            assert bf.makespan == ex.makespan, f"seed {seed}"
            assert check_schedule(inst, ex.schedule) == []
            optimal += 1
    assert elapsed < 120, f"criterion 1 budget blown: {elapsed:.1f}s"
    print(f"criterion 1: {optimal} optimal + {len(runs) - optimal} infeasible "
          f"agree across {len(runs)} seeds in {elapsed:.1f}s")


def random_calendar(rng: Rng) -> tuple[tuple[int, int], ...]:
    windows = []
    end = 0
    for _ in range(rng.uniform(0, 3)):
        b = end + rng.uniform(1, 7)
        e = b + rng.uniform(1, 6)
        windows.append((b, e))
        end = e
    return tuple(windows)


def test_criterion_2_thousand_placement_queries_match_the_oracle():
    rng = Rng(77001)
    queries = []  # (calendar, ready, setup_len, proc, partial[, pred])
    for _ in range(950):
        cal = random_calendar(rng)
        proc = rng.uniform(1, 15)
        queries.append((cal, rng.uniform(0, 25), rng.uniform(0, 6), proc, rng.uniform(1, proc), random_pred(rng)))
    # boundary sweeps around a fixed window [4, 6] and a two-window calendar
    for d in range(1, 11):
        queries.append((((4, 6),), 6, 0, d, d))
        queries.append((((4, 6),), 4 - min(d, 4), 0, d, 1))
        queries.append((((4, 6),), 6, d, 2, 1))
        queries.append((((4, 6), (9, 12)), 3, d % 4, d, d))
        queries.append((((4, 6),), 3, 0, d + 1, d))
    assert len(queries) == 1000

    for q in queries:
        cal, proc = q[0], q[3]
        got = place_one(*q)
        assert times(got) == oracle_earliest(*q), q
        assert start_legal(cal, got.start)
        assert completion_at(cal, got.start, proc) == oracle_completion(cal, got.start, proc)

    # the named boundaries: a start exactly at a window end is legal,
    # a completion exactly at a window begin is legal
    assert place_one(((4, 6),), 6, 0, 2, 2).start == 6
    assert place_one(((4, 6),), 3, 0, 1, 1).completion == 4
    assert place_one(((4, 6),), 3, 0, 2, 2).completion == 7
    # a length-3 setup cannot straddle [4, 6]: first fit ends at 9
    assert place_one(((4, 6),), 6, 3, 2, 2).start == 9
    print("criterion 2: 1000 placement queries match the unit-step oracle")


def random_structure(inst, rng: Rng):
    """A decodable (assignment, sequences) pair drawn at random.

    Operations are appended in random ready order to random eligible
    machines through the real placement engine, so pinned operations are
    respected; a dead end restarts the draw.
    """
    for _ in range(100):
        engine = PlacementEngine(inst)
        dead = False
        while len(engine.placed) < len(inst.operations):
            ready = sorted(engine.ready)
            i = ready[rng.uniform(0, len(ready) - 1)]
            ks = sorted(inst.ops_by_id[i].eligible)
            k = ks[rng.uniform(0, len(ks) - 1)]
            try:
                rec = engine.placement(i, k, engine.floors(i, k))
            except DecodeInfeasible:
                rec = None
                for i2 in ready:
                    for k2 in sorted(inst.ops_by_id[i2].eligible):
                        try:
                            rec = engine.placement(i2, k2, engine.floors(i2, k2))
                            i, k = i2, k2
                            break
                        except DecodeInfeasible:
                            continue
                    if rec is not None:
                        break
                if rec is None:
                    dead = True
                    break
            engine.commit(i, rec)
        if not dead:
            return {i: rec.machine for i, rec in engine.placed.items()}, engine.seqs, engine.placed
    raise AssertionError("no decodable structure found in 100 draws")


def test_criterion_3_decoded_schedules_are_semi_active():
    rng = Rng(424242)
    schedules = 0
    shifts = 0
    for seed in range(1, 41):
        inst = generate(GenParams(n=2, o_min=2, o_max=4, m_min=2, m_max=3, q=2, seed=seed))
        for _ in range(5):
            assignment, seqs, placed = random_structure(inst, rng)
            sched = decode(inst, assignment, seqs)
            assert sched.ops == placed  # decode and the draw must agree exactly
            assert check_schedule(inst, sched) == []
            for i, variant in iter_one_unit_left_shifts(inst, sched):
                assert check_schedule(inst, variant), \
                    f"seed {seed}: op {i} could start one unit earlier"
                shifts += 1
            schedules += 1
    assert schedules == 200
    print(f"criterion 3: {schedules} decoded schedules, {shifts} left shifts all rejected")


def test_criterion_4_exact_optima_satisfy_every_model_row():
    runs, _ = criterion1_runs()
    checked = 0
    for seed, inst, _, ex in runs:
        if ex.status != "optimal":
            continue
        bad = evaluate_schedule(inst, ex.schedule)
        assert bad == [], f"seed {seed}: violated rows {bad}"
        checked += 1
    assert checked >= 40
    print(f"criterion 4: zero violated rows on {checked} exact optima")


def test_criterion_5_generator_presets_and_rates():
    p = params_for_class("large", 50)
    assert (p.n, p.m_max) == (106, 55)
    assert params_for_class("small", 30).n == 4
    assert params_for_class("medium", 20).m_max == 20

    rng = Rng(99)
    added = candidates = 0
    for _ in range(3000):
        dag = gen_job_dag(rng, 6, 12)
        mandatory = sum(len(layer) for layer in dag.layers[:-1])
        candidates += sum(len(a) * len(b) for a, b in zip(dag.layers, dag.layers[1:])) - mandatory
        added += len(dag.arcs) - mandatory
    assert candidates >= 10_000
    arc_rate = added / candidates
    assert abs(arc_rate - 0.85) <= 0.02, arc_rate

    ops = zero_release = with_succ = reduced_theta = 0
    for seed in range(1, 161):
        inst = generate(GenParams(n=10, o_min=6, o_max=12, m_min=6, m_max=20, q=8, seed=seed))
        for op in inst.operations:
            ops += 1
            zero_release += op.release == 0
            if inst.successors[op.id]:
                with_succ += 1
                reduced_theta += op.theta_hundredths < 100
    assert ops >= 10_000 and with_succ >= 10_000
    release_rate = zero_release / ops
    theta_rate = reduced_theta / with_succ
    assert abs(release_rate - 0.975) <= 0.005, release_rate
    assert abs(theta_rate - 0.10) <= 0.02, theta_rate
    print(f"criterion 5: arcs {arc_rate:.3f}, zero releases {release_rate:.4f}, "
          f"reduced theta {theta_rate:.3f} over {ops} operations")


def test_criterion_6_large_instance_pipeline_under_thirty_seconds(tmp_path):
    inst_path = tmp_path / "large50.json"
    result_path = tmp_path / "result.json"
    t0 = perf_counter()
    assert main(["gen", "large", "50", "--seed", "123", "--out", str(inst_path)]) == 0
    assert main(["solve", str(inst_path), "--alg", "greedy", "--out", str(result_path)]) == 0
    elapsed = perf_counter() - t0
    assert elapsed < 30, f"pipeline took {elapsed:.1f}s"

    inst = loads_instance(inst_path.read_text())
    result = json.loads(result_path.read_text())
    assert result["status"] == "feasible"
    sched = loads_schedule(json.dumps(result["schedule"]))
    assert check_schedule(inst, sched) == []
    mk = makespan(sched)
    m2 = big_m_constants(inst).m2
    assert mk == result["makespan"] <= m2
    print(f"criterion 6: {len(inst.operations)} operations scheduled in {elapsed:.1f}s, "
          f"makespan {mk} <= M2 {m2}")


@pytest.mark.skipif(
    not (os.environ.get("FLEXSHOP_REFERENCE_DIR") and os.environ.get("FLEXSHOP_MILP_SOLVER")),
    reason="needs FLEXSHOP_REFERENCE_DIR with reference instances and FLEXSHOP_MILP_SOLVER")
def test_criterion_7_published_optima_with_external_solver(tmp_path):
    ref_dir = pathlib.Path(os.environ["FLEXSHOP_REFERENCE_DIR"])
    solver = shlex.split(os.environ["FLEXSHOP_MILP_SOLVER"])
    for num, want in ((1, 274), (30, 420)):
        path = next((ref_dir / name for name in
                     (f"small_{num:02d}.json", f"small_{num}.json", f"{num}.json")
                     if (ref_dir / name).exists()), None)
        assert path is not None, f"no reference file for small instance {num} in {ref_dir}"
        lp_path = tmp_path / f"small_{num}.lp"
        assert main(["export-lp", str(path), "--out", str(lp_path)]) == 0
        proc = subprocess.run(solver + [str(lp_path)], capture_output=True, text=True, timeout=600)
        hits = re.findall(r"(?i)(?:objective|mip)\D*?(-?\d+(?:\.\d+)?)", proc.stdout)
        assert hits, f"no objective value in solver output:\n{proc.stdout[-2000:]}"
        got = round(float(hits[-1]))
        assert got == want, f"instance {num}: solver found {got}, published optimum is {want}"
    print("criterion 7: published optima 274 and 420 reproduced")


def test_criterion_8_full_overlap_collapses_partial_completions():
    rng = Rng(808)
    saw_reduced = False
    schedules = 0
    for seed in range(501, 521):
        raw = generate(GenParams(n=2, o_min=2, o_max=4, m_min=2, m_max=3, q=2, seed=seed))
        saw_reduced = saw_reduced or any(op.theta_hundredths < 100 for op in raw.operations)
        inst = with_full_overlap(raw)
        batch = []
        try:
            batch.append(solve_greedy(inst))
        except DecodeInfeasible:
            pass
        for _ in range(2):
            assignment, seqs, _ = random_structure(inst, rng)
            batch.append(decode(inst, assignment, seqs))
        for sched in batch:
            for i, so in sched.ops.items():
                assert so.partial_completion == so.completion, f"seed {seed} op {i}"
            schedules += 1
    assert saw_reduced, "every sampled instance already had full overlap"
    assert schedules >= 40
    print(f"criterion 8: partial completion == completion across {schedules} schedules")
