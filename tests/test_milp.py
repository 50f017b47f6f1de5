import hashlib
import pathlib
import tracemalloc
from dataclasses import replace

import pytest

from flexshop.generator import GenParams, generate, params_for_class
from flexshop.jsonio import loads_instance
from flexshop.milp import build_model, emit_lp, evaluate_schedule, lp_lines, schedule_values
from flexshop.model import Instance, Machine, Operation, Schedule, SetupRule, SetupTable
from flexshop.solvers import solve_exact, solve_greedy
from flexshop.timing import check_schedule

from lputil import parse_lp
from oracles import brute_force, listed_violations
from test_timing import tampered

DATA = pathlib.Path(__file__).resolve().parent / "data"


def golden(name: str):
    inst = loads_instance((DATA / f"golden_{name}.json").read_text())
    text = (DATA / f"golden_{name}.lp").read_text()
    return inst, text


def test_emitted_lp_matches_goldens():
    for name in ("single", "chain", "flex"):
        inst, want = golden(name)
        assert emit_lp(build_model(inst)) == want, f"golden_{name}.lp drifted"


# sha256 of emit_lp's text on generated instances, seed 7
LP_SHA256 = {
    ("small", 1): "103052239b8e13070821376fe0b693b2e16d53c841dfc9ddc36139ce1703181b",
    ("small", 5): "103052239b8e13070821376fe0b693b2e16d53c841dfc9ddc36139ce1703181b",
    ("small", 15): "bd40a1fb3a3b1378917cc55eb8516dc3e47899cf8ae0a4ab718388f936c40317",
    ("small", 30): "0526338e9257e7b15aaaf4a0c5f86e8e1477c844aa2f54f3bd4afb6651433890",
    ("medium", 1): "a128c4df05e86957a983de46d9210595a62c34bdc90f96b73991bb367248f91c",
    ("medium", 20): "922bd342d37fc5179ba934ef0e1cc89187bdf4c87902a10fa388884060c96103",
    ("medium", 40): "e5eb20dd49f6d6a2128dca886f8f01b006348920a733d72788876c9d8a56d7d1",  # 27,934,589 chars
}


def seed7(cls: str, k: int):
    return generate(replace(params_for_class(cls, k), seed=7))


def test_lp_lines_yields_whole_lines_that_join_to_emit_lp():
    models = [build_model(golden(name)[0]) for name in ("single", "chain", "flex")]
    models.append(build_model(seed7("medium", 1)))
    for model in models:
        lines = list(lp_lines(model))
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        assert "".join(lines) == emit_lp(model)


def test_emitted_lp_matches_pinned_digests():
    for (cls, k), want in LP_SHA256.items():
        text = emit_lp(build_model(seed7(cls, k)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want, f"{cls} {k} LP drifted"


def test_rows_are_made_anew_on_each_pass_and_counted():
    inst = seed7("small", 30)
    counted_first = build_model(inst).constraints
    n = len(counted_first)
    first_pass = tuple(counted_first)
    assert len(first_pass) == n > 0
    passed_first = build_model(inst).constraints
    again = tuple(passed_first)
    assert len(passed_first) == n
    assert again == first_pass == tuple(passed_first)
    assert all(a is not b for a, b in zip(again, first_pass))  # no pass hands out kept rows
    assert all(type(row) is tuple for row in first_pass + again)  # plain tuples, no wrapper type
    assert first_pass[-1] in passed_first
    model = build_model(inst)
    for view in (model.binaries, model.continuous):  # names too are made anew on each pass
        names = tuple(view)
        assert names == tuple(view) and len(view) == len(names) > 0
        assert all(type(name) is str for name in names)


def test_binary_variables_of_the_chain_model():
    inst, _ = golden("chain")
    model = build_model(inst)
    # 2 assignment, 2 order, and 2 ops x 1 window x 3 indicator families
    assert tuple(model.binaries) == (
        "x_1_1", "x_2_1", "yI_1_2_1", "yI_2_1_1",
        "v_1_1_1", "v_2_1_1", "w_1_1_1", "w_2_1_1", "wb_1_1_1", "wb_2_1_1",
    )
    assert tuple(model.continuous) == (
        "s_1", "s_2", "c_1", "c_2", "cb_1", "cb_2", "pp_1", "pp_2", "ppb_1", "ppb_2",
        "u_1", "u_2", "ub_1", "ub_2", "xih_1_1", "xih_2_1", "xib_1_1", "xib_2_1", "xi_1", "xi_2", "Cmax",
    )


def test_every_variable_a_row_names_is_declared_once():
    models = [build_model(golden(name)[0]) for name in ("single", "chain", "flex")]
    models += [build_model(generate(replace(params_for_class(cls, k), seed=7)))
               for cls, k in (("small", 5), ("medium", 1))]
    for model in models:
        declared = (*model.binaries, *model.continuous)
        assert len(set(declared)) == len(declared)
        used = {var for _, terms, _, _ in model.constraints for _, var in terms} | {"Cmax"}
        assert used <= set(declared), sorted(used - set(declared))[:5]


def test_lp_round_trip_is_identity():
    for name in ("single", "chain", "flex"):
        _, text = golden(name)
        assert emit_lp(parse_lp(text)) == text
    gen = generate(GenParams(n=2, o_min=2, o_max=3, m_min=2, m_max=2, q=2, seed=11))
    text = emit_lp(build_model(gen))
    assert emit_lp(parse_lp(text)) == text


def test_parse_lp_rebuilds_equal_rows():
    inst, text = golden("chain")
    model = build_model(inst)
    parsed = parse_lp(text)
    assert parsed.constraints == tuple(model.constraints)
    assert parsed.binaries == tuple(model.binaries)
    assert parsed.continuous == tuple(model.continuous)


def opt_schedule(inst):
    res = brute_force(inst)
    assert res.status == "optimal"
    assert check_schedule(inst, res.schedule) == []
    return res


def test_single_op_optimum_satisfies_every_row():
    inst, _ = golden("single")
    res = opt_schedule(inst)
    assert res.makespan == 7  # setup 2 then 5 units of work
    assert evaluate_schedule(inst, res.schedule) == []


def test_chain_optimum_satisfies_every_row():
    inst, _ = golden("chain")
    res = opt_schedule(inst)
    # head: setup [0,2], work 2+1 around the window, done 7
    # tail: pair setup [7,8], five units from 8, done 13
    assert res.makespan == 13
    sched = res.schedule
    assert (sched.ops[1].start, sched.ops[1].partial_completion, sched.ops[1].completion) == (2, 4, 7)
    assert (sched.ops[2].start, sched.ops[2].completion) == (8, 13)
    assert evaluate_schedule(inst, sched) == []


def test_flex_optimum_satisfies_every_row():
    inst, _ = golden("flex")
    res = opt_schedule(inst)
    # the windowed rule machine charges a first setup of 9, so serializing
    # both jobs on machine 1 wins: 3+4, then 2+2
    assert res.makespan == 11
    assert {so.machine for so in res.schedule.ops.values()} == {1}
    assert evaluate_schedule(inst, res.schedule) == []


def test_schedule_values_are_honest_residuals():
    inst, _ = golden("chain")
    sched = opt_schedule(inst).schedule
    val = schedule_values(inst, sched)
    assert val["s_1"] == 2 and val["c_1"] == 7 and val["cb_1"] == 4
    assert val["u_1"] == 2        # the window [4,6] interrupts op 1
    assert val["ub_1"] == 0       # but not its partial span
    assert val["v_2_1_1"] == 1 and val["w_1_1_1"] == 1 and val["wb_1_1_1"] == 0
    assert val["yI_1_2_1"] == 1 and val["yI_2_1_1"] == 0
    assert val["xih_2_1"] == 1 and val["xib_2_1"] == 1
    assert val["Cmax"] == 13


def test_tampered_completion_trips_the_unavailability_sum():
    inst, _ = golden("chain")
    sched = opt_schedule(inst).schedule
    bad = evaluate_schedule(inst, tampered(sched, 2, completion=14))
    assert [v.name for v in bad] == ["unavail_sum_2"]


def test_tampered_start_trips_the_release_row():
    inst, _ = golden("chain")
    sched = opt_schedule(inst).schedule
    early = tampered(sched, 2, setup_start=-1, start=0)
    names = {v.name for v in evaluate_schedule(inst, early)}
    assert "release_2" in names


def test_tampered_order_trips_gap_and_overlap_rows():
    inst, _ = golden("chain")
    sched = opt_schedule(inst).schedule
    # pull op 2's whole block under op 1's span
    squeezed = tampered(sched, 2, setup_start=2, start=3, partial_completion=9, completion=10)
    names = {v.name for v in evaluate_schedule(inst, squeezed)}
    assert "machine_gap_1_2" in names
    assert "overlap_start_1_2" in names


def test_missing_operation_reports_its_rows_without_raising():
    inst, _ = golden("chain")
    sched = opt_schedule(inst).schedule
    missing = Schedule(ops={i: so for i, so in sched.ops.items() if i != 2},
                       sequences={k: tuple(i for i in seq if i != 2) for k, seq in sched.sequences.items()})
    names = [v.name for v in evaluate_schedule(inst, missing)]
    assert names == ["assign_2", "release_2", "overlap_start_1_2", "end_order_1_2"]


def test_reversed_sequence_trips_the_machine_gap_row():
    inst, _ = golden("chain")
    sched = opt_schedule(inst).schedule
    flipped = Schedule(ops=sched.ops, sequences={1: (2, 1)})
    names = {v.name for v in evaluate_schedule(inst, flipped)}
    # op 2 now claims to run first while its times still sit after op 1's
    assert "machine_gap_2_1" in names


@pytest.mark.parametrize("setup", [SetupTable({1: 2, 2: 1}, {(1, 2): 3, (2, 1): 4}), SetupRule(1, 2, 3, 4)],
                         ids=["table", "rule"])
def test_an_operation_listed_twice_in_a_row_is_not_its_own_setup_predecessor(setup):
    # a table has no (i, i) pair to look up, and a rule would ask for a 0 setup against the first one
    ops = (Operation(1, 1, {1: 5}), Operation(2, 2, {1: 3}, size=2, color=2))
    inst = Instance(num_machines=1, operations=ops, arcs=(), machines=(Machine(1, setup=setup),))
    sched = solve_greedy(inst)
    first, second = sched.sequences[1]
    twice = Schedule(ops=sched.ops, sequences={1: (first, first, second)})
    assert [(v.rule, v.op_ids) for v in check_schedule(inst, twice)] == [("structure", (first,))]
    assert schedule_values(inst, twice) == schedule_values(inst, sched)
    assert evaluate_schedule(inst, twice) == []


def test_precedence_row_families_only_appear_with_arcs():
    families = ("overlap_start_", "end_order_")
    for name, has_arcs in (("single", False), ("flex", False), ("chain", True)):
        inst, _ = golden(name)
        rows = {row_name for row_name, _, _, _ in build_model(inst).constraints}
        present = {fam for fam in families if any(n.startswith(fam) for n in rows)}
        assert present == (set(families) if has_arcs else set()), name


def test_tampered_window_start_trips_the_indicator_rows():
    inst, _ = golden("chain")
    sched = opt_schedule(inst).schedule
    inside = tampered(sched, 2, setup_start=4, start=5, partial_completion=10, completion=10)
    names = {v.name for v in evaluate_schedule(inst, inside)}
    # started at 5 inside [4,6] without claiming the window as passed
    assert "win_s_ub_2_1_1" in names


def test_moved_pinned_op_trips_its_fix_row():
    inst = loads_instance((DATA / "golden_single.json").read_text())
    import dataclasses
    pinned = dataclasses.replace(
        inst, operations=(dataclasses.replace(inst.operations[0], fixed=(1, 9)),))
    model = build_model(pinned)
    assert any(name == "fix_start_1" for name, _, _, _ in model.constraints)
    res = brute_force(pinned)
    assert res.makespan == 14
    assert evaluate_schedule(pinned, res.schedule) == []
    drifted = tampered(res.schedule, 1, setup_start=5, start=7, partial_completion=12, completion=12)
    names = {v.name for v in evaluate_schedule(pinned, drifted)}
    assert "fix_start_1" in names


def late_release(pinned: bool) -> Instance:
    """One machine without setups: op 1 (p 5), pinned at 0 if `pinned`, and op 2 (p 5) released at 1000."""
    ops = (Operation(1, 1, {1: 5}, fixed=(1, 0) if pinned else None), Operation(2, 2, {1: 5}, release=1000))
    return Instance(num_machines=1, operations=ops, arcs=(),
                    machines=(Machine(1, setup=SetupTable({1: 0, 2: 0}, {(1, 2): 0, (2, 1): 0})),))


@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "free"])
def test_an_optimum_past_the_last_window_end_satisfies_every_row(pinned):
    # no window, so m2 must count from the release or the pin, not from the last window end at 0
    inst = late_release(pinned)
    res = solve_exact(inst)
    assert (res.status, res.makespan) == ("optimal", 1005)
    assert evaluate_schedule(inst, res.schedule) == []


def test_streamed_row_check_matches_the_listed_oracle():
    inst, _ = golden("chain")
    sched = opt_schedule(inst).schedule
    cases = [
        tampered(sched, 2, completion=14),
        tampered(sched, 2, completion=9),  # negative slack: a bound violation ahead of the rows
        tampered(sched, 2, setup_start=-1, start=0),
        tampered(sched, 2, setup_start=2, start=3, partial_completion=9, completion=10),
        tampered(sched, 2, setup_start=4, start=5, partial_completion=10, completion=10),
        Schedule(ops={i: so for i, so in sched.ops.items() if i != 2},
                 sequences={k: tuple(i for i in seq if i != 2) for k, seq in sched.sequences.items()}),
        Schedule(ops=sched.ops, sequences={1: (2, 1)}),
    ]
    for case in cases:
        want = listed_violations(inst, case)
        assert want
        assert evaluate_schedule(inst, case) == want
    assert evaluate_schedule(inst, sched) == listed_violations(inst, sched) == []


def values_digest(inst, sched) -> str:
    return hashlib.sha256(repr(sorted(schedule_values(inst, sched).items())).encode()).hexdigest()


# sha256 of the sorted (name, value) items schedule_values gives the chain
# golden's optimum, as found and tampered with, and a flex golden optimum
# whose operations are also listed on the idle machine (the last listing
# names an operation's machine predecessor)
VALUES_SHA256 = {
    "optimum": "1486a76bd89cfbd6801ed3f3da064547ab4aaf31c491500e2e8397e0510aafa7",
    "reversed sequences": "0bae11ccfeeab1c530298e6492e3ba30f88a4a8aba0ac8609d642a1434fd385b",
    "operation 2 removed from ops": "00ca263154df524a86cf30d42360ae33b297e58b3496d7201762ff6e8e02694e",
    "operation 2 also listed on machine 2": "233adff6a475c40f3266a47118da2abeb9275c9c22d1325cf82126b62735d768",
    "flex: both operations also listed, reversed, on the idle machine":
        "8dc8638fb617963676a2b6481859277a7270ede4226b4780564e875811a175dc",
}


def test_schedule_values_match_pinned_digests():
    inst, _ = golden("chain")
    sched = opt_schedule(inst).schedule
    flex, _ = golden("flex")
    flex_sched = opt_schedule(flex).schedule
    [(k, seq)] = [(k, seq) for k, seq in flex_sched.sequences.items() if seq]
    cases = {
        "optimum": (inst, sched),
        "reversed sequences": (inst, Schedule(ops=sched.ops, sequences={1: (2, 1)})),
        "operation 2 removed from ops": (inst, Schedule(ops={1: sched.ops[1]}, sequences=sched.sequences)),
        "operation 2 also listed on machine 2": (inst, Schedule(ops=sched.ops, sequences={1: (1, 2), 2: (2,)})),
        "flex: both operations also listed, reversed, on the idle machine":
            (flex, Schedule(ops=flex_sched.ops, sequences={k: seq, 3 - k: (2, 1)})),
    }
    assert {label: values_digest(*case) for label, case in cases.items()} == VALUES_SHA256


def sparse_ids(inst: Instance) -> Instance:
    """`inst` with operation i renamed 1000 + 7i and machine k renamed 50 + 3k.

    Validation refuses such ids, but the model code takes any int ids; these
    are multi-digit, sparse, and no operation id equals a machine id, so a
    name that swaps an operation's text for a machine's no longer matches.
    """
    def op_id(i):
        return 1000 + 7 * i

    def mc_id(k):
        return 50 + 3 * k

    ops = tuple(replace(op, id=op_id(op.id), eligible={mc_id(k): p for k, p in op.eligible.items()},
                        fixed=None if op.fixed is None else (mc_id(op.fixed[0]), op.fixed[1]))
                for op in inst.operations)
    return replace(inst, operations=ops, arcs=tuple((op_id(i), op_id(j)) for i, j in inst.arcs),
                   machines=tuple(replace(mc, id=mc_id(mc.id)) for mc in inst.machines))


def test_sparse_ids_give_pinned_lp_and_values():
    # generated instances number operations 1..n and machines 1..m, so a
    # mix-up of operation and machine id text passes every pin made on them
    inst = sparse_ids(seed7("small", 15))
    text = emit_lp(build_model(inst))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "eb994a94c3238cee69416ca602e9e8a52ca1fda7afc4941514a08bc6d225e821"
    sched = solve_greedy(inst)
    assert values_digest(inst, sched) == "03b62eb0492b3118db0a00ddfaf2be15f1a45d154d0dc99662b2067b721679a4"
    assert evaluate_schedule(inst, sched) == []


def test_build_model_keeps_no_names():
    # Python 3.11, medium 20 seed 7: tables of every variable name kept 6.2-6.7 MB;
    # formatting each name where a row uses it keeps under 0.1 MB
    inst = seed7("medium", 20)
    tracemalloc.start()
    try:
        model = build_model(inst)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20, f"build_model kept {kept / 2**20:.2f} MB"
    assert len(model.constraints) > 0


def traced_peak(run) -> int:
    """The peak of the memory that ``run()`` allocates, in bytes, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lp_export_and_row_check_peak_below_a_multiple_of_the_text():
    # Python 3.11, small 25 seed 7 (3,830 LP lines), in multiples of the LP
    # text's size: made as they are consumed, the rows peaked at 3.3 in
    # emit_lp and 0.6 in evaluate_schedule; holding every row, at 11.1 and 6.5
    inst = seed7("small", 25)
    sched = solve_greedy(inst)
    size = len(emit_lp(build_model(inst)))
    for label, run, bound in (("emit_lp", lambda: emit_lp(build_model(inst)), 6 * size),
                              ("evaluate_schedule", lambda: evaluate_schedule(inst, sched), 2 * size)):
        peak = traced_peak(run)
        assert peak < bound, f"{label} peaked at {peak / size:.1f} times the LP text's size"
