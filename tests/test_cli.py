import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from flexshop import __version__, cli
from flexshop.cli import main
from flexshop.jsonio import loads_instance, loads_schedule, schedule_to_dict
from flexshop.milp import build_model, emit_lp
from flexshop.model import validate_instance

from lputil import parse_lp
from make_goldens import SOLVE_DIGESTS, solve_digests
from test_milp import LP_SHA256, traced_peak


def gen_instance(tmp_path, name="inst.json", klass="small", k="1", seed="5"):
    path = tmp_path / name
    assert main(["gen", klass, k, "--seed", seed, "--out", str(path)]) == 0
    return path


def test_gen_writes_instance_and_manifest(tmp_path):
    path = gen_instance(tmp_path)
    inst = loads_instance(path.read_text())
    assert validate_instance(inst) == []
    manifest = json.loads((tmp_path / "inst.json.manifest.json").read_text())
    assert manifest == {
        "class": "small", "k": 1, "seed": 5,
        "generator_version": __version__,
        "jobs": max(op.job for op in inst.operations),
        "operations": len(inst.operations),
        "machines": inst.num_machines,
    }


def test_gen_is_deterministic(tmp_path):
    a = gen_instance(tmp_path, "a.json")
    b = gen_instance(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_gen_to_stdout_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "small", "2", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert validate_instance(loads_instance(out)) == []
    assert list(tmp_path.iterdir()) == []


def test_gen_rejects_bad_arguments(tmp_path, capsys):
    assert main(["gen", "small", "0", "--seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["gen", "huge", "1", "--seed", "1"])
    assert info.value.code == 2


def test_solve_exact_to_file(tmp_path):
    inst_path = gen_instance(tmp_path)
    out = tmp_path / "result.json"
    assert main(["solve", str(inst_path), "--alg", "exact", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["status"] == "optimal"
    assert result["gap"] == 0.0
    sched = loads_schedule(json.dumps(result["schedule"]))
    report = tmp_path / "report.json"
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps(result["schedule"]))
    assert main(["check", str(inst_path), str(sched_path), "--out", str(report)]) == 0
    assert json.loads(report.read_text()) == []
    assert max(so.completion for so in sched.ops.values()) == result["makespan"]


def test_solve_exact_without_limits_stops_at_the_default_node_cap(tmp_path, capsys, monkeypatch):
    # small 30 seed 42 (16 operations) was still searching after 60 s uncapped
    monkeypatch.setattr(cli, "NODE_CAP", 1_000)
    inst_path = gen_instance(tmp_path, k="30", seed="42")
    assert main(["solve", str(inst_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert (result["status"], result["nodes"]) == ("limit", 1_000)
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps(result["schedule"]))
    assert main(["check", str(inst_path), str(sched_path)]) == 0
    assert json.loads(capsys.readouterr().out) == []


def _two_pins(tmp_path):
    """Two operations pinned to the same start on one machine: they cannot both run."""
    inst_path = tmp_path / "pins.json"
    inst_path.write_text(json.dumps({
        "m": 1, "arcs": [], "machines": [{"id": 1, **RULE}],
        "operations": [{"id": i, "job": i, "eligible": {"1": 5}, "fixed": {"machine": 1, "start": 3}}
                       for i in (1, 2)]}))
    return inst_path


def test_solve_without_a_schedule_writes_a_null_schedule(tmp_path, capsys):
    assert main(["solve", str(_two_pins(tmp_path)), "--alg", "exact"]) == 1
    result = json.loads(capsys.readouterr().out)
    assert list(result) == ["status", "makespan", "lower_bound", "gap", "nodes", "wall_ms", "schedule"]
    assert result["status"] == "infeasible" and result["schedule"] is None


def test_failed_greedy_exits_one_with_a_message(tmp_path, capsys):
    assert main(["solve", str(_two_pins(tmp_path)), "--alg", "greedy"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("greedy failed:") and out == ""


def test_solve_has_no_brute_force(tmp_path, capsys):
    # exhaustive enumeration is a test oracle (tests/oracles.py), not a solver
    inst_path = gen_instance(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["solve", str(inst_path), "--alg", "brute"])
    assert info.value.code == 2
    assert "invalid choice: 'brute'" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["nan", "inf", "soon"])
def test_solve_rejects_a_time_limit_that_never_trips(tmp_path, capsys, limit):
    # a time limit switches NODE_CAP off, and no elapsed time exceeds nan or inf;
    # a word is no number of seconds at all
    inst_path = gen_instance(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["solve", str(inst_path), "--time-limit", limit])
    assert info.value.code == 2
    assert "not a finite number of seconds" in capsys.readouterr().err


def test_solve_greedy_reports_feasible(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, klass="small", k="10", seed="3")
    assert main(["solve", str(inst_path), "--alg", "greedy"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["status"] == "feasible"
    assert result["lower_bound"] <= result["makespan"]
    assert result["nodes"] == 0


@pytest.mark.parametrize("flag, value", [("--time-limit", "0"), ("--node-limit", "10")])
def test_solve_greedy_refuses_the_exact_only_limits(tmp_path, capsys, flag, value):
    inst_path = gen_instance(tmp_path)
    assert main(["solve", str(inst_path), "--alg", "greedy", flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {flag} applies to --alg exact only\n"


def test_solve_time_limit_zero_still_exits_cleanly(tmp_path, capsys):
    # the limit covers the greedy incumbent too, so no schedule is found: exit 1 with a result
    inst_path = gen_instance(tmp_path)
    assert main(["solve", str(inst_path), "--time-limit", "0"]) == 1
    out = capsys.readouterr()
    result = json.loads(out.out)
    assert (result["status"], result["schedule"]) == ("limit", None)
    assert out.err == ""


def test_solve_outputs_match_the_pinned_digests(tmp_path):
    # every byte of greedy and exact output except wall_ms is
    # part of the determinism contract; make_goldens.py regenerates the file
    assert solve_digests(tmp_path) == json.loads(SOLVE_DIGESTS.read_text())


def test_check_flags_a_tampered_schedule(tmp_path, capsys):
    inst_path = gen_instance(tmp_path)
    assert main(["solve", str(inst_path), "--alg", "exact"]) == 0
    result = json.loads(capsys.readouterr().out)
    sched = result["schedule"]
    victim = sched["operations"][0]
    victim["completion"] += 1
    sched_path = tmp_path / "bad.json"
    sched_path.write_text(json.dumps(sched))
    assert main(["check", str(inst_path), str(sched_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert any("mismatch" in v["rule"] for v in report)


def test_gen_accepts_class_indices_beyond_the_published_tables(tmp_path):
    path = gen_instance(tmp_path, name="wide.json", klass="small", k="31")
    assert validate_instance(loads_instance(path.read_text())) == []


def test_check_cli_checker_and_row_evaluation_agree(tmp_path, capsys):
    # the exit code, the timing checker, and the model rows must tell the
    # same story, on valid schedules and on broken ones alike
    import dataclasses

    from flexshop.milp import evaluate_schedule
    from flexshop.model import Schedule
    from flexshop.rng import Rng
    from flexshop.solvers import solve_greedy
    from flexshop.timing import DecodeInfeasible, check_schedule

    # mutations touch the quantities the model prices (starts, ends, order);
    # the two serialized setup fields are the structural checker's own turf
    def mutate(sched, rng):
        ops = dict(sched.ops)
        sequences = dict(sched.sequences)
        busy = [k for k, seq in sequences.items() if len(seq) >= 2]
        kind = rng.uniform(1, 4 if busy else 3)
        if kind == 4:
            k = busy[rng.uniform(0, len(busy) - 1)]
            seq = list(sequences[k])
            at = rng.uniform(0, len(seq) - 2)
            seq[at], seq[at + 1] = seq[at + 1], seq[at]
            sequences[k] = tuple(seq)
        else:
            victim = sorted(ops)[rng.uniform(0, len(ops) - 1)]
            field = ("start", "completion", "partial_completion")[kind - 1]
            delta = (1, -1)[rng.uniform(0, 1)]
            ops[victim] = dataclasses.replace(
                ops[victim], **{field: getattr(ops[victim], field) + delta})
        return Schedule(ops=ops, sequences=sequences)

    rng = Rng(77)
    cases = []
    seed = 0
    while len(cases) < 50:
        seed += 1
        inst_path = gen_instance(tmp_path, name=f"inst{seed}.json",
                                 k=str(1 + seed % 3), seed=str(seed))
        inst = loads_instance(inst_path.read_text())
        try:
            sched = solve_greedy(inst)
        except DecodeInfeasible:
            continue
        cases.append((inst_path, inst, sched))
    schedules = list(cases)
    schedules += [(p, i, mutate(s, rng)) for p, i, s in cases]

    flagged = 0
    for idx, (inst_path, inst, sched) in enumerate(schedules):
        sched_path = tmp_path / f"sched{idx}.json"
        sched_path.write_text(json.dumps(schedule_to_dict(sched)))
        code = main(["check", str(inst_path), str(sched_path)])
        capsys.readouterr()
        clean_checker = check_schedule(inst, sched) == []
        clean_rows = evaluate_schedule(inst, sched) == []
        assert (code == 0) == clean_checker == clean_rows, idx
        flagged += not clean_checker
    assert flagged >= 25  # the mutations must actually bite


def test_check_rejects_malformed_schedule(tmp_path, capsys):
    inst_path = gen_instance(tmp_path)
    bad = tmp_path / "nonsense.json"
    bad.write_text("{ not json")
    assert main(["check", str(inst_path), str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_rejects_unknown_ids(tmp_path, capsys):
    inst_path = gen_instance(tmp_path)
    ghost = {
        "operations": [{"id": 999, "machine": 1, "setup_start": 0, "setup_len": 0,
                        "start": 0, "partial_completion": 1, "completion": 1}],
        "sequences": {"1": [999]},
    }
    sched_path = tmp_path / "ghost.json"
    sched_path.write_text(json.dumps(ghost))
    assert main(["check", str(inst_path), str(sched_path)]) == 2
    assert "unknown" in capsys.readouterr().err


RULE = {"setup_rule": {"st_smaller": 0, "st_larger": 0, "ct": 0, "vt": 0}}
HUGE = "9" * 10_000_000
BIG = 10**4000  # an integer JSON reads, under Python's 4,300-digit limit on int/str conversion


def _hostile(m=1, machines=({"id": 1},), sched_machine=1, sched_op=1, setup=RULE, op=None, arcs=(), more_ops=(),
             times=None):
    """A one-operation instance and a schedule for it, with the given faults."""
    instance = {"m": m, "arcs": list(arcs),
                "machines": [{**mc, **setup} for mc in machines],
                "operations": [{"id": 1, "job": 1, "eligible": {"1": 5}, **(op or {})}, *more_ops]}
    schedule = {"operations": [{"id": sched_op, "machine": sched_machine, "setup_start": 0, "setup_len": 0,
                                "start": 0, "partial_completion": 5, "completion": 5, **(times or {})}],
                "sequences": {str(sched_machine): [sched_op]}}
    return instance, schedule


DEEP = "[" * 200_000


@pytest.mark.parametrize("command, instance, schedule, code, message", [
    pytest.param("solve", DEEP, None, 2, "error: instance: invalid JSON: ", id="deep-instance"),
    pytest.param("check", _hostile()[0], DEEP, 2, "error: schedule: invalid JSON: ", id="deep-schedule"),
    pytest.param("solve", _hostile(m=10**19)[0], None, 1, "machine ids must be 1..10000000000000000000",
                 id="m-1e19"),
    pytest.param("export-lp", _hostile(m=10**9, machines=())[0], None, 1, "machine ids must be 1..1000000000",
                 id="m-1e9-no-machines"),
    pytest.param("solve", _hostile(m=2, machines=({"id": 1}, {"id": 2}, {"id": 2}))[0], None, 1,
                 "machine ids must be 1..2", id="duplicate-machine-id"),
    pytest.param("gantt", *_hostile(sched_machine=9), 2, "error: schedule references unknown machines [9]",
                 id="gantt-unknown-machine"),
    pytest.param("gantt", *_hostile(sched_op=99), 2, "error: schedule references unknown operations [99]",
                 id="gantt-unknown-operation"),
    pytest.param("check", _hostile()[0], {**_hostile(sched_machine=9)[1], "sequences": {"1": [1]}}, 2,
                 "error: schedule references unknown machines [9]", id="check-record-on-unknown-machine"),
    pytest.param("gantt", *_hostile(times={"completion": 10**400}), 2, "error: gantt: operation 1 completion 1000",
                 id="gantt-completion-1e400"),
    pytest.param("gantt", *_hostile(times={"start": -BIG}), 2, "error: gantt: operation 1 start -1000",
                 id="gantt-start-minus-1e4000"),
    pytest.param("solve", _hostile(op={"release": HUGE})[0], None, 2,
                 "error: operation[0].release: expected an integer, got '999", id="release-10MB-string"),
    pytest.param("solve", _hostile(setup={"setup_first": {"1": 0}, "setup_between": {HUGE: 0}})[0], None, 2,
                 "error: machine[0].setup_between: key '999", id="setup-key-10MB"),
    pytest.param("solve", _hostile(setup={"setup_first": {"1": 0}, "setup_between": {"1," + HUGE: 0}})[0], None, 2,
                 "error: machine[0].setup_between['1,999", id="setup-key-10MB-succ"),
    pytest.param("solve", _hostile(op={"release": BIG})[0], None, 1,
                 "release must be a non-negative 64-bit integer, got 1000", id="release-1e4000"),
    pytest.param("solve", _hostile(op={"theta_hundredths": BIG})[0], None, 1,
                 "theta_hundredths must be in 1..100, got 1000", id="theta-1e4000"),
    pytest.param("solve", _hostile(op={"eligible": {"1": BIG}})[0], None, 1,
                 "p on machine 1 must be an integer >= 1, got 1000", id="p-1e4000"),
    pytest.param("solve", _hostile(m=BIG)[0], None, 1, "machine ids must be 1..1000", id="m-1e4000"),
    pytest.param("solve", _hostile(m=-BIG)[0], None, 1, "need at least one machine, got -1000", id="m-minus-1e4000"),
    pytest.param("solve", _hostile(op={"eligible": {str(BIG): 5}})[0], None, 1, "eligible machine 1000",
                 id="eligible-machine-1e4000"),
    pytest.param("solve", _hostile(machines=({"id": 1, "windows": [[BIG, BIG + 1]]},))[0], None, 1,
                 "machine 1 window begin must be a non-negative 64-bit integer, got 1000", id="window-1e4000"),
    pytest.param("solve", _hostile(setup={"setup_rule": {**RULE["setup_rule"], "ct": BIG}})[0], None, 1,
                 "machine 1 rule ct must be a non-negative 64-bit integer, got 1000", id="rule-ct-1e4000"),
    pytest.param("solve", _hostile(arcs=([1, BIG],))[0], None, 1, "arc [1, 1000", id="arc-unknown-1e4000"),
    pytest.param("solve", _hostile(arcs=([1, 2],), more_ops=({"id": 2, "job": BIG, "eligible": {"1": 5}},))[0],
                 None, 1, "arc crosses jobs 1 and 1000", id="arc-job-1e4000"),
    pytest.param("solve", _hostile(op={"release": 85, "fixed": {"machine": 1, "start": 56}})[0], None, 1,
                 "instance invalid: fixed [1]: fixed start 56 is before release 85", id="pin-before-release"),
    pytest.param("solve", _hostile(op={"eligible": {"1": 5, "01": 7}})[0], None, 2,
                 "error: operation[0].eligible: key '01' is not an integer", id="eligible-keys-collide"),
    pytest.param("solve", _hostile(setup={"setup_first": {"1": 0, "01": 0}, "setup_between": {}})[0], None, 2,
                 "error: machine[0].setup_first: key '01' is not an integer", id="setup-first-keys-collide"),
    pytest.param("solve", _hostile(setup={"setup_first": {"1": 0}, "setup_between": {"1,1": 0, "1,01": 0}})[0],
                 None, 2, "error: machine[0].setup_between['1,01']: key '01' is not an integer",
                 id="setup-between-keys-collide"),
    pytest.param("check", _hostile()[0], {**_hostile()[1], "sequences": {"1": [], "01": [1]}}, 2,
                 "error: schedule.sequences: key '01' is not an integer", id="sequence-keys-collide"),
    *(pytest.param("solve", _hostile(op={"eligible": {key: 5}})[0], None, 2,
                   f"error: operation[0].eligible: key {key!r} is not an integer written as str(n)",
                   id=f"eligible-key-{name}")
      for name, key in (("arabic-indic-1", "\u0661"), ("1_0", "1_0"), ("spaced-1", " 1 "), ("+1", "+1"),
                        ("-0", "-0"))),
    pytest.param("solve", _hostile(setup={"setup_first": {"1": 0}, "setup_between": {"1, 2": 0}})[0], None, 2,
                 "error: machine[0].setup_between['1, 2']: key ' 2' is not an integer written as str(n)",
                 id="setup-between-key-1-space-2"),
    pytest.param("check", _hostile()[0], {**_hostile()[1], "sequences": {"01": [1]}}, 2,
                 "error: schedule.sequences: key '01' is not an integer written as str(n)", id="sequence-key-01"),
    pytest.param("check", _hostile(setup={"setup_first": {"1": 0}, "setup_between": {}})[0],
                 {**_hostile()[1], "sequences": {"1": [1, 1]}}, 1, "", id="check-op-listed-twice-table-setup"),
    pytest.param("solve --node-limit -5", _hostile()[0], None, 2, "error: --node-limit must not be negative, got -5",
                 id="node-limit-negative"),
    pytest.param("solve --time-limit -1", _hostile()[0], None, 2,
                 "error: --time-limit must not be negative, got -1.0", id="time-limit-negative"),
    pytest.param("gen small 1000000000000 --seed 1", None, None, 2, "above the generator's bound of 4,000,000",
                 id="gen-small-1e12"),
    pytest.param("gen large 1000 --seed 1", None, None, 2,
                 "error: n * o_max * m_max = 252566860 is above the generator's bound of 4,000,000",
                 id="gen-large-1000"),
])
def test_hostile_input_ends_in_a_message_not_a_traceback(tmp_path, capsys, command, instance, schedule, code,
                                                          message):
    paths = []
    for name, body in (("inst.json", instance), ("sched.json", schedule)):
        if body is not None:
            (tmp_path / name).write_text(body if isinstance(body, str) else json.dumps(body))
            paths.append(str(tmp_path / name))
    t0 = time.perf_counter()
    assert main([*command.split(), *paths]) == code
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert len(err.encode()) < 1024


def _cycle(n):
    """`n` operations of one job whose arcs close one cycle through all of them."""
    return {"m": 1, "machines": [{"id": 1, **RULE}], "arcs": [[i, i % n + 1] for i in range(1, n + 1)],
            "operations": [{"id": i, "job": 1, "eligible": {"1": 5}} for i in range(1, n + 1)]}


def _pins_and_solos(n):
    """`n` operations on one machine, the first two pinned to the same start."""
    return {"m": 1, "arcs": [], "machines": [{"id": 1, **RULE}],
            "operations": [{"id": i, "job": i, "eligible": {"1": 5},
                            **({"fixed": {"machine": 1, "start": 3}} if i <= 2 else {})} for i in range(1, n + 1)]}


@pytest.mark.parametrize("args, instance, err", [
    pytest.param([], _cycle(3), "instance invalid: precedence [1, 2, 3, 1]: cycle: 1 -> 2 -> 3 -> 1\n", id="cycle-3"),
    pytest.param([], _cycle(20_000), "instance invalid: precedence [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, "
                 "15, 16, 17, 18, 19, 20, ...[cut]: cycle: 1 -> 2 -> 3 -> 4 -> 5 -> 6 -> 7 -> 8 -> 9 -> 10 -> 11 -> "
                 "12 -> 13 -> 14 ...[cut]\n", id="cycle-20000"),
    pytest.param(["--alg", "greedy"], _pins_and_solos(3),
                 "greedy failed: no operation can be placed (pinned starts block every candidate) among [2, 3]\n",
                 id="pins-3"),
    pytest.param(["--alg", "greedy"], _pins_and_solos(20_000),
                 "greedy failed: no operation can be placed (pinned starts block every candidate) among [2, 3, 4, "
                 "5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,...[cut]\n", id="pins-20000"),
])
def test_a_long_id_list_is_cut_and_a_short_one_kept_whole(tmp_path, capsys, args, instance, err):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    assert main(["solve", str(path), *args]) == 1
    assert capsys.readouterr() == ("", err)
    assert len(err.encode()) < 1024


def test_invalid_instance_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad_inst.json"
    bad.write_text(json.dumps({
        "m": 1,
        "machines": [{"id": 1, "windows": [], "setup_first": {"1": 0}, "setup_between": {}}],
        "operations": [{"id": 1, "job": 1, "eligible": {"7": 5}}],
        "arcs": [],
    }))
    assert main(["solve", str(bad)]) == 1
    assert "instance invalid" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_export_lp_matches_the_library_model(tmp_path, capsys):
    inst_path = gen_instance(tmp_path)
    assert main(["export-lp", str(inst_path)]) == 0
    text = capsys.readouterr().out
    inst = loads_instance(inst_path.read_text())
    want = emit_lp(build_model(inst))
    assert text == want  # the LP ends in "End\n", so stdout gets no extra newline
    parsed = parse_lp(text)
    assert parsed.constraints == tuple(build_model(inst).constraints)


def test_export_lp_writes_emit_lp_byte_for_byte_to_a_file_and_to_stdout(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, klass="medium", k="1", seed="7")
    want = emit_lp(build_model(loads_instance(inst_path.read_text())))
    assert hashlib.sha256(want.encode("utf-8")).hexdigest() == LP_SHA256[("medium", 1)]
    out = tmp_path / "model.lp"
    assert main(["export-lp", str(inst_path), "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode("utf-8")
    capsys.readouterr()
    assert main(["export-lp", str(inst_path)]) == 0
    assert capsys.readouterr().out == want


def test_export_lp_peaks_below_the_size_of_its_text(tmp_path):
    # Python 3.11, small 25 seed 7: writing the lines as they come peaked at
    # 0.6 times the LP text's size; writing emit_lp's text whole, at 3.6
    inst_path = gen_instance(tmp_path, k="25", seed="7")
    out = tmp_path / "model.lp"
    argv = ["export-lp", str(inst_path), "--out", str(out)]
    assert main(argv) == 0  # the first run fills the one-off caches outside the trace
    peak = traced_peak(lambda: main(argv))
    assert peak < out.stat().st_size, f"export-lp peaked at {peak / out.stat().st_size:.1f} times its text's size"


def test_gantt_renders_deterministic_svg(tmp_path, capsys):
    inst_path = gen_instance(tmp_path)
    out = tmp_path / "sched.json"
    assert main(["solve", str(inst_path), "--out", str(out)]) == 0
    sched_path = tmp_path / "only_sched.json"
    sched_path.write_text(json.dumps(json.loads(out.read_text())["schedule"]))
    svg_path = tmp_path / "view.svg"
    assert main(["gantt", str(inst_path), str(sched_path), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "makespan" in svg
    again = tmp_path / "view2.svg"
    assert main(["gantt", str(inst_path), str(sched_path), "--out", str(again)]) == 0
    assert svg_path.read_bytes() == again.read_bytes()


def test_dash_reads_stdin_and_writes_stdout(capsys, monkeypatch):
    import pathlib
    chain = (pathlib.Path(__file__).resolve().parent / "data" / "golden_chain.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(chain))
    assert main(["solve", "-", "--alg", "exact"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["status"] == "optimal"
    assert result["makespan"] == 13


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_module_entry_point_prints_the_version():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "flexshop.cli", "--version"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, f"flexshop {__version__}\n")
