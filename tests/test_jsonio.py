import enum
import gc
import json

import pytest

from flexshop.cli import main
from flexshop.generator import generate, params_for_class
from flexshop.jsonio import (FormatError, dumps_instance, dumps_manifest, dumps_report, dumps_result,
                             instance_from_dict, instance_to_dict, loads_instance, loads_schedule, schedule_to_dict)
from flexshop.model import (Instance, Machine, Operation, Schedule, ScheduledOp, SetupRule, SetupTable, SolveResult,
                            Violation)
from flexshop.solvers import solve_greedy


class Level(enum.IntEnum):
    HIGH = 2


def sample_instance() -> Instance:
    return Instance(
        num_machines=2,
        operations=(Operation(1, 1, {1: 4, 2: 6}, theta_hundredths=50, release=3,
                              size=2, color=3, varnish=1),
                    Operation(2, 1, {2: 5}, fixed=(2, 25))),
        arcs=((1, 2),),
        machines=(Machine(1, windows=((4, 6),), setup=SetupTable({1: 2}, {})),
                  Machine(2, setup=SetupRule(2, 4, 3, 2))))


def test_instance_round_trip_is_identity():
    text = dumps_instance(sample_instance())
    again = dumps_instance(loads_instance(text))
    assert text == again


def test_documents_are_written_byte_for_byte_as_json_dumps_with_indent_1():
    odd = "quote \" backslash \\ slash / tab \t newline \n nul \x00 bell \x07 del \x7f é € 😀 \u2028"
    inst = generate(params_for_class("small", 15))
    sched = solve_greedy(inst)
    done = SolveResult("feasible", 30, 20, 0.3333333333333333, 7, 0, sched)
    cases = [
        (dumps_instance(sample_instance()), instance_to_dict(sample_instance())),  # empty windows and pair map
        (dumps_instance(inst), instance_to_dict(inst)),
        (dumps_result(done), {"status": "feasible", "makespan": 30, "lower_bound": 20, "gap": 0.3333333333333333,
                              "nodes": 7, "wall_ms": 0, "schedule": schedule_to_dict(sched)}),
        (dumps_result(SolveResult("limit", None, 5, None, 0, 12, None)),
         {"status": "limit", "makespan": None, "lower_bound": 5, "gap": None, "nodes": 0, "wall_ms": 12,
          "schedule": None}),
        (dumps_report([]), []),
        (dumps_report([Violation("calendar", (3, 4), odd), Violation("setup", (), "")]),
         [{"rule": "calendar", "op_ids": [3, 4], "detail": odd}, {"rule": "setup", "op_ids": [], "detail": ""}]),
    ]
    for doc in ({"class": "small", "k": 15, "seed": 1, "generator_version": "0.1.0", "jobs": 4},
                {odd: [True, False, None, 0.0, -0.0, 1.5, 1e300, -2.5e-300, float("inf"), float("-inf"),
                       float("nan"), -7, 10**30, [], {}, (), [[]], {"": {"x": [{}]}}], "": odd},
                {}, [], [[1, [2, [3]]], {"a": ()}],
                # direct members that take the inline int path (exact ints) and those that skip it
                {"t": True, "f": False, "enum": Level.HIGH, "zero": -0, "big": 10**4000, "neg": -7},
                [True, False, Level.HIGH, -0, 10**4000, -7]):
        cases.append((dumps_manifest(doc), doc))
    for text, doc in cases:
        assert text == json.dumps(doc, indent=1)


def test_writing_a_document_leaves_no_reference_cycle():
    # a cycle would keep the encoder's parts alive until the cyclic collector runs
    inst = generate(params_for_class("small", 15))
    gc.collect()
    gc.disable()
    try:
        dumps_instance(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_instance_field_shapes():
    data = instance_to_dict(sample_instance())
    assert set(data) == {"m", "machines", "operations", "arcs"}
    assert data["m"] == 2
    first = data["machines"][0]
    assert first["windows"] == [[4, 6]]
    assert first["setup_first"] == {"1": 2}
    assert first["setup_between"] == {}
    assert data["machines"][1]["setup_rule"] == {"st_smaller": 2, "st_larger": 4, "ct": 3, "vt": 2}
    op = data["operations"][0]
    assert op["eligible"] == {"1": 4, "2": 6}
    assert op["theta_hundredths"] == 50 and op["release"] == 3 and op["fixed"] is None
    assert data["operations"][1]["fixed"] == {"machine": 2, "start": 25}
    assert data["arcs"] == [[1, 2]]


def test_pair_setup_keys_serialize_as_comma_pairs():
    inst = Instance(num_machines=1,
                    operations=(Operation(1, 1, {1: 3}), Operation(2, 1, {1: 5})),
                    arcs=(),
                    machines=(Machine(1, setup=SetupTable({1: 2, 2: 2}, {(1, 2): 1, (2, 1): 4})),))
    raw = json.loads(dumps_instance(inst))
    assert raw["machines"][0]["setup_between"] == {"1,2": 1, "2,1": 4}
    assert loads_instance(dumps_instance(inst)).machines[0].setup.pairs == {(1, 2): 1, (2, 1): 4}


def test_optional_operation_fields_default():
    text = json.dumps({
        "m": 1,
        "machines": [{"id": 1, "windows": [], "setup_first": {"1": 0}, "setup_between": {}}],
        "operations": [{"id": 1, "job": 1, "eligible": {"1": 5}}],
        "arcs": [],
    })
    op = loads_instance(text).operations[0]
    assert (op.theta_hundredths, op.release, op.fixed, op.size, op.color, op.varnish) == (100, 0, None, 1, 1, 1)


def test_machine_with_both_setup_forms_is_rejected(tmp_path, capsys):
    data = {
        "m": 1,
        "machines": [{"id": 1, "windows": [], "setup_first": {"1": 0}, "setup_between": {},
                      "setup_rule": {"st_smaller": 2, "st_larger": 2, "ct": 3, "vt": 2}}],
        "operations": [{"id": 1, "job": 1, "eligible": {"1": 5}}],
        "arcs": [],
    }
    with pytest.raises(FormatError, match="both"):
        loads_instance(json.dumps(data))
    for drop in ("setup_first", "setup_between"):
        one_map = {**data, "machines": [{k: v for k, v in data["machines"][0].items() if k != drop}]}
        with pytest.raises(FormatError, match="both"):
            loads_instance(json.dumps(one_map))
    path = tmp_path / "both.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path), "--alg", "greedy"]) == 2
    assert "error:" in capsys.readouterr().err


def test_schedule_round_trip():
    sched = Schedule(
        ops={1: ScheduledOp(machine=1, setup_start=0, setup_len=2, start=2,
                            partial_completion=4, completion=5)},
        sequences={1: (1,), 2: ()})
    text = json.dumps(schedule_to_dict(sched))  # the CLI writes a schedule only inside a result
    back = loads_schedule(text)
    assert back == sched
    assert json.dumps(schedule_to_dict(back)) == text


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("m"),
    lambda d: d.pop("operations"),
    lambda d: d["operations"][0].pop("eligible"),
    lambda d: d["operations"][0].__setitem__("eligible", {}),
    lambda d: d["operations"][0].__setitem__("release", "soon"),
    lambda d: d["machines"][0]["setup_between"].__setitem__("1;2", 0),
    lambda d: d["arcs"].append([1]),
    lambda d: d["machines"][0]["windows"].append([1]),
    lambda d: d["machines"].append(5),
    lambda d: d.__setitem__("machines", {}),
])
def test_malformed_instance_raises_format_error(mutate):
    data = instance_to_dict(sample_instance())
    data["machines"][0]["setup_between"] = {"1,2": 0}  # give the mutator something to break
    mutate(data)
    with pytest.raises(FormatError):
        loads_instance(json.dumps(data))


RECORD = {"id": 1, "machine": 1, "setup_start": 0, "setup_len": 0, "start": 0, "partial_completion": 1,
          "completion": 1}


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["operations"][0].__setitem__("release", True), "operation[0].release: expected an integer, got True"),
    (lambda d: d["operations"][0].__setitem__("size", 1.5), "operation[0].size: expected an integer, got 1.5"),
    (lambda d: d["operations"][0].pop("job"), "operation[0]: missing key 'job'"),
    (lambda d: d["machines"][1]["setup_rule"].__setitem__("ct", "2"),
     "machine[1].setup_rule.ct: expected an integer, got '2'"),
    (lambda d: d["machines"][1].__setitem__("setup_rule", 7), "machine[1].setup_rule: expected an object, got int"),
    (lambda d: d["operations"][1]["fixed"].__setitem__("machine", True),
     "operation[1].fixed.machine: expected an integer, got True"),
    (lambda d: d["operations"][0]["eligible"].__setitem__("1", True),
     "operation[0].eligible: expected an integer, got True"),
    (lambda d: d["operations"][0]["eligible"].__setitem__("01", 3),
     "operation[0].eligible: key '01' is not an integer written as str(n)"),
    (lambda d: d["arcs"].append([1, True]), "arc head: expected an integer, got True"),
    (lambda d: d["arcs"].append([1]), "instance.arcs: each arc is a [tail, head] pair"),
    # a key read once is looked up after that: another spelling of the same id, or a bad value under a key
    # already read, still raises at the later operation
    (lambda d: d["operations"][1]["eligible"].__setitem__("01", 3),
     "operation[1].eligible: key '01' is not an integer written as str(n)"),
    (lambda d: d["operations"][1]["eligible"].__setitem__("1", True),
     "operation[1].eligible: expected an integer, got True"),
])
def test_malformed_instance_values_raise_their_whole_message(mutate, message):
    data = instance_to_dict(sample_instance())
    mutate(data)
    with pytest.raises(FormatError) as info:
        loads_instance(json.dumps(data))
    assert str(info.value) == message


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["operations"][0].__setitem__("start", True),
     "schedule operation[0].start: expected an integer, got True"),
    (lambda d: d["operations"][0].pop("completion"), "schedule operation[0]: missing key 'completion'"),
    (lambda d: d["operations"][0].__setitem__("id", "1"), "schedule operation[0].id: expected an integer, got '1'"),
    (lambda d: d["operations"].__setitem__(0, [1]), "schedule operation[0]: expected an object, got list"),
    (lambda d: d["sequences"].__setitem__("1", [1.0]), "sequence entry: expected an integer, got 1.0"),
])
def test_malformed_schedule_values_raise_their_whole_message(mutate, message):
    body = {"operations": [dict(RECORD)], "sequences": {"1": [1]}}
    mutate(body)
    with pytest.raises(FormatError) as info:
        loads_schedule(json.dumps(body))
    assert str(info.value) == message


def test_int_subclass_values_are_still_read_as_integers():
    data = instance_to_dict(sample_instance())
    data["operations"][0]["release"] = Level.HIGH
    data["operations"][0]["eligible"]["1"] = Level.HIGH
    data["arcs"] = [[1, Level.HIGH]]
    inst = instance_from_dict(data)
    assert (inst.operations[0].release, inst.operations[0].eligible[1], inst.arcs) == (2, 2, ((1, 2),))


def test_instance_text_must_be_json():
    with pytest.raises(FormatError):
        loads_instance("not json {")
    with pytest.raises(FormatError):
        loads_schedule("]")


def test_top_level_arrays_and_bad_sequences_raise_format_error():
    with pytest.raises(FormatError, match="instance: expected a JSON object at top level"):
        loads_instance("[]")
    with pytest.raises(FormatError, match="schedule: expected a JSON object at top level"):
        loads_schedule("[]")
    with pytest.raises(FormatError, match=r"schedule.sequences\['1'\]: expected a list of op ids"):
        loads_schedule(json.dumps({"operations": [], "sequences": {"1": 1}}))


def test_duplicate_schedule_operation_rejected():
    body = {
        "operations": [
            {"id": 1, "machine": 1, "setup_start": 0, "setup_len": 0, "start": 0,
             "partial_completion": 1, "completion": 1},
            {"id": 1, "machine": 1, "setup_start": 0, "setup_len": 0, "start": 2,
             "partial_completion": 3, "completion": 3},
        ],
        "sequences": {"1": [1]},
    }
    with pytest.raises(FormatError):
        loads_schedule(json.dumps(body))


def test_schedule_booleans_are_not_integers():
    body = {
        "operations": [{"id": 1, "machine": 1, "setup_start": 0, "setup_len": 0,
                        "start": True, "partial_completion": 1, "completion": 1}],
        "sequences": {"1": [1]},
    }
    with pytest.raises(FormatError):
        loads_schedule(json.dumps(body))
