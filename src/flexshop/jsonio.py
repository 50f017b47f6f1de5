"""JSON reading and writing for instances, schedules, reports, and results.

Instance shape::

    {"m": 3,
     "machines": [{"id": 1, "windows": [[4, 6]],
                   "setup_first": {"1": 2}, "setup_between": {"1,2": 1}}],
     "operations": [{"id": 1, "job": 1, "eligible": {"1": 5},
                     "theta_hundredths": 100, "release": 0, "fixed": null,
                     "size": 1, "color": 1, "varnish": 1}],
     "arcs": [[1, 2]]}

JSON object keys are strings, so machine keys inside "eligible" and
"setup_first" are stringified ints and pair-setup keys are "pred,succ".
A machine may carry {"setup_rule": {"st_smaller": ..., "st_larger": ...,
"ct": ..., "vt": ...}} in place of the two maps, never both; generated
instances always do, since materialized pair maps grow quadratically in
eligible operations.

Schedules::

    {"operations": [{"id": 1, "machine": 2, "setup_start": 3, "setup_len": 2,
                     "start": 5, "partial_completion": 9, "completion": 11}],
     "sequences": {"2": [1]}}

Malformed input raises :class:`FormatError`; the CLI maps that to exit
code 2, keeping it distinct from domain violations (exit 1).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from .model import (Instance, Machine, Operation, Schedule, ScheduledOp, SetupRule, SetupTable,
                    Violation)


class FormatError(ValueError):
    """The payload is not structurally valid instance/schedule JSON."""


def _need(obj: dict, key: str, ctx: str) -> Any:
    if not isinstance(obj, dict):
        raise FormatError(f"{ctx}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise FormatError(f"{ctx}: missing key {key!r}")
    return obj[key]


def _as_int(value: Any, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{ctx}: expected an integer, got {value!r}")
    return value


def _int_key(key: str, ctx: str) -> int:
    try:
        return int(key)
    except (TypeError, ValueError):
        raise FormatError(f"{ctx}: key {key!r} is not an integer") from None


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def instance_to_dict(inst: Instance) -> dict:
    machines = []
    for mc in sorted(inst.machines, key=lambda m: m.id):
        entry: dict[str, Any] = {"id": mc.id, "windows": [[b, e] for b, e in mc.windows]}
        setup = mc.setup
        if isinstance(setup, SetupRule):
            entry["setup_rule"] = dataclasses.asdict(setup)
        else:
            entry["setup_first"] = {str(i): g for i, g in sorted(setup.firsts.items())}
            entry["setup_between"] = {f"{i},{j}": g for (i, j), g in sorted(setup.pairs.items())}
        machines.append(entry)

    operations = []
    for op in sorted(inst.operations, key=lambda o: o.id):
        operations.append({
            "id": op.id,
            "job": op.job,
            "eligible": {str(k): p for k, p in sorted(op.eligible.items())},
            "theta_hundredths": op.theta_hundredths,
            "release": op.release,
            "fixed": None if op.fixed is None else {"machine": op.fixed[0], "start": op.fixed[1]},
            "size": op.size,
            "color": op.color,
            "varnish": op.varnish,
        })

    return {
        "m": inst.num_machines,
        "machines": machines,
        "operations": operations,
        "arcs": [[i, j] for i, j in sorted(inst.arcs)],
    }


def instance_from_dict(data: Any) -> Instance:
    if not isinstance(data, dict):
        raise FormatError("instance: expected a JSON object at top level")
    m = _as_int(_need(data, "m", "instance"), "instance.m")

    machines = []
    raw_machines = _need(data, "machines", "instance")
    if not isinstance(raw_machines, list):
        raise FormatError("instance.machines: expected a list")
    for idx, raw in enumerate(raw_machines):
        ctx = f"machine[{idx}]"
        mid = _as_int(_need(raw, "id", ctx), f"{ctx}.id")
        raw_windows = raw.get("windows", [])
        if not isinstance(raw_windows, list):
            raise FormatError(f"{ctx}.windows: expected a list")
        windows = []
        for w in raw_windows:
            if not isinstance(w, list) or len(w) != 2:
                raise FormatError(f"{ctx}.windows: each window is a [begin, end] pair")
            windows.append((_as_int(w[0], f"{ctx} window begin"), _as_int(w[1], f"{ctx} window end")))

        if "setup_rule" in raw:
            if "setup_first" in raw or "setup_between" in raw:
                raise FormatError(f"{ctx}: has both a setup_rule and setup maps; give one form")
            setup: SetupRule | SetupTable = SetupRule(**{
                f.name: _as_int(_need(raw["setup_rule"], f.name, f"{ctx}.setup_rule"), f"{ctx}.{f.name}")
                for f in dataclasses.fields(SetupRule)})
        else:
            raw_first = _need(raw, "setup_first", ctx)
            if not isinstance(raw_first, dict):
                raise FormatError(f"{ctx}.setup_first: expected an object")
            firsts = {_int_key(i, f"{ctx}.setup_first"): _as_int(g, f"{ctx}.setup_first") for i, g in raw_first.items()}
            raw_between = _need(raw, "setup_between", ctx)
            if not isinstance(raw_between, dict):
                raise FormatError(f"{ctx}.setup_between: expected an object")
            pairs = {}
            for key, g in raw_between.items():
                parts = str(key).split(",")
                if len(parts) != 2:
                    raise FormatError(f"{ctx}.setup_between: key {key!r} is not 'pred,succ'")
                pairs[(_int_key(parts[0], ctx), _int_key(parts[1], ctx))] = _as_int(g, f"{ctx}.setup_between[{key}]")
            setup = SetupTable(firsts=firsts, pairs=pairs)

        machines.append(Machine(id=mid, setup=setup, windows=tuple(windows)))

    operations = []
    raw_ops = _need(data, "operations", "instance")
    if not isinstance(raw_ops, list):
        raise FormatError("instance.operations: expected a list")
    for idx, raw in enumerate(raw_ops):
        ctx = f"operation[{idx}]"
        raw_eligible = _need(raw, "eligible", ctx)
        if not isinstance(raw_eligible, dict) or not raw_eligible:
            raise FormatError(f"{ctx}.eligible: expected a non-empty object")
        eligible = {_int_key(k, f"{ctx}.eligible"): _as_int(p, f"{ctx}.eligible") for k, p in raw_eligible.items()}
        raw_fixed = raw.get("fixed")
        fixed = None
        if raw_fixed is not None:
            fixed = (_as_int(_need(raw_fixed, "machine", f"{ctx}.fixed"), f"{ctx}.fixed.machine"),
                     _as_int(_need(raw_fixed, "start", f"{ctx}.fixed"), f"{ctx}.fixed.start"))
        operations.append(Operation(
            id=_as_int(_need(raw, "id", ctx), f"{ctx}.id"),
            job=_as_int(_need(raw, "job", ctx), f"{ctx}.job"),
            eligible=eligible,
            theta_hundredths=_as_int(raw.get("theta_hundredths", 100), f"{ctx}.theta_hundredths"),
            release=_as_int(raw.get("release", 0), f"{ctx}.release"),
            fixed=fixed,
            size=_as_int(raw.get("size", 1), f"{ctx}.size"),
            color=_as_int(raw.get("color", 1), f"{ctx}.color"),
            varnish=_as_int(raw.get("varnish", 1), f"{ctx}.varnish"),
        ))

    raw_arcs = _need(data, "arcs", "instance")
    if not isinstance(raw_arcs, list):
        raise FormatError("instance.arcs: expected a list")
    arcs = []
    for arc in raw_arcs:
        if not isinstance(arc, list) or len(arc) != 2:
            raise FormatError("instance.arcs: each arc is a [tail, head] pair")
        arcs.append((_as_int(arc[0], "arc tail"), _as_int(arc[1], "arc head")))

    return Instance(num_machines=m, operations=tuple(operations), arcs=tuple(arcs), machines=tuple(machines))


def dumps_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=1)


def loads_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"instance: invalid JSON: {exc}") from None
    return instance_from_dict(data)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def schedule_to_dict(sched: Schedule) -> dict:
    operations = []
    for op_id in sorted(sched.ops):
        so = sched.ops[op_id]
        operations.append({
            "id": op_id,
            "machine": so.machine,
            "setup_start": so.setup_start,
            "setup_len": so.setup_len,
            "start": so.start,
            "partial_completion": so.partial_completion,
            "completion": so.completion,
        })
    return {
        "operations": operations,
        "sequences": {str(k): list(seq) for k, seq in sorted(sched.sequences.items())},
    }


def schedule_from_dict(data: Any) -> Schedule:
    if not isinstance(data, dict):
        raise FormatError("schedule: expected a JSON object at top level")
    raw_ops = _need(data, "operations", "schedule")
    if not isinstance(raw_ops, list):
        raise FormatError("schedule.operations: expected a list")
    ops: dict[int, ScheduledOp] = {}
    for idx, raw in enumerate(raw_ops):
        ctx = f"schedule operation[{idx}]"
        op_id = _as_int(_need(raw, "id", ctx), f"{ctx}.id")
        if op_id in ops:
            raise FormatError(f"{ctx}: duplicate operation id {op_id}")
        ops[op_id] = ScheduledOp(
            machine=_as_int(_need(raw, "machine", ctx), f"{ctx}.machine"),
            setup_start=_as_int(_need(raw, "setup_start", ctx), f"{ctx}.setup_start"),
            setup_len=_as_int(_need(raw, "setup_len", ctx), f"{ctx}.setup_len"),
            start=_as_int(_need(raw, "start", ctx), f"{ctx}.start"),
            partial_completion=_as_int(_need(raw, "partial_completion", ctx), f"{ctx}.partial_completion"),
            completion=_as_int(_need(raw, "completion", ctx), f"{ctx}.completion"),
        )
    raw_seq = _need(data, "sequences", "schedule")
    if not isinstance(raw_seq, dict):
        raise FormatError("schedule.sequences: expected an object")
    sequences = {}
    for key, ids in raw_seq.items():
        if not isinstance(ids, list):
            raise FormatError(f"schedule.sequences[{key}]: expected a list of op ids")
        sequences[_int_key(key, "schedule.sequences")] = tuple(_as_int(i, "sequence entry") for i in ids)
    return Schedule(ops=ops, sequences=sequences)


def dumps_schedule(sched: Schedule) -> str:
    return json.dumps(schedule_to_dict(sched), indent=1)


def loads_schedule(text: str) -> Schedule:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"schedule: invalid JSON: {exc}") from None
    return schedule_from_dict(data)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def dumps_report(violations: list[Violation]) -> str:
    return json.dumps([v.to_dict() for v in violations], indent=1)
