"""JSON reading and writing for instances, schedules, results, and reports.

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

Results and reports, from ``solve`` and ``check`` ("schedule" is null when none was found)::

    {"status": "optimal", "makespan": 11, "lower_bound": 11, "gap": 0.0,
     "nodes": 7, "wall_ms": 0, "schedule": {"operations": [...], "sequences": {...}}}
    [{"rule": "calendar", "op_ids": [3], "detail": "..."}]

Record keys follow the model's dataclass fields in field order: an
operation holds those of :class:`Operation`, a schedule record "id" and then
those of :class:`ScheduledOp`, a "setup_rule" those of :class:`SetupRule`, a
result those of :class:`SolveResult`, a report entry those of :class:`Violation`.
A field with a default may be omitted; the others are required. Malformed
input, including JSON the parser cannot read (nested too deep, say) and a
map key that is not an id as ``str(n)`` writes it ("01", "+1", " 1", "1_0",
"-0", or "1, 2" for a pair), raises :class:`FormatError`; the CLI maps that to
exit code 2, keeping it distinct from domain violations (exit 1). So two keys
of one map never name the same id. A read tests each value's type once and
builds a field's error context only to raise it: a value of type exactly int
is taken as read, any other goes through the checks that name it, and an
operation's eligible map builds one context for all its keys. An instance's
eligible keys repeat a few machine ids, so each distinct key is checked on
its first read and looked up after that; a key that fails is never stored, so
every message is the one a check of each key gives.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections.abc import Callable
from typing import Any

from .model import (Instance, Machine, Operation, Schedule, ScheduledOp, SetupRule, SetupTable,
                    SolveResult, Violation, brief)


class FormatError(ValueError):
    """The payload is not structurally valid instance/schedule JSON."""


def _object(obj: Any, ctx: str) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{ctx}: expected an object, got {type(obj).__name__}")
    return obj


def _need(obj: Any, key: str, ctx: str, kind: type | None = None, default: Any = dataclasses.MISSING) -> Any:
    """``obj[key]``, required unless a default is given; with `kind` (list or dict) the value must be one."""
    if key not in _object(obj, ctx):
        if default is dataclasses.MISSING:
            raise FormatError(f"{ctx}: missing key {key!r}")
        return default
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise FormatError(f"{ctx}.{key}: expected {'a list' if kind is list else 'an object'}")
    return value


def _as_int(value: Any, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{ctx}: expected an integer, got {brief(value)}")
    return value


def _int_key(key: str, ctx: str) -> int:
    """The id `key` spells, read only in the one spelling ``str(n)`` writes, so distinct keys are distinct ids."""
    try:
        n = int(key)
        if str(n) == key:
            return n
    except (TypeError, ValueError):
        pass
    raise FormatError(f"{ctx}: key {brief(key)} is not an integer written as str(n)")


def _parse(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep for the decoder
        raise FormatError(f"{what}: invalid JSON: {exc}") from None


_quote = json.encoder.encode_basestring_ascii  # C-accelerated where the interpreter has it


def _dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=1)`` byte for byte, for documents whose keys are strings.

    Writes every document; no other module imports json. Any indent sends
    ``json.dumps`` to its pure-Python encoder: this one appends to one list and
    leaves strings, floats and the other scalars to :mod:`json`.
    """
    parts: list[str] = []
    _put(obj, "\n", parts.append)
    return "".join(parts)


def _put(o: Any, pad: str, emit: Callable[[str], Any]) -> None:
    """Emit the text of `o`; `pad` is a newline and the indent of the line `o` ends on.

    A module-level function, not a closure: a nested one that calls itself is a
    reference cycle, which would keep every part alive until the cyclic collector runs.
    """
    if isinstance(o, str):
        emit(_quote(o))
    elif isinstance(o, dict) and o:
        inner, lead = pad + " ", "{"
        for key, item in o.items():
            if type(item) is int:
                emit(f"{lead}{inner}{_quote(key)}: {item}")
            else:
                emit(f"{lead}{inner}{_quote(key)}: ")
                _put(item, inner, emit)
            lead = ","
        emit(pad + "}")
    elif isinstance(o, (list, tuple)) and o:
        inner, lead = pad + " ", "["
        for item in o:
            if type(item) is int:
                emit(f"{lead}{inner}{item}")
            else:
                emit(lead + inner)
                _put(item, inner, emit)
            lead = ","
        emit(pad + "]")
    elif o is None:
        emit("null")
    else:
        emit(json.dumps(o))  # bools, floats, a bare int, empty containers; TypeError as json.dumps raises it


_fields = functools.cache(dataclasses.fields)  # keyed by class; fields() builds a new tuple on every call


def _to_record(obj: Any, **given: Any) -> dict:
    """Dataclass `obj` as a JSON object in field order; `given` replaces the values of those fields."""
    return {f.name: given[f.name] if f.name in given else getattr(obj, f.name) for f in _fields(type(obj))}


def _from_record(cls: type, raw: Any, ctx: str, **given: Any) -> Any:
    """Dataclass `cls` from JSON object `raw`: `given` fields as passed, every other one an integer."""
    get = _object(raw, ctx).get
    for f in _fields(cls):
        name = f.name
        if name not in given:
            v = get(name, f.default)
            given[name] = v if type(v) is int else _as_int(_need(raw, name, ctx, default=f.default), f"{ctx}.{name}")
    return cls(**given)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def instance_to_dict(inst: Instance) -> dict:
    machines = []
    for mc in sorted(inst.machines, key=lambda m: m.id):
        entry: dict[str, Any] = {"id": mc.id, "windows": [[b, e] for b, e in mc.windows]}
        setup = mc.setup
        if isinstance(setup, SetupRule):
            entry["setup_rule"] = _to_record(setup)
        else:
            entry["setup_first"] = {str(i): g for i, g in sorted(setup.firsts.items())}
            entry["setup_between"] = {f"{i},{j}": g for (i, j), g in sorted(setup.pairs.items())}
        machines.append(entry)

    operations = [
        _to_record(op, eligible={str(k): p for k, p in sorted(op.eligible.items())},
                   fixed=None if op.fixed is None else {"machine": op.fixed[0], "start": op.fixed[1]})
        for op in sorted(inst.operations, key=lambda o: o.id)]

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
    for idx, raw in enumerate(_need(data, "machines", "instance", list)):
        ctx = f"machine[{idx}]"
        mid = _as_int(_need(raw, "id", ctx), f"{ctx}.id")
        windows = []
        for w in _need(raw, "windows", ctx, list, default=[]):
            if not isinstance(w, list) or len(w) != 2:
                raise FormatError(f"{ctx}.windows: each window is a [begin, end] pair")
            windows.append((_as_int(w[0], f"{ctx} window begin"), _as_int(w[1], f"{ctx} window end")))

        if "setup_rule" in raw:
            if "setup_first" in raw or "setup_between" in raw:
                raise FormatError(f"{ctx}: has both a setup_rule and setup maps; give one form")
            setup: SetupRule | SetupTable = _from_record(SetupRule, raw["setup_rule"], f"{ctx}.setup_rule")
        else:
            firsts = {_int_key(i, f"{ctx}.setup_first"): _as_int(g, f"{ctx}.setup_first")
                      for i, g in _need(raw, "setup_first", ctx, dict).items()}
            pairs = {}
            for key, g in _need(raw, "setup_between", ctx, dict).items():
                parts = str(key).split(",")
                if len(parts) != 2:
                    raise FormatError(f"{ctx}.setup_between: key {brief(key)} is not 'pred,succ'")
                where = f"{ctx}.setup_between[{brief(key)}]"
                pair = (_int_key(parts[0], where), _int_key(parts[1], where))
                pairs[pair] = _as_int(g, where)
            setup = SetupTable(firsts=firsts, pairs=pairs)

        machines.append(Machine(id=mid, setup=setup, windows=tuple(windows)))

    operations = []
    machine_keys: dict[str, int] = {}  # each eligible-map key read so far, checked by _int_key on its first read
    for idx, raw in enumerate(_need(data, "operations", "instance", list)):
        ctx = f"operation[{idx}]"
        eligible = _need(raw, "eligible", ctx)
        if not isinstance(eligible, dict) or not eligible:
            raise FormatError(f"{ctx}.eligible: expected a non-empty object")
        where = f"{ctx}.eligible"
        times = {}
        for key, p in eligible.items():
            k = machine_keys.get(key)
            if k is None:
                k = machine_keys[key] = _int_key(key, where)
            times[k] = p if type(p) is int else _as_int(p, where)
        eligible = times
        fixed = raw.get("fixed")
        if fixed is not None:
            fixed = (_as_int(_need(fixed, "machine", f"{ctx}.fixed"), f"{ctx}.fixed.machine"),
                     _as_int(_need(fixed, "start", f"{ctx}.fixed"), f"{ctx}.fixed.start"))
        operations.append(_from_record(Operation, raw, ctx, eligible=eligible, fixed=fixed))

    arcs = []
    for arc in _need(data, "arcs", "instance", list):
        if not (type(arc) is list and len(arc) == 2 and type(arc[0]) is int and type(arc[1]) is int):
            if not isinstance(arc, list) or len(arc) != 2:
                raise FormatError("instance.arcs: each arc is a [tail, head] pair")
            arc = [_as_int(arc[0], "arc tail"), _as_int(arc[1], "arc head")]
        arcs.append((arc[0], arc[1]))

    return Instance(num_machines=m, operations=tuple(operations), arcs=tuple(arcs), machines=tuple(machines))


def dumps_instance(inst: Instance) -> str:
    return _dumps(instance_to_dict(inst))


def loads_instance(text: str) -> Instance:
    return instance_from_dict(_parse(text, "instance"))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def schedule_to_dict(sched: Schedule) -> dict:
    return {
        "operations": [{"id": op_id, **_to_record(sched.ops[op_id])} for op_id in sorted(sched.ops)],
        "sequences": {str(k): list(seq) for k, seq in sorted(sched.sequences.items())},
    }


def schedule_from_dict(data: Any) -> Schedule:
    if not isinstance(data, dict):
        raise FormatError("schedule: expected a JSON object at top level")
    ops: dict[int, ScheduledOp] = {}
    for idx, raw in enumerate(_need(data, "operations", "schedule", list)):
        ctx = f"schedule operation[{idx}]"
        op_id = _object(raw, ctx).get("id")
        if type(op_id) is not int:
            op_id = _as_int(_need(raw, "id", ctx), f"{ctx}.id")
        if op_id in ops:
            raise FormatError(f"{ctx}: duplicate operation id {op_id}")
        ops[op_id] = _from_record(ScheduledOp, raw, ctx)
    sequences = {}
    for key, ids in _need(data, "sequences", "schedule", dict).items():
        if not isinstance(ids, list):
            raise FormatError(f"schedule.sequences[{brief(key)}]: expected a list of op ids")
        entries = tuple(i if type(i) is int else _as_int(i, "sequence entry") for i in ids)
        sequences[_int_key(key, "schedule.sequences")] = entries
    return Schedule(ops=ops, sequences=sequences)


def loads_schedule(text: str) -> Schedule:
    return schedule_from_dict(_parse(text, "schedule"))


# ---------------------------------------------------------------------------
# Results, reports, and manifests
# ---------------------------------------------------------------------------


def dumps_result(result: SolveResult) -> str:
    schedule = None if result.schedule is None else schedule_to_dict(result.schedule)
    return _dumps(_to_record(result, schedule=schedule))


def dumps_report(violations: list[Violation]) -> str:
    return _dumps([_to_record(v) for v in violations])  # op_ids: a tuple encodes as an array


def dumps_manifest(manifest: dict[str, Any]) -> str:
    return _dumps(manifest)
