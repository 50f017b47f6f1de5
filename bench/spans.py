"""Spans around the calls into each flexshop module, recorded from outside.

The tracer replaces public functions with timing wrappers at the places
callers look them up (a module attribute, or a method on its class), records
one span per call with a link to the span that was open when it started, and
restores the originals on uninstall. Nothing inside ``src/`` changes.

Spans live in flat arrays (name index, parent index, start, end) so that a
pass with millions of placement calls stays within tens of megabytes; they
are reduced to per-layer totals when the pass ends, then cleared.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Any, Callable

# Turns a call's arguments and result into counters summed per span name.
Measure = Callable[[tuple, Any], dict[str, int]]


def _ops(args: tuple, result: Any) -> dict[str, int]:
    return {"ops": len(args[0].operations)}


def _nodes(args: tuple, result: Any) -> dict[str, int]:
    return {"nodes": result.nodes}


def _lp(args: tuple, result: Any) -> dict[str, int]:
    return {"rows": len(args[0].constraints), "bytes": len(result)}


def _bytes(args: tuple, result: Any) -> dict[str, int]:
    return {"bytes": len(result)}


# Functions: (span name, defining module, attribute, modules that import it by
# name, counter). Methods: (span name, module, class, method, counter).
# params_for_class, dumps_report and schedule_to_dict feed no metric; they are
# wrapped so that their time counts to their own layer, not to cli.self_s.
FUNCTIONS: tuple[tuple[str, str, str, tuple[str, ...], Measure | None], ...] = (
    ("cli.main", "cli", "main", (), None),
    ("generator.params_for_class", "generator", "params_for_class", ("cli",), None),
    ("generator.generate", "generator", "generate", ("cli",), None),
    ("jsonio.dumps_instance", "jsonio", "dumps_instance", ("cli",), _bytes),
    ("jsonio.loads_instance", "jsonio", "loads_instance", ("cli",), None),
    ("jsonio.loads_schedule", "jsonio", "loads_schedule", ("cli",), None),
    ("jsonio.dumps_report", "jsonio", "dumps_report", ("cli",), None),
    ("jsonio.schedule_to_dict", "jsonio", "schedule_to_dict", (), None),
    ("model.validate_instance", "model", "validate_instance", ("cli",), None),
    ("timing.check_schedule", "timing", "check_schedule", ("cli",), None),
    ("solvers.solve_greedy", "solvers", "solve_greedy", ("cli",), _ops),
    ("solvers.solve_exact", "solvers", "solve_exact", ("cli",), _nodes),
    ("milp.build_model", "milp", "build_model", ("cli",), None),
    ("milp.emit_lp", "milp", "emit_lp", ("cli",), _lp),
    ("milp.evaluate_schedule", "milp", "evaluate_schedule", (), None),
    ("gantt.render_svg", "gantt", "render_svg", ("cli",), None),
)
METHODS: tuple[tuple[str, str, str, str, Measure | None], ...] = (
    ("timing.placement", "timing", "PlacementEngine", "placement", None),
    ("model.setup_between", "model", "Instance", "setup_between", None),
)


class Tracer:
    """Wrappers for a set of flexshop modules, switched on and off per stage."""

    def __init__(self, modules: dict[str, Any]):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._open = [-1]
        self._patches: list[tuple[Any, str, Any, Any]] = []  # owner, attribute, original, wrapper
        for name, home, attr, importers, measure in FUNCTIONS:
            original = getattr(modules[home], attr)
            wrapped = self._wrap(name, original, measure)
            for owner in (modules[m] for m in (home, *importers)):
                if getattr(owner, attr, None) is original:
                    self._patches.append((owner, attr, original, wrapped))
        for name, home, cls_name, attr, measure in METHODS:
            cls = getattr(modules[home], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original, self._wrap(name, original, measure)))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn: Callable, measure: Measure | None) -> Callable:
        idx = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, open_ = self.name_of, self.parent, self.start, self.end, self._open
        counters = self.counters

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(idx)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                open_.pop()
            if measure is not None:
                for key, value in measure(args, result).items():
                    counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reduction -----------------------------------------------------------

    def reduce(self) -> dict[str, float]:
        """Per span name: calls, inclusive and self seconds, and counters; then clear.

        Self time is a span's duration minus the time its child spans cover.
        ``<child>@<parent>`` entries give calls and inclusive time by caller.
        """
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child = array("d", bytes(8 * n))
        agg: dict[tuple[int, int], list] = {}  # (name, parent name or -1) -> [calls, incl_s]
        for s in range(n):
            d = end[s] - start[s]
            p = parent[s]
            if p >= 0:
                child[p] += d
                key = (name_of[s], name_of[p])
            else:
                key = (name_of[s], -1)
            entry = agg.get(key)
            if entry is None:
                agg[key] = [1, d]
            else:
                entry[0] += 1
                entry[1] += d
        self_s = [0.0] * len(self.names)
        for s in range(n):
            self_s[name_of[s]] += end[s] - start[s] - child[s]

        out: dict[str, float] = {}
        for (i, j), (calls, incl) in agg.items():
            keys = [self.names[i]] if j < 0 else [self.names[i], f"{self.names[i]}@{self.names[j]}"]
            for key in keys:
                out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + calls
                out[f"{key}.incl_s"] = out.get(f"{key}.incl_s", 0.0) + incl
        for i, name in enumerate(self.names):
            if f"{name}.calls" in out:
                out[f"{name}.self_s"] = self_s[i]
        out.update(self.counters)
        self.clear()
        return out

    def clear(self) -> None:
        for arr in (self.name_of, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()
        del self._open[1:]
