"""The three benchmark workloads: set-up, one timed pass, and output checks.

Every workload runs a pinned instance set. The benchmark seed relabels each
instance (a seeded permutation of operation and machine ids), so inputs,
file bytes and every id tie-break change with the seed while the instances
stay isomorphic: optima, and so the pinned-optimum check, hold for every
seed.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import json
import os
import random
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

# Proven optima of small k=1, generator seeds 1-12 (the first five agree with
# an independent MILP solve).
PINNED_OPTIMA = (187, 201, 178, 217, 199, 163, 101, 228, 212, 194, 166, 258)
BUDGET_NODES = 100_000


@dataclasses.dataclass(frozen=True)
class Spec:
    cls: str
    k: int
    gen_seed: int

    @property
    def label(self) -> str:
        return f"{self.cls}-{self.k}-s{self.gen_seed}"


class Checks:
    """Counts attempted output checks and keeps a line per failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class _RefJob:
    __slots__ = ("weight", "load")

    def __init__(self, i: int) -> None:
        self.weight, self.load = i * 7 % 11 + 1, 0

    def use(self, t: int) -> None:
        self.load = max(self.load, t) + self.weight


def reference_work() -> int:
    """A fixed pure-Python job (about 15 ms): heap, dict and attribute work.

    Timed beside each unit, it measures how fast the host runs Python at
    that moment. It never calls flexshop, so a change to the program leaves
    it alone, while a slow spell on a shared host slows it as it slows the
    unit.
    """
    seen: dict[int, int] = {}
    heap = [(0, 0)]
    jobs = [_RefJob(i) for i in range(64)]
    for _ in range(4000):
        cost, key = heapq.heappop(heap)
        job = jobs[key & 63]
        job.use(cost)
        for j in range(4):
            nxt, c = (key * 31 + j) % 100_003, cost + job.weight + j
            if seen.get(nxt, 1 << 30) > c:
                seen[nxt] = c
                heapq.heappush(heap, (c, nxt))
    return sum(job.load for job in jobs)


def reference_seconds(clock: Callable[[], float] = perf_counter) -> float:
    """Time of one `reference_work` by `clock`, with the cyclic garbage collector off.

    Without the collector its time does not depend on how many objects the
    program holds at that moment.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        reference_work()
        return clock() - t0
    finally:
        if was_enabled:
            gc.enable()


class Stopwatch:
    """Wall time per "stage/instance", and the mean time of `reference_work` just before and after it.

    The reference run that ends one stage also serves as the one before the
    next stage of the pass. Traces only inside stages when given a tracer.
    """

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        self.times: dict[str, float] = {}
        self.ref: dict[str, float] = {}
        self._last_ref: float | None = None

    @contextmanager
    def stage(self, stage: str, spec: Spec) -> Iterator[None]:
        before = reference_seconds() if self._last_ref is None else self._last_ref
        if self.tracer is not None:
            self.tracer.install()
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.uninstall()
            self._last_ref = reference_seconds()
            self.times[f"{stage}/{spec.label}"] = dt
            self.ref[f"{stage}/{spec.label}"] = (before + self._last_ref) / 2


def relabel(fs: dict[str, Any], inst: Any, seed: int) -> Any:
    """The instance with operation and machine ids permuted by `seed` (0 keeps them).

    Generated machines carry setup rules, never setup maps keyed by operation
    id, so ids appear only where they are rewritten here.
    """
    if seed == 0:
        return inst
    rng = random.Random(seed)
    d = fs["jsonio"].instance_to_dict(inst)
    n, m = len(d["operations"]), d["m"]
    op_new = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    mc_new = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
    for mc in d["machines"]:
        mc["id"] = mc_new[mc["id"]]
    for op in d["operations"]:
        op["id"] = op_new[op["id"]]
        op["eligible"] = {str(mc_new[int(k)]): p for k, p in op["eligible"].items()}
        if op["fixed"] is not None:
            op["fixed"]["machine"] = mc_new[op["fixed"]["machine"]]
    d["arcs"] = [[op_new[i], op_new[j]] for i, j in d["arcs"]]
    return fs["jsonio"].instance_from_dict(d)


class Workload:
    """Instances prepared once per set-up; `run_pass` times one pass over them."""

    name = ""
    # Seconds one untraced pass took on the parent code (2-vCPU host); it fixes
    # the number of passes a run makes, see run.pass_count.
    nominal_pass_s = 1.0
    # Set-ups per run, about 2 s of them; setup_s is their median.
    setup_reps = 9

    def __init__(self, fs: dict[str, Any], seed: int, tmp: str):
        self.fs, self.seed, self.tmp = fs, seed, tmp
        self.context: list[dict[str, Any]] = []
        self.generated: dict[Spec, str] = {}  # the generator's own bytes
        self.texts: dict[Spec, str] = {}  # the relabeled instance the pass reads
        self.paths: dict[Spec, str] = {}
        for spec in self.specs():
            self._prepare(spec)

    def specs(self) -> list[Spec]:
        raise NotImplementedError

    def _prepare(self, spec: Spec) -> None:
        fs = self.fs
        params = dataclasses.replace(fs["generator"].params_for_class(spec.cls, spec.k), seed=spec.gen_seed)
        original = fs["generator"].generate(params)
        inst = relabel(fs, original, self.seed)
        self.generated[spec] = fs["jsonio"].dumps_instance(original)
        text = self.generated[spec] if inst is original else fs["jsonio"].dumps_instance(inst)
        path = os.path.join(self.tmp, f"{spec.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.texts[spec], self.paths[spec] = text, path
        self.context.append({"instance": spec.label, "class": spec.cls, "k": spec.k,
                             "gen_seed": spec.gen_seed, "relabel_seed": self.seed,
                             "ops": len(inst.operations), "machines": inst.num_machines,
                             "instance_bytes": len(text.encode())})

    def fresh(self, spec: Spec) -> Any:
        """A newly parsed instance, so no lazily cached lookup carries over between passes."""
        return self.fs["jsonio"].loads_instance(self.texts[spec])

    def run_pass(self, watch: Stopwatch, checks: Checks) -> dict[str, float]:
        """Time one pass; return the counts it produced."""
        raise NotImplementedError


class GreedyLarge(Workload):
    """The CLI round trip gen -> solve --alg greedy -> extract -> check -> gantt."""

    name = "greedy-large"
    nominal_pass_s = 1.1

    def specs(self) -> list[Spec]:
        return [Spec("large", 25, 7), Spec("large", 50, 7)]

    def run_pass(self, watch: Stopwatch, checks: Checks) -> dict[str, float]:
        cli = self.fs["cli"]
        makespan_sum = 0
        for spec in self.specs():
            base = os.path.join(self.tmp, f"{spec.label}.pass")
            gen, res, sched, report, svg = (f"{base}.{ext}" for ext in
                                            ("gen.json", "result.json", "sched.json", "report.json", "svg"))
            inst_path = self.paths[spec]
            with watch.stage("gen", spec):
                rc_gen = cli.main(["gen", spec.cls, str(spec.k), "--seed", str(spec.gen_seed), "--out", gen])
            with watch.stage("solve", spec):
                rc_solve = cli.main(["solve", inst_path, "--alg", "greedy", "--out", res])
            with watch.stage("extract", spec):
                with open(res, encoding="utf-8") as fh:
                    result = json.load(fh)
                with open(sched, "w", encoding="utf-8") as fh:
                    json.dump(result["schedule"], fh)
            with watch.stage("check", spec):
                rc_check = cli.main(["check", inst_path, sched, "--out", report])
            with watch.stage("gantt", spec):
                rc_gantt = cli.main(["gantt", inst_path, sched, "--out", svg])

            label = spec.label
            checks.expect((rc_gen, rc_solve, rc_check, rc_gantt) == (0, 0, 0, 0),
                          f"{label}: exit codes gen/solve/check/gantt {rc_gen}/{rc_solve}/{rc_check}/{rc_gantt}")
            checks.expect(_read(gen) == self.generated[spec], f"{label}: gen output differs from the library's")
            checks.expect(json.loads(_read(report)) == [], f"{label}: check reported violations")
            completions = [op["completion"] for op in result["schedule"]["operations"]]
            checks.expect(result["status"] == "feasible" and result["makespan"] == max(completions)
                          and result["lower_bound"] <= result["makespan"],
                          f"{label}: result fields inconsistent")
            checks.expect(_read(svg).startswith("<svg"), f"{label}: gantt did not write an SVG")
            makespan_sum += result["makespan"]
        return {"greedy_makespan": makespan_sum}


class ExactSmall(Workload):
    """Proof: small k=1 solved to optimality. Budget: small k=15 at a fixed node limit."""

    name = "exact-small"
    nominal_pass_s = 10.0
    setup_reps = 31

    def proof_specs(self) -> list[Spec]:
        return [Spec("small", 1, s) for s in range(1, 13)]

    def budget_specs(self) -> list[Spec]:
        return [Spec("small", 15, s) for s in (1, 2, 3, 42)]

    def specs(self) -> list[Spec]:
        return self.proof_specs() + self.budget_specs()

    def run_pass(self, watch: Stopwatch, checks: Checks) -> dict[str, float]:
        solvers, timing, milp = self.fs["solvers"], self.fs["timing"], self.fs["milp"]
        nodes = 0
        for pos, spec in enumerate(self.proof_specs()):
            inst = self.fresh(spec)
            with watch.stage("proof", spec):
                r = solvers.solve_exact(inst)
            nodes += r.nodes
            label = spec.label
            checks.expect(r.status == "optimal", f"{label}: status {r.status}, not optimal")
            if r.schedule is None:
                continue
            checks.expect(r.makespan == PINNED_OPTIMA[pos],
                          f"{label}: optimum {r.makespan}, pinned {PINNED_OPTIMA[pos]}")
            checks.expect(timing.check_schedule(inst, r.schedule) == [], f"{label}: optimum fails the checker")
            checks.expect(milp.evaluate_schedule(inst, r.schedule) == [], f"{label}: optimum violates model rows")
            greedy = self._cli_greedy(spec)
            checks.expect(greedy is not None and greedy["lower_bound"] <= r.makespan <= greedy["makespan"],
                          f"{label}: greedy bound/makespan {greedy and (greedy['lower_bound'], greedy['makespan'])}"
                          f" do not bracket optimum {r.makespan}")

        gaps = []
        for spec in self.budget_specs():
            inst = self.fresh(spec)
            with watch.stage("budget", spec):
                r = solvers.solve_exact(inst, node_limit=BUDGET_NODES)
            label = spec.label
            checks.expect(r.schedule is not None and r.nodes <= BUDGET_NODES
                          and r.lower_bound <= r.makespan,
                          f"{label}: status {r.status}, nodes {r.nodes}, bound {r.lower_bound}, makespan {r.makespan}")
            if r.schedule is not None:
                checks.expect(timing.check_schedule(inst, r.schedule) == [], f"{label}: incumbent fails the checker")
                gaps.append(r.gap)
        return {"nodes_to_proof": nodes, "budget_gap": statistics.fmean(gaps) if gaps else float("nan")}

    def _cli_greedy(self, spec: Spec) -> dict | None:
        out = os.path.join(self.tmp, f"{spec.label}.greedy.json")
        if self.fs["cli"].main(["solve", self.paths[spec], "--alg", "greedy", "--out", out]) != 0:
            return None
        return json.loads(_read(out))


class MilpMedium(Workload):
    """build_model -> emit_lp, then evaluate_schedule on the greedy schedule."""

    name = "milp-medium"
    nominal_pass_s = 6.3
    setup_reps = 15

    def specs(self) -> list[Spec]:
        return [Spec("medium", 20, 7), Spec("medium", 40, 7)]

    def __init__(self, *args: Any):
        super().__init__(*args)
        self.schedules = {spec: self.fs["solvers"].solve_greedy(self.fresh(spec)) for spec in self.specs()}

    def run_pass(self, watch: Stopwatch, checks: Checks) -> dict[str, float]:
        milp, timing = self.fs["milp"], self.fs["timing"]
        rows = lp_bytes = 0
        for spec in self.specs():
            inst = self.fresh(spec)
            sched = self.schedules[spec]
            with watch.stage("lp_export", spec):
                model = milp.build_model(inst)
                lp = milp.emit_lp(model)
            rows += len(model.constraints)
            lp_bytes += len(lp)
            checks.expect(lp.startswith("Minimize\n") and lp.endswith("End\n")
                          and lp.count("\n", lp.index("Subject To\n"), lp.index("\nBounds\n")) == len(model.constraints),
                          f"{spec.label}: LP text does not hold one line per model row")
            del model, lp
            with watch.stage("row_check", spec):
                violated = milp.evaluate_schedule(inst, sched)
            checks.expect(violated == [], f"{spec.label}: greedy schedule violates {len(violated)} model rows")
            checks.expect(timing.check_schedule(inst, sched) == [], f"{spec.label}: greedy schedule fails the checker")
        return {"milp_rows": rows, "lp_bytes": lp_bytes}


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


WORKLOADS = {w.name: w for w in (GreedyLarge, ExactSmall, MilpMedium)}
