"""flexshop benchmark: one workload per process, timed passes, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload greedy-large --seed 0 --seconds 16 --trace 0
    python3 bench/run.py --workload all           # every workload, one process each

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones (set-up, pass time over reference time, peak memory);
with ``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones plus the tracing overhead. The line before it is the full report: every
named workload metric with its value, median, quartiles and sample count,
the counts, the failed checks and the run context. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

T_START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "generator", "jsonio", "model", "timing", "solvers", "milp", "gantt")

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Checks, Stopwatch, reference_seconds  # noqa: E402

# CPU seconds `reference_work` takes on the nominal host (2-vCPU x86-64,
# CPython 3.11); setup_s is given in seconds at that speed.
REF_NOMINAL_S = 0.015

# Named workload metrics: (name, unit, where the value comes from).
WORKLOAD_METRICS = {
    "greedy-large": (("pipeline_s", "s", "pass"), ("greedy_makespan", "count", "greedy_makespan")),
    "exact-small": (("proof_s", "s", "proof"), ("nodes_to_proof", "count", "nodes_to_proof"),
                    ("budget_s", "s", "budget"), ("budget_gap", "ratio", "budget_gap")),
    "milp-medium": (("lp_export_s", "s", "lp_export"), ("row_check_s", "s", "row_check")),
}

# Per-layer metrics of a traced pass: (name, unit, source key in the reduced
# spans, or a function of them).
LAYER_METRICS: tuple[tuple[str, str, Any], ...] = (
    ("generator.generate_s", "s", "generator.generate.self_s"),
    ("jsonio.dumps_instance_s", "s", "jsonio.dumps_instance.self_s"),
    ("jsonio.loads_instance_s", "s", "jsonio.loads_instance.self_s"),
    ("jsonio.loads_schedule_s", "s", "jsonio.loads_schedule.self_s"),
    ("jsonio.instance_bytes", "bytes", "jsonio.dumps_instance.bytes"),
    ("model.validate_instance_s", "s", "model.validate_instance.self_s"),
    ("timing.check_schedule_s", "s", "timing.check_schedule.self_s"),
    ("gantt.render_svg_s", "s", "gantt.render_svg.self_s"),
    ("cli.self_s", "s", "cli.main.self_s"),
    ("solvers.greedy_self_s", "s", "solvers.solve_greedy.self_s"),
    ("timing.placements_per_op", "1/op",
     lambda r: _ratio(r, "timing.placement@solvers.solve_greedy.calls", "solvers.solve_greedy.ops")),
    ("timing.placement_calls", "count", "timing.placement.calls"),
    ("timing.placement_s", "s", "timing.placement.self_s"),
    ("model.setup_between_calls", "count", "model.setup_between.calls"),
    ("model.setup_between_s", "s", "model.setup_between.self_s"),
    ("solvers.exact_self_s", "s", "solvers.solve_exact.self_s"),
    ("solvers.nodes_per_s", "1/s",
     lambda r: _ratio(r, "solvers.solve_exact.nodes", "solvers.solve_exact.incl_s")),
    ("solvers.incumbent_s", "s", "solvers.solve_greedy@solvers.solve_exact.incl_s"),
    ("milp.build_model_s", "s", "milp.build_model.self_s"),
    ("milp.emit_lp_s", "s", "milp.emit_lp.self_s"),
    ("milp.evaluate_self_s", "s", "milp.evaluate_schedule.self_s"),
    ("milp.rows", "count", "milp.emit_lp.rows"),
    ("milp.lp_bytes", "bytes", "milp.emit_lp.bytes"),
)
# Counts that must repeat exactly between traced passes.
TRACED_COUNTS = ("timing.placement.calls", "model.setup_between.calls", "milp.emit_lp.rows",
                 "milp.emit_lp.bytes", "jsonio.dumps_instance.bytes")


def _ratio(r: dict[str, float], num: str, den: str) -> float:
    return r.get(num, 0) / r[den] if r.get(den) else 0.0


def fresh_flexshop() -> dict[str, Any]:
    """Import flexshop from this checkout anew and return its modules by name."""
    for name in [n for n in sys.modules if n == "flexshop" or n.startswith("flexshop.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"flexshop.{name}") for name in MODULES}
    if Path(modules["cli"].__file__).resolve().parent != SRC / "flexshop":
        raise SystemExit(f"error: imported flexshop from {modules['cli'].__file__}, not from {SRC}")
    return modules


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is no git repository (git looks no higher)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def pass_count(workload: str, seconds: float, traced: bool) -> int:
    """Passes a run makes: enough to fill `seconds` at the workload's nominal pass time.

    The count depends only on the arguments, never on how fast the code runs,
    so the per-unit fastest time is always taken over the same number of
    passes. A traced run alternates untraced and traced passes and makes at
    least two of each, so traced counts are always compared.
    """
    n = max(2, math.ceil(seconds / WORKLOADS[workload].nominal_pass_s))
    return 2 * max(2, n // 2) if traced else n


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count; quartiles collapse to the value for one sample."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def timing_summary(passes: list[dict], stage: str | None, field: str = "times") -> dict[str, float]:
    """Time of `stage` (every stage when None) over the passes.

    ``value`` sums, over the stage's timed units (one instance in one stage),
    each unit's fastest time in any pass: slowdowns on a shared machine only
    ever add time, so the fastest repeat is the steadiest estimate of the
    work. Median, quartiles and count describe the per-pass totals. With
    ``field="ref"`` the same is taken of the reference work timed beside
    each unit.
    """
    keys = [k for k in passes[0][field] if stage is None or k.split("/")[0] == stage]
    return {"value": sum(min(p[field][k] for p in passes) for k in keys),
            **summary([sum(p[field][k] for k in keys) for p in passes])}


def timed_setups(args: argparse.Namespace, tmp: str) -> tuple[dict[str, Any], Any, list[float], list[float]]:
    """Set up a fixed number of times; return the last set-up and each one's CPU and scaled times.

    Each set-up (fresh `flexshop` import and instance preparation) sits
    between two runs of `reference_work`. Its CPU time divided by their mean
    CPU time, times REF_NOMINAL_S, is the set-up time at the nominal host's
    speed: a host slow spell slows both and leaves the scaled time, more
    set-up work raises it.
    """
    cpu: list[float] = []
    scaled: list[float] = []
    ref = reference_seconds(process_time)
    for _ in range(WORKLOADS[args.workload].setup_reps):
        gc.collect()  # drop the previous set-up's modules, so peak memory does not grow with the count
        t0 = process_time()
        fs = fresh_flexshop()
        wl = WORKLOADS[args.workload](fs, args.seed, tmp)
        cpu.append(process_time() - t0)
        after = reference_seconds(process_time)
        scaled.append(cpu[-1] / ((ref + after) / 2) * REF_NOMINAL_S)
        ref = after
    return fs, wl, cpu, scaled


def pass_ref(passes: list[dict]) -> float:
    """A pass in units of the reference work: per unit, the median over passes
    of its time over the reference time beside it, summed over the units.

    Each unit is paired with the reference runs just before and after it, so
    a host slow spell slows both sides of the ratio and a faster program
    only the unit.
    """
    return sum(statistics.median(p["times"][k] / p["ref"][k] for p in passes) for k in passes[0]["times"])


def run_workload(args: argparse.Namespace, tmp: str) -> tuple[dict, dict]:
    """Set up a fixed number of times, then time a fixed number of passes; return (result, report)."""
    fs, wl, setup_cpu, setups = timed_setups(args, tmp)
    to_first_pass = perf_counter() - T_START

    tracer = Tracer(fs) if args.trace else None
    checks = Checks()
    passes: list[dict[str, Any]] = []
    for i in range(pass_count(args.workload, args.seconds, tracer is not None)):
        traced = tracer is not None and i % 2 == 1
        watch = Stopwatch(tracer if traced else None)
        gc.collect()
        counts = wl.run_pass(watch, checks)
        layers = tracer.reduce() if traced else {}
        passes.append({"traced": traced, "seconds": sum(watch.times.values()),
                       "times": watch.times, "ref": watch.ref, "counts": counts, "layers": layers})
        if len(passes) > 1:
            checks.expect(counts == passes[0]["counts"],
                          f"counts differ between passes: {passes[0]['counts']} then {counts}")
        if traced and i > 1:
            first = passes[1]["layers"]
            checks.expect(all(layers.get(k) == first.get(k) for k in TRACED_COUNTS),
                          "traced call counts differ between traced passes")

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    named = {}
    for name, unit, source in WORKLOAD_METRICS[args.workload]:
        if unit == "s":
            named[name] = {"unit": unit, **timing_summary(plain, None if source == "pass" else source)}
        else:
            named[name] = {"unit": unit, "value": passes[0]["counts"][source]}
    named["setup_s"] = {"unit": "s", "value": statistics.median(setups), **summary(setups)}
    named["peak_rss_mb"] = {"unit": "MB", "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    named["fail_share"] = {"unit": "ratio", "value": len(checks.failures) / checks.attempted}

    pass_s = timing_summary(plain, None)["value"]
    ref_s = timing_summary(plain, None, "ref")["value"]
    named["pass_ref"] = {"unit": "ratio", "value": pass_ref(plain)}
    if tracer is None:
        metrics = {"setup_s": named["setup_s"], "pass_ref": named["pass_ref"],
                   "peak_rss_mb": named["peak_rss_mb"]}
        layers_report = None
    else:
        layers_report = {}
        for name, unit, source in LAYER_METRICS:
            values = [source(p["layers"]) if callable(source) else p["layers"].get(source, 0)
                      for p in traced_passes]
            layers_report[name] = {"unit": unit, "value": statistics.median(values), **summary(values)}
        traced_s = timing_summary(traced_passes, None)["value"]
        layers_report["trace.overhead_s"] = {"unit": "s", "value": traced_s - pass_s}
        layers_report["trace.overhead_share"] = {"unit": "ratio", "value": (traced_s - pass_s) / pass_s}
        metrics = layers_report

    stages = sorted({key.split("/")[0] for key in plain[0]["times"]})
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "context": {"python": platform.python_version(), "implementation": platform.python_implementation(),
                    "nproc": os.cpu_count(), "commit": git_commit(), "platform": platform.platform(),
                    "to_first_pass_s": to_first_pass, "setup_cpu_s": summary(setup_cpu),
                    "pass_s": pass_s, "ref_s": ref_s,
                    "pass_seconds": [p["seconds"] for p in plain],
                    "traced_pass_seconds": [p["seconds"] for p in traced_passes],
                    "instances": wl.context},
        "metrics": named,
        "stages": {s: {"unit": "s", **timing_summary(plain, s)} for s in stages},
        "counts": passes[0]["counts"],
        "layers": layers_report,
        "failures": checks.failures,
    }
    result = {"correct": not checks.failures, "attempted": checks.attempted, "failed": len(checks.failures),
              "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}}
    return result, report


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, one after another; print the named metrics."""
    attempted = failed = 0
    metrics: dict[str, dict[str, Any]] = {}
    reports = {}
    print(f"{'workload':<13} {'metric':<26} {'value':>12} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        reports[name] = report
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in {**report["metrics"], **(report["layers"] or {})}.items():
            spread = " ".join(f"{entry[k]:>12.6g}" if k in entry else f"{'':>12}" for k in ("median", "q1", "q3"))
            print(f"{name:<13} {metric:<26} {entry['value']:>12.6g} {spread} {entry.get('n', 1):>3}  {entry['unit']}")
            metrics[f"{name}/{metric}"] = {"value": entry["value"], "unit": entry["unit"]}
        for failure in report["failures"]:
            print(f"{name}: FAILED {failure}")
    if args.out:
        Path(args.out).write_text(json.dumps(reports, indent=1) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="relabels every instance's operation and machine ids; 0 keeps them")
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="time of passes at the nominal speed; sets the fixed number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report JSON to this file")
    args = parser.parse_args()

    if not (SRC / "flexshop" / "__init__.py").is_file():
        print(f"error: no flexshop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        result, report = run_workload(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
