"""Regenerate the golden fixtures under tests/data/.

Run from the repository root: PYTHONPATH=src python tests/make_goldens.py
(or plain `python tests/make_goldens.py` with flexshop installed).
The output is committed; regenerate only after deliberate model-format or
solver-output changes, and re-audit the diff by hand before committing.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import tempfile

from flexshop.cli import main as cli_main
from flexshop.jsonio import dumps_instance
from flexshop.milp import build_model, emit_lp
from flexshop.model import Instance, Machine, Operation, SetupRule, SetupTable

DATA = pathlib.Path(__file__).resolve().parent / "data"
SOLVE_DIGESTS = DATA / "solve_digests.json"

# (name, class, k, seed) of the generated instances whose solve output is pinned
GENERATED = (("small_1_seed_42", "small", 1, 42), ("large_25_seed_7", "large", 25, 7),
             ("medium_10_seed_2", "medium", 10, 2))
GREEDY = ("--alg", "greedy")
EXACT = ("--alg", "exact", "--node-limit", "20000")
SOLVE_RUNS = tuple((name, args)
                   for name in ("golden_single", "golden_chain", "golden_flex", "small_1_seed_42")
                   for args in (GREEDY, EXACT)) + (("large_25_seed_7", GREEDY),
                                                  ("medium_10_seed_2", GREEDY))


def golden_single() -> Instance:
    """One operation, one machine, a first setup of 2 and processing 5."""
    return Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 5}),),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 2}, {})),))


def golden_chain() -> Instance:
    """Two chained operations sharing a machine with one window.

    Exercises the overlap fraction (theta 0.5 on the head), a release time,
    explicit pair setups, and the window indicator rows.
    """
    return Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 3}, theta_hundredths=50),
                    Operation(2, 1, {1: 5}, release=1)),
        arcs=((1, 2),),
        machines=(Machine(1, windows=((4, 6),),
                          setup=SetupTable({1: 2, 2: 2}, {(1, 2): 1, (2, 1): 4})),))


def golden_flex() -> Instance:
    """Two independent jobs, two machines, one rule-based with a window."""
    return Instance(
        num_machines=2,
        operations=(Operation(1, 1, {1: 4, 2: 6}, size=3, color=1, varnish=2),
                    Operation(2, 2, {1: 2, 2: 2}, size=5, color=2, varnish=2)),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 3, 2: 3}, {(1, 2): 2, (2, 1): 2})),
                  Machine(2, windows=((8, 11),),
                          setup=SetupRule(st_smaller=2, st_larger=4, ct=3, vt=2))))


def solve_digests(workdir: pathlib.Path) -> dict[str, str]:
    """sha256 of each pinned `flexshop solve` output, its wall_ms line removed."""
    paths = {name: DATA / f"{name}.json" for name, _ in SOLVE_RUNS}
    for name, cls, k, seed in GENERATED:
        paths[name] = workdir / f"{name}.json"
        assert cli_main(["gen", cls, str(k), "--seed", str(seed), "--out", str(paths[name])]) == 0
    digests = {}
    for name, args in SOLVE_RUNS:
        out = workdir / "result.json"
        cli_main(["solve", str(paths[name]), *args, "--out", str(out)])
        text, n = re.subn(r'^ "wall_ms": \d+,\n', "", out.read_text(encoding="utf-8"), flags=re.M)
        assert n == 1, f"{name} {args}: expected one wall_ms line"
        digests[" ".join((name, *args))] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def main() -> None:
    DATA.mkdir(exist_ok=True)
    for name, inst in (("golden_single", golden_single()),
                       ("golden_chain", golden_chain()),
                       ("golden_flex", golden_flex())):
        (DATA / f"{name}.json").write_text(dumps_instance(inst) + "\n", encoding="utf-8")
        (DATA / f"{name}.lp").write_text(emit_lp(build_model(inst)), encoding="utf-8")
        print("wrote", name)
    with tempfile.TemporaryDirectory() as tmp:
        digests = solve_digests(pathlib.Path(tmp))
    old = json.loads(SOLVE_DIGESTS.read_text(encoding="utf-8")) if SOLVE_DIGESTS.exists() else {}
    for key in digests:
        if old.get(key) != digests[key]:
            print("changed:", key)
    SOLVE_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print("wrote", SOLVE_DIGESTS.name)


if __name__ == "__main__":
    main()
