"""Compare two benchmark reports written with ``bench/run.py --out``.

    python3 bench/compare.py before.json after.json

For reports of the same seeds, the counts a pass produces (makespans, nodes,
gaps, LP rows and bytes) and the call and byte counts of traced runs must be
equal; each difference is printed and makes the exit code 1. Timings are
printed side by side with their ratio, for reading, not judged.
"""

from __future__ import annotations

import json
import sys

EXACT_UNITS = ("count", "bytes")


def workloads(path: str) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return {data["workload"]: data} if "workload" in data else data


def main(before_path: str, after_path: str) -> int:
    before, after = workloads(before_path), workloads(after_path)
    differ = 0
    for name in sorted(before.keys() & after.keys()):
        a, b = before[name], after[name]
        if a["seed"] != b["seed"]:
            print(f"{name}: seeds differ, counts not compared")
        else:
            exact_a = {**a["counts"], **{k: v["value"] for k, v in (a["layers"] or {}).items()
                                         if v["unit"] in EXACT_UNITS}}
            exact_b = {**b["counts"], **{k: v["value"] for k, v in (b["layers"] or {}).items()
                                         if v["unit"] in EXACT_UNITS}}
            for key in sorted(exact_a.keys() & exact_b.keys()):
                if exact_a[key] != exact_b[key]:
                    print(f"{name:<13} {key:<26} {exact_a[key]} != {exact_b[key]}")
                    differ += 1
        for metric in sorted(a["metrics"].keys() & b["metrics"].keys()):
            x, y = a["metrics"][metric], b["metrics"][metric]
            if x["unit"] in EXACT_UNITS:
                continue
            ratio = y["value"] / x["value"] if x["value"] else float("nan")
            print(f"{name:<13} {metric:<26} {x['value']:>12.6g} {y['value']:>12.6g}  x{ratio:.3f}  {x['unit']}")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
