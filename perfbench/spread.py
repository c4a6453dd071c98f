"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload NAME --seeds 10 [--first-seed 1]
                                [--trace 0|1] [--record LABEL]

The run length is BENCHMARK.json's run_seconds.  For every metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median; with ``--trace 0``
it also prints the metric's bound and flags a spread above a third of it.
With ``--record LABEL`` the medians and quartiles are appended, under LABEL,
to perfbench/trajectory.json, the benchmark's record of measured points.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    provenance = None
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
        result = json.loads(lines[-1])
        provenance = provenance or json.loads(lines[0].removeprefix("provenance "))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        if not result["correct"] or result["failed"]:
            print("\n".join(lines[:-1]))
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": units[name]}
        line = f"{name}: median {median:.6g} {units[name]}, q1 {q1:.6g}, q3 {q3:.6g}, spread {spread:.4f}"
        if name in bounds:
            flag = "ok" if spread < bounds[name] / 3 else "ABOVE A THIRD OF THE BOUND"
            line += f" (bound {bounds[name]}: {flag})"
        print(line)

    if args.record:
        points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        points.append({
            "label": args.record,
            "commit": provenance["commit"],
            "workload": args.workload,
            "trace": args.trace,
            "run_seconds": bench["run_seconds"],
            "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
            "machine": {k: provenance[k] for k in ("nproc", "affinity", "python", "numpy")},
            "metrics": summary,
        })
        TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
