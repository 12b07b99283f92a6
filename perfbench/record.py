"""Run the benchmark over several seeds and record every metric in one file.

Usage (from the repository root):

    python3 perfbench/record.py --label seed --seeds 1 2 3 4 5 6 7 8 9 10 \
        [--workloads qaffine-hopf ...] [--seconds 40]

For each workload this runs `run.py --trace 0` once per seed and
`run.py --trace 1` once (first seed), then writes
perfbench/BENCH_<label>.json with every run's result, and per end-to-end
metric the median and the quartile spread (Q3 - Q1) / median over the seeds.
Compare two such files made with the same seeds and settings.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("qaffine-hopf", "cy-verdict", "cli-bundled")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args()
    out = {"label": args.label, "seconds": args.seconds, "seeds": args.seeds,
           "machine": f"{platform.machine()}, {platform.python_implementation()} "
                      f"{platform.python_version()}", "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(_run(workload, seed, args.seconds, 0))
            print(workload, seed, {k: round(v["value"], 6) for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            spread = None
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            summary[name] = {"median": median, "spread": spread,
                             "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {name}: median {median:.6g}, spread {spread}", flush=True)
        traced = _run(workload, args.seeds[0], args.seconds, 1)
        out["workloads"][workload] = {"end_to_end": summary, "runs": runs, "traced": traced}
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
