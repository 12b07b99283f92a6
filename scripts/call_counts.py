#!/usr/bin/env python3
"""Count the Python calls one verdict of an in-process benchmark workload
makes, under cProfile.

Builds the seed-1 inputs of perfbench/workloads.py (read as it is, not
edited), runs one pass over them to warm every process-wide table, then
profiles a second pass.  Prints the calls per verdict as cProfile counts
them (every function, built-ins and C methods included) and with Python
functions only, and the 15 most-called Python functions with their calls per
pass.  The cli-bundled workload runs its verdicts in child processes, which a
profile of this process would not see, so only qaffine-hopf and cy-verdict
are counted.

Usage: python scripts/call_counts.py --workload qaffine-hopf|cy-verdict
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

import workloads  # noqa: E402

IN_PROCESS = ("qaffine-hopf", "cy-verdict")
SEED = 1
TOP = 15


def python_calls(stats: pstats.Stats) -> dict[tuple[str, int, str], int]:
    """(file, line, name) -> primitive and recursive calls, for every profiled
    Python function; cProfile files built-ins under the name "~"."""
    return {func: ncalls for func, (_prim, ncalls, *_rest) in stats.stats.items()
            if func[0] != "~"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=IN_PROCESS)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.make_inputs(SEED)
    for inp in inputs:  # warm: interned groups, signed roots, root data
        workload.run(inp, None)
    profile = cProfile.Profile()
    profile.enable()
    for inp in inputs:
        workload.run(inp, None)
    profile.disable()
    stats = pstats.Stats(profile)
    calls = python_calls(stats)
    n = len(inputs)
    print(f"{args.workload}, seed {SEED}, {n} verdicts; calls per verdict: "
          f"{stats.total_calls / n:.1f}, of Python functions {sum(calls.values()) / n:.1f}")
    for (path, line, name), count in sorted(calls.items(), key=lambda kv: -kv[1])[:TOP]:
        print(f"{count:>9}  {name}  ({Path(path).name}:{line})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
