#!/usr/bin/env python3
"""Randomized survey of A1 x ... x A1 data: tabulate how the three verdicts
(braided factor CY, hdet trivial, smash product CY) co-occur.

The balanced family always lands in (CY braided factor, nontrivial hdet),
and no sample ever shows the braided factor and the smash product CY at
once; this script makes that exclusion visible over a large sample.

Usage: python scripts/survey_mutual_exclusion.py [--samples N] [--seed S]
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyhopf.datum import check_cy  # noqa: E402
from cyhopf.sampling import random_a1t_datum  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    table = Counter()
    violations = 0
    for k in range(args.samples):
        datum = random_a1t_datum(rng, balanced=(k % 2 == 0))
        report = check_cy(datum)
        hdet_trivial = report.hdet.is_trivial()
        table[(report.cy_R, hdet_trivial, report.cy_smash)] += 1
        if report.cy_R and report.cy_smash:
            violations += 1
    print(f"samples: {args.samples} (seed {args.seed})")
    print(f"{'braided CY':>11} {'hdet trivial':>13} {'smash CY':>9} {'count':>7}")
    for key in sorted(table):
        cy_r, ht, cy_s = key
        print(f"{str(cy_r):>11} {str(ht):>13} {str(cy_s):>9} {table[key]:>7}")
    print(f"braided-and-smash-CY co-occurrences: {violations}")
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
