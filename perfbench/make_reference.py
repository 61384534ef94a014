"""Regenerate the scan reference table that the benchmark checks against.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/make_reference.py

It records S_ell(k) for ell = 3 and 4 and every k in [2, 950] as runs of
consecutive members, computed by the library at the commit it is run on.
Only rerun it at a commit whose scan results are trusted: the benchmark
counts any later disagreement as a failed operation.  The ell = 4 half takes
several minutes on one core, because every k divisible by 3 escalates
coefficients to exact arithmetic.
"""

import json
import os
import sys

from totalparts.exotica import s_scan
from workloads import HERE, K_MAX, runs

OUT = os.path.join(HERE, "reference_scans.json")


def main():
    table = {}
    for ell in (3, 4):
        table[str(ell)] = {str(k): runs(s_scan(ell, k).S)
                           for k in range(2, K_MAX + 1)}
        print(f"ell={ell} done", file=sys.stderr, flush=True)
    with open(OUT, "w") as fh:
        json.dump(table, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
