"""Regenerate ``scans_5000.json``: S_3(k) and S_4(k) for every k in
[2, 5000], as computed by this library.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/data/make_scans.py [--workers N]

Each S is stored as runs of consecutive members, ``[[first, last], ...]``,
under ``table[str(ell)][str(k)]``: the format of
``perfbench/reference_scans.json``.  Serially the two tables take about
three seconds on one core (2 shared vCPUs, Python 3.11.7, numpy 2.4.6).
"""

import argparse
import json
import os

from totalparts.exotica import scan_table

K_MAX = 5000
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "scans_5000.json")


def runs(members):
    """[[first, last], ...] for maximal runs of consecutive integers."""
    out = []
    for m in members:
        if out and out[-1][1] == m - 1:
            out[-1][1] = m
        else:
            out.append([m, m])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    table = {str(ell): {str(r.k): runs(r.S)
                        for r in scan_table(ell, K_MAX, args.workers)}
             for ell in (3, 4)}
    with open(OUT, "w") as fh:
        json.dump(table, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
