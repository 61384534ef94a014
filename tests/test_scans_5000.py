"""The order-3 and order-4 scans to k = 5000, as computed by this library.

``tests/data/scans_5000.json`` holds S_3(k) and S_4(k) for k = 2..5000,
written by ``tests/data/make_scans.py`` in the runs format of
``perfbench/reference_scans.json``.  These are outputs of this code past
the published range, not published values.  The tests pin the facts the
README reports from the file, recompute every k of it with
``scan_table(ell, 5000, workers=2)``, and rerun the k where a reported law
breaks, and a few others, through ``s_scan`` in this process.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from totalparts.exotica import (M3_RATIO_BOUND, ScanRecord, m3_exceptions,
                                s_scan, scan_table)

HERE = Path(__file__).parent
K_MAX = 5000


def _load(path):
    with open(path) as fh:
        table = json.load(fh)
    return {int(ell): {int(k): tuple(m for first, last in runs
                                     for m in range(first, last + 1))
                       for k, runs in by_k.items()}
            for ell, by_k in table.items()}


SCANS = _load(HERE / "data" / "scans_5000.json")
M3 = {k: max(S) if S else None for k, S in SCANS[3].items()}


def _r3_violations():
    return [k for k in range(2, K_MAX + 1)
            if M3[k] is not None and Fraction(M3[k], k) > M3_RATIO_BOUND]


def _m3_exceptions():
    # as m3_exceptions: k where M3(k + 143) - M3(k) differs from 60
    return [(k, M3[k + 143] - M3[k]) for k in range(2, K_MAX - 143 + 1)
            if M3[k] is not None and M3[k + 143] is not None
            and M3[k + 143] - M3[k] != 60]


def _s4_law_breaks():
    return [k for k in range(2, K_MAX + 1)
            if SCANS[4][k] != tuple(range(math.ceil(k / 6), k // 3 + 1))]


def test_file_covers_both_scans_for_every_k():
    assert sorted(SCANS) == [3, 4]
    for ell in (3, 4):
        assert sorted(SCANS[ell]) == list(range(2, K_MAX + 1))


def test_file_agrees_with_the_benchmark_reference_to_950():
    reference = _load(HERE.parent / "perfbench" / "reference_scans.json")
    for ell in (3, 4):
        assert sorted(reference[ell]) == list(range(2, 951))
        for k, S in reference[ell].items():
            assert SCANS[ell][k] == S


# k where M3(k + 143) - M3(k) differs from 60, and b_a = (k_a - 603a)/143
EXPECTED_M3_EXCEPTIONS = [(603, 59), (1206, 59), (1809, 59), (2412, 59),
                          (3158, 59), (3761, 59), (4364, 59)]
EXPECTED_B = [0, 0, 0, 0, 1, 1, 1]


def test_reported_facts_to_5000():
    assert _r3_violations() == []
    # R3 reaches 60/143 exactly at the multiples of 143
    assert [k for k in range(2, K_MAX + 1) if M3[k] is not None
            and Fraction(M3[k], k) == M3_RATIO_BOUND] == list(
                range(143, K_MAX + 1, 143))
    exceptions = _m3_exceptions()
    assert exceptions == EXPECTED_M3_EXCEPTIONS
    assert [Fraction(k - 603 * a, 143)
            for a, (k, _) in enumerate(exceptions, start=1)] == EXPECTED_B
    assert _s4_law_breaks() == []


def test_m3_exceptions_folds_the_file_in_one_pass():
    # the file's records, read once as a stream, give the reported exceptions
    rep = m3_exceptions(ScanRecord(k, S) for k, S in sorted(SCANS[3].items()))
    assert rep.k_max == K_MAX
    assert [(e.k, e.difference) for e in rep.exceptions] == \
        EXPECTED_M3_EXCEPTIONS
    assert rep.b_sequence == tuple(EXPECTED_B)
    # the shortest table allowed already sees the first exception
    rep = m3_exceptions(ScanRecord(k, SCANS[3][k]) for k in range(2, 747))
    assert rep.k_max == 746
    assert [(e.k, e.difference) for e in rep.exceptions] == [(603, 59)]


def test_every_k_recomputes_to_the_file():
    for ell in (3, 4):
        ks = []
        for r in scan_table(ell, K_MAX, workers=2):
            ks.append(r.k)
            assert r.S == SCANS[ell][r.k], (ell, r.k)
        assert ks == list(range(2, K_MAX + 1))


def _sampled_ks():
    breakers = set(_r3_violations()) | set(_s4_law_breaks())
    for k, _ in _m3_exceptions():
        breakers |= {k, k + 143}
    rng = random.Random(5000)
    fixed = {951, 4998, 5000}
    others = set(rng.sample(range(951, K_MAX), 3))
    return sorted(breakers | fixed | others)


@pytest.mark.parametrize("k", _sampled_ks())
def test_sampled_k_recompute_to_the_file(k):
    for ell in (3, 4):
        assert s_scan(ell, k).S == SCANS[ell][k]
