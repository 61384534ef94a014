"""Acceptance suite: eleven criteria, each with an explicit time budget.

Every test prints a single ``PASS``/``FAIL`` line naming its criterion; a
failed exactness assertion aborts before the line is printed, so a silent
criterion is a failed one.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from totalparts.crapseval import CrapsTotals, craps_evaluate, geometric_tree_check
from totalparts.dicecore import (
    Die,
    DistPoly,
    Sack,
    normalize_to_die,
    parts_to_total,
    poly_mul,
)
from totalparts.exactnum import two_cos
from totalparts.exotica import (
    exotic_search,
    m3_exceptions,
    scan_table,
    swap_census,
    verify_tridecahedral,
)
from totalparts.fairlab import (
    enumerate_fair_pairs,
    ramification_check,
    sicherman_search,
)
from totalparts.fibers import (
    FactorMultiset,
    LinearFactor,
    coin_die_elimination,
    coins_parts_from_total,
    enumerate_fiber,
    fiber_degree,
    total_is_squarefree,
)

from test_fairlab import GOLDEN_51_ROWS, _die_from_triples

F = Fraction


def _report(num, desc, budget, start):
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    line = "PASS" if ok else "FAIL"
    print(f"{line}: criterion {num} — {desc} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_01_fair_enumeration():
    start = time.perf_counter()
    pairs = enumerate_fair_pairs(6)
    assert len(pairs) == 51
    got = Counter((p.d.probs, p.dhat.probs) for p in pairs)
    want = Counter()
    for i, (dt, dhatt) in enumerate(GOLDEN_51_ROWS):
        d = _die_from_triples(dt).probs
        dhat = _die_from_triples(dhatt).probs
        want[(d, dhat)] += 1
        if i > 0:
            want[(dhat, d)] += 1
    assert got == want
    strict = [p for p in pairs if p.is_strict()]
    assert len(strict) == 1 and strict[0].is_fair()
    real = [p for p in pairs if p.is_real() and not p.is_fair()]
    # one additional real pair, seen twice in the ordered enumeration
    assert len(real) == 2
    assert real[0].d.probs == real[1].dhat.probs
    _report(1, "51 fair pairs match the published table; 1 strict, "
               "1 additional real", 5, start)


def test_criterion_02_fiber_degree_and_ramification():
    start = time.perf_counter()
    assert fiber_degree((6, 6)) == 252
    lhs, rhs = ramification_check(6)
    assert (lhs, rhs) == (252, 252)
    assert 2 ** 5 * 1 + 2 ** 3 * 20 + 2 ** 1 * 30 == 252
    _report(2, "fiber degree 252 and ramification bookkeeping balance", 1, start)


def test_criterion_03_published_exotic_tables():
    start = time.perf_counter()
    s5 = 2 * two_cos(1, 5) + 1  # sqrt(5)
    census10 = exotic_search(10, 10)
    assert census10.count == 1
    sack10 = census10.sacks[0][0]
    d = ((5 - s5) * F(1, 20), F(0), s5 * F(1, 10), F(0), (5 - s5) * F(1, 20))
    dhat = ((5 + s5) * F(1, 100), (5 + s5) * F(1, 50), F(1, 10),
            (5 - s5) * F(1, 50), (15 - s5) * F(1, 100))
    assert {tuple(die.probs) for die in sack10.dice} == \
        {tuple(d) + tuple(d[::-1]), tuple(dhat) + tuple(dhat[::-1])}

    s3 = two_cos(1, 12)  # sqrt(3)
    census12 = exotic_search(12, 12)
    assert census12.count == 3
    sack12 = next(s for s, spec in census12.sacks
                  if (spec.give, spec.take) == ((4,), (5,)))
    d_half = ((2 - s3) * F(1, 4), (2 * s3 - 3) * F(1, 4),
              (2 - s3) * F(1, 4), (2 - s3) * F(1, 4),
              (2 * s3 - 3) * F(1, 4), (2 - s3) * F(1, 4))
    dhat_half = ((2 + s3) * F(1, 36), F(1, 36), (4 + s3) * F(1, 36),
                 (2 - s3) * F(1, 36), F(5, 36), (4 - s3) * F(1, 36))
    assert {tuple(die.probs) for die in sack12.dice} == \
        {tuple(d_half) + tuple(d_half[::-1]),
         tuple(dhat_half) + tuple(dhat_half[::-1])}
    # the singled-out entry: dhat_1 = (2 + sqrt 3)/36
    assert any(die.probs[0] == (2 + s3) * F(1, 36) for die in sack12.dice)
    _report(3, "orders 10 and 12 match the published tables; E(12) = 3",
            30, start)


def test_criterion_04_tridecahedral():
    start = time.perf_counter()
    rep = verify_tridecahedral()
    assert rep.strict and rep.palindromic and rep.product_is_fair
    assert rep.table_matches
    assert rep.max_table_slack <= F(5, 10 ** 8)
    _report(4, "14 tridecahedral table values within 5e-8, strictness exact",
            10, start)


EKTAB = {12: 3, 13: 2, 14: 3, 15: 4, 16: 4, 17: 6, 18: 7, 19: 8,
         20: 12, 21: 18, 22: 19, 23: 27, 24: 42, 25: 60}

SWAPS_20 = [
    ((3,), (4,)), ((4,), (5,)), ((5,), (6,)), ((6,), (7,)),
    ((6,), (8,)), ((7,), (8,)), ((8,), (9,)),
    ((3, 7), (4, 6)), ((3, 7), (4, 8)), ((4, 9), (5, 8)),
    ((5, 9), (6, 8)), ((6, 8), (7, 9)),
]

SWAPS_21 = [
    ((3,), (4,)), ((4,), (5,)), ((5,), (6,)), ((6,), (7,)),
    ((7,), (8,)), ((8,), (9,)), ((9,), (10,)),
    ((2, 5), (3, 6)), ((3, 7), (4, 8)), ((4, 10), (5, 9)),
    ((4, 10), (6, 9)), ((5, 8), (6, 9)), ((5, 9), (6, 8)),
    ((5, 10), (6, 9)), ((6, 10), (7, 9)), ((7, 10), (8, 9)),
    ((3, 8, 9), (4, 7, 10)), ((4, 8, 9), (5, 7, 10)),
]


def test_criterion_05_diagonal_census_to_25():
    start = time.perf_counter()
    for k, expected in sorted(EKTAB.items()):
        assert len(swap_census(k)) == expected, k
    assert [(s.give, s.take) for s in swap_census(20)] == SWAPS_20
    assert [(s.give, s.take) for s in swap_census(21)] == SWAPS_21
    _report(5, "E(k) matches for k = 12..25; swap lists at 20 and 21 verbatim",
            1800, start)


def test_criterion_06_exception_list():
    start = time.perf_counter()
    empties = [(3, 3), (3, 6), (3, 9), (4, 4), (4, 8), (5, 5), (6, 6),
               (7, 7), (8, 8), (9, 9), (11, 11)]
    empties += [(2, kp) for kp in range(2, 13)]
    for orders in empties:
        assert exotic_search(*orders).count == 0, orders
    _report(6, "exception-list types all yield empty censuses", 600, start)


def test_criterion_07_s3_scan_to_950():
    start = time.perf_counter()
    records = list(scan_table(3, 950, workers=2))
    rep = m3_exceptions(records)
    assert [r.k for r in records] == list(range(2, 951))
    m3 = {r.k: r.M for r in records}
    # R3 <= 60/143 with equality exactly at multiples of 143
    for r in records:
        if r.R is not None:
            assert r.R <= F(60, 143)
            assert (r.R == F(60, 143)) == (r.k % 143 == 0)
    # M3 = 5k/12 at k = 12l exactly for l <= 28
    for ell in range(1, 950 // 12 + 1):
        assert (m3[12 * ell] == 5 * ell) == (ell <= 28)
    assert [(e.k, e.difference) for e in rep.exceptions] == [(603, 59)]
    assert rep.b_sequence == (0,)
    _report(7, "scan to 950: bound 60/143, M3(12l) = 5l for l <= 28, "
               "first exception at 603", 1800, start)


def test_criterion_08_worked_fiber_and_elimination():
    start = time.perf_counter()
    factors = FactorMultiset((
        (LinearFactor(F(-1)), 1),
        (LinearFactor(F(-2)), 1),
        (LinearFactor(F(-1, 2)), 1),
    ))
    sacks = enumerate_fiber(factors, (2, 3))
    assert len(sacks) == 3
    got = {tuple(tuple(d.probs) for d in s.dice) for s in sacks}
    assert got == {
        ((F(1, 2), F(1, 2)), (F(2, 9), F(5, 9), F(2, 9))),
        ((F(1, 3), F(2, 3)), (F(1, 3), F(1, 2), F(1, 6))),
        ((F(2, 3), F(1, 3)), (F(1, 6), F(1, 2), F(1, 3))),
    }
    poly = coin_die_elimination(
        DistPoly((F(1, 9), F(7, 18), F(7, 18), F(1, 9))))
    for root in (F(1, 2), F(1, 3), F(2, 3)):
        assert sum(c * root ** i for i, c in enumerate(poly)) == 0
    _report(8, "worked type-(2,3) fiber and elimination roots", 1, start)


def _random_sack(rng, sack_type):
    pool = [F(n, d) for n in range(1, 8) for d in range(1, 8)]
    roots_needed = sum(k - 1 for k in sack_type)
    values = rng.sample(sorted(set(pool)), roots_needed)
    factors = []
    dice = []
    i = 0
    for k in sack_type:
        coeffs = [F(1)]
        for a in values[i:i + k - 1]:
            coeffs = poly_mul(coeffs, [a, F(1)])
            factors.append((LinearFactor(-a), 1))
        i += k - 1
        dice.append(normalize_to_die(coeffs, order=k))
    return Sack(tuple(dice)), FactorMultiset(tuple(factors))


def test_criterion_09_random_fiber_property_suite():
    start = time.perf_counter()
    rng = random.Random(20260823)
    types = [(2, 2), (2, 3), (3, 3), (3, 4)]
    for trial in range(200):
        sack_type = types[trial % 4]
        sack, factors = _random_sack(rng, sack_type)
        assert sack.is_strict()
        total = parts_to_total(sack)
        assert total_is_squarefree(total)
        fiber = enumerate_fiber(factors, sack_type)
        assert len(fiber) == fiber_degree(sack_type)
        assert sack in fiber
    for n in range(2, 9):
        ps = sorted(rng.sample([F(j, 10) for j in range(1, 10)], n))
        total = [F(1)]
        for p in ps:
            total = poly_mul(total, [1 - p, p])
        parts = coins_parts_from_total(DistPoly(tuple(total)), n)
        assert parts.residual is None
        assert list(parts.roots) == ps
    _report(9, "200 random fibers have generic size and contain the input; "
               "coins round-trip to n = 8", 300, start)


def test_criterion_10_craps():
    start = time.perf_counter()
    rep = craps_evaluate(CrapsTotals.fair())
    assert rep.point_win == {
        4: F(3, 9), 5: F(4, 10), 6: F(5, 11),
        8: F(5, 11), 9: F(4, 10), 10: F(3, 9),
    }
    assert rep.p_win == F(244, 495)
    assert rep.matches_fair
    # the widely printed 243/495 is flagged as not the exact value
    assert rep.p_win != F(243, 495)
    partials, closed = geometric_tree_check(CrapsTotals.fair(), 9)
    assert closed == F(4, 10)
    assert 0 < closed - partials[-1] < F(1, 10 ** 9)
    _report(10, "craps conditional row and p_win = 244/495; printed 243/495 "
                "flagged; geometric series converges to 4/10", 1, start)


def test_criterion_11_sicherman():
    start = time.perf_counter()
    pairs = sicherman_search(6, 1)
    nonstandard = [p for p in pairs
                   if sorted(p[0]) != [1, 2, 3, 4, 5, 6]]
    assert len(nonstandard) == 1
    a, b = nonstandard[0]
    assert {tuple(sorted(a)), tuple(sorted(b))} == \
        {(1, 2, 2, 3, 3, 4), (1, 3, 4, 5, 6, 8)}
    _report(11, "exactly one nonstandard uniform pair of order 6", 60, start)
