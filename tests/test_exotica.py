"""Exotic sacks: censuses, published tables, scans, and their oracles."""

import dataclasses
import itertools
import math
import os
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totalparts.dicecore import (
    Die,
    Sack,
    as_scalar,
    fair_total,
    normalize_to_die,
    parts_to_total,
    poly_mul,
    psi,
    root_product,
)
from totalparts.exactnum import CycElem, cyc_sign, ring_dtype, two_cos
from totalparts import exotica
from totalparts.exotica import (
    ScanRecord,
    _SCAN_K_MAX,
    _SCAN_MARGIN,
    _X_PLUS_1,
    _chi_factor,
    _chi_product_exact,
    _error_bounds,
    _log_ratios,
    _merged_factor_multiset,
    _point_filter,
    _point_product,
    _prune_error,
    _prune_tolerance,
    _pruned_splits,
    _scan_coeff_elem,
    _scan_coeff_sign,
    _scan_ms,
    _scan_params,
    _scan_row_pass,
    _split_search,
    exotic_search,
    m3_exceptions,
    s_scan,
    smallest_exotic_34,
    swap_census,
    verify_tridecahedral,
)

from reference_division import poly_divide_exact

F = Fraction


def test_smallest_exotic_is_the_3_4_sack():
    sack = smallest_exotic_34()
    assert sack.dice[0].probs == (F(1, 2), F(0), F(1, 2))
    assert sack.dice[1].probs == (F(1, 6), F(1, 3), F(1, 3), F(1, 6))
    assert parts_to_total(sack).coeffs == tuple(fair_total((3, 4)))


EXCEPTION_TYPES = [(3, 3), (3, 6), (3, 9), (4, 4), (4, 8), (5, 5), (6, 6),
                   (7, 7), (8, 8), (9, 9)] + [(2, k) for k in range(2, 13)]


@pytest.mark.parametrize("orders", EXCEPTION_TYPES)
def test_exception_list_is_empty(orders):
    assert exotic_search(*orders).count == 0


def test_small_nonexceptional_types_are_nonempty():
    for orders in ((3, 4), (3, 5), (4, 5), (4, 6), (5, 6), (10, 10)):
        assert exotic_search(*orders).count > 0, orders


def test_every_census_sack_is_strict_exotic_and_fair_totaled():
    for orders in ((3, 5), (4, 6), (12, 12)):
        for sack, _spec in exotic_search(*orders).sacks:
            assert sack.is_strict()
            assert not sack.is_fair()
            total = parts_to_total(sack)
            assert list(total.coeffs) == fair_total(orders)


def _sqrt5():
    # sqrt(5) = 2*(2cos(2pi/5)) + 1
    return 2 * two_cos(1, 5) + 1


def _sqrt3():
    # sqrt(3) = 2cos(2pi/12)
    return two_cos(1, 12)


def test_order_10_census_matches_published_table():
    census = exotic_search(10, 10)
    assert census.count == 1
    (sack, spec) = census.sacks[0]
    assert (spec.give, spec.take) in (((3,), (4,)), ((4,), (3,)))
    s5 = _sqrt5()
    d = ((5 - s5) * F(1, 20), F(0), s5 * F(1, 10), F(0), (5 - s5) * F(1, 20))
    dhat = ((5 + s5) * F(1, 100), (5 + s5) * F(1, 50), F(1, 10),
            (5 - s5) * F(1, 50), (15 - s5) * F(1, 100))
    # both dice are palindromic; the table shows the first half
    targets = {tuple(d) + tuple(d[::-1]), tuple(dhat) + tuple(dhat[::-1])}
    got = {tuple(die.probs) for die in sack.dice}
    assert got == targets


def test_order_12_census_matches_published_table():
    census = exotic_search(12, 12)
    assert census.count == 3
    swaps = {(spec.give, spec.take) for _s, spec in census.sacks}
    assert swaps == {((2,), (3,)), ((3,), (4,)), ((4,), (5,))}
    by_swap = {(spec.give, spec.take): sack for sack, spec in census.sacks}
    sack = by_swap[((4,), (5,))]
    s3 = _sqrt3()
    # published third entry of the d row reads (2*sqrt3-3)/4, but then the
    # row would sum to (3*sqrt3-3)/2 != 1; the die is forced to repeat
    # (2-sqrt3)/4 there, which is what the census produces.
    d_half = ((2 - s3) * F(1, 4), (2 * s3 - 3) * F(1, 4),
              (2 - s3) * F(1, 4), (2 - s3) * F(1, 4),
              (2 * s3 - 3) * F(1, 4), (2 - s3) * F(1, 4))
    dhat_half = ((2 + s3) * F(1, 36), F(1, 36), (4 + s3) * F(1, 36),
                 (2 - s3) * F(1, 36), F(5, 36), (4 - s3) * F(1, 36))
    targets = {tuple(d_half) + tuple(d_half[::-1]),
               tuple(dhat_half) + tuple(dhat_half[::-1])}
    got = {tuple(die.probs) for die in sack.dice}
    assert got == targets
    # the exact algebraic value singled out for checking: dhat_1 = (2+sqrt3)/36
    dhat_die = next(die for die in sack.dice
                    if die.probs[0] == (2 + s3) * F(1, 36))
    assert dhat_die.probs[0] == (2 + _sqrt3()) * F(1, 36)


def test_rational_order_12_pairs_have_zeros():
    census = exotic_search(12, 12)
    for sack, spec in census.sacks:
        if (spec.give, spec.take) in {((2,), (3,)), ((3,), (4,))}:
            assert all(isinstance(p, F) for die in sack.dice
                       for p in die.probs)
            assert any(p == 0 for die in sack.dice for p in die.probs)


def test_tridecahedral_verification():
    rep = verify_tridecahedral()
    assert rep.strict
    assert rep.palindromic
    assert rep.product_is_fair
    assert rep.table_matches
    assert rep.max_table_slack <= F(5, 10 ** 8)


EKTAB = {12: 3, 13: 2, 14: 3, 15: 4, 16: 4, 17: 6, 18: 7, 19: 8,
         20: 12, 21: 18, 22: 19, 23: 27, 24: 42, 25: 60}


@pytest.mark.parametrize("k", sorted(EKTAB)[:8])
def test_diagonal_census_counts_small(k):
    assert len(swap_census(k)) == EKTAB[k]


def test_swap_list_order_20_is_verbatim():
    got = [(s.give, s.take) for s in swap_census(20)]
    assert got == [
        ((3,), (4,)), ((4,), (5,)), ((5,), (6,)), ((6,), (7,)),
        ((6,), (8,)), ((7,), (8,)), ((8,), (9,)),
        ((3, 7), (4, 6)), ((3, 7), (4, 8)), ((4, 9), (5, 8)),
        ((5, 9), (6, 8)), ((6, 8), (7, 9)),
    ]


def test_swap_list_order_21_is_verbatim():
    got = [(s.give, s.take) for s in swap_census(21)]
    assert got == [
        ((3,), (4,)), ((4,), (5,)), ((5,), (6,)), ((6,), (7,)),
        ((7,), (8,)), ((8,), (9,)), ((9,), (10,)),
        ((2, 5), (3, 6)), ((3, 7), (4, 8)), ((4, 10), (5, 9)),
        ((4, 10), (6, 9)), ((5, 8), (6, 9)), ((5, 9), (6, 8)),
        ((5, 10), (6, 9)), ((6, 10), (7, 9)), ((7, 10), (8, 9)),
        ((3, 8, 9), (4, 7, 10)), ((4, 8, 9), (5, 7, 10)),
    ]


# -- census kernels ----------------------------------------------------------

def _poly_mul_chain(chis, x1_count, conductor, exponents=()):
    # The exact product as a chain of poly_mul over CycElem coefficients:
    # the reference for the integer rotation product.
    poly = [F(1)]
    for e in exponents:
        poly = poly_mul(poly, [-CycElem.zeta(conductor, e), F(1)])
    for m, k, mult in chis:
        tau = two_cos((m * conductor) // k, conductor)
        for _ in range(mult):
            poly = poly_mul(poly, [F(1), -tau, F(1)])
    for _ in range(x1_count):
        poly = poly_mul(poly, [F(1), F(1)])
    return [as_scalar(c) for c in poly]


@st.composite
def _multiplicities(draw):
    k = draw(st.integers(3, 20))
    ms = list(range(1, (k + 1) // 2))
    r = draw(st.lists(st.integers(0, 2), min_size=len(ms), max_size=len(ms)))
    return k, ms, tuple(r), draw(st.integers(0, 2))


def _census_factors(k):
    return [_chi_factor(m, k) for m in range(1, (k + 1) // 2)] + [_X_PLUS_1]


def _sum_bounded_vectors(n, total):
    # every vector in {0,1,2}^n with the given sum, in lexicographic order:
    # the full enumeration the pruned search replaced
    return [r for r in itertools.product((0, 1, 2), repeat=n)
            if sum(r) == total]


def _mixed_candidates(k, kp):
    # The factors of exotic_search(k, kp) and every split of them into a
    # (k-1)-die and a (kp-1)-die, as (row_d1, row_d2) multiplicity rows.
    chis, x1 = _merged_factor_multiset(k, kp)
    keys = sorted(chis)
    factors = ([_chi_factor(q.numerator, q.denominator) for q in keys]
               + [_X_PLUS_1])
    caps = [chis[q] for q in keys] + [x1]
    rows = []
    for row in itertools.product(*(range(c + 1) for c in caps)):
        if 2 * sum(row[:-1]) + row[-1] == k - 1:
            rows.append((row, tuple(c - v for c, v in zip(caps, row))))
    return factors, rows


@settings(max_examples=40, deadline=None)
@given(_multiplicities())
# products with exact zero coefficients: x^2+1, and a die of the order-10
# exotic pair
@example((4, [1], (1,), 0))
@example((10, [1, 2, 3, 4], (1, 1, 0, 2), 1))
def test_point_filter_signs_agree_with_exact_signs(case):
    k, ms, r, x1 = case
    status = _point_filter(_census_factors(k), [r + (x1,)])[0]
    poly = _chi_product_exact([(m, k, v) for m, v in zip(ms, r) if v], x1, k)
    assert len(status) == len(poly)
    for s, c in zip(status.tolist(), poly):
        if s:
            assert cyc_sign(c).sign == s


def test_chi_factor_tau_is_within_3u_of_two_cos():
    with mpmath.workdps(60):
        for k in range(1, 85):
            for m in range(k):
                neg_tau, one = _chi_factor(m, k)
                exact = 2 * mpmath.cos(2 * mpmath.pi * m / k)
                assert one == 1.0 and abs(neg_tau) <= 2, (m, k)
                assert abs(-neg_tau - exact) <= 3 * 2.0 ** -53, (m, k)


def _candidate_rows(k):
    # every die row of the diagonal census of order k
    ms = range(1, (k + 1) // 2)
    x1 = 1 if k % 2 == 0 else 0
    for r in _sum_bounded_vectors(len(ms), (k - 1) // 2):
        comp = tuple(2 - v for v in r)
        if r < comp:
            yield r + (x1,)
            yield comp + (x1,)


def test_every_certified_status_is_the_exact_sign():
    # The status replay: every candidate die row of the diagonal census of
    # order k <= 18 through the point filter, each +-1 status checked
    # against cyc_sign of the exact coefficient.  Going on to k <= 22 takes
    # about a minute, too slow for the tier-1 suite.
    for k in range(3, 19):
        ms = range(1, (k + 1) // 2)
        rows = list(_candidate_rows(k))
        statuses = _point_filter(_census_factors(k), rows).tolist()
        for row, status in zip(rows, statuses):
            poly = _chi_product_exact(
                [(m, k, v) for m, v in zip(ms, row) if v], row[-1], k)
            for j, (s, c) in enumerate(zip(status, poly)):
                if s:
                    assert cyc_sign(c).sign == s, (k, row, j)


def _mp_poly_mul(a, b):
    out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_point_product_error_is_within_the_bound():
    # |p~_j - p_j| <= b_j on every candidate row of k <= 14, p_j taken to
    # 60 digits
    with mpmath.workdps(60):
        for k in range(3, 15):
            factors = _census_factors(k)
            rows = list(_candidate_rows(k))
            got = _point_product(factors, rows)
            bound = _error_bounds(got.shape[1] - 1)
            for row, coeffs in zip(rows, got):
                exact = [mpmath.mpf(1)]
                for m, mult in enumerate(row[:-1], start=1):
                    tau = 2 * mpmath.cos(2 * mpmath.pi * m / k)
                    for _ in range(mult):
                        exact = _mp_poly_mul(exact, [1, -tau, 1])
                for _ in range(row[-1]):
                    exact = _mp_poly_mul(exact, [1, 1])
                assert len(exact) == len(coeffs)
                for j, (c, e) in enumerate(zip(coeffs, exact)):
                    assert abs(mpmath.mpf(c) - e) <= bound[j], (k, row, j)


def test_error_bounds_are_eps_times_binomials_rounded_up():
    u = F(1, 2 ** 53)
    for degree in (0, 1, 12, 27, 1000):
        eps = (1 + 3 * u / (1 - 3 * u) + 3 * u) ** degree - 1 + u
        bound = _error_bounds(degree)
        assert len(bound) == degree + 1
        for j in (0, degree // 2, degree):
            exact = eps * math.comb(degree, j)
            assert exact <= F(bound[j]) <= exact * (1 + 4 * u)
    with pytest.raises(ValueError):
        _error_bounds(1001)


# Unresolved filter statuses over every candidate row of both dice, read
# from the outward-rounded interval filter this filter replaced.
UNRESOLVED = {**{k: 0 for k in range(10, 26)},
              10: 8, 12: 16, 15: 4, 18: 60, 20: 120, 21: 36, 24: 640,
              (7, 12): 20, (9, 15): 4, (10, 14): 52}


def _mixed_fair_row(k, kp):
    # die 1 of the fair split: the chis of psi_k, and x+1 when k is even
    fair_d1 = {F(m, k) for m in range(1, (k + 1) // 2)}
    keys = sorted(_merged_factor_multiset(k, kp)[0])
    return (tuple(1 if q in fair_d1 else 0 for q in keys)
            + (1 if k % 2 == 0 else 0,))


def _full_candidates(key):
    # (factors, pairs of die rows) of every candidate of the census without
    # the prune: the diagonal r < 2 - r with the fair vector excluded, or
    # every split of a mixed type but the fair one
    if isinstance(key, int):
        rows = list(_candidate_rows(key))
        return _census_factors(key), list(zip(rows[::2], rows[1::2]))
    factors, pairs = _mixed_candidates(*key)
    fair = _mixed_fair_row(*key)
    return factors, [p for p in pairs if p[0] != fair]


def test_unresolved_counts_match_the_interval_filter():
    got = {}
    for key in UNRESOLVED:
        factors, pairs = _full_candidates(key)
        got[key] = 0
        for start in range(0, len(pairs), 4096):
            for die in (0, 1):
                status = _point_filter(
                    factors, [p[die] for p in pairs[start:start + 4096]])
                got[key] += int((status == 0).sum())
    assert got == UNRESOLVED


@settings(max_examples=25, deadline=None)
@given(_multiplicities(), st.sampled_from([1, 2, 3]),
       st.lists(st.integers(0, 2), min_size=1, max_size=11))
def test_rotation_product_equals_poly_mul_chain(case, lift, fair_r):
    k, ms, r, x1 = case
    chis = [(m, k, v) for m, v in zip(ms, r) if v]
    assert (_chi_product_exact(chis, x1, k * lift)
            == _poly_mul_chain(chis, x1, k * lift))
    # the linear roots zeta^m, with multiplicity fair_r[m-1], of a (complex)
    # die of a totally fair pair of order len(fair_r) + 1
    n = (len(fair_r) + 1) * lift
    exponents = [m * lift for m, rm in enumerate(fair_r, start=1)
                 for _ in range(rm)]
    assert (root_product(n, exponents, x1)
            == _poly_mul_chain([], x1, n, exponents))


def test_rotation_product_mixed_orders():
    # the factor shapes of exotic_search(7, 12), at conductor 84
    chis = [(1, 7, 1), (1, 12, 2), (2, 7, 1), (5, 12, 1)]
    assert (_chi_product_exact(chis, 2, 84)
            == _poly_mul_chain(chis, 2, 84))


def test_root_product_past_the_int64_bound_takes_python_ints():
    # 71 linear factors at conductor 5, whose table holds only 0s and +-1s:
    # past the bound, so the pass runs on Python ints, and its coefficients
    # overflow int64
    assert ring_dtype(5, 71) == "object" and ring_dtype(5, 61) == "int64"
    assert (root_product(5, [1], 70)
            == _poly_mul_chain([], 70, 5, [1]))
    rational = root_product(5, [0], 70)
    assert rational == poly_mul([-1, 1], *[[1, 1]] * 70)
    assert max(map(abs, rational)) > 2 ** 63


def test_point_filter_rejects_rows_of_different_degree():
    with pytest.raises(ValueError):
        _point_filter(_census_factors(7), [(1, 1, 1, 0), (1, 1, 0, 0)])


def _prune_case(key):
    # (chi angle fractions, factors, caps, conductor, die-1 degree,
    # symmetric) of the diagonal census of order key or the mixed type key
    if isinstance(key, int):
        angles = [F(m, key) for m in range(1, (key + 1) // 2)]
        caps = [2] * len(angles) + [2 * (1 - key % 2)]
        return angles, _census_factors(key), caps, key, key - 1, True
    chis, x1 = _merged_factor_multiset(*key)
    angles = sorted(chis)
    factors = ([_chi_factor(q.numerator, q.denominator) for q in angles]
               + [_X_PLUS_1])
    return (angles, factors, [chis[q] for q in angles] + [x1],
            math.lcm(*key), key[0] - 1, False)


def _leaves(key):
    _, factors, caps, n, degree, symmetric = _prune_case(key)
    return [tuple(row) for rows in _pruned_splits(
        factors, caps, degree, n, symmetric) for row in rows.tolist()]


# Leaves of the pruned search, the pairs that reach the point filter (with
# the fair split still among the mixed ones).
LEAVES = {12: 3, 13: 6, 14: 6, 15: 13, 16: 17, 17: 30, 18: 36, 19: 66,
          20: 77, 21: 157, 22: 182, 23: 359, 24: 418, 25: 823,
          (3, 4): 2, (7, 12): 16, (9, 15): 46, (10, 14): 68}


def test_pruned_search_leaf_counts():
    got = {key: len(_leaves(key)) for key in LEAVES}
    assert got == LEAVES


def _accepted_by_full_pipeline(key):
    # The census without the prune and without the library's screening:
    # every candidate through the point filter, then cyc_sign of each exact
    # coefficient the filter left unresolved.  Returns the accepted die-1
    # rows and their sacks, each die normalized on its own by
    # normalize_to_die, which shares no code with the ring pass.
    factors, pairs = _full_candidates(key)
    keys, _, _, conductor, _, _ = _prune_case(key)
    accepted, sacks = [], set()
    per_die = [_point_filter(factors, [pair[die] for pair in pairs]).tolist()
               for die in (0, 1)]
    for pair, *statuses in zip(pairs, *per_die):
        if -1 in statuses[0] + statuses[1]:
            continue
        polys = [_chi_product_exact([(q.numerator, q.denominator, c)
                                     for q, c in zip(keys, row) if c],
                                    row[-1], conductor) for row in pair]
        if all(s or cyc_sign(c).sign >= 0
               for poly, status in zip(polys, statuses)
               for c, s in zip(poly, status)):
            accepted.append(pair[0])
            sacks.add(Sack(tuple(normalize_to_die(p) for p in polys)))
    return accepted, sacks


@pytest.mark.parametrize("key", list(range(3, 23)) + [(3, 4), (4, 6)] + [
    key for key in UNRESOLVED if not isinstance(key, int)])
def test_every_accepted_vector_is_a_leaf(key):
    accepted, sacks = _accepted_by_full_pipeline(key)
    assert set(accepted) <= set(_leaves(key))
    if isinstance(key, int) and key >= 12:
        assert len(accepted) == EKTAB[key]
    census = exotic_search(*key) if isinstance(key, tuple) else \
        exotic_search(key, key)
    assert {sack for sack, _ in census.sacks} == sacks


@pytest.mark.parametrize("key", [16, 20, (7, 12), (9, 15)])
def test_census_does_not_depend_on_the_chunk_size(key, monkeypatch):
    # one or three nodes per search chunk cut the leaves into many small
    # chunks for the point filter; the census must not change
    orders = key if isinstance(key, tuple) else (key, key)
    want = exotic_search(*orders)
    for rows in (1, 3):
        monkeypatch.setattr(exotica, "_SEARCH_ROWS", rows)
        assert exotic_search(*orders) == want, rows


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _exact_log_ratios(angles, n):
    # the library's floats c_i, taken as exact, and the table of exact ell
    # at the working precision: a row per c_i, x+1 last
    c = np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n)).tolist()
    cos_theta = [mpmath.cos(2 * mpmath.pi * _mp(q)) for q in angles]
    table = []
    for ci in map(mpmath.mpf, c):
        table.append([mpmath.log(abs(ci - ct)) - mpmath.log(1 - ct)
                      for ct in cos_theta]
                     + [(mpmath.log(1 + ci) - mpmath.log(2)) / 2])
    return c, cos_theta, table


@pytest.mark.parametrize("key", [3, 4, 12, 13, 25, 29, 40,
                                 (3, 4), (7, 12), (9, 15), (10, 14)])
def test_log_ratios_are_within_the_derived_error(key):
    angles, factors, _, n, _, _ = _prune_case(key)
    e, lam = map(_mp, _prune_error(n))
    got = _log_ratios(factors, n)
    u = mpmath.mpf(2) ** -53
    with mpmath.workdps(60):
        c, cos_theta, exact = _exact_log_ratios(angles, n)
        gap = 2 * mpmath.sin(mpmath.pi / (4 * n)) ** 2 - 18 * u
        for i, ci in enumerate(c):
            phi = mpmath.pi * (2 * i + 1) / (2 * n)
            assert abs(ci - mpmath.cos(phi)) <= 18 * u
            assert 1 + ci >= gap
            assert all(abs(ci - ct) >= gap and 1 - ct >= gap
                       for ct in cos_theta)
            for f, value in enumerate(exact[i]):
                assert abs(value) <= lam
                assert abs(got[i, f] - value) <= e, (key, i, f)


def _exact_bound(exact, row, fixed, caps, widths, degree):
    # the least exact value of a die over every completion of its fixed
    # columns: the fixed part plus the smallest remaining slot values
    free = [f for f in range(len(caps)) if f not in fixed]
    need = (degree - sum(widths[f] * row[f] for f in fixed)) // 2
    return max(sum(row[f] * e[f] for f in fixed)
               + sum(sorted(e[f] for f in free for _ in range(caps[f]))[:need])
               for e in exact)


@pytest.mark.parametrize("key", [8, 11, 12, 16, 19, 20, (3, 4), (4, 6),
                                 (7, 12), (9, 15), (10, 14)])
def test_prefix_bounds_are_within_the_tolerance(key):
    # every node the search evaluates, against its exact bound at 60 digits;
    # a pruned node has no completion satisfying the condition
    angles, factors, caps, n, degree, symmetric = _prune_case(key)
    widths = [2] * len(angles) + [1]
    total = sum(w * c for w, c in zip(widths, caps))
    tol = _prune_tolerance(n, max(degree, total - degree),
                           len(factors) + sum(caps))
    order = [len(factors) - 1] + list(range(len(angles)))  # x+1 first
    nodes = 0
    with mpmath.workdps(60):
        _, _, exact = _exact_log_ratios(angles, n)
        for depth, rows, bounds, keep in _split_search(
                _log_ratios(factors, n), factors, caps, degree, tol,
                symmetric):
            fixed = order[:depth]
            for row, bound in zip(rows.tolist(), bounds.tolist()):
                comp = [c - v for c, v in zip(caps, row)]
                want = [_exact_bound(exact, r, fixed, caps, widths, d)
                        for r, d in ((row, degree), (comp, total - degree))]
                assert all(abs(b - w) <= tol for b, w in zip(bound, want))
                if max(bound) > tol:
                    assert max(want) > 0
                nodes += 1
            assert keep.tolist() == [max(b) <= tol and not (
                symmetric and depth == len(factors)
                and all(2 * v == c for v, c in zip(row, caps)))
                for row, b in zip(rows.tolist(), bounds.tolist())]
    assert nodes > 0


def test_prune_tolerance_is_the_derived_bound():
    u = F(1, 2 ** 53)
    for n in (3, 12, 29, 84, 1000, 10 ** 6):
        x = F(314159, 400000 * n)
        g = 2 * (x - x ** 3 / 6) ** 2 - 18 * u
        with mpmath.workdps(60):
            assert _mp(x) <= mpmath.pi / (4 * n)
            assert _mp(g) <= 2 * mpmath.sin(mpmath.pi / (4 * n)) ** 2 - 18 * u
            lam = math.ceil(2 / g).bit_length() * F(6932, 10000)
            assert _mp(lam) >= mpmath.log(2 / _mp(g))
        rho = (u + F(1, 2 ** 66)) * (1 + u) / g + u
        assert rho <= F(1, 4) and g <= F(1, 2)
        d = 2 * rho + 8 * u * lam + F(1, 2 ** 1072)
        e = 2 * d * (1 + u) + 2 * u * lam
        assert _prune_error(n) == (e, lam)
        for degree, terms in ((n - 1, n + 3), (2 * n, 3 * n + 1)):
            exact = degree * (e + terms * u / (1 - terms * u) * (lam + e))
            tol = F(_prune_tolerance(n, degree, terms))
            assert exact <= tol <= exact * (1 + 4 * u)
    _prune_error(22_474_148)
    with pytest.raises(ValueError, match="up to 22474148$"):
        _prune_error(22_474_149)


def test_prune_keeps_exactly_the_splits_within_the_tolerance(monkeypatch):
    # k = 5: chi_1 and chi_2 twice each and no x+1; die 1 takes two of the
    # four.  With ell = (a, -1, 0) at every angle the split (2, 0) has the
    # value 2a for die 1, and (0, 2) the same for die 2.
    factors, caps = _census_factors(5), [2, 2, 0]
    tol = _prune_tolerance(5, 4, len(factors) + sum(caps))
    every = {(2, 0, 0), (1, 1, 0), (0, 2, 0)}
    for a, want in ((tol / 4, every), (tol / 2, every),
                    (tol, {(1, 1, 0)}), (1.0, {(1, 1, 0)})):
        monkeypatch.setattr(exotica, "_log_ratios",
                            lambda factors, n: np.tile([a, -1.0, 0.0], (n, 1)))
        assert {tuple(row) for rows in _pruned_splits(factors, caps, 4, 5)
                for row in rows.tolist()} == want, a


def test_census_takes_no_inverse(monkeypatch):
    # each pair is normalized by its partner's coefficient sum
    from totalparts.fairlab import enumerate_fair_pairs

    def inverse(self):
        raise AssertionError("a Galois inverse was taken")

    monkeypatch.setattr(CycElem, "inverse", inverse)
    assert len(swap_census(13)) == 2
    assert exotic_search(7, 12).count == 14
    assert len(enumerate_fair_pairs(6)) == 51


def test_exotic_search_13_19():
    # conductor 247; built by the ring pass in well under a second
    assert exotic_search(13, 19).count == 159


# E(26) and E(27): outputs of this library past the published range
# (k <= 25), not published values.
@pytest.mark.parametrize("k, count", [(26, 72), (27, 91)])
def test_census_past_the_published_range(k, count):
    census = exotic_search(k, k)
    assert census.count == count
    fair = tuple(fair_total((k, k)))
    for sack, _ in census.sacks:
        assert parts_to_total(sack).coeffs == fair
        assert all(die.is_strict() for die in sack.dice)
        assert not sack.is_fair()


# E(28..35), decision-only counts: outputs of this library past the
# published range, not published values.
@pytest.mark.parametrize("k, count", [(28, 125), (29, 167), (30, 233),
                                      (31, 284), (32, 409), (33, 601),
                                      (34, 748), (35, 1080)])
def test_census_counts_past_the_published_range(k, count):
    assert len(swap_census(k)) == count


# Dice of the diagonal census, k <= 26, that pass the filter's mask with a
# 0 status; every other k <= 26 has none.
ZERO_STATUS_DICE = {10: 1, 12: 2, 18: 2, 20: 3, 21: 2, 24: 7, 26: 4}


def _count_root_products(monkeypatch):
    calls = []
    product = exotica.root_product
    monkeypatch.setattr(exotica, "root_product",
                        lambda *args: calls.append(args) or product(*args))
    return calls


def _count_builds(monkeypatch):
    # one log of the product calls ("product") and pair builds ("pair")
    log = []
    for name, tag in (("root_product", "product"), ("root_pair", "pair")):
        fn = getattr(exotica, name)
        monkeypatch.setattr(exotica, name, lambda *args, fn=fn, tag=tag:
                            log.append(tag) or fn(*args))
    return log


def test_exact_products_only_where_a_status_is_0(monkeypatch):
    log = _count_builds(monkeypatch)
    for k in range(2, 27):
        factors, caps = _census_factors(k), _prune_case(k)[2]
        zero_dice = 0
        for row in _leaves(k):
            dice = [row, tuple(c - v for c, v in zip(caps, row))]
            statuses = _point_filter(factors, dice)
            if (statuses >= 0).all():
                zero_dice += int((statuses == 0).any(axis=1).sum())
        assert zero_dice == ZERO_STATUS_DICE.get(k, 0), k
        del log[:]
        specs = swap_census(k)
        assert log == ["product"] * zero_dice, k
        # building takes one pair build per sack, and no product is made
        # after the pairs are decided
        del log[:]
        census = exotic_search(k, k)
        assert log == ["product"] * zero_dice + ["pair"] * census.count, k
        assert [spec for _, spec in census.sacks] == specs, k


def test_the_exact_rejection_at_37_is_decided_by_cyc_sign(monkeypatch):
    # The swap [6,12,17]<->[7,11,18] passes the filter's -1 mask; die 2
    # keeps coefficients 13 and 23 unresolved, and both are negative.
    k = 37
    die1 = (1, 1, 1, 1, 1, 0, 2, 1, 1, 1, 2, 0, 1, 1, 1, 1, 0, 2, 0)
    die2 = tuple(2 - v for v in die1[:-1]) + (0,)
    status1, status2 = _point_filter(_census_factors(k), [die1, die2])
    assert (status1 == 1).all()
    assert (status2 >= 0).all()
    assert np.flatnonzero(status2 == 0).tolist() == [13, 23]
    poly = _chi_product_exact(
        [(m, k, v) for m, v in enumerate(die2[:-1], start=1) if v], 0, k)
    assert [cyc_sign(poly[j]).sign for j in (13, 23)] == [-1, -1]
    # the decision loop, given this leaf alone, makes die 2's product only
    # and drops the pair
    calls = _count_root_products(monkeypatch)
    monkeypatch.setattr(exotica, "_pruned_splits",
                        lambda *args: iter([np.array([die1])]))
    assert list(exotica._decided_pairs(k, k)) == []
    assert len(calls) == 1


# -- scans -------------------------------------------------------------------

def _scan_f(ell, k):
    # coefficients of psi_k * psi_3 (ell=3) or psi_k * (x^2+1) (ell=4)
    if ell == 3:
        return [min(i + 1, 3, k + 2 - i) for i in range(k + 2)]
    return [(1 if i <= k - 1 else 0) + (1 if 2 <= i <= k + 1 else 0)
            for i in range(k + 2)]


def _oracle_signs(ell, k, m):
    # certificate-exact division in Q(zeta_k), independent of the scan path
    f = [F(c) for c in _scan_f(ell, k)]
    q = poly_divide_exact(f, [F(1), -two_cos(m, k), F(1)])
    assert len(q) == k
    return [cyc_sign(c).sign for c in q]


def _brute_scan(ell, k):
    threshold = F(1, 4) if ell == 3 else F(1, 6)
    return tuple(m for m in range(1, (k + 1) // 2)
                 if F(m, k) >= threshold
                 and all(s >= 0 for s in _oracle_signs(ell, k, m)))


@pytest.mark.parametrize("k", list(range(5, 30)) + [36, 48])
def test_scan_matches_exact_oracle(k):
    for ell in (3, 4):
        assert s_scan(ell, k).S == _brute_scan(ell, k)


@pytest.mark.parametrize("k", range(6, 40))
def test_closed_form_coefficient_signs(k):
    for m in (1, k // 3, (k - 1) // 2):
        if not 1 <= m < (k + 1) / 2:
            continue
        for ell in (3, 4):
            oracle = _oracle_signs(ell, k, m)
            for j in range(k):
                assert _scan_coeff_sign(ell, k, m, j) == oracle[j]


def _closed_form_pass(ell, k, ms):
    # reference: every angle reduced mod 2k and evaluated in place
    c, a, b = _scan_params(ell)
    marr = np.asarray(ms, dtype=np.int64)[:, None]
    n = (k - 1) - np.arange(k, dtype=np.int64)[None, :]
    r1 = (marr * (2 * n + 3)) % (2 * k)
    r2 = (2 * marr * n) % (2 * k)
    r3 = (2 * marr * (n + 1)) % (2 * k)
    half = np.pi * marr / k
    return (c * (np.cos(half) - np.cos(np.pi * r1 / k)) / (2 * np.sin(half))
            - a * np.sin(np.pi * r2 / k) - b * np.sin(np.pi * r3 / k))


def _lattice_columns(k, ms, lattice):
    # column j = k-1-N of each lattice index i, N = i * (m/g)^-1 mod k/g
    cols = []
    for m, row in zip(ms, lattice.tolist()):
        g = math.gcd(m, k)
        inverse = pow(m // g, -1, k // g)
        cols.append([k - 1 - i * inverse % (k // g) for i in row])
    return np.array(cols, dtype=np.int64).reshape(len(ms), 2)


_PRIMES = [k for k in range(2, 951) if all(k % p for p in range(2, k))]
_PASS_KS = sorted(set(_PRIMES[::6] + _PRIMES[-3:]
                      + [143 * j for j in range(1, 7)]
                      + [2, 3, 4, 12, 48, 300, 336, 600, 603, 611, 900, 950]))


@pytest.mark.parametrize("k", _PASS_KS)
def test_table_pass_is_bit_identical_to_closed_form(k):
    # the row pass's two values are the full pass's at the lattice columns
    for ell in (3, 4):
        ms = _scan_ms(ell, k)
        lattice, v = _scan_row_pass(ell, k, ms)
        full = _closed_form_pass(ell, k, ms)
        cols = _lattice_columns(k, ms, lattice)
        assert np.array_equal(v, np.take_along_axis(full, cols, axis=1))


@pytest.mark.parametrize("k", _PASS_KS)
def test_row_decisions_equal_the_full_column_pass(k):
    # reference: every column of every row, a certified negative rejects,
    # and each column within the margin is decided exactly
    for ell in (3, 4):
        ms = _scan_ms(ell, k)
        full = _closed_form_pass(ell, k, ms)
        expected = tuple(
            m for m, row in zip(ms, full)
            if not (row < -_SCAN_MARGIN).any()
            and all(_scan_coeff_sign(ell, k, m, int(j)) >= 0
                    for j in np.flatnonzero(row <= _SCAN_MARGIN)))
        assert s_scan(ell, k).S == expected


def test_integer_scan_ms_equal_fraction_thresholds():
    for ell, threshold in ((3, F(1, 4)), (4, F(1, 6))):
        for k in range(2, 951):
            assert list(_scan_ms(ell, k)) == [
                m for m in range(1, (k + 1) // 2)
                if threshold <= F(m, k) < F(1, 2)]


def _exact_alpha_w(ell, k, m):
    # alpha, Re W and Im W of the row m at the working precision, where
    # q_j sin(t) = alpha - Re(W e^(i N t)), t = 2 pi m/k and N = k-1-j
    c, a, b = _scan_params(ell)
    (cos_h, sin_h), (cos_2, sin_2), (cos_3, sin_3) = (
        mpmath.cos_sin(mpmath.pi * i * m / k) for i in (1, 2, 3))
    scale = c / (2 * sin_h)
    return (scale * cos_h, scale * cos_3 + b * sin_2,
            scale * sin_3 - a - b * cos_2)


def _assert_values_within_1800u(ell, k, m, cols, v):
    # the docstring of _scan_row_pass derives an error under 1800u for
    # each value; returns alpha, Re W and Im W
    alpha, w_re, w_im = _exact_alpha_w(ell, k, m)
    for j, value in zip(cols, v):
        cos_n, sin_n = mpmath.cos_sin(2 * mpmath.pi * (k - 1 - j) * m / k)
        exact = alpha - (w_re * cos_n - w_im * sin_n)
        assert abs(exact - float(value)) <= 1800 * 2.0 ** -53
    return alpha, w_re, w_im


@pytest.mark.parametrize("k", [97, 300, 611, 900, 950, 1500, 3000, 4999, 5000])
def test_float_pass_error_against_60_digits(k):
    rng = random.Random(k)
    for ell in (3, 4):
        ms = _scan_ms(ell, k)
        sample = [ms[i] for i in sorted(
            {0, len(ms) - 1} | {rng.randrange(len(ms)) for _ in range(38)})]
        lattice, v = _scan_row_pass(ell, k, sample)
        cols = _lattice_columns(k, sample, lattice)
        with mpmath.workdps(60):
            for r, m in enumerate(sample):
                _assert_values_within_1800u(ell, k, m, cols[r], v[r])


def _alpha_minus_abs_w(ell, k, ms):
    # alpha - |W| of every row, in complex floats
    c, a, b = _scan_params(ell)
    t = 2 * np.pi * np.asarray(ms) / k
    scale = c / (2 * np.sin(t / 2))
    return scale * np.cos(t / 2) - np.abs(
        scale * np.exp(1.5j * t) - 1j * a - 1j * b * np.exp(1j * t))


def test_row_bracket_holds_at_the_rows_nearest_the_boundary():
    # every k <= 2000: the two rows with the least |alpha - |W|| and the
    # rows with W = 0, against 60 digits
    with mpmath.workdps(60):
        for k, ell in itertools.product(range(3, 2001), (3, 4)):
            ms = _scan_ms(ell, k)
            if not ms:
                continue
            lattice, v = _scan_row_pass(ell, k, ms)
            # W = 0 at m/k = 1/3 for ell=3 and 1/4 for ell=4
            w_zero = {ms.index(k // ell)} if k % ell == 0 else set()
            nearest_zero = np.argsort(np.abs(_alpha_minus_abs_w(ell, k, ms)))
            for r in set(nearest_zero[:2].tolist()) | w_zero:
                [cols] = _lattice_columns(k, [ms[r]], lattice[r:r + 1])
                alpha, w_re, w_im = _assert_values_within_1800u(
                    ell, k, ms[r], cols, v[r])
                abs_w = mpmath.hypot(w_re, w_im)
                if r in w_zero:
                    # arg W means nothing; both values certify the row
                    assert abs_w < 1e-50 and (v[r] > _SCAN_MARGIN).all()
                    continue
                if alpha <= abs_w:  # the premise of the bracket
                    assert abs_w >= mpmath.pi / (2 * k)
                kr = k // math.gcd(ms[r], k)
                p = -kr * mpmath.atan2(w_im, w_re) / (2 * mpmath.pi)
                nearest = int(mpmath.nint(p)) % kr
                assert nearest in lattice[r].tolist(), (ell, k, ms[r])


def test_scan_k_limit_is_the_largest_k_of_the_derivation(monkeypatch):
    u = F(1, 2 ** 53)

    def bracket_holds(k):
        return k * (650 * u * k / F(314159, 100000) + 5 * u) < F(1, 2)

    assert bracket_holds(_SCAN_K_MAX) and not bracket_holds(_SCAN_K_MAX + 1)

    def no_work(*args, **kwargs):
        raise AssertionError("a scan was started")

    # a larger k, or a table ending below k = 2, is refused before any work
    monkeypatch.setattr(exotica, "_scan_ms", no_work)
    with pytest.raises(ValueError, match=f"k <= {_SCAN_K_MAX}$"):
        s_scan(3, _SCAN_K_MAX + 1)
    monkeypatch.setattr(exotica, "s_scan", no_work)
    monkeypatch.setattr(exotica, "Pool", no_work)
    for k_max in (_SCAN_K_MAX + 1, 1, 0, -4):
        with pytest.raises(ValueError, match=f"^k must satisfy 2 <= k <= "
                                             f"{_SCAN_K_MAX}$"):
            exotica.scan_table(4, k_max, workers=2)


def test_unsupported_ell_is_refused_before_any_scan(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a scan was started")

    monkeypatch.setattr(exotica, "s_scan", no_work)
    monkeypatch.setattr(exotica, "Pool", no_work)
    for workers in (1, 2):
        with pytest.raises(ValueError, match="^only the order-3 and order-4 "
                                             "scans are supported$"):
            exotica.scan_table(5, 20, workers=workers)


def test_scan_table_scans_each_k_when_it_is_read(monkeypatch):
    scanned = []
    monkeypatch.setattr(exotica, "s_scan",
                        lambda ell, k: scanned.append(k) or k)
    records = exotica.scan_table(3, _SCAN_K_MAX)
    assert scanned == []
    assert next(records) == 2 and scanned == [2]


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the worker count and maps
    in this process, so no process is started."""

    started = []

    def __init__(self, workers):
        self.started.append(workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        return map(fn, items)


SCANS_WITH_WORKERS = {
    "scan_table": lambda w: exotica.scan_table(3, 5000, workers=w),
}


@pytest.mark.parametrize("workers",
                         [0, -3, (os.cpu_count() or 1) + 1, 1000])
@pytest.mark.parametrize("name", sorted(SCANS_WITH_WORKERS))
def test_worker_count_is_refused_before_any_scan(name, workers, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a scan was started")

    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(exotica, "Pool", RecordingPool)
    monkeypatch.setattr(exotica, "s_scan", no_work)
    with pytest.raises(ValueError, match=r"workers must lie in \[1, "):
        SCANS_WITH_WORKERS[name](workers)
    assert RecordingPool.started == []


def test_every_worker_count_in_range_is_passed_to_the_pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(exotica, "Pool", RecordingPool)
    monkeypatch.setattr(exotica, "s_scan", lambda ell, k: k)
    cpus = os.cpu_count() or 1
    k_max = cpus + 2  # more k than workers, so every count above 1 pools
    for workers in range(1, cpus + 1):
        assert (list(exotica.scan_table(3, k_max, workers=workers))
                == list(range(2, k_max + 1)))
    assert RecordingPool.started == list(range(2, cpus + 1))


def _scan_coeff_at_k(ell, k, m, j):
    # reference: the coefficient built in Q(zeta_k) itself, every one of the
    # N+1 terms summed and the product reduced mod Phi_k
    c, a, b = _scan_params(ell)
    n = k - 1 - j
    x = [0] * k
    for i in range(n + 1):
        e = ((i + 1) * m) % k
        x[e] += c
        x[-e % k] -= c
    for i, short in ((n - 1, a), (n, b)):
        if i >= 0:
            e = ((i + 1) * m) % k
            x[e] -= short
            x[-e % k] += short
    y = [x[(i + m) % k] - x[(i - m) % k] for i in range(k)]
    return CycElem.from_power_basis(k, y)


@st.composite
def _scan_coefficients(draw):
    ell = draw(st.sampled_from([3, 4]))
    k = draw(st.integers(3, 400))
    ms = _scan_ms(ell, k)
    m = draw(st.sampled_from(ms))
    j = draw(st.one_of(st.integers(0, 3), st.integers(max(0, k - 4), k - 1),
                       st.integers(0, k - 1)))
    return ell, k, m, j


@settings(max_examples=300, deadline=None)
@given(_scan_coefficients())
@example((4, 300, 100, 0))      # g = k/3: the escalated rows, k' = 3
@example((4, 300, 100, 299))    # N + 1 = 1 < k'
@example((4, 300, 100, 298))
@example((3, 101, 30, 0))       # g = 1, N + 1 = k' exactly
@example((3, 101, 30, 100))
@example((3, 360, 90, 358))     # g = 90, k' = 4
@example((4, 385, 77, 383))     # g = 77, k' = 5
@example((4, 240, 44, 1))       # g = 4, k' = 60
@example((3, 200, 62, 197))     # g = 2, k' = 100
def test_reduced_scan_coefficient_equals_conductor_k_element(case):
    ell, k, m, j = case
    g = math.gcd(m, k)
    elem = _scan_coeff_elem(ell, k, m, j)
    assert elem.n == k // g
    assert elem.promote(k).coords == _scan_coeff_at_k(ell, k, m, j).coords


def test_certified_negative_rejects_before_escalation(monkeypatch):
    k, ell = 30, 4
    ms = _scan_ms(ell, k)
    lattice, v = _scan_row_pass(ell, k, ms)
    v[0] = [0.0, -1.0]  # one unclear, but the other a certified negative
    v[1] = [0.0, 0.0]   # two unclear; the first escalates negative
    v[2] = [0.0, 1.0]   # one unclear, escalated nonnegative
    v[3] = [1.0, 1.0]   # two certified positives
    cols = _lattice_columns(k, ms, lattice)
    first_negative = (ms[1], int(cols[1, 0]))
    calls = []

    def sign(ell_, k_, m, j):
        calls.append((m, j))
        return -1 if (m, j) == first_negative else 1

    monkeypatch.setattr(exotica, "_scan_row_pass", lambda *args: (lattice, v))
    monkeypatch.setattr(exotica, "_scan_coeff_sign", sign)
    record = s_scan(ell, k)
    assert [c for c in calls if c[0] in ms[:4]] == [first_negative,
                                                    (ms[2], int(cols[2, 0]))]
    ok = (v >= -_SCAN_MARGIN).all(axis=1)
    expected = [(ms[r], int(cols[r, x])) for r in range(4, len(ms)) if ok[r]
                for x in (0, 1) if v[r, x] <= _SCAN_MARGIN]
    assert [c for c in calls if c[0] not in ms[:4]] == expected
    assert record.S == tuple(m for m, keep in zip(ms, ok) if keep
                             and m != ms[1])
    assert ms[0] not in record.S and {ms[2], ms[3]} <= set(record.S)


@pytest.mark.parametrize("k", [300, 3000])
def test_s4_escalates_one_exact_zero_in_row_k_over_3(k, monkeypatch):
    calls = []

    def counted(ell, k_, m, j):
        sign = _scan_coeff_sign(ell, k_, m, j)
        calls.append((m, j, sign))
        return sign

    monkeypatch.setattr(exotica, "_scan_coeff_sign", counted)
    record = s_scan(4, k)
    assert record.S == tuple(range(k // 6, k // 3 + 1))
    [(m, j, sign)] = calls
    assert (m, sign) == (k // 3, 0)  # a certified exact zero
    row = _closed_form_pass(4, k, [m])[0]
    assert not (row < -_SCAN_MARGIN).any()
    assert abs(row[j]) <= _SCAN_MARGIN


def test_scan_swap_produces_exotic_sack():
    # any strict member of S_3(k) with k != 3m gives an exotic (3,k) sack
    k = 12
    record = s_scan(3, k)
    assert record.S == (3, 4, 5)
    census = exotic_search(3, k)
    # members whose swap is exotic (m=4 gives chi_{1,3}: the fair 3-die)
    assert {F(m, k) for m in record.S if k != 3 * m} == \
        {spec.take[0] for _s, spec in census.sacks}


def test_s3_known_maxima():
    assert s_scan(3, 143).M == 60
    assert s_scan(3, 336).M == 140
    assert s_scan(3, 2).M is None


def test_record_reads_M_and_R_from_S():
    assert [f.name for f in dataclasses.fields(ScanRecord)] == ["k", "S"]
    record = ScanRecord(12, (3, 4, 5))
    assert (record.M, record.R) == (5, F(5, 12))
    assert (ScanRecord(2, ()).M, ScanRecord(2, ()).R) == (None, None)
    assert s_scan(3, 12) == record
    # an M or R passed through dataclasses.replace is reported as given
    assert dataclasses.replace(record, M=6).M == 6
    assert dataclasses.replace(record, R=F(1, 2)).R == F(1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.M = 6


def test_m3_exceptions_refuses_a_table_ending_below_746():
    for records in ([], [ScanRecord(k, ()) for k in range(2, 746)]):
        with pytest.raises(ValueError, match="^k_max must be at least 746 "
                                             "to see the first exception$"):
            m3_exceptions(records)


@pytest.mark.parametrize("ks, bad", [
    # k = 400 dropped: 257 -> 400 and 400 -> 543 would be skipped
    ([k for k in range(2, 801) if k != 400], 401),
    ([3, 2], 3),
    ([2, 2], 2),
    ([2, 4], 4),
], ids=["gap", "first_not_2", "repeat", "step_2"])
def test_m3_exceptions_refuses_gapped_or_unordered_records(ks, bad):
    with pytest.raises(ValueError, match=f"^scan record k = {bad} is out of "
                                         f"order: expected k = "):
        m3_exceptions(ScanRecord(k, ()) for k in ks)


def test_s4_scan_is_an_interval():
    for k in (7, 12, 18, 25, 30):
        S = s_scan(4, k).S
        assert S == tuple(range(math.ceil(k / 6), k // 3 + 1))
