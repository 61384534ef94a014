"""Exotic sacks: censuses, published tables, scans, and their oracles."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totalparts.dicecore import (
    Die,
    Sack,
    demote,
    parts_to_total,
    poly_divide_exact,
    poly_mul,
    psi,
)
from totalparts.exactnum import cyc_sign, two_cos
from totalparts.exotica import (
    _CHUNK_ROWS,
    _X_PLUS_1,
    _chi_interval,
    _chi_product_exact,
    _interval_filter,
    _scan_coeff_sign,
    _scan_exact_coeff_sign,
    _scan_f,
    _screened,
    _sum_bounded_vectors,
    exotic_search,
    m3_exception_scan,
    s3_table,
    s_scan,
    scatter_emit,
    smallest_exotic_34,
    swap_census,
    verify_tridecahedral,
)
from totalparts.fairlab import fair_total

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

def _poly_mul_chain(chis, x1_count, conductor):
    # The exact product as a chain of poly_mul over CycElem coefficients:
    # the reference for the integer rotation product.
    poly = [F(1)]
    for m, k, mult in chis:
        tau = two_cos((m * conductor) // k, conductor)
        for _ in range(mult):
            poly = poly_mul(poly, [F(1), -tau, F(1)])
    for _ in range(x1_count):
        poly = poly_mul(poly, [F(1), F(1)])
    return [demote(c) for c in poly]


@st.composite
def _multiplicities(draw):
    k = draw(st.integers(3, 20))
    ms = list(range(1, (k + 1) // 2))
    r = draw(st.lists(st.integers(0, 2), min_size=len(ms), max_size=len(ms)))
    return k, ms, tuple(r), draw(st.integers(0, 2))


def _census_factors(k):
    return [_chi_interval(m, k) for m in range(1, (k + 1) // 2)] + [_X_PLUS_1]


@settings(max_examples=40, deadline=None)
@given(_multiplicities())
# products with exact zero coefficients: x^2+1, and a die of the order-10
# exotic pair
@example((4, [1], (1,), 0))
@example((10, [1, 2, 3, 4], (1, 1, 0, 2), 1))
def test_interval_filter_signs_agree_with_exact_signs(case):
    k, ms, r, x1 = case
    status = _interval_filter(_census_factors(k), [r + (x1,)])[0]
    poly = _chi_product_exact([(m, k, v) for m, v in zip(ms, r) if v], x1, k)
    assert len(status) == len(poly)
    for s, c in zip(status.tolist(), poly):
        if s:
            assert cyc_sign(c).sign == s


@settings(max_examples=25, deadline=None)
@given(_multiplicities(), st.sampled_from([1, 2, 3]))
def test_rotation_product_equals_poly_mul_chain(case, lift):
    k, ms, r, x1 = case
    chis = [(m, k, v) for m, v in zip(ms, r) if v]
    assert (_chi_product_exact(chis, x1, k * lift)
            == _poly_mul_chain(chis, x1, k * lift))


def test_rotation_product_mixed_orders():
    # the factor shapes of exotic_search(7, 12), at conductor 84
    chis = [(1, 7, 1), (1, 12, 2), (2, 7, 1), (5, 12, 1)]
    assert (_chi_product_exact(chis, 2, 84)
            == _poly_mul_chain(chis, 2, 84))


def test_interval_filter_rejects_rows_of_different_degree():
    with pytest.raises(ValueError):
        _interval_filter(_census_factors(7), [(1, 1, 1, 0), (1, 1, 0, 0)])


@pytest.mark.parametrize("count", [1, 2 * _CHUNK_ROWS + 5])
def test_screened_streams_every_candidate_in_order(count):
    # k = 16: seven chi factors and x+1; 393 vectors in {0,1,2}^7 sum to 7
    factors = _census_factors(16)
    vectors = itertools.islice(_sum_bounded_vectors(7, 7), count)
    candidates = [(i, (r + (1,), tuple(2 - v for v in r) + (1,)))
                  for i, r in enumerate(vectors)]
    assert len(candidates) == count
    out = list(_screened(iter(candidates), factors))
    assert [payload for payload, _ in out] == list(range(count))
    for (_, rows), (_, statuses) in zip(candidates, out):
        assert len(statuses) == 2
        for row, status in zip(rows, statuses):
            assert (status.tolist()
                    == _interval_filter(factors, [row])[0].tolist())


# -- scans -------------------------------------------------------------------

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
                assert _scan_exact_coeff_sign(ell, k, m, j) == oracle[j]
                assert _scan_coeff_sign(ell, k, m, j) == oracle[j]


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


def test_s4_scan_is_an_interval():
    for k in (7, 12, 18, 25, 30):
        S = s_scan(4, k).S
        assert S == tuple(range(math.ceil(k / 6), k // 3 + 1))


def test_s3_table_and_exceptions_to_950():
    records = s3_table(950, workers=2)
    assert [r.k for r in records] == list(range(2, 951))
    m3 = {r.k: r.M for r in records}
    # R3 <= 60/143 with equality exactly at multiples of 143
    for r in records:
        if r.R is not None:
            assert r.R <= F(60, 143)
            assert (r.R == F(60, 143)) == (r.k % 143 == 0)
    # M3 = 5k/12 at k = 12l exactly for l <= 28
    for ell in range(1, 79):
        k = 12 * ell
        if k > 950:
            break
        assert (m3[k] == 5 * ell) == (ell <= 28)
    rep = m3_exception_scan(950)
    assert [(e.k, e.difference) for e in rep.exceptions] == [(603, 59)]
    assert rep.b_sequence == (0,)


def test_scatter_rows_and_bound():
    rows, violations = scatter_emit(300)
    assert violations == []
    by_k = {row.k: row for row in rows}
    assert by_k[143].R == F(60, 143)
    assert by_k[144].M == 60
