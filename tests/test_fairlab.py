"""Totally fair pairs: counts, the order-6 golden table, ramification,
coin+die fairness, and Sicherman dice."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from totalparts import fairlab
from totalparts.dicecore import Die, Sack, fair_total, parts_to_total, psi
from totalparts.exactnum import CycElem, cyclotomic_poly
from totalparts.fairlab import (
    coin_die_fair_check,
    craps_fair_impossibility,
    enumerate_fair_pairs,
    fair_pair_count,
    multiplicity_vectors,
    ramification_check,
    sicherman_search,
)
from totalparts.fibers import fiber_degree

F = Fraction

# The 26 published solution rows for a pair of 6-dice with fair total, as
# (A, B, D) triples meaning (A*zeta_6 + B)/D.  Row 0 is the fair pair; each
# other row also occurs with the two dice swapped, giving 1 + 2*25 = 51.
GOLDEN_51_ROWS = [
    ([(0, 1, 6)] * 6, [(0, 1, 6)] * 6),
    ([(0, 1, 2), (0, -1, 2), (0, 1, 2), (0, 1, 2), (0, -1, 2), (0, 1, 2)],
     [(0, 1, 18), (0, 1, 6), (0, 5, 18), (0, 5, 18), (0, 1, 6), (0, 1, 18)]),
    ([(0, -1, 6), (-4, 1, 6), (-4, 7, 6), (4, 3, 6), (4, -3, 6), (0, -1, 6)],
     [(0, -1, 6), (4, -3, 6), (4, 3, 6), (-4, 7, 6), (-4, 1, 6), (0, -1, 6)]),
    ([(-1, -1, 9), (-5, 4, 9), (-1, 5, 9), (1, 4, 9), (5, -1, 9), (1, -2, 9)],
     [(1, -2, 12), (2, -1, 4), (5, 5, 12), (-5, 10, 12), (-2, 1, 4), (-1, -1, 12)]),
    ([(-1, 0, 3), (-1, 3, 3), (3, -2, 3), (-3, 1, 3), (1, 2, 3), (1, -1, 3)],
     [(1, -1, 12), (4, -1, 12), (3, 4, 12), (-3, 7, 12), (-4, 3, 12), (-1, 0, 12)]),
    ([(-1, -1, 12), (-2, 1, 4), (-5, 10, 12), (5, 5, 12), (2, -1, 4), (1, -2, 12)],
     [(1, -2, 9), (5, -1, 9), (1, 4, 9), (-1, 5, 9), (-5, 4, 9), (-1, -1, 9)]),
    ([(-1, 0, 6), (-1, 1, 3), (-1, 3, 6), (1, 2, 6), (1, 0, 3), (1, -1, 6)],
     [(1, -1, 6), (1, 0, 3), (1, 2, 6), (-1, 3, 6), (-1, 1, 3), (-1, 0, 6)]),
    ([(-2, 1, 6), (0, 1, 2), (2, -1, 6), (-2, 1, 6), (0, 1, 2), (2, -1, 6)],
     [(2, -1, 18), (4, 1, 18), (2, 5, 18), (-2, 7, 18), (-4, 5, 18), (-2, 1, 18)]),
    ([(-2, 1, 9), (-1, 2, 9), (-2, 4, 9), (2, 2, 9), (1, 1, 9), (2, -1, 9)],
     [(2, -1, 12), (1, 0, 4), (1, 4, 12), (-1, 5, 12), (-1, 1, 4), (-2, 1, 12)]),
    ([(-1, 1, 3), (1, 0, 3), (-1, 1, 3), (1, 0, 3), (-1, 1, 3), (1, 0, 3)],
     [(1, 0, 12), (2, 1, 12), (1, 3, 12), (-1, 4, 12), (-2, 3, 12), (-1, 1, 12)]),
    ([(-1, 2, 3), (1, -1, 1), (-5, 4, 3), (5, -1, 3), (-1, 0, 1), (1, 1, 3)],
     [(1, 1, 36), (2, 5, 36), (1, 10, 36), (-1, 11, 36), (-2, 7, 36), (-1, 2, 36)]),
    ([(-2, 1, 12), (-1, 1, 4), (-1, 5, 12), (1, 4, 12), (1, 0, 4), (2, -1, 12)],
     [(2, -1, 9), (1, 1, 9), (2, 2, 9), (-2, 4, 9), (-1, 2, 9), (-2, 1, 9)]),
    ([(-1, 1, 4), (0, 1, 4), (1, 0, 4), (-1, 1, 4), (0, 1, 4), (1, 0, 4)],
     [(1, 0, 9), (1, 1, 9), (1, 2, 9), (-1, 3, 9), (-1, 2, 9), (-1, 1, 9)]),
    ([(-1, 1, 6), (-1, 1, 6), (0, 1, 3), (0, 1, 3), (1, 0, 6), (1, 0, 6)],
     [(1, 0, 6), (1, 0, 6), (0, 1, 3), (0, 1, 3), (-1, 1, 6), (-1, 1, 6)]),
    ([(-1, 2, 6), (0, 0, 1), (1, 1, 6), (-1, 2, 6), (0, 0, 1), (1, 1, 6)],
     [(1, 1, 18), (1, 1, 9), (1, 4, 18), (-1, 5, 18), (-1, 2, 9), (-1, 2, 18)]),
    ([(0, 1, 3), (-1, 0, 3), (2, 0, 3), (-2, 2, 3), (1, -1, 3), (0, 1, 3)],
     [(0, 1, 12), (1, 2, 12), (1, 2, 12), (-1, 3, 12), (-1, 3, 12), (0, 1, 12)]),
    ([(1, 1, 3), (-1, 0, 1), (5, -1, 3), (-5, 4, 3), (1, -1, 1), (-1, 2, 3)],
     [(-1, 2, 36), (-2, 7, 36), (-1, 11, 36), (1, 10, 36), (2, 5, 36), (1, 1, 36)]),
    ([(-1, 0, 12), (-4, 3, 12), (-3, 7, 12), (3, 4, 12), (4, -1, 12), (1, -1, 12)],
     [(1, -1, 3), (1, 2, 3), (-3, 1, 3), (3, -2, 3), (-1, 3, 3), (-1, 0, 3)]),
    ([(-2, 1, 18), (-4, 5, 18), (-2, 7, 18), (2, 5, 18), (4, 1, 18), (2, -1, 18)],
     [(2, -1, 6), (0, 1, 2), (-2, 1, 6), (2, -1, 6), (0, 1, 2), (-2, 1, 6)]),
    ([(-1, 1, 6), (0, 1, 3), (1, 0, 6), (-1, 1, 6), (0, 1, 3), (1, 0, 6)],
     [(1, 0, 6), (0, 1, 3), (-1, 1, 6), (1, 0, 6), (0, 1, 3), (-1, 1, 6)]),
    ([(-1, 1, 9), (-1, 2, 9), (-1, 3, 9), (1, 2, 9), (1, 1, 9), (1, 0, 9)],
     [(1, 0, 4), (0, 1, 4), (-1, 1, 4), (1, 0, 4), (0, 1, 4), (-1, 1, 4)]),
    ([(-1, 2, 9), (1, 1, 9), (-1, 2, 9), (1, 1, 9), (-1, 2, 9), (1, 1, 9)],
     [(1, 1, 12), (0, 1, 4), (-1, 2, 12), (1, 1, 12), (0, 1, 4), (-1, 2, 12)]),
    ([(0, 1, 3), (1, -1, 3), (-2, 2, 3), (2, 0, 3), (-1, 0, 3), (0, 1, 3)],
     [(0, 1, 12), (-1, 3, 12), (-1, 3, 12), (1, 2, 12), (1, 2, 12), (0, 1, 12)]),
    ([(-1, 1, 12), (-2, 3, 12), (-1, 4, 12), (1, 3, 12), (2, 1, 12), (1, 0, 12)],
     [(1, 0, 3), (-1, 1, 3), (1, 0, 3), (-1, 1, 3), (1, 0, 3), (-1, 1, 3)]),
    ([(-1, 2, 12), (0, 1, 4), (1, 1, 12), (-1, 2, 12), (0, 1, 4), (1, 1, 12)],
     [(1, 1, 9), (-1, 2, 9), (1, 1, 9), (-1, 2, 9), (1, 1, 9), (-1, 2, 9)]),
    ([(-1, 2, 18), (-1, 2, 9), (-1, 5, 18), (1, 4, 18), (1, 1, 9), (1, 1, 18)],
     [(1, 1, 6), (0, 0, 1), (-1, 2, 6), (1, 1, 6), (0, 0, 1), (-1, 2, 6)]),
]


def _die_from_triples(triples):
    z = CycElem.zeta(6, 1)
    return Die(tuple((a * z + b) * F(1, d) for a, b, d in triples))


def golden_pairs():
    pairs = []
    for i, (p, q) in enumerate(GOLDEN_51_ROWS):
        d, dhat = _die_from_triples(p), _die_from_triples(q)
        pairs.append((d, dhat))
        if i > 0:
            pairs.append((dhat, d))
    return pairs


def test_fair_pair_count_formula():
    assert fair_pair_count(2) == 1
    assert fair_pair_count(3) == 3
    assert fair_pair_count(6) == 51
    for k in range(2, 9):
        assert fair_pair_count(k) == sum(1 for _ in multiplicity_vectors(k))


def test_enumeration_matches_the_published_51():
    from collections import Counter

    pairs = enumerate_fair_pairs(6)
    assert len(pairs) == 51
    got = Counter((p.d.probs, p.dhat.probs) for p in pairs)
    expected = Counter((d.probs, dhat.probs) for d, dhat in golden_pairs())
    assert sum(expected.values()) == 51
    # exact multiset equality over Q(zeta_6)
    assert got == expected


def test_each_pair_has_fair_total():
    fair = tuple(F(c, 36) for c in
                 (1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1))
    for p in enumerate_fair_pairs(6)[:10]:
        total = parts_to_total(Sack((p.d, p.dhat)))
        assert total.coeffs == fair


@pytest.mark.parametrize("k, count", [(7, 141), (8, 393)])
def test_fair_pairs_past_order_6(k, count):
    # every multiplicity vector once, in the canonical order, and a seeded
    # sample of pairs whose total, by the forward map, is psi_k^2 / k^2
    pairs = enumerate_fair_pairs(k)
    assert len(pairs) == fair_pair_count(k) == count
    rs = [p.r for p in pairs]
    assert rs == sorted(multiplicity_vectors(k),
                        key=lambda r: (r.count(2), r))
    assert len(set(rs)) == count
    fair = tuple(F(c, k * k) for c in
                 [min(i + 1, 2 * k - 1 - i) for i in range(2 * k - 1)])
    for p in random.Random(k).sample(pairs, 6):
        assert parts_to_total(Sack((p.d, p.dhat))).coeffs == fair
        assert (p.d._ints is None) == (not all(
            isinstance(c, F) for c in p.d.probs))


def test_strict_and_real_counts_order_6():
    pairs = enumerate_fair_pairs(6)
    strict = [p for p in pairs if p.is_strict()]
    real = [p for p in pairs if p.is_real()]
    assert len(strict) == 1 and strict[0].is_fair()
    # one unordered real nonfair pair, seen twice in the ordered count
    assert len(real) == 3


def test_ramification_balances():
    for k in range(2, 9):
        lhs, rhs = ramification_check(k)
        assert lhs == rhs == fiber_degree((k, k))


def test_ramification_6_reproduces_the_published_sum():
    assert 2 ** 5 * 1 + 2 ** 3 * 20 + 2 ** 1 * 30 == 252
    assert ramification_check(6) == (252, 252)


def _order_refusal(k):
    # the message refusing order k: an int below 2, or anything but an int
    return ("^order must be >= 2$" if type(k) is int
            else f"^order must be an integer, not {k!r}$")


@pytest.mark.parametrize("check", [ramification_check, coin_die_fair_check,
                                   multiplicity_vectors])
@pytest.mark.parametrize("k", [1, 0, -2, 4.0, True])
def test_order_below_2_is_refused_before_any_work(check, k, monkeypatch):
    def no_work(*args):
        raise AssertionError("work was started")

    monkeypatch.setattr(fairlab, "fiber_degree", no_work)
    monkeypatch.setattr(fairlab, "enumerate_fiber", no_work)
    with pytest.raises(ValueError, match=_order_refusal(k)):
        check(k)


def test_craps_fair_impossibility_report():
    rep = craps_fair_impossibility()
    assert rep.only_strict_is_fair
    assert not rep.candidate_is_strict
    assert rep.candidate_vector == (1, -1, 1, 1, -1, 1)
    # the non-strict real candidate is the second golden row
    assert tuple(rep.candidate.d.probs) == tuple(
        _die_from_triples(GOLDEN_51_ROWS[1][0]).probs)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_coin_die_fairness(k):
    rep = coin_die_fair_check(k)
    assert rep.only_fair_is_strict
    assert any(s.is_fair() for s in rep.strict_sacks)


def test_sicherman_six():
    pairs = sicherman_search(6)
    assert ((1, 2, 2, 3, 3, 4), (1, 3, 4, 5, 6, 8)) in pairs
    standard = tuple(range(1, 7))
    assert (standard, standard) in pairs
    assert len(pairs) == 2


def test_sicherman_other_orders():
    assert sicherman_search(4) == [
        ((1, 2, 2, 3), (1, 3, 3, 5)),
        ((1, 2, 3, 4), (1, 2, 3, 4)),
    ]
    # prime order: only the standard pair (psi_p is irreducible)
    assert sicherman_search(5) == [((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))]


@pytest.mark.parametrize("k", [1, 0, -3, 4.0, True])
def test_sicherman_below_order_2_is_refused(k):
    with pytest.raises(ValueError, match=_order_refusal(k)):
        sicherman_search(k)


@pytest.mark.parametrize("k", [1, 0, -2, 2.0, True])
def test_fair_pairs_below_order_2_are_refused(k):
    with pytest.raises(ValueError, match=_order_refusal(k)):
        enumerate_fair_pairs(k)


def ref_sicherman_search(k, label_min=1):
    # The Fraction implementation that the integer one replaced: psi_k's
    # factors Phi_d as Fraction lists, each die a chain of schoolbook
    # products.
    def mul(a, b):
        out = [F(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    factors = [[F(c) for c in cyclotomic_poly(d)]
               for d in range(2, k + 1) if k % d == 0]
    results = set()
    for counts in itertools.product((0, 1, 2), repeat=len(factors)):
        dice = []
        for share in (counts, [2 - c for c in counts]):
            poly = [F(1)]
            for f, c in zip(factors, share):
                for _ in range(c):
                    poly = mul(poly, f)
            dice.append(poly)
        a, b = dice
        if sum(a) != k or sum(b) != k:
            continue
        if any(c < 0 or c.denominator != 1 for c in a + b):
            continue
        labels = [tuple(exp + label_min for exp, c in enumerate(poly)
                        for _ in range(int(c))) for poly in dice]
        results.add(tuple(sorted(labels)))
    return sorted(results)


@pytest.mark.parametrize("k", range(2, 11))
def test_sicherman_matches_the_fraction_reference(k):
    assert sicherman_search(k) == ref_sicherman_search(k)
    assert sicherman_search(k, label_min=0) == ref_sicherman_search(k, 0)


def test_sicherman_label_min():
    pairs = sicherman_search(4, label_min=0)
    assert ((0, 1, 1, 2), (0, 2, 2, 4)) in pairs


def test_fair_total_helper():
    assert fair_total((6, 6)) == [F(c, 36) for c in
                                  (1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1)]
