"""Dice, sacks, the forward map, and exact polynomial helpers."""

import dataclasses
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from totalparts import dicecore
from totalparts.dicecore import (
    Die,
    DistPoly,
    Sack,
    ZeroSum,
    as_scalar,
    normalize_to_die,
    parts_to_total,
    poly_gcd,
    poly_mul,
    psi,
    root_pairs,
    root_products,
    scalar_from_json,
)
from totalparts.crapseval import CrapsTotals
from totalparts import exactnum
from totalparts.exactnum import (CycElem, cyc_embed, cyc_sign, phi,
                                 ring_dtype, ring_scalars, two_cos)
from totalparts.exotica import exotic_search
from totalparts.fairlab import enumerate_fair_pairs, multiplicity_vectors
from totalparts.fibers import ChiFactor, LinearFactor

from reference_division import (InexactDivision, poly_divide_exact,
                                ref_poly_gcd)


F = Fraction


def fair_sack(*orders):
    return Sack(tuple(Die.fair(k) for k in orders))


def test_die_validation():
    with pytest.raises(ValueError):
        Die((F(1, 2), F(1, 3)))  # does not sum to 1
    with pytest.raises(ValueError):
        Die((F(1),))  # order 1
    d = Die((F(1, 2), F(0), F(1, 2)))
    assert d.order == 3 and d.is_strict()


@pytest.mark.parametrize("dice", [
    (1, 2), (Die.fair(2), F(1, 2)), [Die.fair(2), (F(1, 2), F(1, 2))],
    (Die.fair(2), None), ("ab",), (Sack((Die.fair(2),)),),
], ids=["ints", "fraction", "tuple", "none", "str", "sack"])
def test_a_sack_holds_only_dice(dice):
    # refused when built, not later when parts_to_total reads each _ints
    with pytest.raises(TypeError, match="a sack holds dice, not "):
        Sack(dice)


def test_pseudodie_entries_may_be_negative_or_complex():
    d = Die((F(3, 2), F(-1, 2)))
    assert d.is_real() and not d.is_strict()
    z = CycElem.zeta(6, 1)
    dc = Die((z, 1 - z))
    assert not dc.is_real()


def test_fair_two_dice_total_is_the_craps_distribution():
    total = parts_to_total(fair_sack(6, 6))
    assert total.coeffs == tuple(F(6 - abs(t - 5), 36) for t in range(11))


def test_total_length_is_T_plus_one():
    sack = fair_sack(2, 3, 4)
    total = parts_to_total(sack)
    assert len(total.coeffs) == sack.T + 1 == 7
    assert sum(total.coeffs) == 1


def test_trailing_zero_padding_preserved():
    # a die may have order higher than its polynomial degree
    d = normalize_to_die([F(1), F(1)], order=4)
    assert d.probs == (F(1, 2), F(1, 2), F(0), F(0))
    total = parts_to_total(Sack((d, Die.fair(2))))
    assert len(total.coeffs) == 5


def test_reverse_is_an_involution_and_commutes_with_total():
    sack = Sack((Die((F(1, 6), F(2, 6), F(3, 6))), Die((F(1, 4), F(3, 4)))))
    assert sack.reverse().reverse() == sack
    assert parts_to_total(sack.reverse()).coeffs == \
        parts_to_total(sack).coeffs[::-1]


# The cases named normalize_poly are those of the list normalizer that
# normalize_to_die replaced; they run on normalize_to_die.

def test_normalize_poly():
    assert normalize_to_die([F(2), F(4), F(2)]).probs == \
        (F(1, 4), F(1, 2), F(1, 4))
    with pytest.raises(ZeroSum):
        normalize_to_die([F(1), F(-1)])


@given(st.integers(3, 9), st.data())
@settings(max_examples=25, deadline=None)
def test_root_pair_equals_normalize_to_die(k, data):
    # a pair of totally fair k-dice: roots zeta_k^m with multiplicities r_m
    # and 2 - r_m, so the raw products multiply to psi_k^2
    r = data.draw(st.sampled_from(list(multiplicity_vectors(k))))
    roots = [[m for m, rm in enumerate(v, start=1) for _ in range(rm)]
             for v in (r, [2 - rm for rm in r])]
    p, q = root_products(k, roots)
    assert root_pairs(k, [roots]) == [(normalize_to_die(p),
                                       normalize_to_die(q))]


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(1, 40), st.sampled_from([84, 105])),
       st.lists(st.lists(st.integers(-50, 50), max_size=8),
                min_size=2, max_size=2),
       st.lists(st.integers(0, 3), min_size=2, max_size=2))
def test_ring_pass_stays_within_its_derived_bound(n, exps, x1s):
    # Both passes of a pair, stacked and run on Python ints: every entry is
    # at most 2^L and every reduced entry and column sum at most
    # 2^L max|T|, L counting the linear factors of both dice, as
    # exactnum.ring_dtype derives; the pass in the dtype that ring_dtype
    # chooses gives the same scalars, sum and integer pair.  Each x + 1 is
    # the root zeta^(n/2), so an odd n with one moves to 2n, where the
    # same roots zeta_n^e are zeta_2n^2e
    if n % 2 and any(x1s):
        n, exps = 2 * n, [[2 * e for e in die] for die in exps]
    exps = [die + [n // 2] * x1 for die, x1 in zip(exps, x1s)]
    table = exactnum._power_rows(n)[0]
    big = max(abs(c) for row in table for c in row)
    L = sum(map(len, exps))
    assert ring_dtype(n, L) == (
        "int64" if L + big.bit_length() <= 62 else "object")
    passes = [(exps[die], exps[1 - die], 1) for die in (0, 1)]
    stacks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dicecore, "ring_dtype", lambda n, L: "object")
        patch.setattr(dicecore, "ring_scalars", lambda rows, n, den:
                      stacks.append(rows) or ring_scalars(rows, n, den))
        exacts = dicecore._ring_passes(n, passes)
    # one stack when the two dice have one shape, else one each, in order
    polys = [poly for stack in stacks for poly in stack]
    assert len(polys) == 2
    for poly, exact in zip(polys, exacts):
        assert poly.dtype == object
        assert sum(abs(a) for a in poly.flat) <= 2 ** L
        reduced = [[sum(a * row[c] for a, row in zip(coeff, table))
                    for c in range(phi(n))] for coeff in poly.tolist()]
        assert all(abs(a) <= 2 ** L * big for r in reduced for a in r)
        sums = [sum(col) for col in zip(*reduced)]
        assert all(abs(a) <= 2 ** L * big for a in sums)
        scalars = [as_scalar(CycElem(n, r)) for r in reduced]
        ints = None
        if all(isinstance(c, F) for c in scalars):
            den = math.lcm(*(c.denominator for c in scalars))
            ints = (tuple(c.numerator * (den // c.denominator)
                          for c in scalars), den)
        assert exact == (scalars, as_scalar(CycElem(n, sums)), ints)
    assert dicecore._ring_passes(n, passes) == exacts


def _stored(x):
    # a scalar's stored form, with the type of every integer in it
    if isinstance(x, CycElem):
        parts = (x.n, *x.nums, x.den)
    else:
        parts = (x.numerator, x.denominator)
    return type(x).__name__, parts, tuple(type(a).__name__ for a in parts)


def _same_pass(got, want):
    # ring_scalars' (scalars, total, ints) in the same stored forms
    (scalars, total, ints), (ref_scalars, ref_total, ref_ints) = got, want
    assert list(map(_stored, scalars)) == list(map(_stored, ref_scalars))
    assert _stored(total) == _stored(ref_total)
    assert ints == ref_ints
    if ints is not None:
        assert {type(a) for a in (*ints[0], ints[1])} == {int}


@st.composite
def ring_shapes(draw, n, x1_max):
    # a pass's shape as the reference takes it: its exponent and x + 1
    # counts, its partner's and den
    x1s = st.integers(0, x1_max)
    return (draw(st.integers(0, 6)), draw(x1s), draw(st.integers(0, 6)),
            draw(x1s), draw(st.sampled_from([1, 2, 6, n, 12 * n + 1])))


@st.composite
def ring_passes(draw, n, x1_max=0):
    # passes of a few shapes at conductor n, mixed in one list, so a stack
    # may hold several dice and a call several stacks
    shapes = draw(st.lists(ring_shapes(n, x1_max), min_size=1, max_size=3))
    exponents = lambda count: draw(st.lists(
        st.integers(-3 * n - 5, 3 * n + 5), min_size=count, max_size=count))
    return [(exponents(m), x1, exponents(pm), px1, den)
            for m, x1, pm, px1, den in draw(st.lists(
                st.sampled_from(shapes), min_size=1, max_size=6))]


@st.composite
def psi_pairs(draw, n):
    # a pair whose products multiply to psi_k * psi_k' for k, k' dividing n:
    # their roots zeta_n^e shuffled, k - 1 to the first die, each exponent
    # moved by a multiple of n, and a die's roots -1 written as x + 1 or not
    orders = [k for k in exactnum.divisors(n) if 2 <= k <= 20]
    k, kp = draw(st.sampled_from(orders)), draw(st.sampled_from(orders))
    roots = draw(st.permutations(
        [m * (n // k) for m in range(1, k)]
        + [m * (n // kp) for m in range(1, kp)]))
    pair = []
    for exps in (roots[:k - 1], roots[k - 1:]):
        x1 = exps.count(n // 2) if n % 2 == 0 and draw(st.booleans()) else 0
        pair += [[e + n * draw(st.integers(-2, 2)) for e in exps
                  if not (x1 and e == n // 2)], x1]
    return tuple(pair)


def _folded(n, exps, x1, partner=(), partner_x1=0, den=1):
    # a pass as the reference takes it, as the library takes it: each
    # x + 1 is the root zeta^(n/2) of an even n
    half = [n // 2]
    return [*exps, *half * x1], [*partner, *half * partner_x1], den


def _same_as_the_reference(n, passes, pairs, dtype):
    # every pass, the product from 1 of each pass's own roots and every
    # pair, each kind built in one call, equal the one-die reference die by
    # die in scalars, total and integer pair, in the dtype given
    import reference_ring_pass as ref
    for exps, x1, partner, px1, _ in passes:
        assert ring_dtype(n, len(exps) + x1 + len(partner) + px1) == "int64"
    got = dicecore._ring_passes(n, [_folded(n, *args) for args in passes])
    got_products = root_products(n, [_folded(n, exps, x1)[0]
                                     for exps, x1, *_ in passes])
    got_pairs = root_pairs(n, [_folded(n, *pair)[:2] for pair in pairs])
    for args, triple in zip(passes, got):
        _same_pass(triple, ref.ring_pass(n, *args, dtype=dtype))
    for (exps, x1, *_), scalars in zip(passes, got_products):
        want = ref.ring_pass(n, exps, x1, (), 0, 1, dtype=dtype)[0]
        assert list(map(_stored, scalars)) == list(map(_stored, want))
    for (exps_p, x1_p, exps_q, x1_q), dice in zip(pairs, got_pairs):
        kk = (len(exps_p) + x1_p + 1) * (len(exps_q) + x1_q + 1)
        for die, args in zip(dice, ((exps_p, x1_p, exps_q, x1_q),
                                    (exps_q, x1_q, exps_p, x1_p))):
            want = ref.ring_pass(n, *args, kk, dtype=dtype)
            assert want[1] == 1
            _same_pass((die.probs, want[1], die._ints), want)
    assert (len(got), len(got_products), len(got_pairs)) == (
        len(passes), len(passes), len(pairs))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 40), st.sampled_from([84, 105, 247])),
       st.sampled_from(["int64", "object"]), st.sampled_from([1, 3, None]),
       st.data())
def test_stacked_ring_passes_equal_the_one_die_reference(n, dtype, budget,
                                                         data):
    # every die of one call, mixed shapes and stacks split at an element
    # budget of 1, 3 or the library's, equals the one-die pass with the
    # per-row reduction in scalars, total and integer pair, in the dtype
    # given (int64 is proven exact at these sizes)
    passes = data.draw(ring_passes(n))
    # pairs where some order 2..20 divides n: int64 holds them exactly
    pairs = (data.draw(st.lists(psi_pairs(n), min_size=1, max_size=3))
             if any(2 <= k <= 20 for k in exactnum.divisors(n)) else [])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dicecore, "ring_dtype", lambda n, L: dtype)
        if budget is not None:
            patch.setattr(dicecore, "_RING_ELEMENTS", budget)
        _same_as_the_reference(n, passes, pairs, dtype)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(1, 20).map(lambda h: 2 * h),
                 st.sampled_from([84, 210, 494])),
       st.sampled_from(["int64", "object"]), st.data())
def test_x_plus_1_as_the_root_at_half_a_turn_equals_the_reference(
        n, dtype, data):
    # x + 1 = x - zeta^(n/2) at an even n: passes, products and pairs given
    # each x + 1 as the exponent n/2 equal the reference's own x + 1 path,
    # a shift and an addition, and its partner's 2 per x + 1, die by die.
    # 210 and 494 hold the x + 1 cases of the odd conductors 105 and 247
    passes = data.draw(ring_passes(n, x1_max=3))
    pairs = data.draw(st.lists(psi_pairs(n), min_size=1, max_size=3))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dicecore, "ring_dtype", lambda n, L: dtype)
        _same_as_the_reference(n, passes, pairs, dtype)


def test_root_pair_of_mixed_orders_and_a_false_premise():
    # psi_3 * psi_4 at conductor 12: x^2 + 1 (roots zeta^3, zeta^9) and
    # (x^2 + x + 1)(x + 1) (roots zeta^4, zeta^8 and x + 1 = x - zeta^6)
    p, q = root_products(12, [[3, 9], [4, 8, 6]])
    assert root_pairs(12, [([3, 9], [4, 8, 6])]) == [(
        normalize_to_die(p), normalize_to_die(q))]
    assert (normalize_to_die(p), normalize_to_die(q)) == (
        Die((F(1, 2), F(0), F(1, 2))),
        Die((F(1, 6), F(1, 3), F(1, 3), F(1, 6))))
    # psi_2 * psi_3 at conductor 6: x + 1 = x - zeta^3 and the roots
    # zeta^2, zeta^4
    assert root_pairs(6, [([3], [2, 4])]) == [(Die.fair(2), Die.fair(3))]
    # (x + 1)(x - zeta_6)(x - zeta_6^5) is not psi_2 * psi_3: no die sums
    # to 1
    with pytest.raises(ValueError, match="must sum to 1 exactly"):
        root_pairs(6, [([3], [1, 5])])


@pytest.mark.parametrize("dtype", ["int64", "object"])
@pytest.mark.parametrize("args, message", [
    # (x + 1)(x - zeta_6)(x - zeta_6^5): rational dice that do not sum to 1
    ((6, [3], [1, 5]), "must sum to 1 exactly"),
    # (x - zeta_7)(x - zeta_7^2) is not psi_k * psi_k' for any k, k': the
    # dice are irrational and sum to (1 - zeta)(1 - zeta^2)/4
    ((7, [1], [2]), "must sum to 1 exactly"),
    ((7, [], [1, 2]), "order at least 2"),
], ids=["rational", "irrational", "order_1"])
def test_root_pair_refuses_a_false_premise_on_every_branch(
        args, message, dtype, monkeypatch):
    # the sum read off the reduced rows refuses what Die(...) refuses, in
    # int64 and on Python ints, alone and second among valid pairs: the
    # fair pair of order n, whose products multiply to psi_n^2
    monkeypatch.setattr(dicecore, "ring_dtype", lambda n, L: dtype)
    n, pair = args[0], args[1:]
    with pytest.raises(ValueError, match=message):
        root_pairs(n, [pair])
    fair = (list(range(1, n)), list(range(1, n)))
    assert root_pairs(n, [fair]) == [(Die.fair(n), Die.fair(n))]
    with pytest.raises(ValueError, match=message):
        root_pairs(n, [fair, pair, fair])


def test_no_pairs_and_no_products_build_nothing():
    assert root_pairs(12, []) == [] and root_products(12, []) == []


def test_root_pair_adds_no_scalars(monkeypatch):
    # each die's sum is read off its reduced integer rows, so the (7, 12)
    # census and the fair pairs of order 6 make no CycElem addition, where
    # a Die(...) of the same scalars makes one per entry.  The first search
    # fills the filter's cached factors (exotica._chi_factor adds two
    # powers of zeta once per factor); the second is counted.
    exotic_search(7, 12)
    calls = []
    plus = CycElem._plus
    monkeypatch.setattr(CycElem, "_plus", lambda self, other, sign:
                        calls.append(sign) or plus(self, other, sign))
    census = exotic_search(7, 12)
    assert census.count == 14 and len(enumerate_fair_pairs(6)) == 51
    assert calls == []
    die = census.sacks[0][0].dice[0]
    assert Die(die.probs) == die and len(calls) == die.order


def test_poly_divide_exact():
    prod = poly_mul([F(1), F(2)], [F(3), F(4), F(5)])
    assert poly_divide_exact(prod, [F(1), F(2)]) == [F(3), F(4), F(5)]
    with pytest.raises(InexactDivision):
        poly_divide_exact([F(1), F(1), F(1)], [F(1), F(1)])


def test_psi_identity():
    # psi_a(x) * psi_b(x^a) = psi_{ab}
    lhs = poly_mul(psi(3), [F(1), F(0), F(0), F(1)])
    assert lhs == psi(6)


probs = st.integers(min_value=0, max_value=6)


@st.composite
def strict_dice(draw, max_order=5):
    k = draw(st.integers(min_value=2, max_value=max_order))
    weights = draw(st.lists(probs, min_size=k, max_size=k).filter(
        lambda w: sum(w) > 0))
    total = sum(weights)
    return Die(tuple(F(w, total) for w in weights))


@settings(max_examples=80, deadline=None)
@given(d1=strict_dice(), d2=strict_dice())
def test_total_is_a_distribution_and_json_round_trips(d1, d2):
    sack = Sack((d1, d2))
    total = parts_to_total(sack)
    assert sum(total.coeffs) == 1
    assert all(c >= 0 for c in total.coeffs)
    assert Sack.from_json(sack.to_json()) == sack
    assert DistPoly.from_json(total.to_json()) == total


@settings(max_examples=50, deadline=None)
@given(d1=strict_dice(), d2=strict_dice(), d3=strict_dice())
def test_total_is_order_independent(d1, d2, d3):
    a = parts_to_total(Sack((d1, d2, d3)))
    b = parts_to_total(Sack((d3, d1, d2)))
    assert a.coeffs == b.coeffs


def test_die_json_rejects_mismatched_order():
    with pytest.raises(ValueError):
        Die.from_json({"order": 3, "probs": ["1/2", "1/2"]})


def test_sack_json_names_a_missing_field():
    with pytest.raises(ValueError, match="^a sack needs a 'dice' field$"):
        Sack.from_json({})


@pytest.mark.parametrize("order", [2.0, "2", True, None])
def test_die_json_names_a_missing_field_and_a_non_integer_order(order):
    with pytest.raises(ValueError, match="^a die needs a 'probs' field$"):
        Die.from_json({"order": 2})
    with pytest.raises(ValueError, match="^order must be an integer, not "):
        Die.from_json({"order": order, "probs": ["1/2", "1/2"]})


@pytest.mark.parametrize("obj, field", [
    ({"coords": ["1"]}, "conductor"),
    ({"conductor": 3}, "coords"),
    ({}, "coords"),
])
def test_scalar_json_names_a_missing_field(obj, field):
    with pytest.raises(ValueError, match=f"^a cyclotomic scalar needs a "
                                         f"'{field}' field$"):
        scalar_from_json(obj)


# Rational values that arrive as CycElems: 0 at conductor 5,
# 2cos(2 pi/6) = 1, zeta_4^2 = -1 and 1/2 at conductor 84.
RATIONAL_ELEMS = {
    "zero_5": CycElem(5, [0]),
    "two_cos_1_6": two_cos(1, 6),
    "zeta_4_2": CycElem.zeta(4, 2),
    "half_84": CycElem(84, [F(1, 2)]),
}

# Every boundary that stores a scalar, as the scalars it stores for x.
STORING = {
    "as_scalar": lambda x: [as_scalar(x)],
    "die": lambda x: Die((x, 1 - x)).probs,
    "dist_poly": lambda x: DistPoly((x, 1 - x)).coeffs,
    "linear_factor": lambda x: [LinearFactor(x).root],
    "chi_factor": lambda x: ChiFactor(1, 6).coeffs(),
    "scalar_from_json": lambda x: [scalar_from_json(
        {"conductor": x.n, "coords": [str(c) for c in x.coords]})],
    # t^n - 1, the product over every n-th root of unity
    "root_product": lambda x: root_products(x.n, [range(x.n)])[0],
    "normalize_poly": lambda x: normalize_to_die([x, 2]).probs,
    "cyc_sign": lambda x: [cyc_sign(x).value],
    "cyc_embed": lambda x: cyc_embed(x, 8),
}


@pytest.mark.parametrize("store", STORING.values(), ids=STORING.keys())
@pytest.mark.parametrize("x", RATIONAL_ELEMS.values(),
                         ids=RATIONAL_ELEMS.keys())
def test_every_rational_value_is_stored_as_a_fraction(x, store):
    assert all(type(c) is Fraction for c in store(x))
    q = as_scalar(x)
    assert q == x and cyc_embed(x, 8) == (q, q)


@pytest.mark.parametrize("x", [CycElem.zeta(4), two_cos(1, 7),
                               CycElem(84, [F(1, 2), 3])],
                         ids=["zeta_4", "two_cos_1_7", "mixed_84"])
def test_an_irrational_element_is_stored_as_itself(x):
    assert as_scalar(x) is x


def test_float_coefficients_rejected():
    with pytest.raises(TypeError, match="not an exact scalar: 0.5"):
        poly_mul([0.5], [F(1, 3)])
    with pytest.raises(TypeError, match="not an exact scalar: 0.25"):
        poly_mul([CycElem.zeta(3)], [1, 0.25])


@pytest.mark.parametrize("build", [
    lambda: Die((True, False)),
    lambda: Die((F(1, 2), F(1, 2), False)),
    lambda: DistPoly((False, True)),
    lambda: CrapsTotals((True,) + (F(0),) * 10),
    lambda: as_scalar(True),
], ids=["die", "die_with_a_zero", "dist_poly", "craps_totals", "as_scalar"])
def test_booleans_are_not_scalars(build):
    with pytest.raises(TypeError, match="not an exact scalar: (True|False)"):
        build()


Z3 = CycElem.zeta(3)

# A bool and a float for each list helper and each sign routine: a float
# after a CycElem and a bool among ints are checked like any other entry.
REFUSALS = {
    "poly_mul_bool": lambda: poly_mul([1, 2], [3, True, 4]),
    "poly_mul_float": lambda: poly_mul([1], [Z3, 0.5]),
    "normalize_poly_bool": lambda: normalize_to_die([1, False, 2]),
    "normalize_poly_float": lambda: normalize_to_die([Z3, 1, 1.5]),
    "normalize_to_die_bool": lambda: normalize_to_die([True, 1]),
    "normalize_to_die_float": lambda: normalize_to_die([F(1, 3), 0.5]),
    "cyc_sign_bool": lambda: cyc_sign(True),
    "cyc_sign_float": lambda: cyc_sign(0.5),
    "cyc_embed_bool": lambda: cyc_embed(False, 8),
    "cyc_embed_float": lambda: cyc_embed(0.25, 8),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_bools_and_floats_are_refused_wherever_they_stand(call):
    with pytest.raises(TypeError, match="^not an exact scalar: "):
        call()


# The root products' gate: an exponent that is not an int, a bool
# included, for both dice of a pair.
RING_REFUSALS = {
    "product_bool_exponent": (lambda: root_products(5, [[True]]),
                              "exponent"),
    "product_float_exponent": (lambda: root_products(5, [[0.5]]),
                               "exponent"),
    "pair_bool_exponent": (lambda: root_pairs(5, [([False], [2])]),
                           "exponent"),
    "pair_float_exponent": (lambda: root_pairs(5, [([1], [2.0])]),
                            "exponent"),
}


@pytest.mark.parametrize("call, what", RING_REFUSALS.values(),
                         ids=RING_REFUSALS.keys())
def test_root_products_refuse_bad_inputs_before_any_work(call, what,
                                                         monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the gate")
    monkeypatch.setattr(dicecore, "ring_dtype", no_work)
    with pytest.raises(ValueError, match=f"^{what} must be an integer"):
        call()


# -- the integer kernel against the Fraction schoolbook ----------------------
#
# The references below are the Fraction-by-Fraction code that the integer
# kernel replaced.  Results are compared as exact keys, so a wrong type, a
# wrong conductor or a Fraction left out of lowest terms fails as surely as
# a wrong value.

def ref_poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def ref_poly_sum(p):
    total = F(0)
    for c in p:
        total = total + c
    return total


def ref_normalize_poly(p):
    # a CycElem entry keeps its conductor, as in the library's sum
    p = [c if isinstance(c, CycElem) else as_scalar(c) for c in p]
    total = ref_poly_sum(p)
    if not total:
        raise ZeroSum("coefficient sum is exactly zero")
    inv = total.inverse() if isinstance(total, CycElem) else 1 / total
    return [as_scalar(c * inv) for c in p]


def ref_parts_to_total(sack):
    prod = [F(1)]
    for die in sack.dice:
        prod = ref_poly_mul(prod, die.probs)
    prod += [F(0)] * (sack.T + 1 - len(prod))
    return DistPoly(tuple(as_scalar(c) for c in prod))


def exact(x):
    if isinstance(x, CycElem):
        return ("CycElem", x.n,
                tuple((c.numerator, c.denominator) for c in x.coords))
    return (type(x).__name__, x.numerator, x.denominator)


def exacts(p):
    return [exact(c) for c in p]


rationals = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
    st.sampled_from([0, F(0)]),
)


@st.composite
def cyc_scalars(draw):
    n = draw(st.sampled_from([3, 4, 5, 8, 12]))
    coords = draw(st.lists(st.fractions(min_value=-3, max_value=3,
                                        max_denominator=5),
                           min_size=phi(n), max_size=phi(n)))
    return CycElem(n, coords)


@st.composite
def polys(draw, scalars=rationals, zero_sum=True):
    p = draw(st.lists(scalars, min_size=1, max_size=6))
    p += draw(st.lists(st.sampled_from([0, F(0)]), max_size=2))
    if zero_sum and draw(st.booleans()):
        p[-1] = p[-1] - ref_poly_sum(p)
    return p


@st.composite
def cyc_polys(draw):
    p = draw(polys(st.one_of(rationals, cyc_scalars())))
    p.insert(draw(st.integers(min_value=0, max_value=len(p))),
             draw(cyc_scalars()))
    return p


def check_against_reference(a, b):
    want = ref_poly_mul(a, b)
    if all(type(c) is int for c in a + b):
        want = [int(c) for c in want]  # Z[x] is closed: ints stay ints
    assert exacts(poly_mul(a, b)) == exacts(want)
    for p in (a, b):
        try:
            want = ref_normalize_to_die(p)
        except ZeroSum:
            with pytest.raises(ZeroSum):
                normalize_to_die(p)
        else:
            check_as_rebuilt(normalize_to_die(p), want)


@settings(max_examples=300, deadline=None)
@given(a=polys(), b=polys())
def test_rational_kernel_matches_the_fraction_schoolbook(a, b):
    check_against_reference(a, b)


@settings(max_examples=60, deadline=None)
@given(a=cyc_polys(), b=st.one_of(polys(), cyc_polys()))
def test_cyclotomic_kernel_matches_the_field_schoolbook(a, b):
    check_against_reference(a, b)


ZERO5 = CycElem(5, [0])


@pytest.mark.parametrize("a, b", [
    ([Z3, 0], [1]),                    # position 1 is reached by no term
    ([Z3, 0, 0, 2], [1, 0, F(1, 2)]),  # positions 1 and 4 neither
    ([0, Z3], [F(0), 2]),
    ([ZERO5, Z3], [1, ZERO5]),         # zero CycElem entries are skipped
    ([Z3, -Z3], [1, 1]),               # a reached position cancels to 0
    ([ZERO5, 1, 0], [1]),
], ids=str)
def test_poly_mul_keeps_the_schoolbook_scalars_at_zeros(a, b):
    check_against_reference(a, b)
    assert exacts(poly_mul(a)) == exacts(ref_poly_mul([F(1)], a))
    assert exacts(poly_mul(a, b, a)) == \
        exacts(ref_poly_mul(ref_poly_mul(a, b), a))


int_polys = st.lists(st.integers(min_value=-30, max_value=30),
                     min_size=1, max_size=6)
fraction_polys = st.lists(st.fractions(min_value=-4, max_value=4,
                                       max_denominator=9),
                          min_size=1, max_size=6)
POLY_KINDS = {
    "int": int_polys,
    "fraction": fraction_polys,
    "mixed": polys(),
    "cyclotomic": cyc_polys(),
}


@pytest.mark.parametrize("count", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", sorted(POLY_KINDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_mul_of_many_lists_is_the_pairwise_chain(kind, count, data):
    ps = data.draw(st.lists(POLY_KINDS[kind], min_size=count,
                            max_size=count))
    got = poly_mul(*ps)
    chain = [1]
    for p in ps:
        chain = poly_mul(chain, p)
    assert exacts(got) == exacts(chain)
    want = [F(1)]
    for p in ps:
        want = ref_poly_mul(want, p)
    if all(type(c) is int for p in ps for c in p):
        assert all(type(c) is int for c in got)  # Z[x] is closed
        want = [int(c) for c in want]
    assert exacts(got) == exacts(want)


def test_two_int_lists_cost_one_convolution(monkeypatch):
    calls, conv_ints = [], dicecore._conv_ints

    def counted(xs, ys):
        calls.append((xs, ys))
        return conv_ints(xs, ys)

    monkeypatch.setattr(dicecore, "_conv_ints", counted)
    assert poly_mul([1, 2], [3, 4, 5]) == [3, 10, 13, 10]
    assert calls == [([1, 2], [3, 4, 5])]


@settings(max_examples=100, deadline=None)
@given(ps=st.lists(st.one_of(polys(zero_sum=False), cyc_polys()),
                   min_size=1, max_size=3))
def test_parts_to_total_matches_the_schoolbook(ps):
    dice = []
    for p in ps:
        try:
            dice.append(normalize_to_die(p, order=len(p) + 1))
        except ZeroSum:
            pass
    assume(dice)
    sack = Sack(tuple(dice))
    assert exacts(parts_to_total(sack).coeffs) == \
        exacts(ref_parts_to_total(sack).coeffs)
    for die in dice:
        check_as_rebuilt(die, Die(die.probs))
    check_as_rebuilt(parts_to_total(sack), ref_parts_to_total(sack))


# -- the stored numerators ----------------------------------------------------
#
# A rational Die or DistPoly keeps its scalars' integer numerators over
# their least common denominator.  One made from numerators, by
# normalize_to_die or parts_to_total, must be the object that the public
# constructor makes from its scalars, the stored pair included.

def scalars_of(x):
    return x.probs if isinstance(x, Die) else x.coeffs


def check_as_rebuilt(made, rebuilt):
    assert made == rebuilt and hash(made) == hash(rebuilt)
    assert repr(made) == repr(rebuilt)
    assert made.to_json() == rebuilt.to_json()
    assert exacts(scalars_of(made)) == exacts(scalars_of(rebuilt))
    assert made._ints == rebuilt._ints
    if made._ints is not None:
        nums, den = made._ints
        assert type(nums) is tuple and all(type(a) is int for a in nums)
        assert den > 0 and sum(nums) == den
    copy = pickle.loads(pickle.dumps(made))
    assert copy == made and repr(copy) == repr(made)
    assert copy._ints == made._ints


def ref_normalize_to_die(p, order=None):
    q = ref_normalize_poly(p)
    k = order if order is not None else max(len(q), 2)
    while len(q) > k and not q[-1]:
        q.pop()
    if len(q) > k:
        raise ValueError(f"polynomial degree too high for order {k}")
    return Die(tuple(q) + (F(0),) * (k - len(q)))


NORMALIZED = {
    "fractions": ([F(1, 2), F(1, 3), F(1, 6)], None),
    "ints_with_a_common_factor": ([2, 4, 6], None),
    "negative_sum": ([F(-1, 2), 1, F(-3, 2), -2], None),
    "mixed_signs_negative_sum": ([3, -5, 1], 4),
    "trailing_zeros_beyond_order": ([1, 2, 0, 0, F(0)], 2),
    "padded_to_order": ([F(1, 3), F(2, 3)], 5),
}


@pytest.mark.parametrize("p, order", NORMALIZED.values(),
                         ids=NORMALIZED.keys())
def test_a_normalized_die_is_the_die_of_its_probabilities(p, order):
    die = normalize_to_die(p, order)
    check_as_rebuilt(die, ref_normalize_to_die(p, order))
    assert die._ints[1] > 0


def test_normalized_numerators_are_in_lowest_terms_over_a_positive_sum():
    assert normalize_to_die([2, 4, 6])._ints == ((1, 2, 3), 6)
    assert normalize_to_die([-2, -4, 0, 0], order=3)._ints == ((1, 2, 0), 3)
    assert normalize_to_die([3, -5, 1])._ints == ((-3, 5, -1), 1)


@pytest.mark.parametrize("p, order", [
    ([1, -1], None),
    ([F(1, 2), 0, F(-1, 2)], None),
    ([1, 0, -1, 0], 1),  # the zero sum is found before the degree
], ids=["ints", "fractions", "order_too_low"])
def test_a_zero_sum_does_not_normalize(p, order):
    with pytest.raises(ZeroSum):
        normalize_to_die(p, order)


def test_replace_recomputes_the_stored_numerators():
    die = normalize_to_die([1, 2, 3])
    other = dataclasses.replace(die, probs=(F(1, 4), 0, F(3, 4)))
    check_as_rebuilt(other, Die((F(1, 4), F(0), F(3, 4))))
    assert other._ints == ((1, 0, 3), 4)
    assert dataclasses.replace(die, probs=(Z3, -Z3, 1))._ints is None
    total = parts_to_total(Sack((die, die)))
    swapped = dataclasses.replace(total, coeffs=total.coeffs[::-1])
    check_as_rebuilt(swapped, DistPoly(total.coeffs[::-1]))
    assert swapped._ints == (total._ints[0][::-1], total._ints[1])
    with pytest.raises(ValueError, match="must sum to 1 exactly"):
        dataclasses.replace(die, probs=(F(1, 2), F(1, 3)))
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(die, _ints=((1, 1), 2))


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(int_polys, fraction_polys, polys()),
       order=st.one_of(st.none(), st.integers(min_value=0, max_value=8)))
def test_normalize_to_die_matches_the_fraction_reference(p, order):
    try:
        want = ref_normalize_to_die(p, order)
    except (ZeroSum, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            normalize_to_die(p, order)
        return
    check_as_rebuilt(normalize_to_die(p, order), want)


# -- poly_gcd over Z against the Fraction Euclid ------------------------------

@settings(max_examples=200, deadline=None)
@given(common=polys(), a=polys(), b=polys())
def test_poly_gcd_matches_the_fraction_euclid(common, a, b):
    # the planted common factor makes most gcds nontrivial
    a, b = poly_mul(common, a), poly_mul(common, b)
    assert exacts(poly_gcd(a, b)) == exacts(ref_poly_gcd(a, b))


# (x - 1/2)^2 (x + 3) and its derivative, from the squarefree test
REPEATED = (F(3, 4), F(-11, 4), F(2), F(1))


@pytest.mark.parametrize("a, b, want", [
    ([0], [0], [0]),
    ([0, 0], [F(0)], [0]),
    ([1, 2, 1], [0], [1, 2, 1]),
    ([0], [2, 4], [F(1, 2), 1]),
    ([3], [1, 2, 1], [1]),
    ([1, 2, 1], [F(-5, 3)], [1]),
    ([-1, 0, 1], [2, 2], [1, 1]),
    ([6, -5, 1], [-4, 2, -2, 1, 0], [-2, 1]),
    (REPEATED, [F(-11, 4), F(4), F(3)], [F(-1, 2), 1]),
])
def test_poly_gcd_edge_cases(a, b, want):
    got = poly_gcd(a, b)
    assert got == want == ref_poly_gcd(a, b)
    assert all(type(c) is Fraction for c in got)
