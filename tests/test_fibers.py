"""Inverse problem: fiber enumeration, coin solutions, elimination."""

import dataclasses
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totalparts import fibers
from totalparts.crapseval import craps_from_sack
from totalparts.dicecore import (Die, DistPoly, Sack, ZeroSum, fair_total,
                                 normalize_to_die,
                                 parts_to_total, poly_gcd, poly_mul,
                                 poly_trim, render_scalar)
from totalparts.exactnum import CycElem, two_cos
from totalparts.fibers import (
    ChiFactor,
    DegenerateTotal,
    FactorMultiset,
    IrrationalDiscriminant,
    LinearFactor,
    coin_die_elimination,
    coin_pair_solve,
    coins_parts_from_total,
    enumerate_fiber,
    fiber_degree,
    total_is_squarefree,
)

from reference_division import ref_poly_gcd

F = Fraction


def test_fiber_degree_values():
    assert fiber_degree((2, 2)) == 2
    assert fiber_degree((2, 3)) == 3
    assert fiber_degree((3, 3)) == 6
    assert fiber_degree((6, 6)) == math.comb(10, 5)  # 252
    assert fiber_degree((2, 2, 2)) == 6
    with pytest.raises(ValueError):
        fiber_degree((1, 6))


# the total (1/9, 7/18, 7/18, 1/9), with roots -1, -2 and -1/2
WORKED = FactorMultiset((
    (LinearFactor(F(-1)), 1),
    (LinearFactor(F(-2)), 1),
    (LinearFactor(F(-1, 2)), 1),
))


def test_worked_fiber_of_type_2_3():
    # three sacks over the worked total
    sacks = enumerate_fiber(WORKED, (2, 3))
    assert len(sacks) == 3
    got = {tuple(tuple(d.probs) for d in s.dice) for s in sacks}
    assert got == {
        ((F(1, 2), F(1, 2)), (F(2, 9), F(5, 9), F(2, 9))),
        ((F(1, 3), F(2, 3)), (F(1, 3), F(1, 2), F(1, 6))),
        ((F(2, 3), F(1, 3)), (F(1, 6), F(1, 2), F(1, 3))),
    }
    expected_total = (F(1, 9), F(7, 18), F(7, 18), F(1, 9))
    for s in sacks:
        assert parts_to_total(s).coeffs == expected_total


@pytest.mark.parametrize("sack_type", [(0, 5), (-1, 6), (1, 4), (2, 1), ()])
def test_orders_below_2_are_refused_before_enumerating(sack_type,
                                                      monkeypatch):
    def no_work(*args):
        raise AssertionError("the fiber was enumerated")

    monkeypatch.setattr(fibers, "_slot_powers", no_work)
    for refused in (lambda: enumerate_fiber(WORKED, sack_type),
                    lambda: fiber_degree(sack_type),
                    lambda: fair_total(sack_type)):
        with pytest.raises(ValueError,
                           match="^sack type entries must be >= 2$"):
            refused()


@pytest.mark.parametrize("sack_type", [(6.0, 6), (3.0, 3), (6, "6"),
                                       (True, 3), (3, False), (6, True)],
                         ids=["float", "float-3", "str", "true", "false",
                              "true-6"])
def test_entries_that_are_not_ints_are_refused_before_enumerating(
        sack_type, monkeypatch):
    def no_work(*args):
        raise AssertionError("the fiber was enumerated")

    monkeypatch.setattr(fibers, "_slot_powers", no_work)
    for refused in (lambda: enumerate_fiber(WORKED, sack_type),
                    lambda: fiber_degree(sack_type),
                    lambda: fair_total(sack_type)):
        with pytest.raises(ValueError,
                           match="^sack type entries must be integers, not "):
            refused()


def test_fiber_skips_zero_sum_slots():
    # (x+1)(x-1) over type (2,2): the assignment giving a slot sum 0 is
    # dropped, leaving no valid sacks at all
    factors = FactorMultiset((
        (LinearFactor(F(-1)), 1),
        (LinearFactor(F(1)), 1),
    ))
    assert enumerate_fiber(factors, (2, 2)) == []


# -- enumerate_fiber against a leaf-rebuild reference -------------------------
#
# The reference is the enumeration that rebuilt every slot's product from
# scratch at each leaf, multiplying with the Fraction schoolbook.

def ref_poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def _compositions(total, caps):
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


def ref_enumerate_fiber(factors, sack_type, dedupe=True):
    ks = tuple(sack_type)
    caps = [k - 1 for k in ks]
    entries = factors.entries
    results = []
    seen = set()

    def assign(idx, remaining, slot_factors):
        if idx == len(entries):
            dice = []
            try:
                for j, k in enumerate(ks):
                    poly = [F(1)]
                    for factor, count in slot_factors[j]:
                        for _ in range(count):
                            poly = ref_poly_mul(poly, factor.coeffs())
                    dice.append(normalize_to_die(poly, order=k))
            except ZeroSum:
                return
            sack = Sack(tuple(dice))
            if dedupe:
                key = sack.canonical_key()
                if key in seen:
                    return
                seen.add(key)
            results.append(sack)
            return
        factor, mult = entries[idx]
        slot_caps = [r // factor.degree for r in remaining]
        for comp in _compositions(mult, slot_caps):
            new_remaining = [r - c * factor.degree
                             for r, c in zip(remaining, comp)]
            new_slots = [sf + ([(factor, c)] if c else [])
                         for sf, c in zip(slot_factors, comp)]
            assign(idx + 1, new_remaining, new_slots)

    assign(0, caps, [[] for _ in ks])
    results.sort(key=_render_key)
    return results


def _render_key(sack):
    return tuple(tuple(render_scalar(p) for p in d.probs) for d in sack.dice)


# ten distinct rational roots, as in the benchmark's fiber workload
TEN_ROOTS = tuple((LinearFactor(-a), 1)
                  for a in (F(1, 2), F(1, 3), F(2, 3), F(1), F(3, 2), F(2),
                            F(5, 7), F(4, 5), F(6), F(7, 3)))

FIBER_FACTORS = {
    "repeated_root_and_zero_sum_slot": ((LinearFactor(F(-1, 2)), 2),
                                        (LinearFactor(F(1)), 1)),
    "rational_chi": ((ChiFactor(1, 6), 1), (LinearFactor(F(-2)), 1)),
    "irrational_chi_pair": ((ChiFactor(1, 5), 1), (ChiFactor(2, 5), 1)),
    "repeated_root_and_chi": ((LinearFactor(F(-1, 2)), 2),
                              (ChiFactor(1, 6), 1)),
    "everything": ((LinearFactor(F(-1, 2)), 2), (LinearFactor(F(-2)), 2),
                   (ChiFactor(1, 6), 1), (ChiFactor(1, 5), 1),
                   (ChiFactor(2, 5), 1)),
    "everything_and_zero_sum_slot": ((LinearFactor(F(-1, 2)), 2),
                                     (LinearFactor(F(1)), 1),
                                     (ChiFactor(1, 6), 1),
                                     (ChiFactor(1, 5), 1),
                                     (ChiFactor(2, 5), 1)),
    # (x - zeta_6)(x - zeta_6^5) is chi_{1,6}: the two can trade slots, so
    # distinct leaves give the same dice; type (3, 3) has two leaves and
    # one member
    "conjugate_roots_and_their_chi": ((LinearFactor(CycElem.zeta(6)), 1),
                                      (LinearFactor(CycElem.zeta(6, 5)), 1),
                                      (ChiFactor(1, 6), 1)),
    "ten_distinct_roots": TEN_ROOTS,
}


# each id is the case's name and type, e.g. rational_chi-3-3, so adding a
# case renames no other
FIBER_CASES = [
    pytest.param(name, sack_type,
                 id="-".join([name, *map(str, sack_type)]))
    for sack_type in [(2, 3), (3, 3), (2, 2, 3), (6, 6)]
    for name, entries in sorted(FIBER_FACTORS.items())
    if FactorMultiset(entries).total_degree <= sum(k - 1 for k in sack_type)
]


@pytest.mark.parametrize("dedupe", [True, False])
@pytest.mark.parametrize("name, sack_type", FIBER_CASES)
def test_fiber_matches_the_leaf_rebuild_reference(name, sack_type, dedupe,
                                                 monkeypatch):
    # dedupe=False compares the tree's leaves, duplicates included, as
    # recorded where enumerate_fiber builds each leaf's sack
    leaves = []

    def record(dice):
        leaves.append(Sack(dice))
        return leaves[-1]

    monkeypatch.setattr(fibers, "Sack", record)
    factors = FactorMultiset(FIBER_FACTORS[name])
    got = enumerate_fiber(factors, sack_type)
    if not dedupe:
        got = sorted(leaves, key=_render_key)
    want = ref_enumerate_fiber(factors, sack_type, dedupe=dedupe)
    assert [s.to_json() for s in got] == [s.to_json() for s in want]
    assert got == want


def test_each_distinct_die_is_built_and_rendered_once(monkeypatch):
    # over type (6, 6) the die of a 5-subset of the roots is in two members,
    # in the first slot and in the second: 252 members share 252 dice
    built, rendered = [], []

    def build(p, order=None):
        built.append(order)
        return normalize_to_die(p, order=order)

    def render(x):
        rendered.append(x)
        return render_scalar(x)

    monkeypatch.setattr(fibers, "normalize_to_die", build)
    monkeypatch.setattr(fibers, "render_scalar", render)
    sacks = enumerate_fiber(FactorMultiset(TEN_ROOTS), (6, 6))
    assert len(sacks) == fiber_degree((6, 6)) == 252
    assert len(built) == 252 and len(rendered) == 6 * 252
    assert len({id(d) for s in sacks for d in s.dice}) == 252


@pytest.mark.parametrize("name, sack_type", FIBER_CASES)
def test_each_member_carries_its_own_total(name, sack_type):
    # the one stored total equals each member's total recomputed from its
    # dice, scalar types and integer pair included, on the rational, the
    # cyclotomic and the dedupe paths
    members = enumerate_fiber(FactorMultiset(FIBER_FACTORS[name]), sack_type)
    for member in members:
        stored = parts_to_total(member)
        fresh = parts_to_total(Sack(member.dice))
        assert stored is parts_to_total(members[0]) and stored is not fresh
        assert stored.coeffs == fresh.coeffs and stored._ints == fresh._ints
        assert list(map(type, stored.coeffs)) == list(map(type, fresh.coeffs))


def test_a_stored_total_stays_with_its_member():
    member = enumerate_fiber(FactorMultiset(TEN_ROOTS), (6, 6))[7]
    plain = Sack(member.dice)
    fresh = parts_to_total(plain)
    assert plain._total is None  # nothing is written back
    assert [f.name for f in dataclasses.fields(Sack)] == ["dice"]
    assert member == plain and hash(member) == hash(plain)
    assert repr(member) == repr(plain)
    assert member.to_json() == plain.to_json()
    assert member.canonical_key() == plain.canonical_key()
    assert member._total is not None
    for other in (member.reverse(),
                  dataclasses.replace(member, dice=member.dice),
                  dataclasses.replace(member, dice=member.dice[::-1]),
                  Sack.from_json(member.to_json())):
        assert other._total is None
    kept = pickle.loads(pickle.dumps(member))
    assert kept == member and kept._total is not None
    assert kept._total.coeffs == fresh.coeffs
    assert kept._total._ints == fresh._ints


def test_a_fiber_and_craps_on_all_its_members_build_one_total(monkeypatch):
    # the fiber's total is built once, for its first member; craps on each
    # of the 252 members reads it
    built = []
    build = DistPoly._from_ints

    def count(cls, nums, den):
        built.append(den)
        return build(nums, den)

    monkeypatch.setattr(DistPoly, "_from_ints", classmethod(count))
    members = enumerate_fiber(FactorMultiset(TEN_ROOTS), (6, 6))
    reports = [craps_from_sack(member) for member in members]
    assert len(members) == 252 and len(built) == 1
    assert len({report.p_win for report in reports}) == 1


def test_chi_factor_canonicalization():
    assert ChiFactor(2, 12) == ChiFactor(1, 6)
    assert ChiFactor(1, 6).coeffs() == [F(1), F(-1), F(1)]
    with pytest.raises(ValueError):
        ChiFactor(3, 6)  # m/k = 1/2 is not allowed
    for m, k in ((True, 3), (1.0, 3), (1, 3.0)):
        with pytest.raises(ValueError, match="^chi factor needs integers, "):
            ChiFactor(m, k)
    for m, k in ((1, 0), (1, -3), (-1, -3)):
        with pytest.raises(ValueError, match=r"^chi factor needs 0 < m/k < "):
            ChiFactor(m, k)


def test_squarefree_detection():
    assert total_is_squarefree(parts_to_total(
        Sack((Die((F(1, 3), F(2, 3))), Die((F(1, 4), F(3, 4)))))))
    assert not total_is_squarefree(parts_to_total(
        Sack((Die((F(1, 3), F(2, 3))), Die((F(1, 3), F(2, 3)))))))
    # (x - 1/2)^2 (x + 3), whose coefficients sum to 1
    repeated = (F(3, 4), F(-11, 4), F(2), F(1))
    assert not total_is_squarefree(DistPoly(repeated))
    assert poly_gcd(repeated, [F(-11, 4), F(4), F(3)]) == [F(-1, 2), F(1)]


def test_squarefree_test_refuses_a_cyclotomic_total(monkeypatch):
    c = two_cos(1, 5)
    total = DistPoly((F(1, 2) - c / 4, F(1, 2) + c / 4))

    def refused(*args):
        raise AssertionError("the gcd was started")

    monkeypatch.setattr(fibers, "poly_gcd", refused)
    with pytest.raises(ValueError,
                       match="^the squarefree test needs a rational total$"):
        total_is_squarefree(total)


def ref_total_is_squarefree(total):
    # the Fraction Euclid on the total's Fractions
    f = [F(c) for c in poly_trim(total.coeffs)]
    fp = [i * c for i, c in enumerate(f)][1:] or [F(0)]
    return len(ref_poly_gcd(f, fp)) == 1


@settings(max_examples=150, deadline=None)
@given(roots=st.lists(st.sampled_from([F(0), F(-1, 2), F(1, 3), F(2),
                                       F(-3), F(5, 7)]), max_size=5),
       pad=st.integers(min_value=0, max_value=2))
def test_squarefree_test_on_numerators_matches_the_fraction_gcd(roots, pad):
    # a total with the given roots, padded with zeros past its degree: it is
    # squarefree exactly when the roots are distinct
    prod = poly_mul(*([-r, 1] for r in roots))
    # the die of a constant is padded to order 2; the total keeps its length
    coeffs = normalize_to_die(prod).probs[:len(prod)]
    total = DistPoly((*coeffs, *[F(0)] * pad))
    assert total_is_squarefree(total) == ref_total_is_squarefree(total) \
        == (len(set(roots)) == len(roots))


def test_coin_pair_solve():
    total = DistPoly((F(1, 6), F(1, 2), F(1, 3)))
    sol = coin_pair_solve(total)
    assert set(sol.pairs) == {(F(1, 2), F(2, 3)), (F(2, 3), F(1, 2))}
    assert sol.discriminant == F(1, 36)


def test_coin_pair_irrational():
    # r = t = 1/4, s = 1/2 gives D = 0; r = 1/3, s = 1/3, t = 1/3 gives
    # D = 1/9 - 4/9 < 0: not solvable by real coins
    with pytest.raises(IrrationalDiscriminant):
        coin_pair_solve(DistPoly((F(1, 3), F(1, 3), F(1, 3))))
    sol = coin_pair_solve(DistPoly((F(1, 4), F(1, 2), F(1, 4))))
    assert sol.pairs == ((F(1, 2), F(1, 2)),)


def test_coin_die_elimination_worked_example():
    total = DistPoly((F(1, 9), F(7, 18), F(7, 18), F(1, 9)))
    poly = coin_die_elimination(total)
    assert poly == [F(-1, 9), F(13, 18), F(-3, 2), F(1)]
    # its roots are exactly the coin probabilities over this total
    for p in (F(1, 3), F(1, 2), F(2, 3)):
        assert sum(c * p ** i for i, c in enumerate(poly)) == 0
    assert sum(c * F(1, 6) ** i for i, c in enumerate(poly)) != 0


coin_probs = st.fractions(min_value=F(1, 10), max_value=F(9, 10),
                          max_denominator=10)


@settings(max_examples=60, deadline=None)
@given(ps=st.lists(coin_probs, min_size=2, max_size=8))
def test_coins_round_trip(ps):
    n = len(ps)
    total = [F(1)]
    for p in ps:
        new = [F(0)] * (len(total) + 1)
        for i, c in enumerate(total):
            new[i] += c * (1 - p)
            new[i + 1] += c * p
        total = new
    parts = coins_parts_from_total(DistPoly(tuple(total)), n)
    assert parts.residual is None
    assert list(parts.roots) == sorted(ps)


# Two coins whose heads (face 1) are 1/2 and 2/3: (1/2 + x/2)(1/3 + 2x/3)
TWO_COINS = DistPoly((F(1, 6), F(1, 2), F(1, 3)))


def test_every_coin_function_reports_the_heads():
    sol = coin_pair_solve(TWO_COINS)
    assert {p for pair in sol.pairs for p in pair} == {F(1, 2), F(2, 3)}
    assert sol.discriminant == F(1, 36)
    assert coins_parts_from_total(TWO_COINS, 2).roots == (F(1, 2), F(2, 3))
    # (p - 1/2)(p - 2/3)
    assert coin_die_elimination(TWO_COINS) == [F(1, 3), F(-7, 6), F(1)]


def test_coin_die_elimination_has_the_coins_head_as_a_root():
    coin, die = Die((F(1, 3), F(2, 3))), Die((F(1, 6),) * 6)
    poly = coin_die_elimination(parts_to_total(Sack((coin, die))))
    assert sum(c * F(2, 3) ** i for i, c in enumerate(poly)) == 0
    assert sum(c * F(1, 3) ** i for i, c in enumerate(poly)) != 0


# a head 0 coin, and pseudo-coins whose head lies outside [0, 1]
heads = st.sampled_from([F(0), F(1), F(1, 2), F(1, 3), F(3, 4), F(-1, 2),
                         F(3, 2), F(-2), F(5, 3)])


@settings(max_examples=60, deadline=None)
@given(ps=st.lists(heads, min_size=1, max_size=8))
@example(ps=[F(0), F(-1, 2), F(3, 2)])
def test_the_head_polynomial_is_the_product_over_the_heads(ps):
    total, want = [F(1)], [F(1)]
    for p in ps:
        total = ref_poly_mul(total, [1 - p, p])
        want = ref_poly_mul(want, [-p, F(1)])
    f = DistPoly(tuple(total))
    assert list(coins_parts_from_total(f, len(ps)).polynomial) == want
    if len(ps) > 1:
        assert coin_die_elimination(f) == want


COIN_CALLS = {
    "coin_pair_solve": coin_pair_solve,
    "coins_parts_from_total": lambda f: coins_parts_from_total(f, 2),
    "coin_die_elimination": coin_die_elimination,
}


@pytest.mark.parametrize("call", COIN_CALLS.values(), ids=COIN_CALLS.keys())
def test_coin_functions_refuse_cyclotomic_and_wrong_length_totals(call):
    z = CycElem.zeta(3)
    # a coin with head zeta_3 and a fair coin
    cyclotomic = DistPoly(tuple(ref_poly_mul([1 - z, z], [F(1, 2), F(1, 2)])))
    with pytest.raises(TypeError):
        call(cyclotomic)
    with pytest.raises(DegenerateTotal):
        call(DistPoly((F(1, 3), F(2, 3))))


@pytest.mark.parametrize("n", [True, 1.0, "1"], ids=["true", "float", "string"])
def test_a_coin_count_that_is_not_an_int_is_refused_before_any_work(
        n, monkeypatch):
    def no_work(coeffs):
        raise AssertionError("the head polynomial was built")

    monkeypatch.setattr(fibers, "_head_polynomial", no_work)
    with pytest.raises(DegenerateTotal, match="must be an int"):
        coins_parts_from_total(DistPoly((F(1, 3), F(2, 3))), n)


# (rational roots, residual): the residual x^2 - x + 1/5 has discriminant
# 1/5, not a rational square, so its two coins have head probabilities
# (5 +- sqrt 5)/10
COIN_ROOTS = {
    "double_root": ((F(1, 3), F(1, 3), F(3, 4)), None),
    "negative_root": ((F(-1, 2), F(2, 3)), None),
    "quadratic_residual": ((F(1, 2),), (F(1, 5), F(-1), F(1))),
    "all_three": ((F(-1, 2), F(1, 3), F(1, 3)), (F(1, 5), F(-1), F(1))),
}


@pytest.mark.parametrize("name", sorted(COIN_ROOTS))
def test_coins_parts_from_total_splits_off_the_rational_roots(name):
    roots, residual = COIN_ROOTS[name]
    # a coin with head probability p has total (1 - p) + p x; two coins
    # with p q = e2 and p + q = e1 have (1 - e1 + e2) + (e1 - 2 e2) x + e2 x^2
    coins = [[1 - p, p] for p in roots]
    factors = [[-r, F(1)] for r in roots]
    if residual is not None:
        e2, e1 = residual[0], -residual[1]
        coins.append([1 - e1 + e2, e1 - 2 * e2, e2])
        factors.append(list(residual))
    total, want = [F(1)], [F(1)]
    for coin in coins:
        total = ref_poly_mul(total, coin)
    for factor in factors:
        want = ref_poly_mul(want, factor)
    parts = coins_parts_from_total(DistPoly(tuple(total)), len(total) - 1)
    assert parts.roots == tuple(sorted(roots))
    assert parts.residual == residual
    assert parts.polynomial == tuple(want)


def _coins_total(heads):
    total = [F(1)]
    for p in heads:
        total = ref_poly_mul(total, [1 - p, p])
    return DistPoly(tuple(total))


def test_the_rational_root_search_is_bounded_before_any_trial_division(
        monkeypatch):
    # denominators near 10**6 clear to just under the limit and still solve
    heads = (F(499979, 999983), F(500029, 1000003))
    assert coins_parts_from_total(_coins_total(heads), 2).roots == heads

    def no_search(n):
        raise AssertionError(f"divisors({n}) was called")

    monkeypatch.setattr(fibers, "divisors", no_search)
    near_1e7 = _coins_total((F(4999999, 9999991), F(5000011, 10000019),
                             F(5000021, 10000079)))
    with pytest.raises(DegenerateTotal, match="rational-root search"):
        coins_parts_from_total(near_1e7, 3)


@pytest.mark.parametrize("obj, message", [
    ({}, "a factor needs a 'type' field"),
    ({"root": "1"}, "a factor needs a 'type' field"),
    ({"type": "linear"}, "a linear factor needs a 'root' field"),
    ({"type": "chi", "k": 5}, "a chi factor needs a 'm' field"),
    ({"type": "chi", "m": 1}, "a chi factor needs a 'k' field"),
])
def test_factor_json_names_a_missing_field(obj, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FactorMultiset.from_json([obj])


def test_factor_multiset_json_round_trip():
    fm = FactorMultiset((
        (LinearFactor(F(-1)), 2),
        (ChiFactor(1, 5), 1),
    ))
    assert FactorMultiset.from_json(fm.to_json()) == fm
