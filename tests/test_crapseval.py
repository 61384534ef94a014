"""Exact craps: the fair game, its published table, and edge cases."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totalparts.crapseval import (
    CrapsTotals,
    FAIR_PASS_PROBABILITY,
    InvalidDistribution,
    LOSE_TOTALS,
    POINT_TOTALS,
    WIN_TOTALS,
    craps_evaluate,
    craps_from_sack,
    geometric_tree_check,
)
from fraction_checks import is_canonical
from totalparts import crapseval, dicecore
from totalparts.dicecore import (Die, Sack, normalize_to_die, parts_to_total,
                                 poly_mul)
from totalparts.exactnum import two_cos
from totalparts.fairlab import enumerate_fair_pairs
from totalparts.fibers import FactorMultiset, LinearFactor, enumerate_fiber

F = Fraction


def test_fair_game_reproduces_the_conditional_row():
    rep = craps_evaluate(CrapsTotals.fair())
    assert rep.point_win == {
        4: F(3, 9), 5: F(4, 10), 6: F(5, 11),
        8: F(5, 11), 9: F(4, 10), 10: F(3, 9),
    }
    assert rep.breakdown[4] == F(9, 324)
    assert rep.breakdown[5] == F(16, 360)
    assert rep.breakdown[6] == F(25, 396)
    # the intersection entries at t = 7 and 11 are P(t), not 1
    assert rep.breakdown[7] == F(6, 36)
    assert rep.breakdown[11] == F(2, 36)


def test_fair_win_probability_and_printed_discrepancy():
    rep = craps_evaluate(CrapsTotals.fair())
    assert rep.p_win == F(244, 495)
    assert rep.matches_fair
    # widely printed value 243/495 does not equal the exact sum
    assert rep.p_win != F(243, 495)
    assert sum(rep.breakdown.values()) == rep.p_win


def test_geometric_tree_converges_to_closed_form():
    partials, closed = geometric_tree_check(CrapsTotals.fair(), 9)
    assert closed == F(4, 10)
    assert partials[0] == F(4, 36)
    # ratio of the geometric series is 26/36
    assert partials[1] - partials[0] == F(4, 36) * F(26, 36)
    assert 0 < closed - partials[-1] < F(1, 10 ** 9)
    with pytest.raises(ValueError):
        geometric_tree_check(CrapsTotals.fair(), 7)


@pytest.mark.parametrize("t", [4.0, True, F(4)], ids=["float", "bool",
                                                      "fraction"])
def test_geometric_tree_refuses_a_point_that_is_no_int(t):
    # 4.0 == 4 passes a membership test in POINT_TOTALS
    with pytest.raises(ValueError, match=f"^{t} is not a point total$"):
        geometric_tree_check(CrapsTotals.fair(), t)


def test_totally_fair_loaded_sack_gives_the_fair_game():
    # any unfair real pair with fair total plays the same craps game; the
    # enumeration over the 6-th roots contains such (pseudo-)pairs
    pair = next(p for p in enumerate_fair_pairs(6)
                if p.is_real() and not p.is_fair())
    rep = craps_from_sack(Sack((pair.d, pair.dhat)))
    assert rep.p_win == FAIR_PASS_PROBABILITY
    assert rep.matches_fair


def test_loaded_sack_changes_the_game():
    d = Die((F(1, 2), F(0), F(0), F(0), F(0), F(1, 2)))
    rep = craps_from_sack(Sack((d, d)))
    # totals 2, 7, 12 each with probability 1/4, 1/2, 1/4: win iff 7
    assert rep.p_win == F(1, 2)


def test_invalid_distributions_rejected():
    with pytest.raises(InvalidDistribution):
        CrapsTotals((F(1, 2), F(1, 2)))
    with pytest.raises(InvalidDistribution):
        CrapsTotals(tuple([F(2)] + [F(-1, 10)] * 10))
    with pytest.raises(InvalidDistribution):
        CrapsTotals(tuple([F(1, 2)] * 11))
    with pytest.raises(InvalidDistribution):
        craps_from_sack(Sack((Die.fair(5), Die.fair(6))))


def test_float_totals_rejected():
    probs = (0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(TypeError, match="not an exact scalar: 0.5"):
        CrapsTotals(probs)


def test_game_without_sevens_always_makes_its_point():
    # with f_7 = 0 every point converts with probability 1
    probs = [F(0)] * 11
    probs[4 - 2] = F(1, 2)
    probs[3 - 2] = F(1, 2)
    rep = craps_evaluate(CrapsTotals(tuple(probs)))
    assert rep.point_win[4] == 1
    assert rep.p_win == F(1, 2)


def test_game_with_unreachable_point_is_fine():
    # totals concentrated on 7 alone: always win on the comeout
    probs = [F(0)] * 11
    probs[7 - 2] = F(1)
    rep = craps_evaluate(CrapsTotals(tuple(probs)))
    assert rep.p_win == 1


# -- the integer game against the Fraction closed form ------------------------

def ref_craps_evaluate(totals):
    # the closed form evaluated with Fraction arithmetic throughout
    point_win = {}
    breakdown = {}
    p_win = F(0)
    for t in WIN_TOTALS:
        breakdown[t] = totals[t]
        p_win += totals[t]
    for t in LOSE_TOTALS:
        breakdown[t] = F(0)
    for t in POINT_TOTALS:
        denom = totals[t] + totals[7]
        if denom == 0:
            if totals[t] != 0:
                raise InvalidDistribution(
                    f"point {t} can be set but never resolves")
            point_win[t] = F(0)
            breakdown[t] = F(0)
            continue
        point_win[t] = totals[t] / denom
        breakdown[t] = totals[t] * point_win[t]
        p_win += breakdown[t]
    return p_win, point_win, breakdown


@st.composite
def distributions(draw):
    # nonnegative rationals with mixed denominators, many of them zero,
    # scaled to sum 1
    xs = draw(st.lists(st.one_of(st.just(F(0)),
                                 st.fractions(0, 5, max_denominator=30)),
                       min_size=11, max_size=11).filter(any))
    total = sum(xs)
    return tuple(x / total for x in xs)


def _on(weights):
    # an 11-vector from {total: weight}
    return tuple(F(weights.get(t, 0)) for t in range(2, 13))


@settings(max_examples=300, deadline=None)
@given(probs=distributions())
@example(probs=CrapsTotals.fair().probs)
# f_7 = 0: every point that is set converts
@example(probs=_on({3: F(1, 2), 4: F(1, 3), 10: F(1, 6)}))
# points 4, 5, 9 and 10 unreachable, 6 and 8 reachable
@example(probs=_on({7: F(1, 2), 6: F(1, 4), 8: F(1, 8), 12: F(1, 8)}))
# point 4 can be set but never resolves, as f_4 + f_7 = 0
@example(probs=_on({4: F(1, 2), 7: F(-1, 2), 2: F(1)}))
def test_integer_craps_matches_the_fraction_reference(probs):
    if min(probs) >= 0:
        totals = CrapsTotals(probs)
    else:
        # CrapsTotals refuses a negative total, so this game is built
        # unchecked to reach craps_evaluate's own guard
        totals = object.__new__(CrapsTotals)
        object.__setattr__(totals, "probs", probs)
    try:
        p_win, point_win, breakdown = ref_craps_evaluate(totals)
    except InvalidDistribution as exc:
        with pytest.raises(InvalidDistribution, match=f"^{exc}$"):
            craps_evaluate(totals)
        return
    rep = craps_evaluate(totals)
    assert rep.totals is totals
    assert rep.p_win == p_win and type(rep.p_win) is F
    assert list(rep.point_win.items()) == list(point_win.items())
    assert list(rep.breakdown.items()) == list(breakdown.items())
    assert all(type(v) is F for v in [*rep.point_win.values(),
                                      *rep.breakdown.values()])
    assert rep.matches_fair == (p_win == F(244, 495))


def test_rational_sack_with_a_negative_total_is_refused():
    # (1 - x + x^2)^2 = 1 - 2x + 3x^2 - 2x^3 + x^4: each die sums to 1 but
    # the total has negative coefficients
    d = Die((1, -1, 1, 0, 0, 0))
    with pytest.raises(InvalidDistribution,
                       match="^total has a negative probability$"):
        craps_from_sack(Sack((d, d)))


# sqrt(5) = 2 * 2cos(2pi/5) + 1, so _D is a real die with irrational entries
_SQRT5 = 2 * two_cos(1, 5) + 1
_D = Die(((5 - _SQRT5) / 10, (5 + _SQRT5) / 10, 0, 0, 0, 0))
_G = Die((F(1, 2), F(1, 2), 0, 0, F(-1, 10), F(1, 10)))


@pytest.mark.parametrize("dice", [
    # total coefficients 4 and 5 are negative, after an irrational one
    (_D, _G), (_G, _D),
    # total coefficient 0, the first, is irrational and negative
    (Die((F(-1, 10), F(11, 10), 0, 0, 0, 0)), _D),
], ids=["d_g", "g_d", "negative_first"])
def test_sack_with_a_cyclotomic_total_is_refused_whatever_its_signs(dice):
    assert parts_to_total(Sack(dice))._ints is None
    with pytest.raises(InvalidDistribution, match="^craps evaluation needs a "
                                                  "rational total distribution$"):
        craps_from_sack(Sack(dice))


@pytest.mark.parametrize("total", [0, 1, 13, -1, True, 2.0, 7.0, F(7)])
def test_totals_outside_2_to_12_are_not_indexed(total):
    # probs[total - 2] would wrap around: [1] would read P(12); a float or
    # a Fraction equal to a total is no index either
    with pytest.raises(KeyError):
        CrapsTotals.fair()[total]


def test_craps_on_a_rational_sack_converts_no_probability_list(monkeypatch):
    # The dice and their total keep their integer numerators from
    # construction, so craps_from_sack reads them and rebuilds none.
    sack = Sack((Die((F(1, 12), F(1, 6), F(1, 4)) * 2),
                 normalize_to_die([1, 2, 3, 4, 5, 6])))
    want = craps_evaluate(CrapsTotals(parts_to_total(sack).coeffs))

    def refused(*args):
        raise AssertionError("a stored numerator list was rebuilt")

    monkeypatch.setattr(crapseval, "_numerators", refused)
    monkeypatch.setattr(dicecore, "_rational_ints", refused)
    with pytest.raises(AssertionError):  # the patches are live
        CrapsTotals(want.totals.probs)
    assert craps_from_sack(sack) == want


@pytest.mark.parametrize("probs, error, message", [
    # a float is refused before the length, sign and sum are read
    ((0.5, F(-1)), TypeError, "not an exact scalar: 0.5"),
    ((two_cos(1, 5), F(-1)), TypeError, "craps totals must be rational"),
    # then the length, before the sign and the sum
    ((F(-1), F(3)), InvalidDistribution, "craps needs the 11 totals 2..12"),
    # then the sign, before the sum
    ((F(-1),) + (F(1),) * 10, InvalidDistribution,
     "total probabilities must be nonnegative"),
    ((F(1, 2),) * 11, InvalidDistribution,
     "total probabilities must sum to 1"),
], ids=["float", "cyclotomic", "length", "negative", "sum"])
def test_craps_totals_errors_come_in_order(probs, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        CrapsTotals(probs)


def test_every_fraction_of_nine_fibers_and_their_craps_is_canonical():
    # Nine seeded (6, 6) sacks of strict rational dice, each die the
    # product of five (x + a) with distinct a = n/d, 1 <= n, d <= 7: every
    # Fraction built for a member, its total and its craps report is in
    # lowest terms with int parts and a positive denominator.
    rng = random.Random(20261020)
    pool = sorted({F(n, d) for n in range(1, 8) for d in range(1, 8)})
    for _ in range(9):
        roots = rng.sample(pool, 10)
        factors = FactorMultiset(tuple((LinearFactor(-a), 1) for a in roots))
        fiber = enumerate_fiber(factors, (6, 6))
        assert len(fiber) == 252
        dice = tuple(normalize_to_die(poly_mul(*([a, 1] for a in half)))
                     for half in (roots[:5], roots[5:]))
        assert Sack(dice) in fiber
        for member in fiber:
            rep = craps_from_sack(member)
            values = [p for die in member.dice for p in die.probs]
            values += [*parts_to_total(member).coeffs, *rep.totals.probs,
                       rep.p_win, *rep.point_win.values(),
                       *rep.breakdown.values()]
            assert all(map(is_canonical, values))
