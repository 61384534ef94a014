"""Exact craps: the fair game, its published table, and edge cases."""

from fractions import Fraction

import pytest

from totalparts.crapseval import (
    CrapsTotals,
    FAIR_PASS_PROBABILITY,
    InvalidDistribution,
    craps_evaluate,
    craps_from_sack,
    geometric_tree_check,
)
from totalparts.dicecore import Die, Sack
from totalparts.fairlab import enumerate_fair_pairs

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
