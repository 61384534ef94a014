"""Exact craps evaluation for an arbitrary total distribution on 2..12.

The pass-line game: totals 7 and 11 win and 2, 3, 12 lose immediately; any
other total t becomes the point, which wins when t is rolled again before a
7.  With i.i.d. rolls the point-conversion probability is the closed form
f_t/(f_t + f_7) obtained by summing the geometric series over the rolls
that are neither t nor 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dicecore import Sack, as_scalar, parts_to_total, poly_sum
from .exactnum import cyc_sign

WIN_TOTALS = (7, 11)
LOSE_TOTALS = (2, 3, 12)
POINT_TOTALS = (4, 5, 6, 8, 9, 10)

FAIR_PASS_PROBABILITY = Fraction(244, 495)


class InvalidDistribution(ValueError):
    """Raised when a craps total is not a genuine distribution on 2..12."""


@dataclass(frozen=True)
class CrapsTotals:
    """A total distribution indexed by the totals 2..12."""

    probs: tuple  # f_2 .. f_12

    def __post_init__(self):
        probs = tuple(map(as_scalar, self.probs))
        if not all(isinstance(p, Fraction) for p in probs):
            raise TypeError("craps totals must be rational")
        if len(probs) != 11:
            raise InvalidDistribution("craps needs the 11 totals 2..12")
        if any(p < 0 for p in probs):
            raise InvalidDistribution("total probabilities must be nonnegative")
        if poly_sum(probs) != 1:
            raise InvalidDistribution("total probabilities must sum to 1")
        object.__setattr__(self, "probs", probs)

    def __getitem__(self, total: int) -> Fraction:
        return self.probs[total - 2]

    @staticmethod
    def fair() -> "CrapsTotals":
        return CrapsTotals(tuple(Fraction(6 - abs(t - 7), 36)
                                 for t in range(2, 13)))


@dataclass(frozen=True)
class CrapsReport:
    totals: CrapsTotals
    p_win: Fraction
    point_win: dict  # t -> P(win | point t)
    breakdown: dict  # t -> P(come-out t and eventual win)
    matches_fair: bool


def craps_evaluate(totals: CrapsTotals) -> CrapsReport:
    """Exact pass-line win probability for the given total distribution.

    A point t with f_t = f_7 = 0 can never resolve; such games are rejected.
    """
    point_win = {}
    breakdown = {}
    p_win = Fraction(0)
    for t in WIN_TOTALS:
        breakdown[t] = totals[t]
        p_win += totals[t]
    for t in LOSE_TOTALS:
        breakdown[t] = Fraction(0)
    for t in POINT_TOTALS:
        denom = totals[t] + totals[7]
        if denom == 0:
            if totals[t] != 0:
                raise InvalidDistribution(
                    f"point {t} can be set but never resolves")
            point_win[t] = Fraction(0)
            breakdown[t] = Fraction(0)
            continue
        point_win[t] = totals[t] / denom
        breakdown[t] = totals[t] * point_win[t]
        p_win += breakdown[t]
    return CrapsReport(totals, p_win, point_win, breakdown,
                       p_win == FAIR_PASS_PROBABILITY)


def geometric_tree_check(totals: CrapsTotals, t: int, terms: int = 64):
    """Partial sums of the roll-by-roll series for P(win | point t) together
    with the closed form they converge to.

    The n-th partial sum is f_t * (1 - q^n)/(1 - q) with q the probability
    of rolling neither t nor 7; exact Fractions throughout.
    """
    if t not in POINT_TOTALS:
        raise ValueError(f"{t} is not a point total")
    q = 1 - totals[t] - totals[7]
    partials = []
    acc = Fraction(0)
    weight = Fraction(1)
    for _ in range(terms):
        acc += weight * totals[t]
        partials.append(acc)
        weight *= q
    denom = totals[t] + totals[7]
    closed = totals[t] / denom if denom else Fraction(0)
    return partials, closed


def craps_from_sack(sack: Sack) -> CrapsReport:
    """Evaluate craps for a sack of two 6-dice; totals are supports 2..12."""
    if sack.type_vector != (6, 6):
        raise InvalidDistribution("craps is played with two 6-dice")
    if not all(d.is_real() for d in sack.dice):
        raise InvalidDistribution("craps needs real dice")
    total = parts_to_total(sack)
    probs = []
    for c in total.coeffs:
        # a Fraction is compared directly; any other coefficient gets a
        # certified sign
        sign = ((c > 0) - (c < 0) if isinstance(c, Fraction)
                else cyc_sign(c).sign)
        if sign < 0:
            raise InvalidDistribution("total has a negative probability")
        if sign == 0:
            probs.append(Fraction(0))
        elif isinstance(c, Fraction):
            probs.append(c)
        else:
            raise InvalidDistribution(
                "craps evaluation needs a rational total distribution")
    return craps_evaluate(CrapsTotals(tuple(probs)))
