"""Exact craps evaluation for an arbitrary total distribution on 2..12.

The pass-line game: totals 7 and 11 win and 2, 3, 12 lose immediately; any
other total t becomes the point, which wins when t is rolled again before a
7.  With i.i.d. rolls the point-conversion probability is the closed form
f_t/(f_t + f_7) obtained by summing the geometric series over the rolls
that are neither t nor 7.

A rational total is played on integers: numerators n_2..n_12 over one
positive denominator D.  :func:`craps_from_sack` reads them from the
``DistPoly`` that :func:`parts_to_total` built from the dice's own stored
numerators, so no probability is converted on that path.  A member of
a fiber from ``fibers.enumerate_fiber`` carries the fiber's one total,
which is its own, so on a member :func:`parts_to_total` returns that total
and the dice are not multiplied again.  The :class:`CrapsReport` is still
built per call: its dicts are mutable, so one shared report would let one
caller change another's.  A :class:`CrapsTotals` built from ``Fraction``s
converts them twice: once when it is built, for its checks, and again in
:func:`craps_evaluate`.  The checks
that they are nonnegative and sum to 1 read n_t >= 0 and sum n_t = D, and
the game is P(win | point t) = n_t/(n_t + n_7), P(come-out t and win) =
n_t^2/(D (n_t + n_7)), and p_win is one integer numerator over
D prod (n_t + n_7).  ``Fraction``s are built only for the values a
:class:`CrapsReport` returns, each from its integer pair by exactnum's one
lowest-terms constructor: one gcd, with no type dispatch of ``Fraction``.
A sack whose total has an irrational coefficient is refused, whatever the
signs of its coefficients: craps evaluation needs a rational total
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dicecore import Sack, as_scalar, fair_total, parts_to_total
from .exactnum import _fraction, _numerators

WIN_TOTALS = (7, 11)
LOSE_TOTALS = (2, 3, 12)
POINT_TOTALS = (4, 5, 6, 8, 9, 10)

FAIR_PASS_PROBABILITY = Fraction(244, 495)

_ZERO = Fraction(0)


class InvalidDistribution(ValueError):
    """Raised when a craps total is not a genuine distribution on 2..12."""


def _check_numerators(nums, den) -> None:
    # The checks of a total distribution, on numerators over den > 0.
    if len(nums) != 11:
        raise InvalidDistribution("craps needs the 11 totals 2..12")
    if any(a < 0 for a in nums):
        raise InvalidDistribution("total probabilities must be nonnegative")
    if sum(nums) != den:
        raise InvalidDistribution("total probabilities must sum to 1")


@dataclass(frozen=True)
class CrapsTotals:
    """A total distribution indexed by the totals 2..12."""

    probs: tuple  # f_2 .. f_12

    def __post_init__(self):
        probs = tuple(map(as_scalar, self.probs))
        if not all(isinstance(p, Fraction) for p in probs):
            raise TypeError("craps totals must be rational")
        _check_numerators(*_numerators(probs))
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _from_numerators(cls, probs) -> "CrapsTotals":
        # Fractions probs that the caller has checked on their numerators:
        # 11 of them, nonnegative, summing to 1.
        self = object.__new__(cls)
        object.__setattr__(self, "probs", probs)
        return self

    def __getitem__(self, total: int) -> Fraction:
        # a total outside 2..12 would index probs from its end, and 2.0,
        # equal to 2, is no index
        if type(total) is not int or total not in range(2, 13):
            raise KeyError(total)
        return self.probs[total - 2]

    @staticmethod
    def fair() -> "CrapsTotals":
        return CrapsTotals(tuple(fair_total((6, 6))))


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
    return _evaluate(totals, *_numerators(totals.probs))


def _evaluate(totals: CrapsTotals, nums, den: int) -> CrapsReport:
    # craps_evaluate on the numerators nums of the totals 2..12 over den;
    # breakdown's keys run 7, 11, 2, 3, 12, then the points
    probs = totals.probs
    n7 = nums[5]
    point_win = {}
    breakdown = {7: probs[5], 11: probs[9], 2: _ZERO, 3: _ZERO, 12: _ZERO}
    # p_win = win / (den * scale), scale the product of the point sums so far
    win, scale = n7 + nums[9], 1
    for t in POINT_TOTALS:
        n = nums[t - 2]
        s = n + n7
        if s == 0:
            if n != 0:
                raise InvalidDistribution(
                    f"point {t} can be set but never resolves")
            point_win[t] = breakdown[t] = _ZERO
            continue
        point_win[t] = _fraction(n, s)
        breakdown[t] = _fraction(n * n, den * s)
        win, scale = win * s + n * n * scale, scale * s
    p_win = _fraction(win, den * scale)
    return CrapsReport(totals, p_win, point_win, breakdown,
                       p_win == FAIR_PASS_PROBABILITY)


def geometric_tree_check(totals: CrapsTotals, t: int):
    """The first 64 partial sums of the roll-by-roll series for
    P(win | point t) together with the closed form they converge to.

    The n-th partial sum is f_t * (1 - q^n)/(1 - q) with q the probability
    of rolling neither t nor 7; exact Fractions throughout.
    """
    if type(t) is not int or t not in POINT_TOTALS:
        raise ValueError(f"{t} is not a point total")
    q = 1 - totals[t] - totals[7]
    partials = []
    acc = Fraction(0)
    weight = Fraction(1)
    for _ in range(64):
        acc += weight * totals[t]
        partials.append(acc)
        weight *= q
    denom = totals[t] + totals[7]
    closed = totals[t] / denom if denom else Fraction(0)
    return partials, closed


def craps_from_sack(sack: Sack) -> CrapsReport:
    """Evaluate craps for a sack of two 6-dice; totals are supports 2..12."""
    dice = sack.dice
    if len(dice) != 2 or len(dice[0].probs) != 6 or len(dice[1].probs) != 6:
        raise InvalidDistribution("craps is played with two 6-dice")
    if not (dice[0].is_real() and dice[1].is_real()):
        raise InvalidDistribution("craps needs real dice")
    total = parts_to_total(sack)
    if total._ints is None:
        raise InvalidDistribution(
            "craps evaluation needs a rational total distribution")
    # the (6, 6) type gives 11 coefficients, and parts_to_total checked
    # that the numerators sum to den
    nums, den = total._ints
    if min(nums) < 0:
        raise InvalidDistribution("total has a negative probability")
    return _evaluate(CrapsTotals._from_numerators(total.coeffs), nums, den)
