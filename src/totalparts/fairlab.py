"""Totally fair sacks: fair-fiber enumeration, counts, ramification, the
craps impossibility, coin+die fairness, and Sicherman dice.

A pair of totally fair k-dice corresponds to a multiplicity vector
r = (r_1..r_{k-1}) with 0 <= r_m <= 2 and sum r_m = k-1: the first die is
the normalization of prod_m (x - zeta_k^m)^{r_m} and the second takes the
complementary multiplicities 2 - r_m.  Pairs are built from this explicit
root multiset, not by factoring at runtime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import cyclotomic_poly, divisors
from .dicecore import (
    Die,
    normalize_to_die,
    poly_mul,
    poly_trim,
    root_pair,
)
from .fibers import (ChiFactor, FactorMultiset, LinearFactor, _compositions,
                     enumerate_fiber, fiber_degree)


@dataclass(frozen=True)
class FairPair:
    """A pair of totally fair k-dice with its multiplicity vector r."""

    d: Die
    dhat: Die
    r: tuple

    def is_real(self) -> bool:
        return self.d.is_real() and self.dhat.is_real()

    def is_strict(self) -> bool:
        return self.d.is_strict() and self.dhat.is_strict()

    def is_fair(self) -> bool:
        return all(rm == 1 for rm in self.r)


def _check_order(k: int) -> None:
    if k < 2:
        raise ValueError("order must be >= 2")


def _pairs_per_ell(k: int):
    # (ell, the number of r with ell entries 2): choose the 2s, then the
    # k - 1 - 2*ell 1s among the other entries
    for ell in range((k - 1) // 2 + 1):
        yield ell, (math.comb(k - 1, ell)
                    * math.comb(k - ell - 1, k - 1 - 2 * ell))


def fair_pair_count(k: int) -> int:
    """Number of pairs of totally fair dice of order k."""
    _check_order(k)
    return sum(count for _, count in _pairs_per_ell(k))


def multiplicity_vectors(k: int):
    """All r in {0,1,2}^(k-1) with sum r = k-1."""
    _check_order(k)
    return _compositions(k - 1, (2,) * (k - 1))


def enumerate_fair_pairs(k: int):
    """All fair pairs of order k, one per multiplicity vector, in the
    canonical order: by ell, then lexicographically on r.

    The root products of r and 2 - r multiply to psi_k^2, so one
    :func:`dicecore.root_pair` call builds both dice, each from its
    partner's value at 1 with no inverse, and serves r and 2 - r.
    """
    _check_order(k)
    rs = sorted(multiplicity_vectors(k),
                key=lambda r: (sum(1 for x in r if x == 2), r))
    pairs, dice = [], {}
    for r in rs:
        comp = tuple(2 - rm for rm in r)
        if r not in dice:
            roots = [[m for m, rm in enumerate(v, start=1) for _ in range(rm)]
                     for v in (r, comp)]
            dice[r], dice[comp] = root_pair(k, roots[0], 0, roots[1], 0)
        pairs.append(FairPair(dice[r], dice[comp], r))
    return pairs


def ramification_check(k: int) -> tuple[int, int]:
    """Weighted count of general-fiber points coming together over the fair
    total versus the degree of the part-to-total map; the two agree.

    A fair pair with ell doubled roots absorbs 2^(k-1-2*ell) points of the
    general fiber.
    """
    _check_order(k)
    lhs = sum(2 ** (k - 1 - 2 * ell) * count
              for ell, count in _pairs_per_ell(k))
    rhs = fiber_degree((k, k))
    return lhs, rhs


@dataclass(frozen=True)
class CrapsImpossibilityReport:
    strict_pairs: tuple
    only_strict_is_fair: bool
    candidate: FairPair
    candidate_vector: tuple
    candidate_is_strict: bool


def craps_fair_impossibility() -> CrapsImpossibilityReport:
    """The only strict pair of 6-dice with fair total is the fair pair.

    Also exhibits the unique other real candidate, proportional to
    (x^2-x+1)^2 (x+1), and flags it non-strict.
    """
    pairs = enumerate_fair_pairs(6)
    strict = tuple(p for p in pairs if p.is_strict())
    only_fair = len(strict) == 1 and strict[0].is_fair()
    # chi_{1,6}^2 (x+1) = x^5 - x^4 + x^3 + x^2 - x + 1
    cand_poly = poly_mul([1, -1, 1], [1, -1, 1], [1, 1])
    vector = tuple(Fraction(c) for c in cand_poly)
    d = normalize_to_die(cand_poly, order=6)
    dhat = normalize_to_die(poly_mul([1, 1, 1], [1, 1, 1], [1, 1]), order=6)
    # multiplicities: zeta_6 (m=1) and zeta_6^5 (m=5) doubled, zeta_6^3 = -1 once
    candidate = FairPair(d, dhat, (2, 0, 1, 0, 2))
    return CrapsImpossibilityReport(
        strict_pairs=strict,
        only_strict_is_fair=only_fair,
        candidate=candidate,
        candidate_vector=vector,
        candidate_is_strict=candidate.is_strict(),
    )


@dataclass(frozen=True)
class CoinDieFairReport:
    order: int
    strict_sacks: tuple
    only_fair_is_strict: bool


def coin_die_fair_check(k: int) -> CoinDieFairReport:
    """Redistribute the factors of psi_2 * psi_k between a coin and a k-die
    and confirm the only strict outcome is the fair/fair sack."""
    _check_order(k)
    entries = [(LinearFactor(Fraction(-1)), 2 if k % 2 == 0 else 1)]
    for m in range(1, (k + 1) // 2):
        entries.append((ChiFactor(m, k), 1))
    sacks = enumerate_fiber(FactorMultiset(tuple(entries)), (2, k))
    strict = tuple(s for s in sacks if s.is_strict())
    only_fair = all(s.is_fair() for s in strict) and len(strict) >= 1
    return CoinDieFairReport(k, strict, only_fair)


def sicherman_search(k: int, label_min: int = 1):
    """All pairs of uniform k-sided dice with positive integer labels whose
    total distribution matches a standard pair.

    Redistributes the integer factorization of psi_k^2 into two polynomials
    with nonnegative coefficients summing to k each; labels are exponents
    shifted by ``label_min``.  Returns sorted label-tuple pairs, the
    standard pair included.
    """
    _check_order(k)
    # psi_k is the product of the integer Phi_d over the divisors d > 1 of k
    factors = [cyclotomic_poly(d) for d in divisors(k)[1:]]
    results = set()
    for counts in itertools.product((0, 1, 2), repeat=len(factors)):
        a = poly_mul(*(f for f, c in zip(factors, counts) for _ in range(c)))
        if sum(a) != k:
            continue
        b = poly_mul(*(f for f, c in zip(factors, counts)
                       for _ in range(2 - c)))
        if sum(b) != k or any(c < 0 for c in a + b):
            continue
        labels_a = _labels_from_poly(a, label_min)
        labels_b = _labels_from_poly(b, label_min)
        results.add(tuple(sorted((labels_a, labels_b))))
    return sorted(results)


def _labels_from_poly(p, label_min):
    labels = []
    for exp, c in enumerate(poly_trim(p)):
        labels.extend([exp + label_min] * c)
    return tuple(labels)
