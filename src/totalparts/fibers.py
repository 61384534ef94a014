"""Geometry of the part-to-total map: degree, fiber enumeration, coin formulas.

The generic fiber of the part-to-total map over a total of type k has
T!/prod((k_j-1)!) points, and every fiber is obtained by redistributing the
irreducible factors of the total polynomial among the dice, then rescaling
each slot to coefficient sum 1.

General complex totals with unknown factorizations are handled only through
a caller-supplied :class:`FactorMultiset`; no numeric root isolation is done
here, which keeps every result certificate-exact.

A coin's head is face 1, so a coin with head h has total (1 - h) + h x.
Every coin answer reads the roots of the head polynomial p^n f(1 - 1/p) of
a degree-n total f, 1/(1 - x_j) over the roots x_j of f: the heads for n
coins, and the candidate heads for a coin and a die.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import CycElem, _conv_ints, _numerators, divisors, two_cos
from .dicecore import (
    DistPoly,
    Sack,
    ZeroSum,
    _integers,
    _json_field,
    _json_shaped,
    _sack_type,
    _with_total,
    as_scalar,
    normalize_to_die,
    parts_to_total,
    poly_gcd,
    poly_mul,
    poly_trim,
    render_scalar,
    scalar_from_json,
    scalar_to_json,
)


class DegenerateTotal(ValueError):
    """Raised for coin totals outside the solvable range."""


class IrrationalDiscriminant(ValueError):
    """Raised when a coin solution is not rational; carries the minimal
    polynomial of the head probability."""

    def __init__(self, polynomial):
        self.polynomial = tuple(polynomial)
        super().__init__(
            f"head probability is an irrational root of {polynomial}")


# -- factors -----------------------------------------------------------------

@dataclass(frozen=True)
class LinearFactor:
    """The monic linear factor x - root."""

    root: object

    def __post_init__(self):
        object.__setattr__(self, "root", as_scalar(self.root))

    degree = 1

    def coeffs(self):
        return [-self.root, Fraction(1)]

    def to_json(self):
        return {"type": "linear", "root": scalar_to_json(self.root)}


@dataclass(frozen=True)
class ChiFactor:
    """The real irreducible quadratic x^2 - 2cos(2*pi*m/k)x + 1.

    (m, k) is stored in lowest terms with 0 < m/k < 1/2, so equal factors
    arising from different orders compare equal; an m or a k that is not
    an int, a bool included, or a pair outside that range raises
    ValueError.
    """

    m: int
    k: int

    def __post_init__(self):
        m, k = _integers((self.m, self.k), "chi factor needs integers")
        if not 0 < 2 * m < k:
            raise ValueError("chi factor needs 0 < m/k < 1/2")
        g = math.gcd(m, k)
        object.__setattr__(self, "m", m // g)
        object.__setattr__(self, "k", k // g)

    degree = 2

    @property
    def tau(self) -> CycElem:
        return two_cos(self.m, self.k)

    def coeffs(self):
        return [Fraction(1), -as_scalar(self.tau), Fraction(1)]

    def to_json(self):
        return {"type": "chi", "m": self.m, "k": self.k}


def factor_from_json(obj):
    kind = _json_field(_json_shaped(obj, dict, "a factor"), "type", "a factor")
    if kind == "linear":
        return LinearFactor(scalar_from_json(
            _json_field(obj, "root", "a linear factor")))
    if kind == "chi":
        return ChiFactor(*(_json_field(obj, f, "a chi factor", int)
                           for f in ("m", "k")))
    raise ValueError(f"unknown factor type {kind!r}")


@dataclass(frozen=True)
class FactorMultiset:
    """Multiset of monic irreducible real factors of a total polynomial."""

    entries: tuple  # of (factor, multiplicity)

    def __post_init__(self):
        merged: dict = {}
        for factor, mult in self.entries:
            if _json_shaped(mult, int, "multiplicity") < 0:
                raise ValueError("negative multiplicity")
            if mult:
                merged[factor] = merged.get(factor, 0) + mult
        object.__setattr__(self, "entries", tuple(sorted(
            merged.items(), key=lambda e: repr(e[0]))))

    @property
    def total_degree(self) -> int:
        return sum(f.degree * mult for f, mult in self.entries)

    def product(self):
        return poly_mul(*(factor.coeffs() for factor, mult in self.entries
                          for _ in range(mult)))

    def to_json(self):
        return [{**f.to_json(), "multiplicity": m} for f, m in self.entries]

    @staticmethod
    def from_json(obj) -> "FactorMultiset":
        return FactorMultiset(tuple(
            (factor_from_json(e), e.get("multiplicity", 1))
            for e in _json_shaped(obj, list, "a factor multiset")))


# -- operations --------------------------------------------------------------

def fiber_degree(sack_type) -> int:
    """Degree of the part-to-total map: T!/prod((k_j-1)!)."""
    ks = _sack_type(sack_type)
    t = sum(k - 1 for k in ks)
    deg = math.factorial(t)
    for k in ks:
        deg //= math.factorial(k - 1)
    return deg


def _compositions(total, caps):
    # All ways of writing total as a sum over len(caps) slots with bounds.
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


def _slot_powers(factor, mult):
    # factor^0 .. factor^mult.  A rational factor is scaled to its integer
    # numerators first: normalizing a slot cancels the scale, so slots
    # holding only rational factors stay in Z[x].
    base = factor.coeffs()
    if not any(isinstance(c, CycElem) for c in base):
        base = _numerators(base)[0]
    powers = [[1]]
    for _ in range(mult):
        powers.append(poly_mul(powers[-1], base))
    return powers


def enumerate_fiber(factors: FactorMultiset, sack_type):
    """All sacks of the given type whose total has the given factor multiset.

    Every distribution of the factors among the slots respecting the degree
    bounds k_j - 1 yields one candidate; slots whose polynomial has
    coefficient sum zero do not normalize to a pseudodie and are skipped.
    Each slot's product is carried down the tree of distributions, one
    multiply per slot that receives a factor.  Each distinct die is built
    and rendered once per call: the leaves look their dice up by (product,
    order), so in a type with equal orders such as (6, 6), where each die is
    in two members, once in each slot, the members share the one immutable
    :class:`Die`, and the sort reads the stored renderings.  Leaves that
    give the same dice are listed once.  When every factor is rational,
    every slot is an int list and no two leaves give the same dice: two
    slots give the same die only when their products agree up to a scalar,
    and by unique factorization over Q distinct leaves give some slot a
    different multiset of the (irreducible, distinct) factors.  Only a
    non-rational factor can make a duplicate, as when
    (x - zeta)(x - conj(zeta)) and a chi trade slots, so only then is each
    leaf keyed on its :meth:`Sack.canonical_key`.  A type with an entry
    that is not an int, or below 2, is refused before anything is
    enumerated.

    Every member carries the fiber's one total, built once per call by
    :func:`parts_to_total` on the first member, so ``parts_to_total``
    of a member (and craps on it) returns it instead of multiplying again.
    It is every member's own total: a member's slot products p_j multiply
    to F, the product of the factor multiset, and its dice are
    p_j / p_j(1), so its total is F / F(1).  For a rational total the
    stored pair is unique as well: each die's numerators are primitive, so
    by Gauss's lemma their product is, and the pair is the primitive
    numerators of F over their sum.  The shared ``DistPoly`` therefore
    equals, in ``coeffs`` and ``_ints``, the one built for each member.
    """
    ks = _sack_type(sack_type)
    caps = [k - 1 for k in ks]
    if factors.total_degree > sum(caps):
        raise ValueError("factor degree exceeds the capacity of the type")
    entries = factors.entries
    powers = [_slot_powers(factor, mult) for factor, mult in entries]
    dedupe = not all(type(c) is int for ps in powers for c in ps[-1])
    # int slots multiply by poly_mul's own loop for int lists, unchecked
    mul = poly_mul if dedupe else _conv_ints
    results = []  # of (rendered dice, sack)
    seen = set()
    built = {}  # (product, order) -> (die, its rendering), None for a zero sum
    comps = {}  # (multiplicity, slot caps) -> compositions, shared by nodes

    def die_of(p, k):
        key = (tuple(p), k)
        if key not in built:
            try:
                die = normalize_to_die(p, order=k)
            except ZeroSum:
                built[key] = None
            else:
                built[key] = die, tuple(map(render_scalar, die.probs))
        return built[key]

    def assign(idx, remaining, polys):
        if idx == len(entries):
            slots = [die_of(p, k) for p, k in zip(polys, ks)]
            if None in slots:
                return
            dice, rendered = zip(*slots)
            sack = Sack(dice)
            if dedupe:
                key = sack.canonical_key()
                if key in seen:
                    return
                seen.add(key)
            results.append((rendered, sack))
            return
        factor, mult = entries[idx]
        key = mult, tuple(r // factor.degree for r in remaining)
        if key not in comps:
            comps[key] = tuple(_compositions(*key))
        for comp in comps[key]:
            new_remaining = [r - c * factor.degree for r, c in zip(remaining, comp)]
            new_polys = [mul(p, powers[idx][c]) if c else p
                         for p, c in zip(polys, comp)]
            assign(idx + 1, new_remaining, new_polys)

    assign(0, caps, [[1]] * len(ks))
    results.sort(key=lambda r: r[0])
    sacks = [sack for _, sack in results]
    total = parts_to_total(sacks[0]) if sacks else None
    return [_with_total(sack, total) for sack in sacks]


def total_is_squarefree(total: DistPoly) -> bool:
    """Exact gcd(f, f') = 1 test; only defined for rational totals, and a
    cyclotomic total raises ValueError before any work.  The gcd, a
    primitive remainder sequence over Z, starts from the total's stored
    integer numerators: a monic gcd over Q does not depend on their
    scale."""
    if total._ints is None:
        raise ValueError("the squarefree test needs a rational total")
    f = poly_trim(total._ints[0])
    fp = [i * c for i, c in enumerate(f)][1:] or [0]
    return len(poly_gcd(f, fp)) == 1


# -- coins -------------------------------------------------------------------

def _fraction_sqrt(q: Fraction):
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _head_polynomial(coeffs) -> list:
    # p^n f(1 - 1/p) = sum_t f_t p^(n-t) (p - 1)^t, constant first, monic
    # as f sums to 1; a coin's (1 - h) + h x is (p - h)/p at x = 1 - 1/p.
    # Horner: acc <- acc (p - 1) + f_t p^(n-t), t = n-1 .. 0.
    f = [Fraction(c) for c in coeffs]
    acc = [f[-1]]
    for c in reversed(f[:-1]):
        acc = [-acc[0], *(a - b for a, b in zip(acc, acc[1:])), acc[-1] + c]
    return acc


@dataclass(frozen=True)
class CoinPairSolutions:
    pairs: tuple  # of (p, q) head-probability pairs
    discriminant: Fraction


def coin_pair_solve(f: DistPoly) -> CoinPairSolutions:
    """Head probabilities of two coins with total distribution f = (r, s, t).

    They are the roots of the head polynomial p^2 - (s + 2t)p + t, of
    discriminant s^2 - 4rt; the two roots are swapped when the coins are.
    """
    if len(f.coeffs) != 3:
        raise DegenerateTotal("a pair of coins has a length-3 total")
    c0, c1, one = _head_polynomial(f.coeffs)
    disc = c1 * c1 - 4 * c0
    root = _fraction_sqrt(disc)
    if root is None:
        raise IrrationalDiscriminant((c0, c1, one))
    p1 = (root - c1) / 2
    p2 = (-root - c1) / 2
    pairs = ((p1, p2),) if p1 == p2 else ((p1, p2), (p2, p1))
    return CoinPairSolutions(pairs, disc)


# The largest cleared constant or leading numerator whose divisors
# _rational_roots lists; trial division then takes at most about 10**6 steps.
_ROOT_SEARCH_LIMIT = 10 ** 12


def _rational_roots(p):
    # The rational roots (with multiplicity) of a monic Fraction polynomial,
    # and the monic residual carrying the others, None when it is 1.
    roots = []
    while len(p) > 1 and p[0] == 0:
        roots.append(Fraction(0))
        p = p[1:]
    while len(p) > 1:
        denom = math.lcm(*(c.denominator for c in p))
        ends = [abs(int(c * denom)) for c in (p[0], p[-1])]
        if max(ends) > _ROOT_SEARCH_LIMIT:
            raise DegenerateTotal("the rational-root search is refused above "
                                  f"{_ROOT_SEARCH_LIMIT}, got {max(ends)}")
        tops, bottoms = map(divisors, ends)
        candidates = (Fraction(sign * num, den)
                      for num in tops for den in bottoms
                      if math.gcd(num, den) == 1 for sign in (1, -1))
        for x in candidates:
            # synthetic division: the last value is p(x); when it is 0 the
            # others are the quotient p(t) / (t - x), leading term first
            *quotient, value = itertools.accumulate(
                reversed(p), lambda acc, c: acc * x + c)
            if value == 0:
                roots.append(x)
                p = quotient[::-1]
                break
        else:
            break
    return tuple(sorted(roots)), (tuple(p) if len(p) > 1 else None)


@dataclass(frozen=True)
class CoinParts:
    """Head probabilities recovered from a coin-sack total.

    ``roots`` lists the rational head probabilities with multiplicity;
    ``residual`` is the monic polynomial carrying any irrational ones, or
    None when the probabilities split completely over Q.
    """

    roots: tuple
    residual: tuple | None
    polynomial: tuple


def coins_parts_from_total(f: DistPoly, n: int) -> CoinParts:
    """Recover the multiset of head probabilities of n coins from the total.

    Forms the head polynomial prod(p - h_j) = p^n f(1 - 1/p) and reads off
    its rational roots by trial division of the constant and leading
    numerators cleared of denominators.  A count n that is not an int, a
    bool included, raises DegenerateTotal, and so does a cleared numerator
    above ``_ROOT_SEARCH_LIMIT`` = 10**12, checked before each search.
    """
    if type(n) is not int:
        raise DegenerateTotal(f"a coin count must be an int, not {n!r}")
    if len(f.coeffs) != n + 1:
        raise DegenerateTotal("a total of n coins has length n+1")
    poly = _head_polynomial(f.coeffs)
    return CoinParts(*_rational_roots(poly), tuple(poly))


def coin_die_elimination(f: DistPoly):
    """Monic degree-k polynomial whose roots are the coin head probabilities
    in the fiber of type (2, k) over f: the head polynomial
    p^k f(1 - 1/p), coefficients constant-first."""
    if len(f.coeffs) < 3:
        raise DegenerateTotal("a coin and a die have a total of length >= 3")
    return _head_polynomial(f.coeffs)
