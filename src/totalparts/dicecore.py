"""Dice, sacks, distribution polynomials, and the forward part-to-total map.

A die of order k is a vector of k (pseudo)probabilities summing to 1; entries
are exact ``Fraction`` or ``CycElem`` scalars, never floats.  A sack is an
ordered list of dice.  The total distribution of a sack is the coefficient
vector of the product of the dice's distribution polynomials, padded to
length T+1 where T = sum(k_j - 1).

Polynomials are plain coefficient lists/tuples, constant term first.  Dice
may carry trailing zero probabilities: the order is declared, not inferred
from the degree.  Every scalar a die, a total or a factor stores passes
``exactnum.as_scalar``, which keeps one form: a ``Fraction`` for each
rational value and a ``CycElem`` only for an irrational one.

:func:`poly_mul` is the one product of coefficient lists.  It takes any
number of them, so a product of several factors, the forward map's
included, is one call.  A rational polynomial is multiplied, summed and
normalized as integer numerators over one positive denominator, and
``Fraction``s are built only for the result.  Every other list, all ints
or holding a ``CycElem``, goes straight to ``exactnum._conv_ints``, which
asks of an entry only that it be false exactly at zero.  Lists of ints stay
in Z[x], so a caller that normalizes at the end can carry bare integer
numerators: normalizing divides by the coefficient sum, and the denominator
cancels.  How a ``CycElem`` stores its coordinates is known only to
``exactnum``.  Every list helper checks each entry by :func:`as_scalar`'s
rule before it picks a path, so a bool or a float raises ``TypeError``
wherever it stands, as in a ``Die``.

A die built from roots of unity, prod (x - zeta_n^e) * (x+1)^x1, comes from
:func:`root_product`.  It holds each coefficient as an integer vector over
Z[zeta_n]/(zeta^n - 1), where multiplying by x - zeta^e is one rotation and
one subtraction, and reduces each coefficient mod Phi_n once at the end.
It stays apart from :func:`poly_mul`, each being the faster on its input:
one kernel for both kept pace with it on the census's linear factors but
took 1.8 times as long as :func:`poly_mul` on the dense (7, 12) sacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (CycElem, _conv_ints, _fractions, _numerators, as_scalar,
                       cyc_sign)


class ZeroSum(ArithmeticError):
    """Raised when a polynomial with coefficient sum zero is normalized."""


# -- scalar helpers ----------------------------------------------------------

def render_scalar(x) -> str:
    if isinstance(x, CycElem):
        return x.render()
    return str(x)


def scalar_to_json(x):
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return render_scalar(x)
    return {"conductor": x.n, "coords": [render_scalar(c) for c in x.coords]}


def _rational_from_json(obj) -> Fraction:
    # a JSON string such as "-1/6" or an integer; floats and booleans are
    # refused
    if isinstance(obj, str) or (isinstance(obj, int)
                                and not isinstance(obj, bool)):
        return Fraction(obj)
    raise ValueError(f"cannot parse a rational from {obj!r}")


def _json_shaped(obj, kind: type, what: str):
    """obj if it is a JSON object (kind dict), list (kind list) or integer
    (kind int, booleans refused), else a ValueError naming what it should
    have been."""
    if not isinstance(obj, kind) or isinstance(obj, bool):
        shape = {dict: "an object", list: "a list", int: "an integer"}[kind]
        raise ValueError(f"{what} must be {shape}, not {obj!r}")
    return obj


def scalar_from_json(obj):
    """A rational, or {"conductor": n, "coords": [...]} for Q(zeta_n)."""
    if isinstance(obj, dict):
        coords = _json_shaped(obj["coords"], list, "coords")
        return as_scalar(CycElem(obj["conductor"],
                                 [_rational_from_json(c) for c in coords]))
    return _rational_from_json(obj)


# -- polynomial helpers ------------------------------------------------------

def _rational_ints(p):
    """(nums, den) with p[i] == nums[i] / den and den the least common
    positive denominator, or None when p holds a CycElem.  An entry that
    :func:`as_scalar` refuses raises TypeError wherever it stands."""
    cyclotomic = False
    for c in p:
        if type(c) is not int and type(c) is not Fraction:
            as_scalar(c)  # refuses a bool or a float
            cyclotomic |= isinstance(c, CycElem)
    return None if cyclotomic else _numerators(p)


def _conv_all(lists) -> list:
    # The product of lists: one _conv_ints per list after the first.
    if len(lists) < 2:
        return list(lists[0]) if lists else [1]
    out = lists[0]
    for xs in lists[1:]:
        out = _conv_ints(out, xs)
    return out


def poly_mul(*polys):
    """Product of any number of coefficient lists; no list gives [1].

    Lists of ints multiply in Z[x] and give ints.  With a CycElem entry the
    same product starts from [Fraction(1)], so each position a term reaches
    holds a Fraction or a CycElem, and the rest, int 0s, become Fraction(0).
    Other rational lists multiply as integer numerators over one
    denominator, with Fractions built once for the result.
    """
    if all(type(c) is int for p in polys for c in p):
        return _conv_all(polys)
    parts = [_rational_ints(p) for p in polys]
    if None in parts:
        return [Fraction(0) if type(c) is int else c
                for c in _conv_all([[Fraction(1)], *polys])]
    nums = _conv_all([xs for xs, _ in parts])
    return list(_fractions(nums, math.prod(d for _, d in parts)))


def root_product(n: int, exponents, x1_count: int = 0):
    """Exact coefficients of prod_e (x - zeta_n^e) * (x+1)^x1_count, constant
    term first, as Fractions or elements of Q(zeta_n)."""
    zero = [0] * n
    poly = [[1] + [0] * (n - 1)]
    for e in exponents:
        cut = n - e % n  # zeta^e * v is the rotation v[cut:] + v[:cut]
        padded = [zero] + poly + [zero]
        poly = [[a - b for a, b in zip(lower, high[cut:] + high[:cut])]
                for lower, high in zip(padded, padded[1:])]
    for _ in range(x1_count):
        padded = [zero] + poly + [zero]
        poly = [[a + b for a, b in zip(lower, high)]
                for lower, high in zip(padded, padded[1:])]
    return [as_scalar(CycElem.from_power_basis(n, c)) for c in poly]


def _sums_to_one(p) -> bool:
    # the exact test sum(p) == 1, on integer numerators when p is rational
    ints = _rational_ints(p)
    return sum(p) == 1 if ints is None else sum(ints[0]) == ints[1]


def poly_trim(p):
    p = list(p)
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _poly_divmod(num, den):
    # Schoolbook long division over the field of the coefficients: (q, r)
    # with num = q * den + r, r trimmed; den is trimmed and nonzero.
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    lead_inv = 1 / lead
    q = [Fraction(0)] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * lead_inv
        q[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] = num[i - dd + j] - c * dj
    return q, poly_trim(num[:dd] or [Fraction(0)])


def poly_gcd(a, b):
    """Monic gcd over Q; used for exact squarefreeness tests."""
    a = [Fraction(c) for c in poly_trim(a)]
    b = [Fraction(c) for c in poly_trim(b)]
    while not (len(b) == 1 and b[0] == 0):
        a, b = b, _poly_divmod(a, b)[1]
    if a[-1] != 0:
        a = [c / a[-1] for c in a]
    return a


# -- core types --------------------------------------------------------------

@dataclass(frozen=True)
class Die:
    """A die of order k: probability vector of length k summing to 1."""

    probs: tuple

    def __post_init__(self):
        probs = tuple(map(as_scalar, self.probs))
        if len(probs) < 2:
            raise ValueError("a die needs order at least 2")
        if not _sums_to_one(probs):
            raise ValueError("die probabilities must sum to 1 exactly")
        object.__setattr__(self, "probs", probs)

    @property
    def order(self) -> int:
        return len(self.probs)

    def reverse(self) -> "Die":
        return Die(self.probs[::-1])

    def is_real(self) -> bool:
        return all(not isinstance(p, CycElem) or p.is_real() for p in self.probs)

    def is_strict(self) -> bool:
        """Real with every entry certified >= 0."""
        if not self.is_real():
            return False
        return all(cyc_sign(p).sign >= 0 for p in self.probs)

    def is_fair(self) -> bool:
        k = self.order
        return all(p == Fraction(1, k) for p in self.probs)

    def is_palindromic(self) -> bool:
        return self.probs == self.probs[::-1]

    @staticmethod
    def fair(k: int) -> "Die":
        return Die((Fraction(1, k),) * k)

    def to_json(self) -> dict:
        return {"order": self.order, "probs": [scalar_to_json(p) for p in self.probs]}

    @staticmethod
    def from_json(obj: dict) -> "Die":
        obj = _json_shaped(obj, dict, "a die")
        probs = [scalar_from_json(p)
                 for p in _json_shaped(obj["probs"], list, "probs")]
        order = obj.get("order", len(probs))
        if order != len(probs):
            raise ValueError("declared order does not match probability count")
        return Die(tuple(probs))


@dataclass(frozen=True)
class Sack:
    """An ordered, nonempty list of dice."""

    dice: tuple

    def __post_init__(self):
        if not self.dice:
            raise ValueError("a sack needs at least one die")
        object.__setattr__(self, "dice", tuple(self.dice))

    @property
    def type_vector(self) -> tuple[int, ...]:
        return tuple(d.order for d in self.dice)

    @property
    def T(self) -> int:
        return sum(k - 1 for k in self.type_vector)

    def reverse(self) -> "Sack":
        return Sack(tuple(d.reverse() for d in self.dice))

    def is_strict(self) -> bool:
        return all(d.is_strict() for d in self.dice)

    def is_fair(self) -> bool:
        return all(d.is_fair() for d in self.dice)

    def to_json(self) -> dict:
        return {"dice": [d.to_json() for d in self.dice]}

    @staticmethod
    def from_json(obj: dict) -> "Sack":
        obj = _json_shaped(obj, dict, "a sack")
        return Sack(tuple(Die.from_json(d)
                          for d in _json_shaped(obj["dice"], list, "dice")))

    def canonical_key(self):
        return tuple(tuple(d.probs) for d in self.dice)


@dataclass(frozen=True)
class DistPoly:
    """A total distribution: coefficient vector f_0..f_T summing to 1."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(map(as_scalar, self.coeffs))
        if not _sums_to_one(coeffs):
            raise ValueError("total distribution must sum to 1 exactly")
        object.__setattr__(self, "coeffs", coeffs)

    def reverse(self) -> "DistPoly":
        return DistPoly(self.coeffs[::-1])

    def is_palindromic(self) -> bool:
        return self.coeffs == self.coeffs[::-1]

    def to_json(self) -> list:
        return [scalar_to_json(c) for c in self.coeffs]

    @staticmethod
    def from_json(obj) -> "DistPoly":
        return DistPoly(tuple(scalar_from_json(c)
                              for c in _json_shaped(obj, list, "a total")))


# -- operations --------------------------------------------------------------

def parts_to_total(sack: Sack) -> DistPoly:
    """Total distribution of a sack: the product of its dice polynomials."""
    prod = poly_mul(*(die.probs for die in sack.dice))
    prod += [Fraction(0)] * (sack.T + 1 - len(prod))
    return DistPoly(tuple(prod))


def normalize_poly(p):
    """The coefficients of p scaled to sum 1.  Raises ZeroSum when the sum
    is 0.

    With p = ys/D on integer numerators, p/sum(p) = ys/sum(ys): the
    denominator cancels.  Over Q(zeta_n) each coefficient is multiplied by
    1/sum(p), the Galois norm quotient of ``CycElem.inverse``, so a die
    costs one inversion and one integer product per coefficient.
    """
    ints = _rational_ints(p)
    total = sum(p) if ints is None else sum(ints[0])
    if not total:
        raise ZeroSum("coefficient sum is exactly zero")
    if ints is not None:
        return [Fraction(a, total) for a in ints[0]]
    inv = 1 / total
    return [as_scalar(c * inv) for c in p]


def normalize_to_die(p, order: int | None = None) -> Die:
    """The die obtained by scaling p to coefficient sum 1.

    ``order`` pads with trailing zeros; it defaults to max(len(p), 2).
    """
    coeffs = normalize_poly(p)
    k = order if order is not None else max(len(coeffs), 2)
    if len(coeffs) > k:
        coeffs = poly_trim(coeffs)
        if len(coeffs) > k:
            raise ValueError(f"polynomial degree too high for order {k}")
    coeffs = list(coeffs) + [Fraction(0)] * (k - len(coeffs))
    return Die(tuple(coeffs))


def normalize_pair(p, q) -> tuple[Die, Die]:
    """The dice p/p(1) and q/q(1) of two products with p*q = psi_k * psi_k',
    where k = len(p) and k' = len(q), with no inverse taken.

    p(1) q(1) = psi_k(1) psi_k'(1) = k k', so 1/p(1) = q(1)/(k k'): each
    die is its product times the other's coefficient sum over k k', one
    product per coefficient.  Each sum is taken over :func:`as_scalar` of
    the entries, so it is exact and a bool or a float is refused.  Die's
    exact check that the probabilities sum to 1 certifies the premise.
    """
    kk = len(p) * len(q)
    return tuple(Die(tuple(c * scale for c in poly))
                 for poly, scale in ((p, sum(map(as_scalar, q)) / kk),
                                     (q, sum(map(as_scalar, p)) / kk)))


def psi(k: int):
    """The fair-die numerator polynomial 1 + x + ... + x^(k-1)."""
    return [Fraction(1)] * k


def fair_total(sack_type):
    """The fair total polynomial prod (1/k_j) psi_{k_j} for the given type."""
    return poly_mul(*([Fraction(1, k)] * k for k in sack_type))
