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
included, is one call.  Lists of ints stay in Z[x], so a caller that
normalizes at the end can carry bare integer numerators: normalizing
divides by the coefficient sum, and the denominator cancels.  Every other
list, rational or holding a ``CycElem``, is multiplied by the same
schoolbook loop, ``exactnum._conv_ints``, starting from ``[Fraction(1)]``;
the loop asks of an entry only that it be false exactly at zero.  Every
list helper checks each entry by :func:`as_scalar`'s rule first, so a bool
or a float raises ``TypeError`` wherever it stands, as in a ``Die``.

Integer numerators live in the typed path.  A rational :class:`Die` or
:class:`DistPoly` keeps them from construction on, as a private pair
``_ints`` = (nums, den), den > 0 the least common denominator; it is
``None`` for a cyclotomic one.  Each class checks the sum to 1 on those
integers, and has one private constructor ``_from_ints`` that builds its
``Fraction``s once from a pair: :func:`normalize_to_die`, the one
normalizer, makes a die straight from a rational list's numerators,
:func:`parts_to_total` convolves the stored numerators of rational dice,
and craps reads the total's pair.  No rational die or total converts its
scalars again.  How a ``CycElem`` stores its coordinates is known only to
``exactnum``.

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
from dataclasses import dataclass, field
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

    Lists of ints multiply in Z[x] and give ints.  Any other product, of
    rational lists or of lists with a CycElem entry, starts from
    [Fraction(1)], so each position a term reaches holds a Fraction or a
    CycElem, and the rest, int 0s, become Fraction(0).
    """
    if all(type(c) is int for p in polys for c in p):
        return _conv_all(polys)
    for p in polys:
        for c in p:
            as_scalar(c)  # refuses a bool or a float wherever it stands
    return [Fraction(0) if type(c) is int else c
            for c in _conv_all([[Fraction(1)], *polys])]


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

def _set_sum_one(self, name: str, what: str, values, ints):
    # self with field name set to values and _ints to their pair ints =
    # (nums, den), None for a cyclotomic list, after the exact check that
    # they sum to 1, on the integers when ints is given.  With values None
    # the Fractions are built once from the pair.
    if ints is not None:
        ints = tuple(ints[0]), ints[1]
    if sum(values) != 1 if ints is None else sum(ints[0]) != ints[1]:
        raise ValueError(f"{what} must sum to 1 exactly")
    object.__setattr__(self, name,
                       _fractions(*ints) if values is None else values)
    object.__setattr__(self, "_ints", ints)
    return self


@dataclass(frozen=True)
class Die:
    """A die of order k: probability vector of length k summing to 1."""

    probs: tuple
    # (nums, den) with probs == nums/den, None for a cyclotomic die
    _ints: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = tuple(map(as_scalar, self.probs))
        if len(probs) < 2:
            raise ValueError("a die needs order at least 2")
        _set_sum_one(self, "probs", "die probabilities", probs,
                     _rational_ints(probs))

    @classmethod
    def _from_ints(cls, nums, den: int) -> "Die":
        # The die nums/den, den > 0 and gcd(nums) = 1, checked on the integers.
        if len(nums) < 2:
            raise ValueError("a die needs order at least 2")
        return _set_sum_one(object.__new__(cls), "probs",
                            "die probabilities", None, (nums, den))

    @property
    def order(self) -> int:
        return len(self.probs)

    def reverse(self) -> "Die":
        return Die(self.probs[::-1])

    def is_real(self) -> bool:
        return self._ints is not None or all(
            not isinstance(p, CycElem) or p.is_real() for p in self.probs)

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
    # (nums, den) with coeffs == nums/den, None for a cyclotomic total
    _ints: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(map(as_scalar, self.coeffs))
        _set_sum_one(self, "coeffs", "total distribution", coeffs,
                     _rational_ints(coeffs))

    @classmethod
    def _from_ints(cls, nums, den: int) -> "DistPoly":
        # The total nums/den, den > 0 and gcd(nums) = 1, checked on the
        # integers.
        return _set_sum_one(object.__new__(cls), "coeffs",
                            "total distribution", None, (nums, den))

    def to_json(self) -> list:
        return [scalar_to_json(c) for c in self.coeffs]

    @staticmethod
    def from_json(obj) -> "DistPoly":
        return DistPoly(tuple(scalar_from_json(c)
                              for c in _json_shaped(obj, list, "a total")))


# -- operations --------------------------------------------------------------

def parts_to_total(sack: Sack) -> DistPoly:
    """Total distribution of a sack: the product of its dice polynomials,
    of length T + 1 as each die's has length k.  Rational dice multiply
    their stored numerators, over the product of their denominators."""
    pairs = [die._ints for die in sack.dice]
    if None in pairs:
        return DistPoly(tuple(poly_mul(*(die.probs for die in sack.dice))))
    return DistPoly._from_ints(_conv_all([xs for xs, _ in pairs]),
                               math.prod(d for _, d in pairs))


def normalize_to_die(p, order: int | None = None) -> Die:
    """The die obtained by scaling p to coefficient sum 1.  Raises ZeroSum
    when the sum is 0.

    ``order`` pads with trailing zeros; it defaults to max(len(p), 2).  A
    rational p = nums/D gives the die nums/sum(nums): the denominator
    cancels, and no ``Fraction`` is built but the die's own.  Over
    Q(zeta_n) each coefficient is multiplied by 1/sum(p), the Galois norm
    quotient of ``CycElem.inverse``, so a die costs one inversion and one
    integer product per coefficient.
    """
    ints = _rational_ints(p)
    total = sum(p if ints is None else ints[0])
    if not total:
        raise ZeroSum("coefficient sum is exactly zero")
    if ints is None:
        inv = 1 / total
        coeffs, den = [as_scalar(c * inv) for c in p], None
    else:
        # den > 0 and gcd(coeffs) = 1: den is the least common denominator
        g = math.gcd(*ints[0]) if total > 0 else -math.gcd(*ints[0])
        coeffs, den = [a // g for a in ints[0]], total // g
    k = order if order is not None else max(len(coeffs), 2)
    if len(coeffs) > k:
        coeffs = poly_trim(coeffs)
        if len(coeffs) > k:
            raise ValueError(f"polynomial degree too high for order {k}")
    if den is None:
        return Die((*coeffs, *[Fraction(0)] * (k - len(coeffs))))
    return Die._from_ints((*coeffs, *[0] * (k - len(coeffs))), den)


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
