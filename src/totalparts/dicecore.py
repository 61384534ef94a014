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

A product of roots of unity, prod (x - zeta_n^e) * (x+1)^x1, is one ring
pass: a numpy array with one row per coefficient in x, each row an integer
n-vector over Z[x]/(x^n - 1).  Multiplying by x - zeta^e is one rotation,
by slicing, and one subtraction; by x + 1, one shift and one addition.  One
matrix product against the table of x^i mod Phi_n then reduces every
coefficient at once (``exactnum.ring_scalars``).  The array is int64 where
``exactnum.ring_dtype`` proves every entry fits and Python ints otherwise,
on the same code.  :func:`root_product` starts the pass from 1.
:func:`root_pair` builds the two dice of a pair whose products multiply to
psi_k * psi_k': each die's pass starts from its partner's value at 1 and
is divided once by k*k', so no inverse is taken.  The pass stays apart
from :func:`poly_mul`, which multiplies dense coefficient lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import (CycElem, _conv_ints, _fractions, _numerators, as_scalar,
                       cyc_sign, ring_dtype, ring_scalars)


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
    return {"conductor": x.n, "coords": x.coord_strings()}


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


def _ring_factors(exponents, x1_count) -> list[int]:
    # The exponents as a list, once every exponent is an int and x1_count
    # an int >= 0, a bool refused as in CycElem.zeta; before any work.
    exponents = list(exponents)
    for e in exponents:
        if type(e) is not int:
            raise ValueError(f"exponent must be an integer, not {e!r}")
    if type(x1_count) is not int or x1_count < 0:
        raise ValueError(
            f"x1_count must be an integer >= 0, not {x1_count!r}")
    return exponents


def _ring_pass(n: int, exponents, x1_count: int, partner, partner_x1: int,
               den: int) -> list:
    # The scalars of c * prod_e (x - zeta_n^e) * (x+1)^x1_count / den, where
    # c = prod_{e in partner} (1 - zeta^e) * 2^partner_x1 is the partner's
    # value at 1 (1 for no partner).  One numpy array over Z[x]/(x^n - 1),
    # one row per coefficient in x, constant term first: x shifts the rows
    # down by one, and zeta^e * v is the rotation v[cut:] + v[:cut].  The
    # dtype is proven for all the linear factors of both.  numpy is imported
    # here, not with this module, as in exactnum._power_table.
    import numpy as np
    poly = np.zeros((1, n), ring_dtype(n, len(exponents) + x1_count
                                       + len(partner) + partner_x1))
    poly[0, 0] = 1
    for e in partner:
        cut = n - e % n
        poly = poly - np.concatenate((poly[:, cut:], poly[:, :cut]), axis=1)
    poly = poly * 2 ** partner_x1
    for e in exponents:
        cut = n - e % n
        out = np.zeros((len(poly) + 1, n), poly.dtype)
        out[1:] = poly
        out[:-1] -= np.concatenate((poly[:, cut:], poly[:, :cut]), axis=1)
        poly = out
    for _ in range(x1_count):
        out = np.zeros((len(poly) + 1, n), poly.dtype)
        out[1:] = poly
        out[:-1] += poly
        poly = out
    return ring_scalars(poly, n, den)


def root_product(n: int, exponents, x1_count: int = 0):
    """Exact coefficients of prod_e (x - zeta_n^e) * (x+1)^x1_count, constant
    term first, as Fractions or elements of Q(zeta_n).

    The ring pass started from 1, in the dtype :func:`exactnum.ring_dtype`
    proves exact for its len(exponents) + x1_count factors.  An exponent
    that is not an int, or an x1_count that is not an int >= 0, a bool
    included, raises ValueError before any work.
    """
    return _ring_pass(n, _ring_factors(exponents, x1_count), x1_count,
                      (), 0, 1)


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


def root_pair(n: int, exps_p, x1_p: int, exps_q,
              x1_q: int) -> tuple[Die, Die]:
    """The dice p/p(1) and q/q(1) of the root products
    p = prod_{e in exps_p} (x - zeta_n^e) * (x+1)^x1_p and q likewise, of
    orders k = deg p + 1 and k' = deg q + 1, when p*q = psi_k * psi_k'.

    p(1) q(1) = psi_k(1) psi_k'(1) = k k', so p/p(1) = p q(1)/(k k'): each
    die's ring pass starts from its partner's value at 1,
    prod (1 - zeta^e) * 2^x1, and is divided once by k k', with no
    inverse.  Die's exact check that the probabilities sum to 1 certifies
    the premise.  The two passes apply all L = (k - 1) + (k' - 1) linear
    factors of both dice to 1, so :func:`exactnum.ring_dtype` chooses
    their dtype for L.  Exponents and counts are checked as in
    :func:`root_product`.
    """
    exps_p, exps_q = _ring_factors(exps_p, x1_p), _ring_factors(exps_q, x1_q)
    kk = (len(exps_p) + x1_p + 1) * (len(exps_q) + x1_q + 1)
    return (Die(tuple(_ring_pass(n, exps_p, x1_p, exps_q, x1_q, kk))),
            Die(tuple(_ring_pass(n, exps_q, x1_q, exps_p, x1_p, kk))))


def psi(k: int):
    """The fair-die numerator polynomial 1 + x + ... + x^(k-1)."""
    return [Fraction(1)] * k


def fair_total(sack_type):
    """The fair total polynomial prod (1/k_j) psi_{k_j} for the given type."""
    return poly_mul(*([Fraction(1, k)] * k for k in sack_type))
