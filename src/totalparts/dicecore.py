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
scalars again.  A die of :func:`root_pairs` has one more private
constructor, ``Die._from_ring``, which takes ``exactnum.ring_scalars``'
scalars, their exact sum and, for a rational die, their pair as they
come.  These constructors live here alone, as does
:func:`_with_total`, the one writer of a :class:`Sack`'s stored total:
a fiber's members share their one total, and :func:`parts_to_total`
returns it.  How a ``CycElem`` stores its coordinates is known only to
``exactnum``.

A product of roots of unity, prod (x - zeta_n^e), is one ring pass: a
numpy array with one row per coefficient in x, each row an integer
n-vector over Z[x]/(x^n - 1).  A die is its list of exponents e; x + 1 is
the root zeta_n^(n/2) of an even n, so it is one more exponent.
Multiplying by x - zeta^e is one rotation and one subtraction.  The passes
of one call that share a shape are one stack, dice x rows x n, and each step
takes every die's rotation in one gather, from the stack concatenated with
itself.  One matrix product against the table of x^i mod Phi_n then
reduces every coefficient of the stack at once, and one ``np.gcd`` pass
gives every stored form (``exactnum.ring_scalars``).  A stack is int64
where ``exactnum.ring_dtype`` proves every entry fits and Python ints
otherwise, on the same code, and holds at most ``_RING_ELEMENTS`` entries
(one die at least).  :func:`root_products` starts each pass from 1.
:func:`root_pairs` builds the two dice of each pair whose products
multiply to psi_k * psi_k': each die's pass starts from its partner's
value at 1 and is divided once by k*k', so no inverse is taken, and each
die's sum, read off the column sums of its reduced rows, certifies the
premise that the two products multiply to psi_k * psi_k'.  The pass stays
apart from :func:`poly_mul`, which multiplies dense coefficient lists.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import (CycElem, _conv_ints, _fraction, _fractions, _numerators,
                       as_scalar, cyc_sign, ring_dtype, ring_scalars)


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


def _json_field(obj: dict, key: str, what: str, kind: type | None = None):
    """obj[key], shaped by :func:`_json_shaped` when kind is given; a
    missing key is a ValueError naming the field and what lacks it."""
    if key not in obj:
        raise ValueError(f"{what} needs a {key!r} field")
    return obj[key] if kind is None else _json_shaped(obj[key], kind, key)


def _integers(values, what: str) -> list:
    # values as a list once each is an int, or ValueError "{what}, not v"
    # for the first that is not, a bool or a float included: the one gate
    # of exponents, sack types, orders and worker counts, before any work.
    values = list(values)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what}, not {v!r}")
    return values


def check_workers(workers: int) -> None:
    """Refuse a worker count that is not an int, a bool or a float
    included, or lies outside [1, os.cpu_count()], with ValueError."""
    _integers((workers,), "workers must be an integer")
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"workers must lie in [1, {cpus}], got {workers}")


def scalar_from_json(obj):
    """A rational, or {"conductor": n, "coords": [...]} for Q(zeta_n)."""
    if isinstance(obj, dict):
        what = "a cyclotomic scalar"
        coords = _json_field(obj, "coords", what, list)
        return as_scalar(CycElem(_json_field(obj, "conductor", what),
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


# The element budget of one stacked ring pass: the dice of one shape are
# built in stacks of at most this many array entries (one die at least).
_RING_ELEMENTS = 1 << 16


def _ring_passes(n: int, passes) -> list[tuple[list, object, tuple | None]]:
    # exactnum.ring_scalars' (scalars, total, ints) of each pass
    # (exponents, partner, den), in order: the die c * prod_e (x - zeta_n^e)
    # / den, where c = prod_{e in partner} (1 - zeta^e) is the partner's
    # value at 1 (1 for no partner).  The passes of one shape (the two
    # counts and den) are stacks of at most _RING_ELEMENTS entries, each a
    # numpy array over Z[x]/(x^n - 1), dice x rows x n, one row per
    # coefficient in x, constant term first: x shifts the rows down by
    # one, and zeta^e * v is v[(j - e) mod n], the window of length n at
    # (-e) mod n along v concatenated with itself, so one gather per factor
    # takes every die's own rotation from one view of every window; a step
    # calls only numpy's C entry points.  The dtype is proven for all the
    # linear factors of both dice.  numpy is imported here, by the package
    # rule (see totalparts/__init__.py).
    import numpy as np

    def rotated(poly, cuts):
        # die b's rows, each its window cuts[b] along the doubled rows, read
        # through a view of every window: the doubled array's buffer with
        # its last stride repeated, made by the ndarray constructor (for
        # int64 and object stacks alike) and only read by the gather, whose
        # die indices each stack makes once
        doubled = np.concatenate((poly, poly), axis=2)
        strides = doubled.strides
        windows = np.ndarray((*poly.shape, n), doubled.dtype, buffer=doubled,
                             offset=0, strides=strides + strides[2:])
        return windows[dice, :, cuts]

    shapes = {}
    for i, (exps, partner, den) in enumerate(passes):
        shapes.setdefault((len(exps), len(partner), den), []).append(i)
    out = [None] * len(passes)
    for (m, pm, den), members in shapes.items():
        dtype = ring_dtype(n, m + pm)
        per_stack = max(1, _RING_ELEMENTS // ((m + 1) * n))
        for start in range(0, len(members), per_stack):
            stack = members[start:start + per_stack]
            dice = np.arange(len(stack))
            # each die's window (-e) mod n for each of its own factors and
            # its partner's, one column per factor (the passes of a stack
            # have one shape, so each array is dice x factors)
            own_cuts, partner_cuts = (np.array(
                [[-e % n for e in passes[i][j]] for i in stack], np.intp)
                for j in (0, 1))
            poly = np.zeros((len(stack), 1, n), dtype)
            poly[:, 0, 0] = 1
            for cut in partner_cuts.T:
                poly = poly - rotated(poly, cut)
            for cut in own_cuts.T:
                step = np.zeros((len(stack), poly.shape[1] + 1, n), dtype)
                step[:, 1:] = poly
                step[:, :-1] -= rotated(poly, cut)
                poly = step
            for i, scalars in zip(stack, ring_scalars(poly, n, den)):
                out[i] = scalars
    return out


def root_products(n: int, dice) -> list[list]:
    """Exact coefficients of prod_e (x - zeta_n^e) for each exponent list
    of ``dice``, constant term first, as Fractions or elements of
    Q(zeta_n); one list per entry, in order.  x + 1 is the root
    zeta_n^(n/2), at an even n.

    Every product is a ring pass started from 1, and the products with
    one exponent count are built in one stacked pass, in the dtype
    :func:`exactnum.ring_dtype` proves exact for their len(exponents)
    factors.  An exponent that is not an int, a bool included, raises
    ValueError before any work.
    """
    passes = [(_integers(exps, "exponent must be an integer"), (), 1)
              for exps in dice]
    return [scalars for scalars, _, _ in _ring_passes(n, passes)]


def poly_trim(p):
    p = list(p)
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _primitive(p):
    # p over its content, the gcd of its entries: a primitive int list, or
    # p itself when it is zero.
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _pseudo_remainder(a, b):
    # The remainder of lead(b)^(deg a - deg b + 1) * a by b, all in Z[x]:
    # each step scales a by lead(b) and subtracts the multiple of b that
    # clears its top entry, so no division is taken.  b is trimmed and
    # nonzero; the result is trimmed.
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        for j in range(i):
            a[j] *= lead
        if c:
            for j, bj in enumerate(b[:-1], i - db):
                a[j] -= c * bj
    return poly_trim(a[:db] or [0])


def poly_gcd(a, b):
    """Monic gcd over Q of two rational coefficient lists, as Fractions;
    used for exact squarefreeness tests.  gcd(0, 0) is [0].

    Euclid runs over Z, as the primitive pseudo-remainder sequence (Collins
    1967; Knuth, TAOCP vol. 2, 4.6.1).  Each argument is cleared to its
    integer numerators and divided by its content, the gcd of its entries.
    Then, while b is nonzero, (a, b) becomes (b, pp(prem(a, b))), where
    prem(a, b) = lead(b)^(deg a - deg b + 1) a - q b is the remainder of
    that multiple of a by b, an integer list, and pp divides by the
    content.  Only at the end is the last nonzero a made monic in
    Fractions.

    Why this is the gcd over Q.  Scaling by a nonzero rational changes no
    divisor in Q[x], so each step keeps the gcd: gcd(a, b) =
    gcd(b, lead(b)^d a - q b), and a primitive part is such a scaling.  So
    the last nonzero a is the gcd up to a unit of Q, and its monic form is
    the monic gcd.  By Gauss's lemma (a product of primitive polynomials is
    primitive) that primitive a is also the gcd in Z[x] of the arguments'
    primitive parts: the gcd over Z and the monic gcd over Q differ only by
    the leading coefficient.  Taking out each content is what keeps the
    integers from growing exponentially along the sequence, as they do in
    the plain pseudo-remainder sequence.
    """
    a = _primitive(poly_trim(_numerators(a)[0]))
    b = _primitive(poly_trim(_numerators(b)[0]))
    while b != [0]:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return [_fraction(c, a[-1]) for c in a] if a[-1] else [Fraction(0)]


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

    @classmethod
    def _from_ring(cls, probs, total, ints) -> "Die":
        # The die of exactnum.ring_scalars' (scalars, total, ints): the
        # scalars are in their one form already and total is their exact
        # sum, so no scalar is converted or added again.
        if len(probs) < 2:
            raise ValueError("a die needs order at least 2")
        if total != 1:
            raise ValueError("die probabilities must sum to 1 exactly")
        self = object.__new__(cls)
        object.__setattr__(self, "probs", tuple(probs))
        object.__setattr__(self, "_ints", ints)
        return self

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
                 for p in _json_field(obj, "probs", "a die", list)]
        order = _json_shaped(obj.get("order", len(probs)), int, "order")
        if order != len(probs):
            raise ValueError("declared order does not match probability count")
        return Die(tuple(probs))


@dataclass(frozen=True, init=False)
class Sack:
    """An ordered, nonempty list of dice; an entry that is not a
    :class:`Die` raises TypeError before anything else is checked."""

    dice: tuple
    # The sack's total when its builder vouched for it, set only by
    # _with_total; no dataclass field, so equality, hashing, repr, JSON and
    # dataclasses.replace never see it, and a sack without one stores
    # nothing.
    _total = None

    def __init__(self, dice):
        # written out, so the one field is set once
        dice = tuple(dice)
        for d in dice:
            if not isinstance(d, Die):
                raise TypeError(f"a sack holds dice, not {d!r}")
        if not dice:
            raise ValueError("a sack needs at least one die")
        object.__setattr__(self, "dice", dice)

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
                          for d in _json_field(obj, "dice", "a sack", list)))

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
    their stored numerators, over the product of their denominators.

    A member of :func:`fibers.enumerate_fiber` carries its fiber's one
    total, stored by :func:`_with_total`, and gets it back: it equals the
    total computed here.  The member's slot products p_j multiply to F,
    the product of the fiber's factor multiset, and its dice are
    p_j / p_j(1), so its total is F / F(1), the same for every member.
    Each coefficient's stored form is decided by its value
    (``as_scalar``), and for a rational total the pair ``_ints`` is unique
    too: each die's numerators are primitive, so by Gauss's lemma (a
    product of primitive polynomials is primitive) their product is, and
    the pair is the primitive numerators of F over their sum.  So the
    shared total equals a recomputed one in ``coeffs`` and ``_ints``
    (cyclotomic coefficients equal in value, ``_ints`` None on both).  A
    sack with no stored total is computed here, and nothing is written
    back.
    """
    if sack._total is not None:
        return sack._total
    pairs = [die._ints for die in sack.dice]
    if None in pairs:
        return DistPoly(tuple(poly_mul(*(die.probs for die in sack.dice))))
    return DistPoly._from_ints(_conv_all([xs for xs, _ in pairs]),
                               math.prod(d for _, d in pairs))


def _with_total(sack: Sack, total: DistPoly) -> Sack:
    # sack, carrying total as its stored total, which the caller vouches is
    # parts_to_total(sack); the one writer of a sack's total.
    object.__setattr__(sack, "_total", total)
    return sack


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


def root_pairs(n: int, pairs) -> list[tuple[Die, Die]]:
    """The dice (p/p(1), q/q(1)) of each (exps_p, exps_q) of ``pairs``, in
    order: the root products p = prod_{e in exps_p} (x - zeta_n^e) and q
    likewise, of orders k = deg p + 1 and k' = deg q + 1, when
    p*q = psi_k * psi_k'.

    p(1) q(1) = psi_k(1) psi_k'(1) = k k', so p/p(1) = p q(1)/(k k'): each
    die's ring pass starts from its partner's value at 1, prod (1 - zeta^e),
    and is divided once by k k', with no inverse.  The passes of every pair
    at conductor n are built together, one stacked pass per shape (the
    die's exponent count, its partner's and k k').  Each die's exact sum,
    taken by :func:`exactnum.ring_scalars` on the column sums of its
    reduced integer rows with no scalar added, certifies the premise: a die
    whose sum is not 1 raises ValueError, as ``Die(...)`` does.  The two
    passes of a pair apply all L = (k - 1) + (k' - 1) linear factors of
    both dice to 1, so :func:`exactnum.ring_dtype` chooses their dtype for
    L.  Exponents are checked as in :func:`root_products`, for every pair
    before any work.
    """
    passes = []
    for pair in pairs:
        exps_p, exps_q = (_integers(exps, "exponent must be an integer")
                          for exps in pair)
        kk = (len(exps_p) + 1) * (len(exps_q) + 1)
        passes += [(exps_p, exps_q, kk), (exps_q, exps_p, kk)]
    dice = [Die._from_ring(*die) for die in _ring_passes(n, passes)]
    return list(zip(dice[::2], dice[1::2]))


def psi(k: int):
    """The fair-die numerator polynomial 1 + x + ... + x^(k-1)."""
    return [Fraction(1)] * k


def _sack_type(sack_type) -> tuple:
    # The orders as a tuple, once every entry is an int >= 2; before any
    # work.
    ks = _integers(sack_type, "sack type entries must be integers")
    if not ks or min(ks) < 2:
        raise ValueError("sack type entries must be >= 2")
    return tuple(ks)


def fair_total(sack_type):
    """The fair total polynomial prod (1/k_j) psi_{k_j} for the given type,
    checked as :func:`fibers.fiber_degree` checks it."""
    return poly_mul(*([Fraction(1, k)] * k for k in _sack_type(sack_type)))
