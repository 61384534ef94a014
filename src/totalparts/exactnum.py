"""Exact scalars: rationals, cyclotomic field elements, and certified signs.

Rationals are plain ``fractions.Fraction`` (always in lowest terms, exact).
Elements of the cyclotomic field Q(zeta_n) are represented by the class
:class:`CycElem` as coordinate vectors of length phi(n) with respect to the
power basis 1, zeta, ..., zeta^(phi(n)-1) of Q[x]/Phi_n(x), where Phi_n is
the n-th cyclotomic polynomial and zeta = e^(2*pi*i/n).  Reduction mod Phi_n
is canonical, so two elements of the same conductor are equal iff their
coordinates are equal, and the exact-zero test is trivial.

The public coordinates are a tuple of ``Fraction``s, but products,
reduction mod Phi_n and power-basis folding run on integers: a coordinate
vector is split into integer numerators over one common positive
denominator, and since Phi_n is monic with integer coefficients the
schoolbook product and the reduction of those numerators stay in Z[zeta_n].
``Fraction``s are built once, for the reduced result; an integer input to
:meth:`CycElem.from_power_basis` never becomes a ``Fraction`` before that.

Sign determination for real elements (fixed by complex conjugation) first
tests for exact zero and otherwise evaluates the real embedding with interval
arithmetic at doubling precision until the interval excludes zero; the result
is wrapped in a :class:`SignCertificate`.  mpmath's interval precision is
process-global, so every change to it goes through :func:`iv_precision`.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import mpmath

DEFAULT_START_BITS = 128
PRECISION_CAP_BITS = 8192

_start_bits = DEFAULT_START_BITS

_iv_lock = threading.Lock()

_ZERO = Fraction(0)


def set_start_bits(bits: int) -> None:
    """Set the starting precision for interval sign determination."""
    global _start_bits
    if not 32 <= bits <= PRECISION_CAP_BITS:
        raise ValueError("start bits must lie in [32, cap]")
    _start_bits = bits


def get_start_bits() -> int:
    return _start_bits


class NotReal(ValueError):
    """Raised when a sign is requested for an element not fixed by conjugation."""


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@functools.lru_cache(maxsize=None)
def phi(n: int) -> int:
    """Euler's totient."""
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials with monic divisor.
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        q[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    assert all(c == 0 for c in num), "inexact cyclotomic division"
    return q


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the n-th cyclotomic polynomial Phi_n.

    Computed by the recursive division (x^n - 1) / prod_{d|n, d<n} Phi_d and
    cached per conductor.  The lru_cache gives safe concurrent read with
    one-time insertion.
    """
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n):
        if d < n:
            num = _int_poly_div_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


@functools.lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[tuple[int, int], ...]:
    # The nonzero (j, c_j) of Phi_n below its leading 1: x^phi(n) is
    # replaced by -sum c_j x^j.
    return tuple((j, c) for j, c in enumerate(cyclotomic_poly(n)[:-1]) if c)


def _numerators(coeffs) -> tuple[list[int], int]:
    # Integer numerators over the least common positive denominator; an
    # int has numerator itself and denominator 1, so no Fraction is built.
    den = math.lcm(*(c.denominator for c in coeffs))
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _fractions(nums, den: int) -> tuple[Fraction, ...]:
    if den == 1:
        return tuple(Fraction(a) if a else _ZERO for a in nums)
    return tuple(Fraction(a, den) if a else _ZERO for a in nums)


def _reduce_ints(c: list[int], n: int) -> list[int]:
    # Reduce an integer power-basis vector mod the monic Phi_n, in place;
    # the result has length phi(n).
    deg_phi = phi(n)
    tail = _phi_tail(n)
    for i in range(len(c) - 1, deg_phi - 1, -1):
        lead = c[i]
        if lead:
            base = i - deg_phi
            for j, mj in tail:
                c[base + j] -= lead * mj
    if len(c) < deg_phi:
        c.extend([0] * (deg_phi - len(c)))
    del c[deg_phi:]
    return c


def _reduce_mod_phi(coeffs, n: int) -> tuple[Fraction, ...]:
    # Reduce a power-basis coefficient list (int or Fraction entries,
    # exponents already < n) mod Phi_n.
    nums, den = _numerators(coeffs)
    return _fractions(_reduce_ints(nums, n), den)


@functools.lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


@functools.lru_cache(maxsize=None)
def _basis_traces(n: int) -> tuple[Fraction, ...]:
    # Trace of zeta_n^i over Q, divided by phi(n); this ratio is independent
    # of the conductor used to present the element, so it is safe to hash.
    out = []
    for i in range(phi(n)):
        g = math.gcd(i, n)
        m = n // g
        out.append(Fraction(_mobius(m), phi(m)))
    return tuple(out)


class CycElem:
    """An element of Q(zeta_n), immutable, with exact arithmetic.

    Mixed-conductor operations promote both operands to conductor
    lcm(n1, n2).  Conjugation (zeta -> zeta^-1) and inversion are exact.
    """

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) > phi(n):
            coords = _reduce_mod_phi(coords, n)
        else:
            coords = tuple(coords) + (Fraction(0),) * (phi(n) - len(coords))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", tuple(coords))

    def __setattr__(self, *a):
        raise AttributeError("CycElem is immutable")

    @classmethod
    def _canonical(cls, n: int, coords: tuple) -> "CycElem":
        # coords: a tuple of phi(n) Fractions, already reduced.
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", coords)
        return self

    @classmethod
    def _from_ints(cls, n: int, nums: list[int], den: int) -> "CycElem":
        # The element sum nums[i] * zeta_n^i / den, exponents < n.
        return cls._canonical(n, _fractions(_reduce_ints(nums, n), den))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(x, n: int = 1) -> "CycElem":
        return CycElem(n, [Fraction(x)])

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycElem":
        """zeta_n^power as an element of Q(zeta_n)."""
        coeffs = [0] * n
        coeffs[power % n] = 1
        return CycElem._from_ints(n, coeffs, 1)

    @staticmethod
    def from_power_basis(n: int, coeffs) -> "CycElem":
        """Element sum coeffs[i] * zeta_n^i with arbitrary-length coeffs."""
        nums, den = _numerators([c if isinstance(c, (int, Fraction))
                                 else Fraction(c) for c in coeffs])
        folded = [0] * n
        for i, a in enumerate(nums):
            folded[i % n] += a
        return CycElem._from_ints(n, folded, den)

    # -- promotion and coercion ----------------------------------------------

    def promote(self, m: int) -> "CycElem":
        """Re-express self in Q(zeta_m); m must be a multiple of n."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot promote conductor {self.n} to {m}")
        step = m // self.n
        nums, den = _numerators(self.coords)
        coeffs = [0] * m
        for i, a in enumerate(nums):
            coeffs[(i * step) % m] += a
        return CycElem._from_ints(m, coeffs, den)

    @staticmethod
    def _pair(a: "CycElem", b) -> tuple["CycElem", "CycElem"]:
        if isinstance(b, CycElem):
            if a.n == b.n:
                return a, b
            m = math.lcm(a.n, b.n)
            return a.promote(m), b.promote(m)
        if isinstance(b, (int, Fraction)):
            return a, CycElem.from_rational(b, a.n)
        raise TypeError(f"cannot combine CycElem with {type(b).__name__}")

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coords[0]

    def conj(self) -> "CycElem":
        """Complex conjugation, the ring map zeta -> zeta^-1."""
        nums, den = _numerators(self.coords)
        coeffs = [0] * self.n
        for i, a in enumerate(nums):
            coeffs[(-i) % self.n] += a
        return CycElem._from_ints(self.n, coeffs, den)

    def is_real(self) -> bool:
        return self == self.conj()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        try:
            a, b = CycElem._pair(self, other)
        except TypeError:
            return NotImplemented
        return CycElem._canonical(
            a.n, tuple(x + y for x, y in zip(a.coords, b.coords)))

    __radd__ = __add__

    def __neg__(self):
        return CycElem._canonical(self.n, tuple(-c for c in self.coords))

    def __sub__(self, other):
        try:
            a, b = CycElem._pair(self, other)
        except TypeError:
            return NotImplemented
        return CycElem._canonical(
            a.n, tuple(x - y for x, y in zip(a.coords, b.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycElem(self.n, [c * q for c in self.coords])
        try:
            a, b = CycElem._pair(self, other)
        except TypeError:
            return NotImplemented
        xs, dx = _numerators(a.coords)
        ys, dy = _numerators(b.coords)
        ys = [(j, y) for j, y in enumerate(ys) if y]
        prod = [0] * (2 * len(xs) - 1)
        for i, x in enumerate(xs):
            if x:
                for j, y in ys:
                    prod[i + j] += x * y
        return CycElem._from_ints(a.n, prod, dx * dy)

    __rmul__ = __mul__

    def inverse(self) -> "CycElem":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return CycElem.from_rational(1 / self.coords[0], self.n)
        mod = [Fraction(c) for c in cyclotomic_poly(self.n)]
        a = list(self.coords)
        # extended gcd of a and mod over Q; Phi_n irreducible so gcd is a unit
        r0, r1 = mod, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1 or r1[0] != 0:
            q, r = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, _trim(r)
            s0, s1 = s1, _trim(_poly_sub(s0, _poly_mul(q, s1)))
        g = r0[0] if len(r0) == 1 else None
        if g is None:
            raise ArithmeticError("gcd with Phi_n not constant")
        inv = [c / g for c in s0]
        return CycElem._canonical(self.n, _reduce_mod_phi(inv, self.n))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycElem(self.n, [c / q for c in self.coords])
        if isinstance(other, CycElem):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycElem.from_rational(1, self.n)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- comparison and hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        if isinstance(other, CycElem):
            a, b = CycElem._pair(self, other)
            return a.coords == b.coords
        return NotImplemented

    def __hash__(self):
        # Hash must agree for equal elements of different conductors; the
        # normalized traces of x and x^2 are conductor-invariant.
        if self.is_rational():
            return hash(self.coords[0])
        tr = _basis_traces(self.n)
        t1 = sum(c * t for c, t in zip(self.coords, tr))
        sq = self * self
        t2 = sum(c * t for c, t in zip(sq.coords, tr))
        return hash((t1, t2))

    # -- rendering -----------------------------------------------------------

    def render(self, symbol: str = "z") -> str:
        """Text form as a polynomial in zeta, e.g. ``(-4*z+1)/6``."""
        if self.is_rational():
            q = self.coords[0]
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        denom = math.lcm(*(c.denominator for c in self.coords))
        terms = []
        for i in range(len(self.coords) - 1, -1, -1):
            a = self.coords[i] * denom
            assert a.denominator == 1
            a = a.numerator
            if a == 0:
                continue
            if i == 0:
                body = str(abs(a))
            else:
                var = symbol if i == 1 else f"{symbol}^{i}"
                body = var if abs(a) == 1 else f"{abs(a)}*{var}"
            sign = "-" if a < 0 else ("+" if terms else "")
            terms.append(sign + body)
        poly = "".join(terms)
        if denom == 1:
            return poly
        if len(terms) > 1:
            poly = f"({poly})"
        return f"{poly}/{denom}"

    def __repr__(self):
        return f"CycElem({self.n}, {self.render()!r})"


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _frac_poly_divmod(num, den):
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    q = [Fraction(0)] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / lead
        q[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    return q, num[:dd] if dd else [Fraction(0)]


def two_cos(m: int, k: int) -> CycElem:
    """2*cos(2*pi*m/k) as the real cyclotomic element zeta_k^m + zeta_k^-m."""
    return CycElem.zeta(k, m) + CycElem.zeta(k, -m)


def _fraction_from_raw(t) -> Fraction:
    # A raw mpf tuple (sign, mantissa, exponent, bitcount) is a dyadic
    # rational, so this conversion is exact at full precision.
    sign, man, exp, _ = t
    man = int(man)
    if sign:
        man = -man
    return Fraction(man * 2 ** exp) if exp >= 0 else Fraction(man, 2 ** -exp)


def _fraction_from_mpf(x) -> Fraction:
    return _fraction_from_raw(mpmath.mpf(x)._mpf_)


@contextlib.contextmanager
def iv_precision(bits: int):
    """Hold mpmath's interval precision at ``bits`` inside the block.

    ``mpmath.iv.prec`` is shared by the whole process, so the block runs
    under one lock and the previous precision is restored on exit.  Yields
    the ``mpmath.iv`` context.
    """
    with _iv_lock:
        old = mpmath.iv.prec
        mpmath.iv.prec = bits
        try:
            yield mpmath.iv
        finally:
            mpmath.iv.prec = old


def cyc_embed(e, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Certified enclosure of the real part of e under zeta_n -> e^(2*pi*i/n).

    Returns exact rational endpoints (lo, hi) with lo <= Re(e) <= hi; the
    width shrinks as ``bits`` grows.  Accepts Fraction/int as well.
    """
    if bits < 32:
        raise ValueError("bits must be at least 32")
    if isinstance(e, (int, Fraction)):
        q = Fraction(e)
        return q, q
    with iv_precision(bits) as iv:
        total = iv.mpf(0)
        twopi = 2 * iv.pi
        n = e.n
        for i, c in enumerate(e.coords):
            if c:
                ci = iv.mpf(c.numerator) / c.denominator
                total += ci * (iv.cos(twopi * i / n) if i else iv.mpf(1))
        # total.a/total.b would re-round the endpoints to the global
        # mp.prec (inward rounding would break the enclosure); read the
        # raw endpoint tuples instead.
        raw_lo, raw_hi = total._mpi_
        lo = _fraction_from_raw(raw_lo)
        hi = _fraction_from_raw(raw_hi)
    return lo, hi


NEGATIVE, ZERO, POSITIVE = -1, 0, 1


@dataclass(frozen=True)
class SignCertificate:
    """Certified sign of a real cyclotomic (or rational) value.

    ``sign`` is -1, 0 or +1.  Zero is decided exactly from canonical
    coordinates, never by tolerance; a nonzero sign is certified by an
    interval evaluation at ``precision_bits`` excluding zero.
    """

    value: object
    sign: int
    precision_bits: int


def cyc_sign(e, start_bits: int | None = None,
             cap_bits: int = PRECISION_CAP_BITS) -> SignCertificate:
    """Certified sign of a real element; raises NotReal if e != conj(e)."""
    if isinstance(e, (int, Fraction)):
        q = Fraction(e)
        s = (q > 0) - (q < 0)
        return SignCertificate(q, s, 0)
    if e.is_zero():
        return SignCertificate(e, ZERO, 0)
    if e.is_rational():
        q = e.coords[0]
        return SignCertificate(e, (q > 0) - (q < 0), 0)
    if not e.is_real():
        raise NotReal(f"element {e.render()} is not fixed by conjugation")
    bits = _start_bits if start_bits is None else start_bits
    while bits <= cap_bits:
        lo, hi = cyc_embed(e, bits)
        if lo > 0:
            return SignCertificate(e, POSITIVE, bits)
        if hi < 0:
            return SignCertificate(e, NEGATIVE, bits)
        bits *= 2
    raise RuntimeError(
        f"sign of nonzero element {e.render()} unresolved at {cap_bits} bits")
