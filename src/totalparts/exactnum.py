"""Exact scalars: rationals, cyclotomic field elements, and certified signs.

Rationals are plain ``fractions.Fraction`` (always in lowest terms, exact).
An element of the cyclotomic field Q(zeta_n) is a :class:`CycElem`: integer
numerators ``nums`` over one positive denominator ``den``, the coordinates
with respect to the power basis 1, zeta, ..., zeta^(phi(n)-1) of
Q[x]/Phi_n(x), where Phi_n is the n-th cyclotomic polynomial and
zeta = e^(2*pi*i/n).  Reduction mod Phi_n and dividing out
gcd(den, *nums) are canonical, so two elements of the same conductor are
equal iff their numerators and denominators are, and the exact-zero test is
trivial: like an int or a ``Fraction``, a ``CycElem`` is false exactly at
zero, so :func:`_conv_ints` multiplies lists of any exact scalars.
``coords``, the same coordinates as ``Fraction``s, is built only when
asked for.  An exact scalar is an int, a ``Fraction`` or a ``CycElem``, and
:func:`as_scalar` gives each its one stored form: a ``Fraction`` for every
rational value, a rational-valued ``CycElem`` included, and a ``CycElem``
only for an irrational one.  One gate, :func:`_is_rational`, says what an
exact rational is: an int or a ``Fraction``, never a bool.  By it every
constructor, :func:`cyc_sign` and :func:`cyc_embed` refuse a bool or a
float, and every ``CycElem`` operator returns NotImplemented before any work.

Since Phi_n is monic with integer coefficients, the schoolbook product
(:func:`_mul_ints`) and the reduction of numerators stay in Z[zeta_n].  The
substitution zeta -> zeta^j (:func:`_substitute`) gives complex conjugation
(j = -1), the Galois conjugates (gcd(j, n) = 1) and promotion to a larger
conductor.  The inverse of xs/d is d * R / N with R the product of the
conjugates of xs other than xs itself and N = xs * R, the norm, a nonzero
integer.  No other module needs to know this format: ``dicecore`` and the
searches use the operators, and only the helpers on rational coefficient
lists (:func:`_numerators`, :func:`_conv_ints`, :func:`_fractions`) are
shared.  A caller that builds many elements at once holds them as an integer
numpy array of n-vectors over Z[x]/(x^n - 1), one row per element:
:func:`ring_dtype` proves when int64 holds such an array exactly, and
:func:`ring_scalars` reduces every row mod Phi_n with one matrix product
and returns its scalars.

Sign determination for real elements (fixed by complex conjugation) first
tests for exact zero.  A nonzero real e = xs/d is then at least
2^-B away from zero, with B derived in advance from d, the 1-norm of xs and
phi(n) (a Liouville-type separation bound, :func:`cyc_sign`), and one
fixed-point integer enclosure of width at most 2^-B (:func:`cyc_embed`)
decides the sign.  Its cosines come from Taylor series with a proven
remainder and counted truncation errors (:func:`fixed_cos`), and pi from
Machin's formula in integers (:func:`fixed_pi`).  The result is wrapped in
a :class:`SignCertificate`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)


def get_start_bits() -> int:
    """Always 0.  A leftover of the retired start precision, kept only for
    callers that still read it: every sign derives its own precision."""
    return 0


class NotReal(ValueError):
    """Raised when a sign is requested for an element not fixed by conjugation."""


class UnresolvedSign(ArithmeticError):
    """Raised when the enclosure at the separation bound does not exclude
    zero, which correct code never does."""


def _factor(n: int) -> list[tuple[int, int]]:
    # The prime factorization of n >= 1 by trial division: (p, e) pairs,
    # p ascending.
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    ds = [1]
    for p, e in _factor(n):
        ds = [d * p ** i for i in range(e + 1) for d in ds]
    return sorted(ds)


@functools.lru_cache(maxsize=None)
def phi(n: int) -> int:
    """Euler's totient."""
    return math.prod(p ** (e - 1) * (p - 1) for p, e in _factor(n))


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the n-th cyclotomic polynomial Phi_n.

    Moebius inversion of x^n - 1 = prod_{d|n} Phi_d gives, for n > 1,
    Phi_n = prod_{d|n} (1 - x^d)^mu(n/d): the signs of x^d - 1 cancel, as
    sum_{d|n} mu(n/d) = 0.  Phi_n has degree phi(n), so the product is taken
    as a power series mod x^(phi(n)+1): a factor 1 - x^d is one subtraction
    per coefficient, and its inverse 1 + x^d + x^2d + ... one running
    addition.  Cached per conductor; the lru_cache gives safe concurrent
    read with one-time insertion.
    """
    if n == 1:
        return (-1, 1)
    size = phi(n) + 1
    c = [1] + [0] * (size - 1)
    for d in divisors(n):
        mu = _mobius(n // d)
        if mu == 1:
            for i in range(size - 1, d - 1, -1):
                c[i] -= c[i - d]
        elif mu == -1:
            for i in range(d, size):
                c[i] += c[i - d]
    return tuple(c)


@functools.lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[tuple[int, int], ...]:
    # The nonzero (j, c_j) of Phi_n below its leading 1: x^phi(n) is
    # replaced by -sum c_j x^j.
    return tuple((j, c) for j, c in enumerate(cyclotomic_poly(n)[:-1]) if c)


def _numerators(coeffs) -> tuple[list[int], int]:
    # Integer numerators over the least common positive denominator; an
    # int has numerator itself and denominator 1, so no Fraction is built.
    dens = [c.denominator for c in coeffs]
    den = math.lcm(*dens)
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // d) for c, d in zip(coeffs, dens)], den


def _fractions(nums, den: int) -> tuple[Fraction, ...]:
    if den == 1:
        return tuple(Fraction(a) if a else _ZERO for a in nums)
    return tuple(Fraction(a, den) if a else _ZERO for a in nums)


def _reduce_ints(c: list[int], n: int) -> list[int]:
    # Reduce an integer power-basis vector mod the monic Phi_n, in place;
    # the result has length phi(n).  A vector longer than n is first folded
    # mod x^n - 1, which Phi_n divides: one addition per coefficient above
    # degree n - 1, so a prime n costs O(n) and not O(phi(n)^2).
    if len(c) > n:
        for i in range(n, len(c)):
            c[i % n] += c[i]
        del c[n:]
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


def _conv_ints(xs, ys) -> list[int]:
    # The product of two lists of ints or of any exact scalars (each false
    # exactly at zero), constant term first; an unreached position stays 0.
    prod = [0] * (len(xs) + len(ys) - 1)
    ys = [(j, y) for j, y in enumerate(ys) if y]
    for i, x in enumerate(xs):
        if x:
            for j, y in ys:
                prod[i + j] += x * y
    return prod


def _mul_ints(xs: list[int], ys: list[int], n: int) -> list[int]:
    # The product of two integer power-basis vectors, reduced mod Phi_n.
    return _reduce_ints(_conv_ints(xs, ys), n)


def _norm_parts(xs: list[int], n: int) -> tuple[list[int], int]:
    # (R, N) for a nonzero reduced integer vector xs of Z[zeta_n]: R is the
    # product of the conjugates sigma_j(xs), 1 < j < n with gcd(j, n) = 1,
    # and N = xs * R is the norm of xs, a nonzero integer, so 1/xs = R/N.
    # A rational xs is its own norm over R = 1.
    rest = [1] + [0] * (len(xs) - 1)
    if not any(xs[1:]):
        return rest, xs[0]
    for j in range(2, n):
        if math.gcd(j, n) == 1:
            rest = _mul_ints(rest, _substitute(xs, j, n), n)
    return rest, _mul_ints(xs, rest, n)[0]


def _substitute(nums: list[int], j: int, m: int) -> list[int]:
    # sum nums[i] * zeta_m^(i*j), reduced mod Phi_m: the Galois map
    # zeta -> zeta^j of Q(zeta_m) when gcd(j, m) = 1, or the embedding of
    # Q(zeta_n) in Q(zeta_m) when j = m/n.
    out = [0] * m
    for i, a in enumerate(nums):
        out[(i * j) % m] += a
    return _reduce_ints(out, m)


@functools.lru_cache(maxsize=None)
def _power_rows(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    # The rows x^i mod Phi_n, 0 <= i < n, each of length phi(n), and the bit
    # length of their largest absolute entry: row i + 1 is row i times x,
    # reduced by one step of _reduce_ints.
    rows, row = [], [1] + [0] * (phi(n) - 1)
    for _ in range(n):
        rows.append(tuple(row))
        row = _reduce_ints([0] + row, n)
    return tuple(rows), max(abs(c) for r in rows for c in r).bit_length()


@functools.lru_cache(maxsize=None)
def _power_table(n: int, dtype):
    # the rows x^i mod Phi_n, phi(n) <= i < n, as a read-only numpy array of
    # the given dtype, shared by every caller.  numpy is imported here, with
    # the first ring pass, and not with this module: imported ahead of the
    # rest of the package, it measured 1 MB more peak RSS and 3-5 % slower
    # perfbench scans (2 shared vCPUs), which never run a ring pass.
    import numpy as np
    table = np.array(_power_rows(n)[0][phi(n):], dtype=dtype).reshape(
        n - phi(n), phi(n))
    table.flags.writeable = False
    return table


def ring_dtype(n: int, factors: int) -> str:
    """The numpy dtype ``"int64"`` when an array built from 1 by ``factors``
    linear factors over Z[x]/(x^n - 1), and reduced by
    :func:`ring_scalars`, provably fits int64; ``"object"``, whose entries
    are Python ints, when it may not.

    The array holds one n-vector per coefficient in x.  Multiplying it by
    x - zeta^e (or by x + 1) adds the array shifted by one row to the array
    with its columns rotated by e (or unrotated), and a rotation keeps each
    absolute value, so each factor at most doubles the array's L1 norm, the
    sum of all its absolute entries, as does the scalar 1 - zeta^e or 2.
    So after L factors, each entry of every array on the way is at most
    2^L in absolute value.  The reduction is one matrix product
    against the table T whose row i is x^i mod Phi_n: an output entry and
    each of its partial sums is at most ||row||_1 max|T| <= 2^L max|T|.
    With L + bitlen(max|T|) <= 62 that is below 2^62, inside int64.  max|T|
    is read from the table; it is 1 at n = 6, 12, 29, 84, 247 and 323, at
    most 3 for every n <= 400 (3 first at n = 385), and 9 at n = 2310.
    """
    bits = _power_rows(_conductor(n))[1]
    return "int64" if factors + bits <= 62 else "object"


def ring_scalars(rows, n: int, den: int) -> list:
    """:func:`as_scalar` of r(zeta_n) / den for each row r of an integer
    numpy array of n-vectors over Z[x]/(x^n - 1), den > 0.

    One matrix product against the table of x^i mod Phi_n reduces every
    row at once, in the array's dtype: int64 only where :func:`ring_dtype`
    proves it exact, Python ints otherwise.  The table's first phi(n) rows
    are the identity, so only the columns phi(n) .. n - 1 are multiplied
    (its terms are a subset of the full product's, inside the same bound).
    """
    deg = phi(n)
    reduced = rows[:, :deg] + rows[:, deg:] @ _power_table(n, rows.dtype)
    return [as_scalar(CycElem._make(n, r, den)) for r in reduced.tolist()]


@functools.lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    factors = _factor(n)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


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


def _is_rational(x) -> bool:
    # the one gate; the fast path of * spells it inline
    return isinstance(x, (int, Fraction)) and type(x) is not bool


def _conductor(n) -> int:
    if type(n) is not int or n < 1:
        raise ValueError(f"conductor must be an integer >= 1, not {n!r}")
    return n


def _exact_coords(coords) -> list:
    # coordinates from a caller: a sequence of ints and Fractions, never a
    # string, a float or a bool; a plain int passes on one type test
    if isinstance(coords, (str, bytes)):
        raise ValueError(f"coordinates must be a sequence, not {coords!r}")
    coords = list(coords)
    for c in coords:
        if type(c) is not int and not _is_rational(c):
            raise ValueError(f"coordinate {c!r} is not an int or Fraction")
    return coords


class CycElem:
    """An element of Q(zeta_n), immutable, with exact arithmetic.

    Stored as ``nums``, phi(n) integers reduced mod Phi_n, over ``den``, a
    positive integer with gcd(den, *nums) = 1 (den = 1 for zero), so that
    equal elements of one conductor are stored identically.  Mixed-conductor
    operations promote both operands to conductor lcm(n1, n2).  Conjugation
    (zeta -> zeta^-1) and inversion are exact.
    """

    __slots__ = ("n", "nums", "den")

    def __new__(cls, n: int, coords):
        """The element sum coords[i] * zeta_n^i, coords ints or Fractions."""
        return cls._make(_conductor(n), *_numerators(_exact_coords(coords)))

    @classmethod
    def _make(cls, n: int, nums: list[int], den: int) -> "CycElem":
        # The element sum nums[i] * zeta_n^i / den for a fresh list nums
        # (reduced in place mod Phi_n) and a nonzero den.
        nums = _reduce_ints(nums, n)
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [a // g for a in nums]
            den //= g
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        return self

    def __setattr__(self, *a):
        raise AttributeError("CycElem is immutable")

    def __reduce__(self):
        # pickle and copy rebuild the element from its conductor and
        # coordinates
        return CycElem, (self.n, self.coords)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The phi(n) power-basis coordinates as Fractions."""
        return _fractions(self.nums, self.den)

    def coord_strings(self) -> list[str]:
        """``str`` of each of :attr:`coords`, such as ``"-1/2"`` or ``"0"``,
        without building the Fractions: a gcd per coordinate."""
        den = self.den
        # g = gcd(a, den) is den when a is 0
        return [str(a // g) if (g := math.gcd(a, den)) == den
                else f"{a // g}/{den // g}" for a in self.nums]

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycElem":
        """zeta_n^power as an element of Q(zeta_n); a power that is not an
        int, a bool included, raises ValueError."""
        if type(power) is not int:
            raise ValueError(f"power must be an integer, not {power!r}")
        coeffs = [0] * _conductor(n)
        coeffs[power % n] = 1
        return CycElem._make(n, coeffs, 1)

    @staticmethod
    def from_power_basis(n: int, coeffs) -> "CycElem":
        """Element sum coeffs[i] * zeta_n^i with arbitrary-length coeffs,
        ints or Fractions: the same as ``CycElem(n, coeffs)``."""
        return CycElem(n, coeffs)

    # -- promotion and coercion ----------------------------------------------

    def promote(self, m: int) -> "CycElem":
        """Re-express self in Q(zeta_m); m must be a multiple of n."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot promote conductor {self.n} to {m}")
        return CycElem._make(m, _substitute(self.nums, m // self.n, m),
                             self.den)

    @staticmethod
    def _pair(a: "CycElem", b) -> tuple["CycElem", "CycElem"]:
        if isinstance(b, CycElem):
            if a.n == b.n:
                return a, b
            m = math.lcm(a.n, b.n)
            return a.promote(m), b.promote(m)
        if _is_rational(b):
            return a, CycElem._make(a.n, [b.numerator], b.denominator)
        raise TypeError(f"cannot combine CycElem with {type(b).__name__}")

    # -- queries -------------------------------------------------------------

    def __bool__(self):
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def conj(self) -> "CycElem":
        """Complex conjugation, the ring map zeta -> zeta^-1."""
        return CycElem._make(self.n, _substitute(self.nums, -1, self.n),
                             self.den)

    def is_real(self) -> bool:
        return self == self.conj()

    # -- arithmetic ----------------------------------------------------------

    def _plus(self, other, sign: int):
        # self + sign * other over the least common denominator
        try:
            a, b = CycElem._pair(self, other)
        except TypeError:
            return NotImplemented
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, sign * (den // b.den)
        return CycElem._make(a.n, [x * sa + y * sb
                                   for x, y in zip(a.nums, b.nums)], den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return CycElem._make(self.n, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -self + other if _is_rational(other) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            return CycElem._make(self.n,
                                 [a * other.numerator for a in self.nums],
                                 self.den * other.denominator)
        if not isinstance(other, CycElem):
            return NotImplemented
        a, b = CycElem._pair(self, other)
        return CycElem._make(a.n, _mul_ints(a.nums, b.nums, a.n),
                             a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycElem":
        """Multiplicative inverse as a Galois norm, on integer numerators.

        Write self = xs/d.  The product R of the conjugates sigma_j(xs),
        1 < j < n with gcd(j, n) = 1, times xs is the norm N of xs, a
        nonzero integer, so the inverse is d * R / N.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        rest, norm = _norm_parts(self.nums, self.n)
        return CycElem._make(self.n, [self.den * r for r in rest], norm)

    def __truediv__(self, other):
        if _is_rational(other):
            if not other:
                raise ZeroDivisionError("division of CycElem by zero")
            return self * Fraction(1, other)
        if isinstance(other, CycElem):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other if _is_rational(other) else NotImplemented

    # -- comparison and hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.nums[0] == other.numerator
                    and self.den == other.denominator)
        if isinstance(other, CycElem):
            a, b = CycElem._pair(self, other)
            return a.nums == b.nums and a.den == b.den
        return NotImplemented

    def __hash__(self):
        # Hash must agree for equal elements of different conductors; the
        # normalized trace of x is conductor-invariant, and x when rational.
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        tr = _basis_traces(self.n)
        return hash(sum(a * t for a, t in zip(self.nums, tr)) / self.den)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Text form as a polynomial in zeta, e.g. ``(-4*z+1)/6``."""
        terms = []
        for i in range(len(self.nums) - 1, -1, -1):
            a = self.nums[i]
            if a == 0:
                continue
            if i == 0:
                body = str(abs(a))
            else:
                var = "z" if i == 1 else f"z^{i}"
                body = var if abs(a) == 1 else f"{abs(a)}*{var}"
            sign = "-" if a < 0 else ("+" if terms else "")
            terms.append(sign + body)
        poly = "".join(terms) or "0"
        if self.den == 1:
            return poly
        if len(terms) > 1:
            poly = f"({poly})"
        return f"{poly}/{self.den}"

    def __repr__(self):
        return f"CycElem({self.n}, {self.render()!r})"


def as_scalar(x):
    """x in the one form of an exact scalar: a Fraction for every rational
    value, an int or a rational-valued CycElem included, and an irrational
    CycElem unchanged.  Anything but an int, a Fraction or a CycElem, a bool
    or a float included, raises TypeError."""
    if type(x) is Fraction:
        return x
    if isinstance(x, CycElem):
        return Fraction(x.nums[0], x.den) if x.is_rational() else x
    if _is_rational(x):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def two_cos(m: int, k: int) -> CycElem:
    """2*cos(2*pi*m/k) as the real cyclotomic element zeta_k^m + zeta_k^-m."""
    return CycElem.zeta(k, m) + CycElem.zeta(k, -m)


def _atan_inv(m: int, scale: int) -> tuple[int, int]:
    # (sum_{j<J} (-1)^j floor(scale / ((2j+1) m^(2j+1))), J), J the first
    # j with floor(scale / m^(2j+1)) = 0
    total, j, p = 0, 0, scale // m
    while p:
        t = p // (2 * j + 1)
        total += -t if j & 1 else t
        p //= m * m
        j += 1
    return total, j


@functools.lru_cache(maxsize=None)
def fixed_pi(w: int) -> tuple[int, int]:
    """(P, E) with |P - 2^w pi| < E, from Machin's formula in integers.

    pi = 16 atan(1/5) - 4 atan(1/239), atan(1/m) = sum_j (-1)^j /
    ((2j+1) m^(2j+1)).  For a scale s (16 * 2^w or 4 * 2^w),
    p_j = floor(s / m^(2j+1)) is carried exactly as p_{j+1} = p_j // m^2
    (floor(floor(y)/q) = floor(y/q) for an integer q > 0), so each term
    p_j // (2j+1) is off by less than 1.  The sum stops at the first
    p_J = 0; the scaled terms decrease, so the alternating tail is below 1.
    A series of J terms is off by less than J + 1, and E adds the two.
    A priori, 5 > 2^2 and 239 > 2^7 bound the term counts by (w+5)/4 and
    (w+8)/14, so E < w/3 + 4.
    """
    a, ja = _atan_inv(5, 16 << w)
    b, jb = _atan_inv(239, 4 << w)
    return a - b, ja + jb + 2


def fixed_cos(i: int, n: int, w: int) -> tuple[int, int]:
    """(C, r) with |C - 2^w cos(2 pi i/n)| < r, in integers, for w >= 4.

    Reduction.  Take i mod n, and n - i when 2i > n.  With 8i = q n + t,
    0 <= t < n, q <= 4, cos(2 pi i/n) is cos(a), sin(b), -sin(a), -cos(b),
    -cos(a) for q = 0..4, where a = pi t/(4n) and b = pi (n-t)/(4n).
    Angle.  For the reduced angle pi s/(4n), 0 <= s <= n, and
    (P, E) = fixed_pi(w), X = floor(P s/(4n)) is off from 2^w pi s/(4n) by
    less than E/4 + 1 <= E//4 + 2, and so, as cos and sin are
    1-Lipschitz, is the result from the value at x = X/2^w.
    Series.  f(x) = sum_j (-1)^j V_j / 2^w with V_j = 2^w x^(2j+e)/(2j+e)!,
    e = 0 for cos and 1 for sin.  U_0 = V_0 (2^w or X) is exact, and
    U_{j+1} = floor(U_j X^2 / (2^(2w) k_j)), k_j = (2j+1+e)(2j+2+e),
    follows V_{j+1} = V_j rho_j with rho_j = x^2/k_j < 1/2, because
    x < pi/4 + E/2^(w+2) < 1.  By induction 0 <= V_j - U_j < 2 (counted
    truncation errors).  The sum of U_0 .. U_{J-1}, stopped at the first
    U_J below 2^g, g = bitlen(w), is off by less than 2J from the first J
    terms, and the alternating tail of decreasing terms is at most
    V_J < U_J + 2 (proven remainder).  So r = 2J + U_J + E//4 + 4.
    A priori, V_j <= 2^w/(2j)! < 1 once 2j >= w + 2, so 2J <= w + 3; with
    E < w/3 + 4, U_J < 2^g, w < 2^g and 2^g >= 8,
    r < (13/12) w + 2^g + 8 < 2^(g+2).
    """
    P, E = fixed_pi(w)
    i %= n
    if 2 * i > n:
        i = n - i
    q, t = divmod(8 * i, n)
    e = 1 if q in (1, 2) else 0
    x = P * (n - t if q & 1 else t) // (4 * n)
    term, x2 = (x if e else 1 << w), x * x
    limit = 1 << w.bit_length()
    total = j = 0
    while term >= limit:
        total += -term if j & 1 else term
        j += 1
        term = (term * x2 >> 2 * w) // ((2 * j - 1 + e) * (2 * j + e))
    return (-total if q >= 2 else total), 2 * j + term + E // 4 + 4


def cyc_embed(e, bits: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure lo <= Re(e) <= hi under zeta_n -> e^(2 pi i/n),
    with exact rational endpoints and hi - lo <= 2^-bits.

    Write e = xs/d with integer numerators xs and L = ||xs||_1.  With
    (C_i, r_i) = fixed_cos(i, n, w) and C_0 = 2^w exact, T = sum_i x_i C_i
    is off from 2^w d Re(e) by less than R = sum_i |x_i| r_i, and
    Re(e) lies in [T - R, T + R] / (d 2^w).  Width: r_i < 2^(g+2),
    g = bitlen(w), so the width 2R/(d 2^w) is below
    2^(bitlen(L) + g + 3 - w).  With b = bits + bitlen(L) + 3 and
    w = b + bitlen(b) + 3 < 2^(bitlen(b) + 3), g <= bitlen(b) + 3, so
    w - g - 3 >= bits + bitlen(L) and the width is below 2^-bits.
    A rational e is its own enclosure; a bool or a float raises TypeError.
    """
    if bits < 0:
        raise ValueError("bits must be at least 0")
    e = as_scalar(e)
    if isinstance(e, Fraction):
        return e, e
    xs, d = e.nums, e.den
    b = bits + sum(map(abs, xs)).bit_length() + 3
    w = b + b.bit_length() + 3
    # fixed_cos gives i and n - i the same (C, r), so each pair of
    # coordinates costs one call, on its summed x and |x|
    pairs = {}
    for i, x in enumerate(xs[1:], start=1):
        if x:
            j = min(i, e.n - i)
            s, a = pairs.get(j, (0, 0))
            pairs[j] = s + x, a + abs(x)
    total, radius = xs[0] << w, 0
    for j, (s, a) in pairs.items():
        c, r = fixed_cos(j, e.n, w)
        total += s * c
        radius += a * r
    return (Fraction(total - radius, d << w),
            Fraction(total + radius, d << w))


NEGATIVE, ZERO, POSITIVE = -1, 0, 1


@dataclass(frozen=True)
class SignCertificate:
    """Certified sign of a real cyclotomic (or rational) value.

    ``sign`` is -1, 0 or +1.  Zero is decided exactly from canonical
    coordinates, never by tolerance; a nonzero sign is certified by one
    enclosure excluding zero, at the ``precision_bits`` B of the separation
    bound in :func:`cyc_sign` (0 for a rational value).
    """

    value: object
    sign: int
    precision_bits: int


def cyc_sign(e) -> SignCertificate:
    """Certified sign of a real element; raises NotReal if e != conj(e).

    A rational value, zero included, is a Fraction by :func:`as_scalar`
    and its own certificate.  Otherwise write e = xs/d with integer
    numerators xs in Z[zeta_n] and L = ||xs||_1.  xs is a nonzero real
    algebraic integer, so its norm from the real subfield, the product of
    its phi(n)/2 real conjugates sum_i x_i sigma(zeta)^i, is a
    nonzero integer, and every factor is at most L in absolute value.
    Hence |e| >= 1/(d L^(phi(n)/2 - 1)) > 2^-B with
    B = bitlen(d) + (phi(n)/2 - 1) bitlen(L), and one :func:`cyc_embed`
    enclosure at B bits, narrower than |e|, excludes zero.  If it does not,
    the code is wrong: UnresolvedSign.
    """
    e = as_scalar(e)
    if isinstance(e, Fraction):  # zero included
        return SignCertificate(e, (e > 0) - (e < 0), 0)
    if not e.is_real():
        raise NotReal(f"element {e.render()} is not fixed by conjugation")
    xs, d = e.nums, e.den
    bits = (d.bit_length()
            + (phi(e.n) // 2 - 1) * sum(map(abs, xs)).bit_length())
    lo, hi = cyc_embed(e, bits)
    if lo > 0:
        return SignCertificate(e, POSITIVE, bits)
    if hi < 0:
        return SignCertificate(e, NEGATIVE, bits)
    raise UnresolvedSign(f"sign of nonzero element {e.render()} unresolved "
                         f"at its separation bound of {bits} bits")
