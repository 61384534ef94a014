"""Exotic-sack searches: factor-swap censuses, the order-3 and order-4 scans,
and verification harnesses for the tridecahedral example.

Candidate dice are products of the real irreducible factors (x+1) and
chi_{m,k}(x) = x^2 - 2cos(2*pi*m/k)x + 1.  A census (:func:`swap_census`,
:func:`exotic_search`) runs in stages:

1. enumerate the multiplicity vectors of the candidate pairs, lazily;
2. stream them in chunks of ``_CHUNK_ROWS`` rows through
   :func:`_interval_filter`, one numpy outward-rounded float interval
   product per chunk and die, which gives every coefficient of every
   candidate die a status: certified positive, certified negative, or
   unresolved;
3. drop each pair with a certified negative coefficient;
4. build the exact products of the remaining dice as integer vectors over
   Z[zeta_n]/(zeta^n - 1) (:func:`_chi_product_exact`), reduced mod Phi_n
   once per coefficient;
5. decide each unresolved coefficient with :func:`cyc_sign` (interval
   arithmetic at escalating precision with an exact fallback; exact zeros
   are proven zero, never assumed);
6. scale the surviving products to dice with ``normalize_to_die``.

No sack is admitted or rejected from an unresolved interval.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool

import mpmath
import numpy as np

# two_cos is not called here; it stays importable from this module because
# perfbench/spans.py wraps it under this name for its traced census run.
from .exactnum import CycElem, cyc_embed, cyc_sign, iv_precision, two_cos
from .dicecore import Die, Sack, demote, normalize_to_die, poly_mul, psi

M3_RATIO_BOUND = Fraction(60, 143)

_INF = math.inf

# Rows per call of the interval filter: large enough to amortize numpy's
# per-call cost, small enough to keep a census's memory flat.
_CHUNK_ROWS = 128


# -- the batched interval filter --------------------------------------------

@functools.lru_cache(maxsize=None)
def _tau_float_interval(m: int, k: int) -> tuple[float, float]:
    # Enclosure of 2cos(2*pi*m/k) from an 80-bit evaluation; the absolute
    # margin covers the evaluation error even when the value is near zero.
    with mpmath.workprec(80):
        v = float(2 * mpmath.cos(2 * mpmath.pi * m / k))
    return (math.nextafter(v - 2.0 ** -64, -_INF),
            math.nextafter(v + 2.0 ** -64, _INF))


def _chi_interval(m: int, k: int):
    lo, hi = _tau_float_interval(m, k)
    return ((1.0, 1.0), (-hi, -lo), (1.0, 1.0))


_X_PLUS_1 = ((1.0, 1.0), (1.0, 1.0))


def _interval_filter(factors, mults) -> np.ndarray:
    """Certified coefficient signs of many factor products at once.

    ``factors`` are interval polynomials, each a tuple of (lo, hi)
    coefficient enclosures, constant term first.  ``mults`` is a
    rows x factors matrix of multiplicities; row r stands for the product
    of factors[f] ** mults[r][f], taken one factor at a time in column
    order, and every row must have the same degree D.  Returns a
    rows x (D+1) int8 array holding +1 where a coefficient's enclosure lies
    above zero, -1 where it lies below, and 0 where it straddles zero
    (unresolved).

    Each product and each sum is rounded to nearest and then widened by one
    ulp outward with ``np.nextafter``, so every enclosure contains the exact
    coefficient.  Coefficient s of a product a * b is the sum of
    a[i] * b[s - i] over ascending i, 0 <= i <= deg a, starting from an
    exact zero.  Rows whose factors have the same sequence of degrees are
    multiplied together, one numpy operation per step for all of them.
    """
    fdeg = [len(f) - 1 for f in factors]
    groups = {}
    for r, row in enumerate(mults):
        seq = tuple(f for f, c in enumerate(row) for _ in range(c))
        groups.setdefault(tuple(fdeg[f] for f in seq), []).append((r, seq))
    widths = {sum(degs) + 1 for degs in groups}
    if len(widths) > 1:
        raise ValueError("every row must have the same degree")
    tab_lo = np.zeros((len(factors), max(fdeg, default=0) + 1))
    tab_hi = np.zeros_like(tab_lo)
    for f, factor in enumerate(factors):
        for j, (b_lo, b_hi) in enumerate(factor):
            tab_lo[f, j], tab_hi[f, j] = b_lo, b_hi
    unit = (tab_lo == 1.0) & (tab_hi == 1.0)
    status = np.empty((len(mults), widths.pop() if widths else 1),
                      dtype=np.int8)
    for degs, members in groups.items():
        order = np.array([seq for _, seq in members],
                         dtype=np.int64).reshape(len(members), len(degs))
        lo = np.ones((len(members), 1))
        hi = np.ones((len(members), 1))
        for step, d in enumerate(degs):
            f = order[:, step]
            n = lo.shape[1]
            acc_lo = np.zeros((len(members), n + d))
            acc_hi = np.zeros_like(acc_lo)
            for j in range(d, -1, -1):
                if unit[f, j].all():
                    t_lo, t_hi = lo, hi  # times the point 1: exact
                else:
                    b_lo, b_hi = tab_lo[f, j, None], tab_hi[f, j, None]
                    p1, p2, p3, p4 = lo * b_lo, lo * b_hi, hi * b_lo, hi * b_hi
                    t_lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
                    t_hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
                seg_lo, seg_hi = acc_lo[:, j:j + n], acc_hi[:, j:j + n]
                seg_lo += np.nextafter(t_lo, -_INF)
                seg_hi += np.nextafter(t_hi, _INF)
                np.nextafter(seg_lo, -_INF, out=seg_lo)
                np.nextafter(seg_hi, _INF, out=seg_hi)
            lo, hi = acc_lo, acc_hi
        status[[r for r, _ in members]] = ((lo > 0).view(np.int8)
                                           - (hi < 0).view(np.int8))
    return status


def _screened(candidates, factors):
    """Pair each candidate with the filter statuses of its dice.

    ``candidates`` yields ``(payload, rows)`` with one multiplicity row per
    die; the rows of one die position share a degree.  Candidates are
    filtered ``_CHUNK_ROWS`` at a time, one :func:`_interval_filter` call
    per die position, and yielded in order as ``(payload, statuses)``.
    """
    it = iter(candidates)
    while chunk := list(itertools.islice(it, _CHUNK_ROWS)):
        per_die = [_interval_filter(factors, [rows[i] for _, rows in chunk])
                   for i in range(len(chunk[0][1]))]
        for r, (payload, _) in enumerate(chunk):
            yield payload, [status[r] for status in per_die]


# -- exact factor products ---------------------------------------------------

def _rotate(v, e):
    # zeta^e * v for v over Z[zeta]/(zeta^n - 1), 0 <= e < n.
    return v[len(v) - e:] + v[:len(v) - e]


def _chi_product_exact(chis, x1_count, conductor):
    """Exact coefficients of prod chi_{m,k}^mult * (x+1)^x1_count, as
    Fractions or elements of Q(zeta_conductor).

    While the product is built each coefficient is an integer vector over
    Z[zeta]/(zeta^n - 1), n = conductor: chi_{m,k} is x^2 - (zeta^e +
    zeta^-e)x + 1 with e = m*n/k, so multiplying by it is two rotations,
    additions and subtractions.  Each coefficient is reduced mod the monic
    Phi_n once, at the end.
    """
    n = conductor
    zero = [0] * n
    poly = [[1] + [0] * (n - 1)]
    for m, k, mult in chis:
        e = ((m * n) // k) % n
        for _ in range(mult):
            padded = [zero, zero] + poly + [zero, zero]
            poly = [[a + b - c - d for a, b, c, d in zip(
                        padded[i + 2], padded[i],
                        _rotate(padded[i + 1], e),
                        _rotate(padded[i + 1], (n - e) % n))]
                    for i in range(len(poly) + 2)]
    for _ in range(x1_count):
        padded = [zero] + poly + [zero]
        poly = [[a + b for a, b in zip(padded[i + 1], padded[i])]
                for i in range(len(poly) + 1)]
    return [demote(CycElem.from_power_basis(n, c)) for c in poly]


def _certified_products(statuses, dice, conductor):
    """The exact products of a candidate's dice if every coefficient of each
    is certified >= 0, else None.

    ``statuses`` are the interval filter's statuses and ``dice`` the
    ``(chis, x1_count)`` of each die.  A certified negative status rejects
    the candidate before any exact work; afterwards only the coefficients
    the filter left unresolved go to :func:`cyc_sign`.
    """
    if any(status.min() < 0 for status in statuses):
        return None
    polys = []
    for status, (chis, x1_count) in zip(statuses, dice):
        poly = _chi_product_exact(chis, x1_count, conductor)
        if any(s == 0 and cyc_sign(c).sign < 0
               for c, s in zip(poly, status.tolist())):
            return None
        polys.append(poly)
    return polys


def _die_from_chis(chis, x1_count, conductor, order) -> Die:
    return normalize_to_die(_chi_product_exact(chis, x1_count, conductor),
                            order=order)


# -- swap specifications and censuses ---------------------------------------

@dataclass(frozen=True)
class SwapSpec:
    """A factor redistribution relative to the fair assignment: ``give`` are
    the factor indices removed from the first die, ``take`` those added."""

    give: tuple
    take: tuple
    orders: tuple

    def canonical(self) -> "SwapSpec":
        a, b = sorted((tuple(self.give), tuple(self.take)))
        return SwapSpec(a, b, self.orders)

    def render(self) -> str:
        fmt = lambda s: ",".join(str(x) for x in s)
        return f"[{fmt(self.give)}<->{fmt(self.take)}]"


@dataclass(frozen=True)
class ExoticCensus:
    orders: tuple
    sacks: tuple  # of (Sack, SwapSpec)

    @property
    def count(self) -> int:
        return len(self.sacks)


class NotFound(LookupError):
    pass


def _sum_bounded_vectors(n, total):
    # Vectors in {0,1,2}^n with the given sum.
    def rec(i, remaining):
        if i == n:
            if remaining == 0:
                yield ()
            return
        slots_left = n - i - 1
        for v in (0, 1, 2):
            rest = remaining - v
            if 0 <= rest <= 2 * slots_left:
                for tail in rec(i + 1, rest):
                    yield (v,) + tail
    yield from rec(0, total)


def _diagonal_census(k: int) -> list[tuple[tuple, Sack, SwapSpec]]:
    """Strict exotic pairs of order k, one per unordered multiplicity
    vector pair {r, 2-r}."""
    ms = list(range(1, (k + 1) // 2))
    x1 = 1 if k % 2 == 0 else 0
    target = (k - 2) // 2 if k % 2 == 0 else (k - 1) // 2
    factors = [_chi_interval(m, k) for m in ms] + [_X_PLUS_1]

    def candidates():
        for r in _sum_bounded_vectors(len(ms), target):
            comp = tuple(2 - v for v in r)
            if r < comp:  # swap symmetry; equality only at the fair vector
                yield (r, comp), (r + (x1,), comp + (x1,))

    found = []
    for (r, comp), statuses in _screened(candidates(), factors):
        dice = [([(m, k, v) for m, v in zip(ms, vec) if v], x1)
                for vec in (r, comp)]
        polys = _certified_products(statuses, dice, k)
        if polys is None:
            continue
        d, dhat = (normalize_to_die(p, order=k) for p in polys)
        spec = SwapSpec(
            give=tuple(m for m, v in zip(ms, r) if v == 0),
            take=tuple(m for m, v in zip(ms, r) if v == 2),
            orders=(k, k),
        ).canonical()
        found.append((r, Sack((d, dhat)), spec))
    found.sort(key=lambda e: (len(e[2].give), e[2].give, e[2].take))
    return found


def swap_census(k: int) -> list[SwapSpec]:
    """Strict exotic pairs of k-dice as give/take swap lists, ordered first
    by the number of factors swapped and then lexicographically."""
    return [spec for _, _, spec in _diagonal_census(k)]


def _merged_factor_multiset(k: int, kp: int):
    # Real irreducible factors of psi_k * psi_kp keyed by the angle fraction
    # m/k in lowest terms; equal factors from the two orders merge.
    chis: dict[Fraction, int] = {}
    for order in (k, kp):
        for m in range(1, (order + 1) // 2):
            key = Fraction(m, order)
            if key < Fraction(1, 2):
                chis[key] = chis.get(key, 0) + 1
    x1 = (1 if k % 2 == 0 else 0) + (1 if kp % 2 == 0 else 0)
    return chis, x1


def exotic_search(k: int, kp: int) -> ExoticCensus:
    """All strict exotic sacks of type (k, kp) obtained by redistributing
    the real irreducible factors of psi_k * psi_kp."""
    if not 2 <= k <= kp:
        raise ValueError("orders must satisfy 2 <= k <= k'")
    if k == kp:
        entries = tuple((s, spec) for _, s, spec in _diagonal_census(k))
        return ExoticCensus((k, kp), entries)
    chis, x1_total = _merged_factor_multiset(k, kp)
    keys = sorted(chis)
    conductor = math.lcm(k, kp)
    fair_d1 = {Fraction(m, k) for m in range(1, (k + 1) // 2)
               if Fraction(m, k) < Fraction(1, 2)}
    results = []

    # Enumerate counts per quadratic factor for die 1, then the (x+1) split;
    # die 1 must reach degree exactly k-1.
    def rec(idx, deg_left, partial):
        if idx == len(keys):
            for x1_d1 in range(0, x1_total + 1):
                if x1_d1 > deg_left or deg_left - x1_d1 != 0:
                    continue
                yield partial, x1_d1
            return
        key = keys[idx]
        for c in range(0, min(chis[key], deg_left // 2) + 1):
            yield from rec(idx + 1, deg_left - 2 * c, partial + [(key, c)])

    fair_row = (tuple(1 if key in fair_d1 else 0 for key in keys)
                + (1 if k % 2 == 0 else 0,))

    def candidates():
        for partial, x1_d1 in rec(0, k - 1, []):
            row_d1 = tuple(c for _, c in partial) + (x1_d1,)
            if row_d1 != fair_row:
                row_d2 = (tuple(chis[key] - c for key, c in partial)
                          + (x1_total - x1_d1,))
                yield (row_d1, row_d2), (row_d1, row_d2)

    factors = ([_chi_interval(key.numerator, key.denominator) for key in keys]
               + [_X_PLUS_1])
    for rows, statuses in _screened(candidates(), factors):
        dice = [([(key.numerator, key.denominator, c)
                  for key, c in zip(keys, row) if c], row[-1])
                for row in rows]
        polys = _certified_products(statuses, dice, conductor)
        if polys is None:
            continue
        assigned_d1 = dict(zip(keys, rows[0]))
        d1 = normalize_to_die(polys[0], order=k)
        d2 = normalize_to_die(polys[1], order=kp)
        give = tuple(key for key in sorted(fair_d1) if assigned_d1[key] < 1)
        take = tuple(key for key in keys
                     if assigned_d1[key] > (1 if key in fair_d1 else 0))
        spec = SwapSpec(give, take, (k, kp))
        results.append((Sack((d1, d2)), spec))
    results.sort(key=lambda e: (e[1].give, e[1].take))
    return ExoticCensus((k, kp), tuple(results))


def smallest_exotic_34() -> Sack:
    """The exotic sack of type (3, 4); raises NotFound if the census is
    unexpectedly empty."""
    census = exotic_search(3, 4)
    if not census.sacks:
        raise NotFound("no exotic sack of type (3, 4) found")
    return census.sacks[0][0]


# -- the tridecahedral example ----------------------------------------------

TRIDECA_TABLE_D = (0.0992916, 0.0210685, 0.1381701, 0.0410895,
                   0.0693196, 0.1241391, 0.0138431)
TRIDECA_TABLE_DHAT = (0.0595938, 0.1065425, 0.0732460, 0.0499115,
                      0.0997570, 0.0877406, 0.0464172)


@dataclass(frozen=True)
class TridecahedralReport:
    d: Die
    dhat: Die
    strict: bool
    palindromic: bool
    product_is_fair: bool
    table_matches: bool
    max_table_slack: Fraction


def verify_tridecahedral() -> TridecahedralReport:
    """Exact verification of the order-13 exotic pair built by swapping the
    chi_4 and chi_5 factors of a fair pair; the published 7-place table
    values must match to within 5e-8."""
    k = 13
    d = _die_from_chis([(1, k, 1), (2, k, 1), (3, k, 1), (4, k, 2), (6, k, 1)],
                       0, k, k)
    dhat = _die_from_chis([(1, k, 1), (2, k, 1), (3, k, 1), (5, k, 2), (6, k, 1)],
                          0, k, k)
    strict = d.is_strict() and dhat.is_strict()
    palindromic = d.is_palindromic() and dhat.is_palindromic()
    total = poly_mul(d.poly(), dhat.poly())
    fair = [Fraction(c, 169) for c in poly_mul(psi(13), psi(13))]
    product_ok = all(demote(a) == b for a, b in zip(total, fair))
    tol = Fraction(5, 10 ** 8)
    ok = True
    max_slack = Fraction(0)
    for die, table in ((d, TRIDECA_TABLE_D), (dhat, TRIDECA_TABLE_DHAT)):
        for i, approx in enumerate(table):
            target = Fraction(approx).limit_denominator(10 ** 7)
            lo, hi = cyc_embed(die.probs[i], 64)
            slack = max(abs(lo - target), abs(hi - target))
            max_slack = max(max_slack, slack)
            if not (target - tol <= lo and hi <= target + tol):
                ok = False
    return TridecahedralReport(d, dhat, strict, palindromic, product_ok,
                               ok, max_slack)


# -- the order-3 and order-4 scans ------------------------------------------

@dataclass(frozen=True)
class ScanRecord:
    """Result of one swap scan: the strict-swap index set S, its maximum M,
    and the ratio R = M/k (None when S is empty)."""

    k: int
    S: tuple
    M: int | None
    R: Fraction | None


_SCAN_CACHE: dict[tuple[int, int], ScanRecord] = {}


def _scan_f(ell: int, k: int):
    # Coefficients of psi_k * psi_3 (ell=3) or psi_k * (x^2+1) (ell=4).
    if ell == 3:
        return [min(i + 1, 3, k + 2 - i) for i in range(k + 2)]
    return [(1 if i <= k - 1 else 0) + (1 if 2 <= i <= k + 1 else 0)
            for i in range(k + 2)]


def _scan_params(ell: int):
    # f differs from its middle value c only at the top: f_k and f_{k+1}
    # fall short by a and b.
    return (3, 1, 2) if ell == 3 else (2, 1, 1)


def _scan_float_pass(ell: int, k: int, ms):
    """Closed-form evaluation of every swap quotient coefficient at once.

    Solving the division recurrence gives q_j = sum_i f_{j+2+i} U_i with
    U_i = sin((i+1)t)/sin(t) and t = 2*pi*m/k; summing the sines in closed
    form (f is constant except at the top) yields, with N = k-1-j,

      q_j sin(t) = c (cos(t/2) - cos((N+3/2)t)) / (2 sin(t/2))
                   - a sin(Nt) - b sin((N+1)t).

    sin(t) > 0, so this has the sign of q_j.  All angles are reduced
    exactly as integer multiples of pi/k before any float trig, so the
    absolute error is a few ulps; MARGIN covers it conservatively and
    everything inside the margin is escalated, never guessed.
    """
    c, a, b = _scan_params(ell)
    marr = np.asarray(ms, dtype=np.int64)[:, None]
    n = (k - 1) - np.arange(k, dtype=np.int64)[None, :]  # N as a function of j
    r1 = (marr * (2 * n + 3)) % (2 * k)
    r2 = (2 * marr * n) % (2 * k)
    r3 = (2 * marr * (n + 1)) % (2 * k)
    half = np.pi * marr / k  # t/2, in (0, pi/2)
    v = (c * (np.cos(half) - np.cos(np.pi * r1 / k)) / (2 * np.sin(half))
         - a * np.sin(np.pi * r2 / k) - b * np.sin(np.pi * r3 / k))
    return v


_SCAN_MARGIN = 1e-9


def _scan_iv_coeff_sign(ell: int, k: int, m: int, j: int, bits: int) -> int:
    # The same closed form with mpmath intervals; 0 means unresolved.
    c, a, b = _scan_params(ell)
    n = k - 1 - j
    with iv_precision(bits) as iv:
        pi = iv.pi
        half = pi * m / k
        v = (c * (iv.cos(half)
                  - iv.cos(pi * ((m * (2 * n + 3)) % (2 * k)) / k))
             / (2 * iv.sin(half))
             - a * iv.sin(pi * ((2 * m * n) % (2 * k)) / k)
             - b * iv.sin(pi * ((2 * m * (n + 1)) % (2 * k)) / k))
        if v.a > 0:
            return 1
        if v.b < 0:
            return -1
    return 0


def _scan_exact_coeff_sign(ell: int, k: int, m: int, j: int) -> int:
    """Exact sign of coefficient j of the swap quotient.

    Solving the division recurrence gives q_j = sum_i f_{j+2+i} U_i with
    U_i = sin((i+1)t)/sin(t), t = 2*pi*m/k.  Writing W_i for the purely
    imaginary zeta^((i+1)m) - zeta^(-(i+1)m) = 2i sin((i+1)t) and using that
    f is constant in the middle, q_j * |W_0|^2 = -W_0 * (c*sum_{i<=N} W_i
    - corrections), a small-integer vector in the power basis of Q(zeta_k).
    """
    n = k - 1 - j  # top summation index N
    c = 3 if ell == 3 else 2
    x = [0] * k  # c * sum_{i=0..N} W_i minus the edge corrections
    for i in range(n + 1):
        e = ((i + 1) * m) % k
        x[e] += c
        x[-e % k] -= c
    # f_k and f_{k+1} fall short of the middle value c by (1, 2) for ell=3
    # and (1, 1) for ell=4; they occur at i = N-1 and i = N.
    for i, short in ((n - 1, 1), (n, 2 if ell == 3 else 1)):
        if i >= 0:
            e = ((i + 1) * m) % k
            x[e] -= short
            x[-e % k] += short
    # multiply by -W_0 = zeta^(-m) - zeta^m (two rotations)
    y = [x[(i + m) % k] - x[(i - m) % k] for i in range(k)]
    elem = CycElem.from_power_basis(k, y)
    return cyc_sign(elem).sign


def _scan_coeff_sign(ell: int, k: int, m: int, j: int) -> int:
    """Certified sign of one straddling quotient coefficient."""
    for bits in (128, 512):
        s = _scan_iv_coeff_sign(ell, k, m, j, bits)
        if s:
            return s
    return _scan_exact_coeff_sign(ell, k, m, j)


def s_scan(ell: int, k: int) -> ScanRecord:
    """The strict-swap scan: for each m < k/2, swap chi_{m,k} into a fair
    ell-die and test strictness of both resulting dice.

    The small die is strict iff m/k >= 1/4 (ell=3) or m/k >= 1/6 (ell=4),
    an exact rational test; the k-die is tested by certified division.
    """
    if ell not in (3, 4):
        raise ValueError("only the order-3 and order-4 scans are supported")
    if k < 2:
        raise ValueError("k must be >= 2")
    cached = _SCAN_CACHE.get((ell, k))
    if cached is not None:
        return cached
    threshold = Fraction(1, 4) if ell == 3 else Fraction(1, 6)
    ms = [m for m in range(1, (k + 1) // 2)
          if threshold <= Fraction(m, k) < Fraction(1, 2)]
    members = []
    if ms:
        v = _scan_float_pass(ell, k, ms)
        for i, m in enumerate(ms):
            if np.any(v[i] < -_SCAN_MARGIN):
                continue
            unclear = np.nonzero(np.abs(v[i]) <= _SCAN_MARGIN)[0]
            if all(_scan_coeff_sign(ell, k, m, int(j)) >= 0 for j in unclear):
                members.append(m)
    record = ScanRecord(
        k, tuple(members),
        max(members) if members else None,
        Fraction(max(members), k) if members else None,
    )
    _SCAN_CACHE[(ell, k)] = record
    return record


def _s3_worker(k: int) -> ScanRecord:
    return s_scan(3, k)


def s3_table(k_max: int, workers: int = 1) -> list[ScanRecord]:
    """Scan records for ell=3 and every k from 2 to k_max; deterministic for
    any worker count."""
    ks = [k for k in range(2, k_max + 1) if (3, k) not in _SCAN_CACHE]
    if workers > 1 and len(ks) > workers:
        with Pool(workers) as pool:
            for record in pool.map(_s3_worker, ks, chunksize=8):
                _SCAN_CACHE[(3, record.k)] = record
    else:
        for k in ks:
            s_scan(3, k)
    return [_SCAN_CACHE[(3, k)] for k in range(2, k_max + 1)]


@dataclass(frozen=True)
class M3Exception:
    k: int
    difference: int


@dataclass(frozen=True)
class M3ExceptionReport:
    k_max: int
    exceptions: tuple
    b_sequence: tuple  # empirical b_a with k_a = 603*a + 143*b_a


def m3_exception_scan(k_max: int, workers: int = 1) -> M3ExceptionReport:
    """All k <= k_max - 143 where M3(k+143) - M3(k) differs from 60, with
    the empirical reconstruction of the exception sequence b_a."""
    if k_max < 746:
        raise ValueError("k_max must be at least 746 to see the first exception")
    records = s3_table(k_max, workers=workers)
    m3 = {r.k: r.M for r in records}
    exceptions = []
    for k in range(2, k_max - 143 + 1):
        if m3[k] is None or m3[k + 143] is None:
            continue
        diff = m3[k + 143] - m3[k]
        if diff != 60:
            exceptions.append(M3Exception(k, diff))
    bs = []
    for a, exc in enumerate(exceptions, start=1):
        rem = exc.k - 603 * a
        bs.append(Fraction(rem, 143))
    return M3ExceptionReport(k_max, tuple(exceptions), tuple(bs))


@dataclass(frozen=True)
class ScatterRow:
    k: int
    M: int | None
    R: Fraction | None

    @property
    def decimal(self) -> float | None:
        return None if self.R is None else float(self.R)


def scatter_emit(k_max: int, workers: int = 1):
    """Rows (k, M3(k), M3(k)/k) for k up to k_max, plus any violations of
    the conjectured bound R3(k) <= 60/143 (reported, not asserted)."""
    records = s3_table(k_max, workers=workers)
    rows = [ScatterRow(r.k, r.M, r.R) for r in records]
    violations = [row for row in rows
                  if row.R is not None and row.R > M3_RATIO_BOUND]
    return rows, violations
