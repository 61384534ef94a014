"""Exotic-sack searches: factor-swap censuses, the order-3 and order-4 scans,
and verification harnesses for the tridecahedral example.

Candidate dice are products of the real irreducible factors (x+1) and
chi_{m,k}(x) = x^2 - 2cos(2*pi*m/k)x + 1.  One census,
:func:`exotic_search`, serves every type (k, k'): its factors are those of
psi_k * psi_k', each chi keyed by the int root exponent e of its roots
zeta^(+-e) at the conductor L = lcm(k, k'), so that equal factors of the two
orders merge and no stage needs the angle e/L as a Fraction.  The diagonal
type k = k' (the count E(k), listed by :func:`swap_census`) is the case
where a split and its swap give the same pair, so its search is symmetric.
The census runs in stages:

1. search the splits of the factor multiset between the two dice, one
   factor column at a time, each chunk of nodes in one array step per
   column (:func:`_split_search`).  A die with nonnegative coefficients
   has |p(e^(i phi))| <= p(1); a branch is pruned when, at some angle of a
   half-lattice, even its least completion breaks this for either die by
   more than a tolerance derived in advance (:func:`_prune_tolerance`).
   The surviving leaves come out as one integer array per chunk of the
   search (:func:`_pruned_splits`);
2. pass each chunk through :func:`_point_filter`, one numpy float product
   for both dice of a diagonal type (each has degree k - 1) and one per die
   of a mixed type, with an error bound derived in advance, which gives
   every coefficient of every candidate die a status: certified positive
   (above its bound), certified negative (below minus its bound), or
   unresolved.  One mask drops the fair split and each pair with a
   certified negative coefficient, before any per-candidate work;
3. build exact products only for the remaining dice with a 0 status
   (p(1) > 0, so +1 statuses are signs), every such die of a chunk in one
   :func:`dicecore.root_products` call.  A die is its list of exponents at
   L: e and -e for each copy of a chi, and L/2 for each x + 1, whose root
   is -1 = zeta^(L/2) (x + 1 divides psi_k * psi_k' only when k or k' is
   even, and then L is even);
4. decide each unresolved coefficient with :func:`cyc_sign` (an exact
   zero is read from the canonical coordinates, never assumed; any other
   coefficient gets an integer enclosure excluding zero, at a precision
   capped by one derived in advance from a separation bound);
5. in :func:`exotic_search` only, build the dice of every accepted pair
   from the same exponent lists with one :func:`dicecore.root_pairs` call
   (stage 3's products serve only the sign checks): each pair's two
   products multiply to psi_k * psi_k', so each die's ring pass starts
   from its partner's value at 1 and is divided once by k*k'; no inverse.

The float stages (the prune and the point filter) keep x + 1 as its own
linear column, as its degree and its bounds differ from a chi's.

A prune rejects only what the derived bound excludes, so every die that
the point filter and the exact stage would accept reaches them.  No pair
is admitted or rejected from an unresolved float status.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool

# The package's modules before numpy: where no .pyc files are written, a
# module compiled after numpy is loaded raises the process's peak memory.
from .exactnum import CycElem, cyc_embed, cyc_sign, two_cos
from .dicecore import (Die, Sack, _integers, check_workers, fair_total,
                       normalize_to_die, poly_mul, root_pairs, root_products)

import numpy as np

M3_RATIO_BOUND = Fraction(60, 143)


# -- the batched point filter -----------------------------------------------

@functools.lru_cache(maxsize=None)
def _chi_factor(m: int, k: int) -> tuple[float, float]:
    # (-tau~, 1.0) for chi_{m,k}, where tau~ is the float nearest the midpoint
    # of a 2^-64-wide enclosure of tau = 2cos(2*pi*m/k): within 2^-52 + 2^-65
    # of tau, and at most 2 in absolute value, because 2 and -2 are floats.
    # The midpoint is one correctly rounded int division, (lo + hi)/2 over
    # the common denominator, with no Fraction arithmetic.
    lo, hi = cyc_embed(two_cos(m, k), 64)
    return (-((lo.numerator * hi.denominator + hi.numerator * lo.denominator)
              / (2 * lo.denominator * hi.denominator)), 1.0)


_X_PLUS_1 = (1.0, 0.0)


@functools.lru_cache(maxsize=None)
def _error_bounds(degree: int) -> np.ndarray:
    # b_j = eps_D * C(D, j), derived in _point_filter.  Each is computed in
    # Fractions and taken 1 + 2u times larger before rounding to nearest
    # (relative error below u), so the float is not below the exact bound.
    # eps = num/den is a Fraction once; num * C(D, j) / den is a correctly
    # rounded int division, the float of eps * C(D, j) without its gcd.
    if degree > 1000:
        raise ValueError("the point filter's bound holds for degree <= 1000")
    u = Fraction(1, 2 ** 53)
    eps = ((1 + 3 * u / (1 - 3 * u) + 3 * u) ** degree - 1 + u) * (1 + 2 * u)
    num, den = eps.numerator, eps.denominator
    out = np.array([num * math.comb(degree, j) / den
                    for j in range(degree + 1)])
    out.setflags(write=False)
    return out


def _point_product(factors, mults) -> np.ndarray:
    """Float coefficients of many factor products at once.

    ``factors`` are pairs (a1, a2) standing for 1 + a1*x + a2*x^2: a chi is
    (-tau~, 1.0) from _chi_factor(m, k), and x+1 is (1.0, 0.0).
    ``mults`` is a rows x factors matrix of multiplicities; row r stands for
    the product of factors[f] ** mults[r][f], and every row must have the
    same degree D.  Returns the rows x (D+1) computed coefficients,
    constant term first.

    One float array holds every row's partial product.  The columns are
    taken in order; for factor f and c = 1 .. max mult, the rows with
    mult >= c are multiplied by f, a shift-and-add in place: coefficient j
    becomes (p_j + a1 p_(j-1)) + a2 p_(j-2).  The other rows take the same
    step with a1 = a2 = 0, which leaves them as they are: no entry is ever
    -0 (it starts at +0 or 1, and a sum is -0 only when both terms are),
    and p_j + +-0 = p_j for every other float.  For the same reason a
    linear factor (a2 = 0) takes no x^2 update at all: it would add
    (0 * on) p_(j-2) = +-0.

    Every step's coefficients come from one comparison and one product,
    coef[c-1, f, d, r] = a_d(f) * [mults[r, f] >= c], the same floats the
    step would form from its own mask; so each step adds the same values
    in the same order, and the result does not depend on how they were
    gathered.  That table costs rows x factors x 2 x (largest mult) floats
    per call, rows x factors x 4 in a census, where every mult is at most 2.
    """
    mults = np.asarray(mults, dtype=np.int64).reshape(len(mults),
                                                      len(factors))
    degrees = mults @ [1 + (a2 != 0) for _, a2 in factors]
    degree = degrees.max(initial=0)
    if (degrees != degree).any():
        raise ValueError("every row must have the same degree")
    steps = np.arange(1, mults.max(initial=0) + 1)[:, None, None, None, None]
    coef = ((mults.T[:, None, :, None] >= steps)
            * np.array(factors, dtype=float).reshape(-1, 2, 1, 1))
    p = np.zeros((len(mults), degree + 1))
    p[:, 0] = 1.0
    for f, ((_, a2), top) in enumerate(
            zip(factors, mults.max(axis=0, initial=0).tolist())):
        for a1_on, a2_on in coef[:top, f]:
            if a2:
                by_x2 = a2_on * p[:, :-2]  # from p before the step
                p[:, 1:] += a1_on * p[:, :-1]
                p[:, 2:] += by_x2
            else:
                p[:, 1:] += a1_on * p[:, :-1]
    return p


def _point_filter(factors, mults) -> np.ndarray:
    """Certified coefficient signs of many factor products at once.

    Takes the arguments of :func:`_point_product` and returns a rows x (D+1)
    int8 array holding +1 where a computed coefficient p~_j exceeds its
    bound b_j = _error_bounds(D)[j], -1 where it lies below -b_j, and 0
    otherwise (unresolved).

    Error bound (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., ch. 3; Rump, Verification methods, Acta Numerica 2010), with
    u = 2^-53, gamma_3 = 3u/(1-3u), and |q| <= r meaning coefficientwise.
    Both |tau| and |tau~| are at most 2, so |1 - tau x + x^2| <= (1+x)^2 and
    |x + 1| <= 1 + x: the exact partial product of degree d is majorized by
    (1+x)^d.  Suppose the computed one, q~, is within e_d (1+x)^d of the
    exact one, q, so |q~| <= (1 + e_d)(1+x)^d.  A step by a factor g of
    degree delta, computed with g~ (tau~ in place of tau), has three error
    terms: g (q~ - q), within (1+x)^delta e_d (1+x)^d; (g~ - g) q~, where
    |tau~ - tau| <= 2^-52 + 2^-65 < 3u gives |g~ - g| <= 3u x <= 3u (1+x)^2;
    and the rounding of each output coefficient, a dot product of at most 3
    terms, within gamma_3 |g~| |q~| (Higham (3.4)).  Hence
    1 + e_(d+delta) <= (1 + e_d)(1 + gamma_3 + 3u).  Only steps that raise
    the degree round, at most D of them, so the final error is at most
    ((1 + gamma_3 + 3u)^D - 1) C(D, j) at coefficient j.  Underflow adds an
    absolute error below 2^-1075 per operation, at most 3 per coefficient
    and step, amplified by at most 2^D: under 3D 2^(D-1075) < u for
    D <= 1000, where (1+x)^D also stays clear of overflow.  So
    b_j = eps_D C(D, j) with eps_D = (1 + gamma_3 + 3u)^D - 1 + u, computed
    in Fractions and rounded up to a float, bounds |p~_j - p_j|, and a
    status of +-1 is the sign of p_j.
    """
    p = _point_product(factors, mults)
    bound = _error_bounds(p.shape[1] - 1)
    return (p > bound).view(np.int8) - (p < -bound).view(np.int8)


# -- the pruned split search --------------------------------------------------

# Rows per chunk of the split search's depth-first stack: large enough to
# amortize numpy's per-call cost, small enough to keep deep searches flat.
_SEARCH_ROWS = 4096

# _SPLIT_VALUES[cap][v] = ((v,), (cap - v,)): the copies of a column's factor
# that a value v gives die 1 and die 2
_SPLIT_VALUES = [np.array([[[v], [cap - v]] for v in range(cap + 1)])
                 for cap in range(3)]


def _log_ratios(factors, n: int) -> np.ndarray:
    """The n x factors table ell~[i, f] of the census prune.

    Row i is the float c_i = cos(pi*(2i+1)/(2n)), the half-lattice at
    conductor n.  For a chi with tau~ from _chi_factor, gamma~ = tau~/2 is
    cos(theta) and ell~ = log|c_i - gamma~| - log(1 - gamma~); x+1 takes
    gamma = -1 and half that value.  :func:`_prune_error` bounds the error.
    """
    c = np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))[:, None]
    gamma = np.array([-a1 / 2 if a2 else -1.0 for a1, a2 in factors])
    half = np.array([1.0 if a2 else 0.5 for _, a2 in factors])
    return (np.log(np.abs(c - gamma)) - np.log(1 - gamma)) * half


@functools.lru_cache(maxsize=None)
def _prune_error(n: int) -> tuple[Fraction, Fraction]:
    """(e, lam): every entry of _log_ratios(factors, n) is within e of its
    exact value, and every exact value is at most lam in absolute value.

    The condition.  A die p with nonnegative coefficients has
    |p(z)| <= p(1) for |z| = 1.  Take z = e^(i phi) with cos(phi) = c:
    |chi_m(z)| = 2|c - cos(theta_m)| and chi_m(1) = 2(1 - cos(theta_m));
    |z + 1| = sqrt(2(1 + c)), so log(|z + 1|/2) is half the chi expression
    at cos(theta) = -1.  For p = prod chi_m^(r_m) (x+1)^(x1) the condition
    is sum_m r_m ell_m + x1 ell_x <= 0, with ell_m = log|c - cos(theta_m)|
    - log(1 - cos(theta_m)) and ell_x = (log(1 + c) - log 2)/2.  It holds
    for every c in [-1, 1], so the float c_i itself is taken as exact.

    Separation (u = 2^-53, s = sin(pi/(4n))).  With phi_i = pi(2i+1)/(2n)
    and theta = 2*pi*m'/n, 0 < m' < n, cos(phi_i) - cos(theta) =
    -2 sin((phi_i + theta)/2) sin((phi_i - theta)/2), and both half-angles
    are odd multiples of pi/(4n), at least pi/(4n) from any multiple of pi:
    |cos(phi_i) - cos(theta)| >= 2s^2.  Also 1 + cos(phi_i) =
    2cos^2(phi_i/2) >= 2s^2, as phi_i/2 <= pi/2 - pi/(4n), and
    1 - cos(theta) = 2 sin^2(pi m'/n) >= 2s^2.  The angle
    fl(fl(pi (2i+1))/(2n)) is within 3.01u*pi < 10u of phi_i and, taking
    the library's cos within 4 ulp (8u on [-1, 1]), |c_i - cos(phi_i)| <=
    18u.  So |c_i - gamma| >= g = 2s^2 - 18u and 1 - gamma >= g for the
    exact gamma of every column.

    One entry.  gamma~ = tau~/2 is within 2^-53 + 2^-66 of cos(theta) (the
    halving is exact), and gamma = -1 is exact.  Each of fl(c_i - gamma~)
    and fl(1 - gamma~) is then its exact counterpart times 1 + rho with
    |rho| <= rho1 = (2^-53 + 2^-66)(1 + u)/g + u, which moves its log by
    at most 2 rho1 (rho1 <= 1/4).  Every exact and computed argument lies
    in [g(1 - rho1), 2(1 + rho1)], so every log is at most
    lam = log(2/g) in absolute value (g <= 1/2), and so is every exact
    entry, a difference of two logs in [log g, log 2].  The library's log,
    taken within 4 ulp, adds 8u*lam + 2^-1072 (ulp(z) <= 2u|z|, or 2^-1074
    below the normal range), so each computed log is within
    d = 2 rho1 + 8u lam + 2^-1072 of its exact counterpart and at most
    lam + d in absolute value.  The subtraction adds u * 2(lam + d), and
    the halving of the x+1 entry is exact.  So each entry is within
    e = 2d(1 + u) + 2u lam of its exact value.

    s is bounded below by x - x^3/6 at x = 3.14159/(4n) <= pi/(4n), and lam
    above by ln 2 < 0.6932 times the bit length of ceil(2/g); all exact.
    A conductor too large for g > 0 and rho1 <= 1/4 (above 22 474 148) is
    refused.
    """
    # Each quantity is an unreduced integer pair, and e is reduced once:
    # with x = X/Y and w = 6 X Y^2 - X^3, x - x^3/6 = w/(6 Y^3), so
    # g = gn/gd; rho1 = rn/rd, as u + 2^-66 = (2^13 + 1)/2^66; d = dn/t.
    big = 2 ** 53  # 1/u
    X, Y = 314159, 400000 * n
    w = 6 * X * Y ** 2 - X ** 3
    gn, gd = big * w * w - 324 * Y ** 6, 18 * big * Y ** 6
    rn, rd = (2 ** 13 + 1) * (big + 1) * gd + (gn << 66), gn << 119
    if gn <= 0 or 4 * rn > rd:
        raise ValueError("the census prune's bound holds for conductors "
                         "up to 22474148")
    bits = (-(-2 * gd // gn)).bit_length()  # of ceil(2/g); lam = 0.6932 bits
    t = 10000 * rd << 1072
    dn = (20000 * rn << 1072) + (8 * 6932 * bits * rd << 1019) + 10000 * rd
    e = Fraction(2 * (big + 1) * dn + (2 * 6932 * bits * rd << 1072), big * t)
    return e, Fraction(6932 * bits, 10000)


@functools.lru_cache(maxsize=None)
def _prune_tolerance(n: int, degree: int, terms: int) -> float:
    """The float tol such that a split search node whose computed bound
    exceeds tol has no completion to a die with nonnegative coefficients.

    A computed bound is the float sum, in some order, of at most ``terms``
    values: v * ell~ for each fixed column (v <= 2, an exact product) and
    the slot values of the greedy completion.  Those come from the at most
    ``degree`` slots of one die.  With e and lam from :func:`_prune_error`,
    the exact sum of the same values is within degree * e of the exact
    value of that completion, and the rounding of any summation order adds
    at most gamma_terms * degree * (lam + e) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., (4.4)), gamma_j = ju/(1-ju).
    The greedy completion of the computed values has a sum no larger than
    that of any other completion, so if a completion to a die exists, its
    exact value is <= 0 and the computed bound is at most
    tol = degree (e + gamma_terms (lam + e)), computed exactly and rounded
    up as in _error_bounds.
    """
    # with M = 1/u, e + gamma (lam + e) = (M e + terms lam)/(M - terms), and
    # 1 + 2u = (2^52 + 1)/2^52; one correctly rounded int division
    big = 2 ** 53
    e, lam = _prune_error(n)
    num = (big * e.numerator * lam.denominator
           + terms * lam.numerator * e.denominator)
    den = (big - terms) * e.denominator * lam.denominator
    return degree * num * (2 ** 52 + 1) / (den << 52)


def _split_search(ell, factors, caps, degree, tol, symmetric=False):
    """Branch and bound over the splits of a factor multiset into two dice.

    ``factors`` are as for :func:`_point_product`, at most one of them the
    linear x+1, with multiplicities ``caps``, each at most 2; ``ell`` is
    their :func:`_log_ratios` table.  A split gives die 1 r_f <= caps[f]
    copies of factor f and die 2 the other caps[f] - r_f, and die 1 must
    have degree ``degree``.  With ``symmetric`` only the splits whose row
    is below its complement, lexicographically in the order the columns are
    fixed, are searched, and the self-complementary one is dropped.

    Columns are fixed one at a time, the linear one first, in depth-first
    chunks of at most _SEARCH_ROWS nodes.  A chunk's children are built in
    one array step, so a chunk costs a fixed number of numpy calls whatever
    its size: each parent once per value v of the column, v-major, and one
    mask keeps the feasible ones.  At every node and angle, each die's
    bound is its fixed part sum r_f ell~_f plus the least value any
    completion can reach: all remaining columns are chis, a die still needs
    R of their slots (a column has caps[f] slots of value ell~_f), and with
    every cap and the slot count fixed that least value is the sum of the R
    smallest remaining slot values, read from their cumulative sums.  Both
    dice's part sums and bounds are taken in one array, nodes x dice x
    angles.  A node survives when both dice's bounds are at most ``tol`` at
    every angle (:func:`_prune_tolerance`).

    Every depth's cumulative sums come from one sort: a depths x slots x
    angles array of the slot values in which the slots already fixed at
    depth j are +inf, sorted and summed along the slots.  The first S_j + 1
    prefix sums of depth j, S_j its remaining slots, are then those of its
    remaining values in ascending order, the same floats summed in the same
    order as a sort of those values alone would give: equal values are
    equal floats but for +-0, and a prefix sum starts at +0 and so is never
    -0, which makes adding +0 and -0 alike.  So the floors, and with them
    every bound, do not depend on how they were gathered.

    Yields ``(depth, rows, bounds, keep)`` for every chunk of nodes it
    evaluates: die-1 rows with the first ``depth`` columns fixed (the rest
    0), each die's largest bound over the angles, and the survivors; at
    depth ``len(factors)`` the survivors are the splits that remain.
    """
    widths = [2 if a2 else 1 for _, a2 in factors]
    order = sorted(range(len(factors)), key=widths.__getitem__)
    caps = np.asarray(caps, dtype=np.int64)
    if 1 in [widths[f] for f in order[1:]] or caps.max(initial=0) > 2:
        raise ValueError("one linear factor at most, and caps at most 2")
    # slots[j] remaining chi slots once the columns order[:j] are fixed
    # (j >= 1), and floors[j][R, d, i] at angle i the least sum of R of them
    # (d = 0) or of all but R (d = 1); every slot belongs to order[1:]
    rest = order[1:]
    fixed_at = np.repeat(np.arange(1, len(order)), caps[rest])  # per slot
    depths = np.arange(1, len(order) + 1)[:, None]
    unfixed = fixed_at >= depths  # depths x slots
    sums = np.zeros((len(order), len(fixed_at) + 1, len(ell)))
    sums[:, 1:] = np.sort(np.where(
        unfixed[:, :, None], np.repeat(ell[:, rest].T, caps[rest], axis=0),
        np.inf), axis=1)
    np.cumsum(sums, axis=1, out=sums)
    left = unfixed.sum(axis=1)
    # each depth's sums and, at R <= left, their reverse, in C order, so
    # that each gathered row is contiguous along the angles
    reverse = np.maximum(left[:, None] - np.arange(len(fixed_at) + 1), 0)
    table = np.stack([sums, sums[depths - 1, reverse]], 2)
    slots = [None] + left.tolist()
    floors = [None] + [table[j, :s + 1] for j, s in enumerate(slots[1:])]
    # a node: rows, the two dice's part sums, die-1 degree left, and
    # whether the row still equals its complement
    stack = [(0, (np.zeros((1, len(factors)), dtype=np.int64),
                  np.zeros((1, 2, len(ell))), np.array([degree]),
                  np.array([True])))]
    while stack:
        j, (rows, parts, left, tied) = stack.pop()
        f, cap, width = order[j], caps[order[j]], widths[order[j]]
        # every parent once per value v, v-major: entry (v, r) of each
        # (cap + 1) x parents array, and one mask keeps the children
        values = _SPLIT_VALUES[cap]
        rest = left - width * values[:, 0]
        ok = (rest >= 0) & (rest <= 2 * slots[j + 1]) & (rest % 2 == 0)
        if symmetric:
            ok &= ~tied | (2 * values[:, 0] <= cap)
        v, i = np.nonzero(ok)
        rows, left = rows[i], rest[ok]
        rows[:, f] = v
        parts = parts[i] + (values * ell[:, f])[v]
        tied = tied[i] & (2 * v == cap)
        bounds = (parts + floors[j + 1][left // 2]).max(axis=2)
        keep = (bounds <= tol).all(axis=1)
        if symmetric and j + 1 == len(order):
            keep &= ~tied
        yield j + 1, rows, bounds, keep
        i = keep.nonzero()[0]
        if j + 1 == len(order) or not len(i):
            continue
        # survivors that fit one chunk are that chunk; more are cut where
        # np.array_split cuts them
        chunks = ([i] if len(i) <= _SEARCH_ROWS else
                  reversed(np.array_split(i, -(-len(i) // _SEARCH_ROWS))))
        stack.extend((j + 1, (rows[c], parts[c], left[c], tied[c]))
                     for c in chunks)


def _pruned_splits(factors, caps, degree, conductor, symmetric=False):
    """The die-1 rows of :func:`_split_search` that survive to the end, one
    int64 array per nonempty chunk of the last depth (at most
    3 * _SEARCH_ROWS rows, as each node has at most three children); the
    prune's table and tolerance are taken at ``conductor``, where every
    factor's root lies."""
    total = sum(c * (2 if a2 else 1) for c, (_, a2) in zip(caps, factors))
    tol = _prune_tolerance(conductor, max(degree, total - degree),
                           len(factors) + sum(caps))
    for depth, rows, _, keep in _split_search(
            _log_ratios(factors, conductor), factors, caps, degree, tol,
            symmetric):
        if depth == len(factors) and keep.any():
            yield rows[keep]


# -- swap specifications and censuses ---------------------------------------

@dataclass(frozen=True)
class SwapSpec:
    """A factor redistribution relative to the fair assignment: ``give`` are
    the factor indices removed from the first die, ``take`` those added."""

    give: tuple
    take: tuple

    def canonical(self) -> "SwapSpec":
        return SwapSpec(*sorted((tuple(self.give), tuple(self.take))))

    def render(self) -> str:
        fmt = lambda s: ",".join(str(x) for x in s)
        return f"[{fmt(self.give)}<->{fmt(self.take)}]"


@dataclass(frozen=True)
class ExoticCensus:
    sacks: tuple  # of (Sack, SwapSpec)

    @property
    def count(self) -> int:
        return len(self.sacks)


def _merged_factor_multiset(k: int, kp: int):
    """(chis, x1): the real irreducible factors of psi_k * psi_kp.  chis maps
    the root exponent e of each chi, chi = (x - zeta^e)(x - zeta^-e) at the
    conductor L = lcm(k, kp), to its multiplicity: chi_{m,order} has
    e = m * (L / order), so equal factors from the two orders share one key
    and merge.  x1 counts the x + 1 factors."""
    conductor = math.lcm(k, kp)
    chis: dict[int, int] = {}
    for order in (k, kp):
        step = conductor // order
        for e in range(step, (order + 1) // 2 * step, step):
            chis[e] = chis.get(e, 0) + 1
    x1 = (1 if k % 2 == 0 else 0) + (1 if kp % 2 == 0 else 0)
    return chis, x1


def _decided_pairs(k: int, kp: int):
    """Stages 1-4: yields each accepted pair of type (k, kp), in the census's
    order, as (spec, roots): per die its exponents e of zeta^e at conductor
    L = lcm(k, kp), x + 1 as e = L/2.  A die's product is made only when a
    status is 0, for its sign checks, and is not kept.

    Every key is a chi's root exponent e at L, an int (see
    :func:`_merged_factor_multiset`): e sorts as the angle e/L does, the
    chi's float factor is keyed by e/L in lowest terms, the chi belongs to
    psi_k when L/k divides e, and a spec's label is e itself when k = kp
    (there L = k, so e is m) and the angle Fraction(e, L) otherwise."""
    symmetric = k == kp
    chis, x1_total = _merged_factor_multiset(k, kp)
    keys = sorted(chis)
    conductor = math.lcm(k, kp)
    factors = [_chi_factor(e // g, conductor // g)
               for e in keys for g in [math.gcd(e, conductor)]] + [_X_PLUS_1]
    caps = [chis[e] for e in keys] + [x1_total]
    # die 1 of the fair split: the chis of psi_k, and x+1 when k is even
    step = conductor // k
    fair = tuple(int(e % step == 0) for e in keys) + (1 - k % 2,)
    labels = keys if symmetric else [Fraction(e, conductor) for e in keys]
    # a chi's two roots once per copy, and x + 1's root zeta^(L/2): x1_total
    # is nonzero only when k or kp is even, and then L is even
    signed = [(e, -e) for e in keys] + [(conductor // 2,)]
    accepted = []
    # die 1 of degree exactly k-1, die 2 the rest of the caps
    for rows in _pruned_splits(factors, caps, k - 1, conductor, symmetric):
        dice = (rows, caps - rows)
        # when k = kp both dice have degree k - 1, so one pass takes both
        if symmetric:
            status = _point_filter(factors, np.concatenate(dice))
            statuses = (status[:len(rows)], status[len(rows):])
        else:
            statuses = [_point_filter(factors, die) for die in dice]
        keep = (rows != fair).any(axis=1)
        for status in statuses:
            keep &= (status >= 0).all(axis=1)
        # per kept pair: its two dice's rows, their statuses and roots
        kept = keep.nonzero()[0]
        pairs = list(zip(*(die[kept].tolist() for die in dice)))
        signs = list(zip(*(status[kept].tolist() for status in statuses)))
        roots = [[[x for pm, v in zip(signed, row) for x in pm * v]
                  for row in pair] for pair in pairs]
        # stage 3: the products of every die with a 0 status, in one call
        polys = iter(root_products(conductor, [
            a for pair, status in zip(roots, signs)
            for a, s in zip(pair, status) if 0 in s]))
        for pair, pair_roots, pair_signs in zip(pairs, roots, signs):
            products = [next(polys) if 0 in s else None for s in pair_signs]
            if any(s == 0 and cyc_sign(c).sign < 0
                   for poly, status in zip(products, pair_signs) if poly
                   for c, s in zip(poly, status)):
                continue
            d1 = list(zip(labels, pair[0], fair))
            spec = SwapSpec(tuple(q for q, v, f in d1 if v < f),
                            tuple(q for q, v, f in d1 if v > f))
            accepted.append((spec.canonical() if symmetric else spec,
                             pair_roots))
    yield from sorted(accepted, key=lambda e: (
        len(e[0].give) if symmetric else 0, e[0].give, e[0].take))


def exotic_search(k: int, kp: int) -> ExoticCensus:
    """All strict exotic sacks of type (k, kp) obtained by redistributing
    the real irreducible factors of psi_k * psi_kp.

    A spec's ``give`` lists the keys whose die-1 multiplicity falls below
    the fair split's, and ``take`` those where it exceeds it.  When k = kp a
    split and its swap are one pair: the search is symmetric, a key m/k is
    written as the integer m, each spec is canonical, and the sacks are
    ordered first by the number of factors swapped.  The pairs accepted by
    :func:`_decided_pairs` are built together by one
    :func:`dicecore.root_pairs` call, after every pair is decided.
    """
    _integers((k, kp), "orders must be integers")
    if not 2 <= k <= kp:
        raise ValueError("orders must satisfy 2 <= k <= k'")
    decided = list(_decided_pairs(k, kp))
    pairs = root_pairs(math.lcm(k, kp), [roots for _, roots in decided])
    return ExoticCensus(tuple((Sack(pair), spec)
                              for pair, (spec, _) in zip(pairs, decided)))


def swap_census(k: int) -> list[SwapSpec]:
    """Strict exotic pairs of k-dice as give/take swap lists (no dice are
    built), by the number of factors swapped, then lexicographically."""
    _integers((k,), "orders must be integers")
    if k < 2:
        raise ValueError("order must satisfy k >= 2")
    return [spec for spec, _ in _decided_pairs(k, k)]


def smallest_exotic_34() -> Sack:
    """The exotic sack of type (3, 4), the one sack of its census."""
    return exotic_search(3, 4).sacks[0][0]


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
    # chi_m = (x - zeta^m)(x - zeta^-m): each die has chi_1, chi_2, chi_3
    # and chi_6, and d chi_4 twice where dhat has chi_5 twice
    polys = root_products(k, [[s * m for m in (1, 2, 3, c, c, 6)
                               for s in (1, -1)] for c in (4, 5)])
    d, dhat = (normalize_to_die(p, order=k) for p in polys)
    strict = d.is_strict() and dhat.is_strict()
    palindromic = d.is_palindromic() and dhat.is_palindromic()
    total = poly_mul(d.probs, dhat.probs)
    fair = fair_total((k, k))
    product_ok = all(a == b for a, b in zip(total, fair))
    max_slack = Fraction(0)
    for die, table in ((d, TRIDECA_TABLE_D), (dhat, TRIDECA_TABLE_DHAT)):
        for i, approx in enumerate(table):
            target = Fraction(approx).limit_denominator(10 ** 7)
            lo, hi = cyc_embed(die.probs[i], 64)
            max_slack = max(max_slack, abs(lo - target), abs(hi - target))
    # lo <= hi, so both ends lie within 5e-8 of the target exactly when the
    # larger distance does
    return TridecahedralReport(d, dhat, strict, palindromic, product_ok,
                               max_slack <= Fraction(5, 10 ** 8), max_slack)


# -- the order-3 and order-4 scans ------------------------------------------

@dataclass(frozen=True, init=False)
class ScanRecord:
    """Result of one swap scan: the strict-swap index set S, ascending.  Its
    maximum M and the ratio R = M/k (None when S is empty) are read from S;
    an M or R passed in, as ``dataclasses.replace`` passes one to show a
    checker a corrupted record, is reported instead."""

    k: int
    S: tuple

    def __init__(self, k: int, S: tuple, M=None, R=None):
        self.__dict__.update(k=k, S=S, _M=M, _R=R)

    @property
    def M(self) -> int | None:
        return self.S[-1] if self._M is None and self.S else self._M

    @property
    def R(self) -> Fraction | None:
        return (Fraction(self.S[-1], self.k) if self._R is None and self.S
                else self._R)


def _scan_params(ell: int):
    # f differs from its middle value c only at the top: f_k and f_{k+1}
    # fall short by a and b.
    return (3, 1, 2) if ell == 3 else (2, 1, 1)


def _scan_ms(ell: int, k: int) -> range:
    """The m for which the swapped small die is strict: m/k >= 1/4 (ell=3)
    or >= 1/6 (ell=4), and m/k < 1/2, as integer bounds."""
    return range(-(-k // (4 if ell == 3 else 6)), (k + 1) // 2)


# the multiples m, 2m, 3m of _scan_row_pass's stage 1, and its lattice
# pair i, i + 1
_SCAN_STEPS = np.array([1, 2, 3], dtype=np.int64)
_SCAN_PAIR = np.array([0, 1], dtype=np.int64)


def _scan_row_pass(ell: int, k: int, ms):
    """The float values that decide each candidate row m of a scan.

    Returns ``(lattice, v)``, rows x 2 arrays: the two lattice indices i
    and i+1 (mod k') that bracket -arg W, and the closed form below at
    those two indices, from only the nine cosines and sines it reads.

    Closed form.  Solving the division recurrence gives
    q_j = sum_i f_{j+2+i} U_i with U_i = sin((i+1)t)/sin(t) and
    t = 2*pi*m/k; summing the sines in closed form (f is constant except
    at the top) yields, with N = k-1-j and theta = N t,

      q_j sin(t) = c (cos(t/2) - cos(theta + 3t/2)) L
                   - a sin(theta) - b sin(theta + t)
                 = alpha - |W| cos(theta + arg W),

      L = 1/(2 sin(t/2)),  alpha = c L cos(t/2),
      W = c L e^(3it/2) - i a - i b e^(it).

    sin(t) > 0, so this has the sign of q_j.

    (a) The lattice.  With g = gcd(m, k), k' = k/g and m' = m/g,
    theta = 2*pi*N*m'/k' mod 2*pi, and m' is prime to k': as N runs over
    0..k-1, N m' mod k' meets every residue i, g times.  So theta takes
    exactly the angles 2*pi*i/k', and each lattice value
    alpha - |W| cos(2*pi*i/k' + arg W) is q_j sin(t) for the N with
    N m' = i (mod k'), N = i m'^-1 mod k'.  cos falls with the circular
    distance from 0, so the least q_j of the row is at the lattice point
    nearest -arg W.  Every angle is an integer multiple of pi/k reduced
    exactly mod 2k: t/2 is the residue m, and at index i, 2mN = 2gi
    (mod 2k), so the closed form reads the residues r = 2gi, r + 3m and
    r + 2m.

    (b) Float error (u = 2^-53).  An angle fl(fl(pi*r)/k) is within
    3u * 2pi of pi*r/k for r < 2k; sin and cos are 1-Lipschitz and, taking
    the library's to be within 4 ulp (8u on [-1, 1]), every cos and sin is
    within e = 6*pi*u + 8u < 27u of its exact value.  Here
    t/2 = pi*m/k >= pi/6 > pi/12, because m/k >= 1/4 (ell=3) or 1/6
    (ell=4) and m < k/2, so L <= 1/(2 sin(pi/12)) < 2.  To first order,
    c*(cos - cos) is off by c(2e + 4u) and bounded by 2c, 2*sin(t/2) is
    off by 2e (the doubling is exact), so the quotient is off by
    cL(2e + 4u) + 2c*2e*L^2 + its own rounding 2cLu; the two sine terms
    add (a + b)(e + u) and the two subtractions 2u(2cL + a + b).  With
    c <= 3, a + b <= 3 and L < 2 the total is under 1800u, about 2e-13,
    more than three orders of magnitude inside _SCAN_MARGIN = 1e-9: each
    v is within 1800u of its q_j sin(t).  In the same way
    c*x/(2 sin(t/2)) for one cos or sin x is off by
    cL(e + u) + 2ceL^2 + cLu < 822u; the exact products by b <= 2 add 2e,
    and each of the at most two further roundings in a component of W at
    most u(2c + a + b) < 10u.  So each component of the computed W~ is
    within 900u, and W~ within 900u*sqrt(2) < 1300u of W.

    (c) The bracket.  If alpha - |W| > 0, every q_j of the row is
    positive, so whichever indices are returned no value is below -1800u
    and the row is accepted, directly or through the exact stage.  That
    covers the rows with W = 0 (m/k = 1/3 for ell=3, 1/4 for ell=4),
    where arg W means nothing.  Otherwise, since m <= (k-1)/2,
    |W| >= alpha = (c/2) cot(pi*m/k) >= (c/2) tan(pi/(2k)) >= c*pi/(4k),
    and c >= 2 gives |W| >= w = pi/(2k), far above 1300u.  The angle
    between W~ and W is then at most arcsin(1300u/w) <= (pi/2)(1300u/w),
    and arctan2 within 4 ulp of a value in [-pi, pi] adds 16u.  The
    position p = -k' arg(W)/(2pi), |p| <= k'/2, is computed with three
    roundings (fl(2pi) included), under 2uk' more.  So p~ is within
    k'(325u/w + 5u) of p, circularly mod k'.  While that is below 1/2,
    the lattice index nearest p is within 1 of p~, so it is floor(p~) or
    floor(p~) + 1 (mod k'): the two indices returned.

    (d) The limit.  With k' <= k, w = pi/(2k) and pi bounded below by
    3.14159, k(650uk/pi + 5u) < 1/2 holds exactly for
    k <= _SCAN_K_MAX = 4 665 497; :func:`s_scan` and :func:`scan_table`
    refuse larger k.

    The tests check (b) and (c) against a 60-digit evaluation.

    Two stacked trig passes compute it.  Stage 1 takes one cos and one sin
    of the residues m, 2m and 3m of every row, stacked; 0 < m < k/2 puts
    each below 2k, so no reduction is needed.  Stage 2 stacks the residues
    r + 3m, r and r + 2m of both lattice indices, reduces them mod 2k once,
    and takes one cos of the first block and one sin of the other two.
    Each angle is fl(fl(pi*r)/k) and the trig functions act elementwise, so
    stacking changes no float: every value is the one (b) bounds, and (b)
    holds unchanged.  The tests pin the values bit for bit against the
    closed form evaluated angle by angle.
    """
    c, a, b = _scan_params(ell)
    m = np.asarray(ms, dtype=np.int64)[:, None]  # one row per m
    rows = len(m)
    g = np.gcd(m, k)
    # stage 1: cos and sin of t/2, t and 3t/2
    res = np.multiply.outer(_SCAN_STEPS, m)  # m, 2m, 3m
    angles = np.pi * res / k
    (ch, c2, c3), (sh, s2, s3) = np.cos(angles), np.sin(angles)
    twice_sh, kr = 2 * sh, k // g
    w_re = c * c3 / twice_sh + b * s2
    w_im = c * s3 / twice_sh - a - b * c2
    p = kr * -np.arctan2(w_im, w_re) / (2 * np.pi)
    lattice = (np.floor(p).astype(np.int64) + _SCAN_PAIR) % kr
    # stage 2: the residues r + 3m, r and r + 2m at both lattice indices
    r = 2 * g * lattice
    angles = np.pi * (np.concatenate((r + res[2], r, r + res[1]))
                      % (2 * k)) / k
    cos_3m = np.cos(angles[:rows])
    sin_r, sin_2m = np.sin(angles[rows:]).reshape(2, rows, 2)
    v = c * (ch - cos_3m) / twice_sh - a * sin_r - b * sin_2m
    return lattice, v


_SCAN_MARGIN = 1e-9

# The largest k for which _scan_row_pass's bracket is proven.
_SCAN_K_MAX = 4_665_497


def _scan_coeff_elem(ell: int, k: int, m: int, j: int) -> CycElem:
    """Swap-quotient coefficient j, times |W_0|^2, as an exact element of
    the subfield Q(zeta_k') of Q(zeta_k), k' = k/gcd(m, k).

    Solving the division recurrence gives q_j = sum_i f_{j+2+i} U_i with
    U_i = sin((i+1)t)/sin(t), t = 2*pi*m/k.  Writing W_i for the purely
    imaginary zeta_k^((i+1)m) - zeta_k^(-(i+1)m) = 2i sin((i+1)t) and using
    that f is constant in the middle, with N = k-1-j,

      q_j |W_0|^2 = -W_0 (c sum_{i<=N} W_i - a W_{N-1} - b W_N).

    Subfield.  With g = gcd(m, k), k' = k/g and m' = m/g, every power
    zeta_k^((i+1)m) is zeta_k'^((i+1)m'), so the whole right side lies in
    Q(zeta_k') and is built there.  Full periods.  m' is prime to k', so
    over any k' consecutive i the exponent (i+1)m' mod k' meets every
    residue once: those terms add c to every coordinate and subtract c from
    every coordinate, the zero vector.  Of the N+1 terms of the sum only the
    first (N+1) mod k' are left; the two edge corrections are added as
    they are, and -W_0 = zeta_k'^(-m') - zeta_k'^(m') is two rotations by
    m'.  The escalated rows of the order-4 scan have m = k/3, so k' = 3.
    """
    c, a, b = _scan_params(ell)
    g = math.gcd(m, k)
    kr, mr = k // g, m // g  # k' and m'
    n = k - 1 - j  # top summation index N
    x = [0] * kr  # c * sum_{i=0..N} W_i minus the edge corrections
    for i in range((n + 1) % kr):
        e = ((i + 1) * mr) % kr
        x[e] += c
        x[-e % kr] -= c
    # f_k and f_{k+1}, short of c by a and b, occur at i = N-1 and i = N
    for i, short in ((n - 1, a), (n, b)):
        if i >= 0:
            e = ((i + 1) * mr) % kr
            x[e] -= short
            x[-e % kr] += short
    # multiply by -W_0 = zeta^(-m') - zeta^(m') (two rotations)
    y = [x[(i + mr) % kr] - x[(i - mr) % kr] for i in range(kr)]
    return CycElem.from_power_basis(kr, y)


def _scan_coeff_sign(ell: int, k: int, m: int, j: int) -> int:
    """Certified sign of swap-quotient coefficient j: :func:`cyc_sign` of
    the exact element :func:`_scan_coeff_elem` (|W_0|^2 > 0)."""
    return cyc_sign(_scan_coeff_elem(ell, k, m, j)).sign


def _check_scan(ell: int, k: int) -> None:
    """Refuse an ell other than 3 or 4, or a k past the proven bracket."""
    _integers((ell, k), "orders must be integers")
    if ell not in (3, 4):
        raise ValueError("only the order-3 and order-4 scans are supported")
    if not 2 <= k <= _SCAN_K_MAX:
        raise ValueError(f"k must satisfy 2 <= k <= {_SCAN_K_MAX}")


def s_scan(ell: int, k: int) -> ScanRecord:
    """The strict-swap scan: for each m < k/2, swap chi_{m,k} into a fair
    ell-die and test strictness of both resulting dice.

    The small die is strict iff m/k >= 1/4 (ell=3) or m/k >= 1/6 (ell=4),
    an exact integer test (:func:`_scan_ms`); the k-die is tested by
    certified division, one row per m.  :func:`_scan_row_pass` writes
    every quotient coefficient of the row as alpha - |W| cos(theta + arg W)
    over the lattice theta = 2*pi*i/k', so the row's least coefficient
    sits at one of the two lattice indices next to -arg W (or the row is
    positive throughout).  The closed form at those two indices decides
    the row: a value below -_SCAN_MARGIN is a certified negative and
    rejects it, two values above _SCAN_MARGIN accept it, and each value
    within _SCAN_MARGIN of zero goes, in order and until one is negative,
    to :func:`_scan_coeff_sign`, which builds that coefficient exactly in
    the subfield Q(zeta_k') for :func:`cyc_sign`.  For k <= 5000 that
    happens once for each k divisible by 3, in the order-4 row m = k/3,
    and the coefficient is an exact zero.  k is at most _SCAN_K_MAX.
    """
    _check_scan(ell, k)
    ms = _scan_ms(ell, k)
    lattice, v = _scan_row_pass(ell, k, np.arange(ms.start, ms.stop))
    lo = np.minimum(v[:, 0], v[:, 1])
    ok = lo >= -_SCAN_MARGIN
    for row in (ok & (lo <= _SCAN_MARGIN)).nonzero()[0]:
        m, kr = ms[row], k // math.gcd(ms[row], k)
        # j = k-1-N, N = i / m' mod k' for each unclear index i, m' = m/g
        unclear = lattice[row][v[row] <= _SCAN_MARGIN]
        js = k - 1 - unclear * pow(m * kr // k, -1, kr) % kr
        ok[row] = all(_scan_coeff_sign(ell, k, m, j) >= 0 for j in js.tolist())
    return ScanRecord(k, tuple((ok.nonzero()[0] + ms.start).tolist()))


def scan_table(ell: int, k_max: int, workers: int = 1):
    """The scan records for one ell and every k from 2 to k_max, yielded in
    ascending k: the one loop over k, deterministic for any worker count.
    An ell other than 3 or 4, a k_max outside [2, _SCAN_K_MAX] or a worker
    count outside [1, os.cpu_count()] is refused by the call itself, before
    any scan or process starts."""
    _check_scan(ell, k_max)
    check_workers(workers)
    ks = range(2, k_max + 1)
    scan = functools.partial(s_scan, ell)
    if workers > 1 and len(ks) > workers:
        return _pooled(workers, scan, ks)
    return map(scan, ks)


def _pooled(workers, scan, ks):
    with Pool(workers) as pool:
        yield from pool.imap(scan, ks, chunksize=8)


@dataclass(frozen=True)
class M3Exception:
    k: int
    difference: int


@dataclass(frozen=True)
class M3ExceptionReport:
    k_max: int
    exceptions: tuple
    b_sequence: tuple  # empirical b_a with k_a = 603*a + 143*b_a


def m3_exceptions(records) -> M3ExceptionReport:
    """All k <= k_max - 143 where M3(k+143) - M3(k) differs from 60, with
    the empirical reconstruction of the exception sequence b_a: one pass
    over ell = 3 scan records in ascending k, such as :func:`scan_table`'s,
    holding the last 143 maxima.  The records must run k = 2, 3, 4, ...
    without a gap, as a skipped k would skip its comparisons unnoticed;
    k_max is the last record's k."""
    window, exceptions, k_max = {}, [], 1  # window: M3 of the last 143 k
    for r in records:
        if r.k != k_max + 1:
            raise ValueError(f"scan record k = {r.k} is out of order: "
                             f"expected k = {k_max + 1}")
        k_max = r.k
        window[k_max] = r.M
        before = window.pop(k_max - 143, None)
        if None not in (before, r.M) and r.M - before != 60:
            exceptions.append(M3Exception(k_max - 143, r.M - before))
    if k_max < 746:
        raise ValueError("k_max must be at least 746 to see the first exception")
    bs = tuple(Fraction(exc.k - 603 * a, 143)
               for a, exc in enumerate(exceptions, start=1))
    return M3ExceptionReport(k_max, tuple(exceptions), bs)
