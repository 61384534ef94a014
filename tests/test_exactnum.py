"""Cyclotomic arithmetic: canonical reduction, ring laws, certified signs."""

import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import mpmath
import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_checks import check_pair, check_refusals, is_canonical
from totalparts import exactnum
from totalparts.exactnum import (
    CycElem,
    _reduce_ints,
    NotReal,
    as_scalar,
    cyc_embed,
    cyc_sign,
    cyclotomic_poly,
    fixed_cos,
    fixed_pi,
    phi,
    ring_scalars,
    two_cos,
)

# Phi_n for small n: standard values, asserted directly.
KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
    105: None,  # checked separately for the famous -2 coefficient
}


def test_cyclotomic_polynomials_match_known_values():
    for n, coeffs in KNOWN_PHI.items():
        if coeffs is not None:
            assert cyclotomic_poly(n) == coeffs


def test_phi_105_has_coefficient_minus_two():
    assert -2 in cyclotomic_poly(105)


def test_cyclotomic_degree_is_totient():
    for n in range(1, 40):
        assert len(cyclotomic_poly(n)) == phi(n) + 1


def ref_cyclotomic_poly(n, known):
    # Phi_n by the recursive division (x^n - 1) / prod_{d|n, d<n} Phi_d,
    # with known[d] = Phi_d for every d < n
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = known[d]
            deg = len(den) - 1
            quot = [0] * (len(num) - deg)
            for i in range(len(num) - 1, deg - 1, -1):
                quot[i - deg] = c = num[i]
                for j, m in enumerate(den):
                    num[i - deg + j] -= c * m
            assert not any(num)
            num = quot
    return tuple(num)


def test_moebius_product_equals_the_recursive_division():
    known = {}
    for n in range(1, 401):
        known[n] = ref_cyclotomic_poly(n, known)
        assert cyclotomic_poly(n) == known[n], n


def test_zeta_power_reduction_is_canonical():
    # zeta_6^2 = zeta_6 - 1 after reduction mod Phi_6 = x^2 - x + 1
    z2 = CycElem.zeta(6, 2)
    assert z2 == CycElem.zeta(6, 1) - 1
    # zeta^n = 1
    for n in (3, 4, 5, 6, 8, 12):
        assert CycElem.zeta(n, n) == CycElem(n, [1])


def test_equality_across_conductors():
    # 2cos(2*pi/6) = 1 however it is written
    assert two_cos(1, 6) == CycElem(6, [1])
    assert two_cos(1, 6) == Fraction(1)
    # zeta_3 expressed with conductor 3 and with conductor 6
    assert CycElem.zeta(3, 1) == CycElem.zeta(6, 2)
    assert hash(CycElem.zeta(3, 1)) == hash(CycElem.zeta(6, 2))


def test_hash_makes_no_product(monkeypatch):
    # the hash reads the trace of x alone, never multiplies
    elems = [two_cos(5, 84) / 3 - CycElem.zeta(84, 7), CycElem.zeta(12, 5),
             CycElem(5, [1, Fraction(-2, 3), 0, 4])]
    hashes = [hash(e) for e in elems]

    def no_product(*args):
        raise AssertionError("hashing multiplied")

    monkeypatch.setattr(exactnum, "_mul_ints", no_product)
    assert [hash(e) for e in elems] == hashes
    assert hash(CycElem.zeta(3, 1)) == hash(CycElem.zeta(6, 2))


def test_sum_of_all_nth_roots_is_zero():
    for n in (3, 4, 5, 6, 7, 12):
        total = sum(CycElem.zeta(n, j) for j in range(n))
        assert not total


simple_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12)


def elems(n):
    return st.lists(simple_rationals, min_size=phi(n), max_size=phi(n)).map(
        lambda cs: CycElem(n, cs))


@settings(max_examples=60, deadline=None)
@given(a=elems(12), b=elems(12), c=elems(12))
def test_ring_laws_conductor_12(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a - a == CycElem(12, [0])


def some_elems(n):
    # elements of every kind, rational-valued ones included
    return st.one_of(elems(n), simple_rationals.map(
        lambda q: CycElem(n, [q])))


@settings(max_examples=40, deadline=None)
@given(a=st.sampled_from([9, 12, 23, 25, 84]).flatmap(some_elems))
def test_inverse_of_nonzero(a):
    if not a:
        return
    assert a * a.inverse() == CycElem(a.n, [1])


@settings(max_examples=40, deadline=None)
@given(a=elems(7), b=elems(7))
def test_conjugation_is_a_ring_map(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert a.conj().conj() == a


# -- the integer storage against a Fraction-coordinate reference --------------
#
# A reference element is (n, coords) with Fraction coords, reduced by long
# division by cyclotomic_poly(n); products are schoolbook.

def ref_reduce(n, coeffs):
    phi_n = cyclotomic_poly(n)
    deg = len(phi_n) - 1
    c = [Fraction(x) for x in coeffs] + [Fraction(0)] * deg
    for i in range(len(c) - 1, deg - 1, -1):
        lead = c[i]
        if lead:
            for j, m in enumerate(phi_n):
                c[i - deg + j] -= lead * m
    return n, tuple(c[:deg])


def ref_substitute(x, j, m):
    # sum c_i zeta_m^(i*j): promotion for j = m/n, conjugation for j = -1
    out = [Fraction(0)] * m
    for i, c in enumerate(x[1]):
        out[i * j % m] += c
    return ref_reduce(m, out)


def ref_pair(x, y):
    m = math.lcm(x[0], y[0])
    return ref_substitute(x, m // x[0], m), ref_substitute(y, m // y[0], m)


def ref_add(x, y, sign=1):
    (m, a), (_, b) = ref_pair(x, y)
    return m, tuple(p + sign * q for p, q in zip(a, b))


def ref_mul(x, y):
    (m, a), (_, b) = ref_pair(x, y)
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            out[i + j] += p * q
    return ref_reduce(m, out)


def check_elem(e, want):
    assert (e.n, e.coords) == want
    assert len(e.nums) == phi(e.n) and all(type(a) is int for a in e.nums)
    assert type(e.den) is int and e.den > 0
    assert math.gcd(e.den, *e.nums) == 1
    assert e.coord_strings() == [str(c) for c in e.coords]


mixed_coords = st.one_of(
    st.lists(st.one_of(st.integers(-20, 20),
                       st.fractions(-5, 5, max_denominator=12)),
             max_size=34),
    st.lists(st.sampled_from([0, Fraction(0)]), max_size=4))


@st.composite
def operand_pairs(draw):
    # x at a conductor up to 30; y a rational or an element at a conductor
    # whose lcm with x's stays at most 60
    n = draw(st.integers(1, 30))
    x = (n, draw(mixed_coords))
    y = draw(st.one_of(
        st.integers(-9, 9), st.fractions(-5, 5, max_denominator=12),
        st.tuples(st.sampled_from([m for m in range(1, 61)
                                   if math.lcm(n, m) <= 60]),
                  mixed_coords)))
    return x, y


@settings(max_examples=150, deadline=None)
@given(pair=operand_pairs())
def test_cyc_elem_matches_the_fraction_reference(pair):
    (n, raw), y = pair
    x, rx = CycElem(n, raw), ref_reduce(n, raw)
    check_elem(x, rx)
    if isinstance(y, tuple):
        y, ry = CycElem(*y), ref_reduce(*y)
        check_elem(y, ry)
    else:
        ry = ref_reduce(1, [y])
    check_elem(x + y, ref_add(rx, ry))
    check_elem(y + x, ref_add(rx, ry))
    check_elem(x - y, ref_add(rx, ry, -1))
    check_elem(y - x, ref_add(ry, rx, -1))
    check_elem(-x, ref_add(ref_reduce(n, []), rx, -1))
    check_elem(x * y, ref_mul(rx, ry))
    check_elem(y * x, ref_mul(rx, ry))
    check_elem(x.conj(), ref_substitute(rx, -1, n))
    m = n * (60 // n)
    check_elem(x.promote(m), ref_substitute(rx, m // n, m))
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        inv = x.inverse()
        check_elem(inv, (n, inv.coords))
        assert ref_mul(rx, (n, inv.coords)) == ref_reduce(n, [1])
    # equality and hashing across conductors
    (_, a), (_, b) = ref_pair(rx, ry)
    assert (x == y) == (a == b) == (y == x)
    assert x == x.promote(m) and hash(x) == hash(x.promote(m))
    if a == b:
        assert hash(x) == hash(y)


def test_reduce_ints_matches_long_division_by_phi():
    # the fold mod x^n - 1 before the reduction by Phi_n, against plain long
    # division by Phi_n, for every conductor to 120 and lengths up to 2n
    rng = random.Random(120)
    for n in range(1, 121):
        phi_n = cyclotomic_poly(n)
        deg = len(phi_n) - 1
        for length in {n - 1, n, n + 1, 2 * n, rng.randint(0, 2 * n)}:
            c = [rng.randint(-99, 99) for _ in range(length)]
            want = c + [0] * deg
            for i in range(len(want) - 1, deg - 1, -1):
                lead = want[i]
                for j, m in enumerate(phi_n):
                    want[i - deg + j] -= lead * m
            got = _reduce_ints(list(c), n)
            assert got == want[:deg] and all(type(a) is int for a in got)


@given(q=st.one_of(st.integers(-50, 50), st.fractions(max_denominator=50)),
       n=st.integers(1, 30))
def test_rational_elements_hash_as_their_fraction(q, n):
    e = CycElem(n, [q])
    check_elem(e, ref_reduce(n, [q]))
    assert e == q and hash(e) == hash(q) == hash(Fraction(q))


BIG = st.integers(-(2 ** 256) + 1, 2 ** 256 - 1)


@settings(max_examples=300, deadline=None)
@given(n=BIG, d=BIG.filter(bool),
       other=st.builds(Fraction, BIG.filter(bool), BIG.filter(bool)))
def test_lowest_terms_constructor_matches_fraction(n, d, other):
    check_pair(n, d, other)


def test_lowest_terms_constructor_refuses_what_is_no_int():
    # d = 0, bools and floats; and numpy ints, which Fraction accepts
    check_refusals()
    for args in ((np.int64(2), 3), (3, np.int64(2))):
        with pytest.raises(TypeError):
            exactnum._fraction(*args)


def test_two_cos_values():
    assert two_cos(1, 4) == Fraction(0)
    assert two_cos(1, 6) == Fraction(1)
    assert two_cos(1, 3) == Fraction(-1)
    # golden ratio: 2cos(2*pi/5) = (sqrt(5)-1)/2 satisfies x^2 + x - 1 = 0
    t = two_cos(1, 5)
    assert t * t + t - 1 == 0


def test_two_cos_is_the_sum_of_the_two_powers():
    for k in range(1, 61):
        for m in range(-k, 2 * k):
            assert two_cos(m, k) == CycElem.zeta(k, m) + CycElem.zeta(k, -m)


@pytest.mark.parametrize("m", [True, False, 1.0, 0.5],
                         ids=["true", "false", "one-float", "float"])
def test_two_cos_refuses_a_power_as_zeta_does(m):
    with pytest.raises(ValueError) as want:
        CycElem.zeta(5, m)
    with pytest.raises(ValueError) as got:
        two_cos(m, 5)
    assert str(got.value) == str(want.value)


def test_cyc_sign_certificates():
    assert cyc_sign(Fraction(3, 7)).sign == 1
    assert cyc_sign(Fraction(0)).sign == 0
    assert cyc_sign(two_cos(1, 5)).sign == 1       # cos 72 degrees > 0
    assert cyc_sign(two_cos(2, 5)).sign == -1      # cos 144 degrees < 0
    assert cyc_sign(two_cos(1, 4)).sign == 0       # exact zero, no intervals
    cert = cyc_sign(two_cos(1, 7) - two_cos(1, 8))
    assert cert.sign == (1 if math.cos(2 * math.pi / 7) >
                         math.cos(2 * math.pi / 8) else -1)


def test_cyc_sign_rejects_non_real():
    with pytest.raises(NotReal):
        cyc_sign(CycElem.zeta(5, 1))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30), data=st.data())
def test_an_element_is_false_exactly_at_zero(n, data):
    # any coordinates, a rational value (zero included), or the vanishing
    # sum 1 + zeta + ... + zeta^(n-1)
    coords = data.draw(st.one_of(mixed_coords,
                                 st.lists(simple_rationals, max_size=1),
                                 st.just([1] * n)))
    e = CycElem(n, coords)
    assert bool(e) == (e != 0)


def ref_cyc_embed(e, bits):
    # the enclosure with one fixed_cos per nonzero coordinate
    xs, d = e.nums, e.den
    b = bits + sum(map(abs, xs)).bit_length() + 3
    w = b + b.bit_length() + 3
    total, radius = xs[0] << w, 0
    for i, x in enumerate(xs[1:], start=1):
        if x:
            c, r = fixed_cos(i, e.n, w)
            total += x * c
            radius += abs(x) * r
    return Fraction(total - radius, d << w), Fraction(total + radius, d << w)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([7, 13, 83, 84, 97]), data=st.data())
def test_cyc_embed_takes_one_cosine_per_pair(n, data):
    a = data.draw(elems(n))
    e = a + a.conj()
    bits = data.draw(st.sampled_from([0, 64, 300]))
    want = ref_cyc_embed(e, bits)
    calls = []

    def counted(i, n, w):
        calls.append(i)
        return fixed_cos(i, n, w)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(exactnum, "fixed_cos", counted)
        got = cyc_embed(e, bits)
    # the endpoints are Fractions in lowest terms, equal to the reference's
    assert got == want and all(map(is_canonical, got))
    assert len(calls) == len({min(i, n - i)
                              for i, x in enumerate(e.nums) if i and x})


def test_cyc_embed_encloses_true_value():
    t = two_cos(1, 7)
    lo, hi = cyc_embed(t, 64)
    # the float oracle itself carries a ~1 ulp error, hence the slack
    true = 2 * math.cos(2 * math.pi / 7)
    assert float(lo) - 1e-14 <= true <= float(hi) + 1e-14
    assert float(hi - lo) < 1e-15
    lo2, hi2 = cyc_embed(t, 128)
    assert hi2 - lo2 < hi - lo
    for bits in (2.5, True, -1):
        with pytest.raises(ValueError, match="^bits must be an integer >= 0"):
            cyc_embed(t, bits)


def test_render_and_rationality():
    z = CycElem.zeta(6, 1)
    e = (4 * z - 1) * Fraction(1, 6)
    assert not e.is_rational()
    assert (z + z.conj()).is_rational()
    assert as_scalar(e) is e
    assert type(as_scalar(z + z.conj())) is Fraction
    assert as_scalar(z + z.conj()) == 1


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 5, 9, 12, 15, 84]),
       coeffs=st.lists(st.integers(-60, 60), max_size=120))
def test_from_power_basis_int_input_equals_fraction_input(n, coeffs):
    a = CycElem.from_power_basis(n, coeffs)
    b = CycElem.from_power_basis(n, [Fraction(c) for c in coeffs])
    assert a.coords == b.coords
    assert all(type(c) is Fraction for c in a.coords)


def test_from_power_basis_mixed_denominators():
    e = CycElem.from_power_basis(6, [Fraction(1, 2), 3, Fraction(-2, 3)])
    # 1/2 + 3z - (2/3)z^2 with z^2 = z - 1
    assert e.coords == (Fraction(7, 6), Fraction(7, 3))


@pytest.mark.parametrize("bad", [0.5, "1/3", True, False],
                         ids=["float", "string", "true", "false"])
def test_inexact_coordinates_are_refused_by_both_constructors(bad):
    for make in (CycElem, CycElem.from_power_basis):
        with pytest.raises(ValueError, match="is not an int or Fraction"):
            make(5, [1, bad])
        with pytest.raises(ValueError, match="must be a sequence"):
            make(5, "12")


@pytest.mark.parametrize("n", [0, 2.5, -3, True],
                         ids=["zero", "float", "negative", "true"])
def test_bad_conductors_are_refused_by_both_constructors(n):
    for make in (CycElem, CycElem.from_power_basis):
        with pytest.raises(ValueError, match="conductor must be an integer"):
            make(n, [1, 2])


@pytest.mark.parametrize("make", [CycElem.zeta, cyclotomic_poly],
                         ids=["zeta", "cyclotomic_poly"])
@pytest.mark.parametrize("n", [0, 2.5, -3, True],
                         ids=["zero", "float", "negative", "true"])
def test_bad_conductors_are_refused_by_zeta_and_from_rational(make, n):
    with pytest.raises(ValueError, match="conductor must be an integer"):
        make(n)


@pytest.mark.parametrize("power", [True, 0.5, "1"],
                         ids=["true", "float", "string"])
def test_bad_powers_are_refused_by_zeta(power):
    with pytest.raises(ValueError, match="power must be an integer"):
        CycElem.zeta(3, power)


OPERATORS = {"add": operator.add, "sub": operator.sub,
             "mul": operator.mul, "truediv": operator.truediv}


@pytest.mark.parametrize("op", OPERATORS.values(), ids=OPERATORS.keys())
@pytest.mark.parametrize("bad", [True, False, 0.5],
                         ids=["true", "false", "float"])
def test_operators_refuse_bools_and_floats_on_either_side(op, bad):
    z = CycElem.zeta(3)
    with pytest.raises(TypeError):
        op(z, bad)
    with pytest.raises(TypeError):
        op(bad, z)


def test_a_refused_dividend_takes_no_inverse(monkeypatch):
    def inverse(self):
        raise AssertionError("inverse taken")
    monkeypatch.setattr(CycElem, "inverse", inverse)
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            bad / CycElem.zeta(7)


@pytest.mark.parametrize("e", [
    CycElem(1, [Fraction(-3, 7)]),
    CycElem(1, [0]),
    CycElem(5, [1, Fraction(-2, 3), 0, 4]),
    CycElem(5, [0]),
    two_cos(5, 84) / 3 - CycElem.zeta(84, 7),
    CycElem(84, [0]),
], ids=["n1", "n1_zero", "n5", "n5_zero", "n84", "n84_zero"])
def test_cyc_elem_pickles_and_copies(e):
    for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e),
                 copy.deepcopy(e)):
        assert type(twin) is CycElem
        assert (twin.n, twin.nums, twin.den) == (e.n, e.nums, e.den)
        assert twin == e and hash(twin) == hash(e)


# -- the sign certificate against a 200-digit oracle ------------------------

def _oracle(e):
    # Re(e) at 200 digits; call inside mpmath.workdps(200)
    return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator
                       * mpmath.cos(2 * mpmath.pi * i / e.n)
                       for i, c in enumerate(e.coords) if c)


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _separation(e):
    # (B, d, L, h): e = xs/d, L = ||xs||_1, h = phi(n)/2, and the bits
    # B = bitlen(d) + (h - 1) bitlen(L) of the bound |e| >= 1/(d L^(h-1))
    d = math.lcm(*(c.denominator for c in e.coords))
    L = sum(abs(c.numerator) * (d // c.denominator) for c in e.coords)
    h = phi(e.n) // 2
    return d.bit_length() + (h - 1) * L.bit_length(), d, L, h


def _check_certificate(e):
    cert = cyc_sign(e)
    bits, d, L, h = _separation(e)
    with mpmath.workdps(200):
        v = _oracle(e)
        tol = mpmath.mpf(10) ** -120
        if not e:
            assert cert.sign == 0 and cert.precision_bits == 0
            return
        assert cert.sign == (1 if v > 0 else -1)
        assert abs(v) * d * mpmath.mpf(L) ** (h - 1) >= 1
        if not e.is_rational():
            # the sign is read from the first enclosure, at a precision
            # not above the separation bound, that excludes zero
            assert 0 < cert.precision_bits <= bits
            lo, hi = cyc_embed(e, cert.precision_bits)
            assert (lo > 0) if cert.sign > 0 else (hi < 0)
        for b in (64, 256):
            lo, hi = cyc_embed(e, b)
            assert hi - lo <= Fraction(1, 2 ** b)
            assert _mp(lo) - tol <= v <= _mp(hi) + tol
    return v * d * mpmath.mpf(L) ** (h - 1)


@settings(max_examples=60, deadline=None)
@given(e=st.integers(3, 84).flatmap(elems).flatmap(
    lambda a: st.integers(1, 10 ** 6).map(lambda s: s * (a + a.conj()))))
def test_cyc_sign_matches_a_200_digit_oracle(e):
    _check_certificate(e)


def test_cyc_sign_far_from_zero_stops_below_the_separation_bound():
    # a + conj(a) in Q(zeta_83) with 256-bit coordinates: B is over 10 000
    # bits, but the value is far from zero and a 64-bit enclosure decides
    rng = random.Random(83)
    a = CycElem(83, [rng.getrandbits(256) - 2 ** 255 for _ in range(phi(83))])
    e = a + a.conj()
    assert _separation(e)[0] > 10_000
    _check_certificate(e)
    assert cyc_sign(e).precision_bits <= 128


def _convergents(x, q_max):
    # continued-fraction convergents p/q of x with q <= q_max
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = int(mpmath.floor(x))
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > q_max:
            return
        yield p1, q1
        x = 1 / (x - a)


@pytest.mark.parametrize("n", [5, 7, 8, 9, 12, 13, 84])
def test_cyc_sign_near_zero_at_continued_fraction_convergents(n):
    with mpmath.workdps(300):
        pairs = list(_convergents(2 * mpmath.cos(2 * mpmath.pi / n),
                                  2 ** 200))
    assert len(pairs) > 20
    ratios = [_check_certificate(q * two_cos(1, n) - p) for p, q in pairs]
    if n == 5:
        # the golden ratio's convergents sit within a factor 2 of the bound
        assert all(r < 2 for r in ratios[-10:])


def test_cyc_sign_on_differences_at_close_angles():
    checked = 0
    for n in range(5, 85):
        for n2 in range(n + 1, 85):
            if math.lcm(n, n2) > 84:
                continue
            for m in range(1, (n + 1) // 2):
                for m2 in range(1, (n2 + 1) // 2):
                    if abs(m * n2 - m2 * n) == 1:  # Farey neighbours
                        _check_certificate(two_cos(m, n) - two_cos(m2, n2))
                        checked += 1
    assert checked >= 15


def test_fixed_pi_encloses_pi():
    with mpmath.workdps(250):
        for w in list(range(4, 200)) + [256, 512, 700]:
            p, err = fixed_pi(w)
            assert abs(p - mpmath.ldexp(mpmath.pi, w)) < err


@pytest.mark.parametrize("w", [4, 64, 256])
def test_fixed_cos_encloses_every_root_of_unity_to_84(w):
    bound = 2 ** (w.bit_length() + 2)  # the a-priori bound cyc_embed uses
    with mpmath.workdps(200):
        for n in range(1, 85):
            for i in range(n):
                c, r = fixed_cos(i, n, w)
                exact = mpmath.ldexp(mpmath.cos(2 * mpmath.pi * i / n), w)
                assert abs(c - exact) < r < bound, (i, n)


def _ring_scalars_by_row(rows, n, den):
    # each reduced row through CycElem._make and as_scalar, one at a time
    deg = phi(n)
    reduced = rows[:, :deg] + rows[:, deg:] @ exactnum._power_table(
        n, rows.dtype)
    return [as_scalar(CycElem._make(n, r, den)) for r in reduced.tolist()]


def _same_scalars(got, want):
    # equal values in the same stored form, built of Python ints
    assert [type(a) for a in got] == [type(b) for b in want]
    for a, b in zip(got, want):
        if isinstance(a, CycElem):
            assert (a.n, a.nums, a.den) == (b.n, b.nums, b.den)
            parts = a.nums + (a.den,)
        else:
            assert a == b
            parts = (a.numerator, a.denominator)
        assert {type(x) for x in parts} == {int}


# Rows over Z[x]/(x^12 - 1), an irrational die: a zero row, a rational row
# (x^4 + x^8 reduces to -1), and rows whose gcd with den is 1, 2 or 6.
RING_ROWS_12 = [[0] * 12,
                [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
                [6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12],
                [2, 4, 0, -2, 0, 0, 0, 0, 0, 0, 6, 0],
                [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                [3, -5, 7, 0, 0, 9, 0, 0, 0, 0, 0, -1]]


@pytest.mark.parametrize("den", [1, 2, 6, 12])
@pytest.mark.parametrize("dtype", ["int64", "object"])
def test_ring_scalars_equal_the_per_row_path(dtype, den):
    # each row over its gcd with den, built with no second reduction, gives
    # the same scalar, in the same stored form, as _make and as_scalar; the
    # die sits in a stack between its reverse and a rational die, each
    # reduced as if alone
    stack = np.array([RING_ROWS_12[::-1], RING_ROWS_12,
                      [[a if i % 4 == 0 else 0 for i, a in enumerate(row)]
                       for row in RING_ROWS_12]], dtype=dtype)
    out = ring_scalars(stack, 12, den)
    assert len(out) == 3
    for rows, (scalars, total, ints) in zip(stack, out[:2]):
        want = _ring_scalars_by_row(rows, 12, den)
        _same_scalars(scalars, want)
        assert ints is None and total == sum(want, Fraction(0))
    scalars, total, ints = out[1]
    assert isinstance(scalars[2], CycElem) and scalars[1] == -Fraction(1, den)
    assert scalars[0] == 0 and total == sum(want, Fraction(0))
    # the rational die: its integer pair over the least common denominator
    scalars, total, ints = out[2]
    want = _ring_scalars_by_row(stack[2], 12, den)
    _same_scalars(scalars, want)
    lcd = math.lcm(*(c.denominator for c in want))
    assert ints == (tuple(c.numerator * (lcd // c.denominator)
                          for c in want), lcd)
    assert total == sum(want, Fraction(0))


def test_ring_scalars_past_int64_take_python_ints():
    # entries and dens past 2^63: an object array, all Python ints, in a
    # stack with a rational die
    big = 3 ** 45
    stack = np.array([[[big * 2 ** 30, big, 0, 0, 0],
                       [0, 0, 0, 0, 0],
                       [big * 7, 0, 0, 0, 0]],
                      [[big * 2 ** 30, 0, 0, 0, 0],
                       [0, 0, 0, 0, 0],
                       [big * 7, 0, 0, 0, 0]]], dtype=object)
    for den in (3 ** 50, 2 ** 64 * 3):
        (scalars, _, ints), (rational, _, pair) = ring_scalars(stack, 5, den)
        assert ints is None
        _same_scalars(scalars, _ring_scalars_by_row(stack[0], 5, den))
        _same_scalars(rational, _ring_scalars_by_row(stack[1], 5, den))
        assert {type(a) for a in (*pair[0], pair[1])} == {int}
