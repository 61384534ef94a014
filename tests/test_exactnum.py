"""Cyclotomic arithmetic: canonical reduction, ring laws, certified signs."""

import math
import sys
import threading
from fractions import Fraction

import mpmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totalparts.exactnum import (
    CycElem,
    NotReal,
    cyc_embed,
    cyc_sign,
    cyclotomic_poly,
    iv_precision,
    phi,
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


def test_zeta_power_reduction_is_canonical():
    # zeta_6^2 = zeta_6 - 1 after reduction mod Phi_6 = x^2 - x + 1
    z2 = CycElem.zeta(6, 2)
    assert z2 == CycElem.zeta(6, 1) - 1
    # zeta^n = 1
    for n in (3, 4, 5, 6, 8, 12):
        assert CycElem.zeta(n, n) == CycElem.from_rational(1, n)


def test_equality_across_conductors():
    # 2cos(2*pi/6) = 1 however it is written
    assert two_cos(1, 6) == CycElem.from_rational(1, 6)
    assert two_cos(1, 6) == Fraction(1)
    # zeta_3 expressed with conductor 3 and with conductor 6
    assert CycElem.zeta(3, 1) == CycElem.zeta(6, 2)
    assert hash(CycElem.zeta(3, 1)) == hash(CycElem.zeta(6, 2))


def test_sum_of_all_nth_roots_is_zero():
    for n in (3, 4, 5, 6, 7, 12):
        total = sum(CycElem.zeta(n, j) for j in range(n))
        assert total.is_zero()


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
    assert a - a == CycElem.from_rational(0, 12)


@settings(max_examples=40, deadline=None)
@given(a=elems(9))
def test_inverse_of_nonzero(a):
    if a.is_zero():
        return
    assert a * a.inverse() == CycElem.from_rational(1, 9)


@settings(max_examples=40, deadline=None)
@given(a=elems(7), b=elems(7))
def test_conjugation_is_a_ring_map(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert a.conj().conj() == a


def test_two_cos_values():
    assert two_cos(1, 4) == Fraction(0)
    assert two_cos(1, 6) == Fraction(1)
    assert two_cos(1, 3) == Fraction(-1)
    # golden ratio: 2cos(2*pi/5) = (sqrt(5)-1)/2 satisfies x^2 + x - 1 = 0
    t = two_cos(1, 5)
    assert (t * t + t - 1).is_zero()


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


def test_cyc_embed_encloses_true_value():
    t = two_cos(1, 7)
    lo, hi = cyc_embed(t, 64)
    # the float oracle itself carries a ~1 ulp error, hence the slack
    true = 2 * math.cos(2 * math.pi / 7)
    assert float(lo) - 1e-14 <= true <= float(hi) + 1e-14
    assert float(hi - lo) < 1e-15
    lo2, hi2 = cyc_embed(t, 128)
    assert hi2 - lo2 < hi - lo


def test_render_and_rationality():
    z = CycElem.zeta(6, 1)
    e = (4 * z - 1) * Fraction(1, 6)
    assert not e.is_rational()
    assert (z + z.conj()).is_rational()
    assert (z + z.conj()).rational_value() == 1


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


def test_iv_precision_sets_and_restores():
    before = mpmath.iv.prec
    with pytest.raises(KeyError):
        with iv_precision(300) as iv:
            assert iv.prec == 300
            raise KeyError("inside")
    assert mpmath.iv.prec == before
    cyc_embed(two_cos(1, 7), 256)
    assert mpmath.iv.prec == before


def test_iv_precision_holds_under_thread_contention():
    # More threads than cores switch as often as possible; each checks
    # that the precision it set is still in force inside its block.
    errors = []

    def worker(bits):
        try:
            for _ in range(200):
                with iv_precision(bits) as iv:
                    iv.mpf(1) / 3
                    if iv.prec != bits:
                        errors.append((bits, iv.prec))
        except Exception as exc:  # reported through the list
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(64 + 16 * i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
