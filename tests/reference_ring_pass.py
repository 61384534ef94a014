"""The ring pass one die at a time, the tests' reference: the form
``dicecore._ring_passes`` had before the passes of one shape were stacked,
with the per-row reduction ``exactnum.ring_scalars`` had then.  Its
scalars, their sum and their integer pair must equal the library's, in
the same stored forms, die by die."""

import math

import numpy as np

from totalparts.exactnum import (CycElem, _fraction, _fractions,
                                 _power_table, as_scalar, phi, ring_dtype)


def ring_scalars(rows, n, den):
    """(scalars, total, ints) of a rows x n integer array over
    Z[x]/(x^n - 1) and den > 0, one ``math.gcd`` per irrational row."""
    deg = phi(n)
    reduced = rows[:, :deg] + rows[:, deg:] @ _power_table(n, rows.dtype)
    total = as_scalar(CycElem._make(n, reduced.sum(axis=0).tolist(), den))
    irrational = reduced[:, 1:].any(axis=1)
    if irrational.any():
        scalars = []
        for r, irr in zip(reduced.tolist(), irrational.tolist()):
            if irr:
                g = math.gcd(den, *r)
                scalars.append(CycElem._coprime(
                    n, tuple(a // g for a in r), den // g))
            else:
                scalars.append(_fraction(r[0], den))
        return scalars, total, None
    nums = reduced[:, 0].tolist()
    g = math.gcd(den, *nums)
    nums, den = tuple(a // g for a in nums), den // g
    return list(_fractions(nums, den)), total, (nums, den)


def ring_pass(n, exponents, x1_count, partner, partner_x1, den,
              dtype=None):
    """:func:`ring_scalars` of c * prod_e (x - zeta_n^e) * (x+1)^x1_count
    / den, c = prod_{e in partner} (1 - zeta^e) * 2^partner_x1, built by
    slicing one die's array; in ``dtype``, or the one
    ``exactnum.ring_dtype`` chooses."""
    if dtype is None:
        dtype = ring_dtype(n, len(exponents) + x1_count + len(partner)
                           + partner_x1)
    poly = np.zeros((1, n), dtype)
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
