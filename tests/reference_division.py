"""Exact polynomial division and gcd over a field, the tests' reference:
the scan oracles divide a total by chi_{m,k} with it, independently of the
scan path, and ``ref_poly_gcd`` checks ``dicecore.poly_gcd``, which runs
over Z."""

from fractions import Fraction

from totalparts.dicecore import as_scalar, poly_trim


class InexactDivision(ArithmeticError):
    """Raised when polynomial division leaves a nonzero remainder."""


def poly_divmod(num, den):
    """Schoolbook long division over the field of the coefficients: (q, r)
    with num = q * den + r, r trimmed; den is trimmed and nonzero."""
    num = list(num)
    dd = len(den) - 1
    lead_inv = 1 / den[-1]
    q = [Fraction(0)] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * lead_inv
        q[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] = num[i - dd + j] - c * dj
    return q, poly_trim(num[:dd] or [Fraction(0)])


def poly_divide_exact(num, den):
    """Quotient of num by den when the division is exact over the field.

    Raises InexactDivision if the remainder is nonzero (exact test).
    """
    num = [as_scalar(c) for c in poly_trim(num)]
    den = [as_scalar(c) for c in poly_trim(den)]
    if len(den) == 1 and not den[0]:
        raise ZeroDivisionError("division by the zero polynomial")
    q, r = poly_divmod(num, den)
    if r[-1]:
        raise InexactDivision("nonzero remainder")
    return [as_scalar(c) for c in q]


def ref_poly_gcd(a, b):
    """Monic gcd over Q by Euclid on Fractions; gcd(0, 0) is [0]."""
    a = [Fraction(c) for c in poly_trim(a)]
    b = [Fraction(c) for c in poly_trim(b)]
    while not (len(b) == 1 and b[0] == 0):
        a, b = b, poly_divmod(a, b)[1]
    if a[-1] != 0:
        a = [c / a[-1] for c in a]
    return a
