"""Exact polynomial division, the tests' reference divisor: the scan
oracles divide a total by chi_{m,k} with it, independently of the scan
path."""

from totalparts.dicecore import _poly_divmod, as_scalar, poly_trim


class InexactDivision(ArithmeticError):
    """Raised when polynomial division leaves a nonzero remainder."""


def poly_divide_exact(num, den):
    """Quotient of num by den when the division is exact over the field.

    Raises InexactDivision if the remainder is nonzero (exact test).
    """
    num = [as_scalar(c) for c in poly_trim(num)]
    den = [as_scalar(c) for c in poly_trim(den)]
    if len(den) == 1 and not den[0]:
        raise ZeroDivisionError("division by the zero polynomial")
    q, r = _poly_divmod(num, den)
    if r[-1]:
        raise InexactDivision("nonzero remainder")
    return [as_scalar(c) for c in q]
