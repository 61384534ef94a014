"""Checks of exactnum's lowest-terms constructor against ``Fraction`` itself.

``exactnum._fraction(n, d)`` sets a ``Fraction``'s two slots directly, so
these checks hold it to ``fractions.Fraction(n, d)``, the reference: the
same value, hash, text and pickle, the same arithmetic with other
``Fraction``s, and the same refusals.  ``tests/test_exactnum.py`` runs them
under hypothesis.  The module imports only ``totalparts.exactnum``, which
needs neither pytest nor numpy, so it also runs on its own on any supported
interpreter, over seeded random pairs with |n|, |d| < 2^256:

    PYTHONPATH=src python tests/fraction_checks.py [pairs]
"""

import math
import operator
import pickle
import random
import sys
from fractions import Fraction

from totalparts.exactnum import _fraction

OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


def is_canonical(q) -> bool:
    """q is a Fraction in lowest terms: int parts, gcd 1, denominator > 0."""
    return (type(q) is Fraction and type(q.numerator) is int
            and type(q.denominator) is int and q.denominator > 0
            and math.gcd(q.numerator, q.denominator) == 1)


def check_pair(n: int, d: int, other: Fraction) -> None:
    """_fraction(n, d) against Fraction(n, d) for d != 0, with a nonzero
    other operand."""
    got, want = _fraction(n, d), Fraction(n, d)
    assert is_canonical(got), (n, d)
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    twin = pickle.loads(pickle.dumps(got))
    assert is_canonical(twin) and twin == want
    for op in OPERATORS:
        assert op(got, other) == op(want, other)
        if n:
            assert op(other, got) == op(other, want)


def check_refusals() -> None:
    """d = 0 raises as Fraction does; a bool or a float raises TypeError
    on either side."""
    for n in (0, 5, -7):
        try:
            Fraction(n, 0)
        except ZeroDivisionError as e:
            want = str(e)
        try:
            _fraction(n, 0)
        except ZeroDivisionError as e:
            assert str(e) == want
        else:
            raise AssertionError(f"_fraction({n}, 0) did not raise")
    for args in ((True, 2), (2, True), (2.0, 3), (2, 3.0)):
        try:
            _fraction(*args)
        except TypeError:
            continue
        raise AssertionError(f"_fraction{args} did not raise TypeError")


def random_pairs(rng: random.Random, count: int):
    """(n, d, other) triples: sizes from a few bits to 255, d != 0."""
    def draw():
        return rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 255))

    for _ in range(count):
        n, d = draw(), draw() or 1
        other = Fraction(draw(), draw() or 1) or Fraction(1)
        yield n, d, other


def main(argv) -> int:
    count = int(argv[1]) if len(argv) > 1 else 20000
    for n, d, other in random_pairs(random.Random(20261020), count):
        check_pair(n, d, other)
    check_refusals()
    print(f"python {sys.version.split()[0]}: {count} pairs agree with "
          f"Fraction; d = 0, bools and floats refused")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
