"""The point product with one masked step per factor copy, the tests'
reference: the form ``exotica._point_product`` had before every step's
coefficients were taken in one array operation.  Its rows must equal the
library's bit for bit."""

import numpy as np


def point_product(factors, mults):
    """The rows x (D+1) float coefficients ``exotica._point_product``
    returns, each step forming its own mask and coefficients, and every
    factor, x+1 included, taking both updates."""
    mults = np.asarray(mults, dtype=np.int64).reshape(len(mults),
                                                      len(factors))
    degree = (mults @ [1 + (a2 != 0) for _, a2 in factors]).max(initial=0)
    p = np.zeros((len(mults), degree + 1))
    p[:, 0] = 1.0
    for (a1, a2), column in zip(factors, mults.T):
        for c in range(1, column.max(initial=0) + 1):
            on = (column >= c)[:, None]
            by_x2 = (a2 * on) * p[:, :-2]  # from p before the step
            p[:, 1:] += (a1 * on) * p[:, :-1]
            p[:, 2:] += by_x2
    return p
