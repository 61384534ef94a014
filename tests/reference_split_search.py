"""The split search with one pass per value v, the tests' reference: the
form ``exotica._split_search`` had before each depth's children were built
in one array step.  Its chunks, in the same order, must equal the
library's bit for bit; both read the chunk size ``exotica._SEARCH_ROWS``
when they run."""

import numpy as np

from totalparts import exotica


def split_search(ell, factors, caps, degree, tol, symmetric=False):
    """Yields ``(depth, rows, bounds, keep)`` as ``exotica._split_search``
    does, building the children of each value v of the column apart and
    concatenating them, v-major."""
    widths = [2 if a2 else 1 for _, a2 in factors]
    order = sorted(range(len(factors)), key=widths.__getitem__)
    caps = np.asarray(caps, dtype=np.int64)
    if 1 in [widths[f] for f in order[1:]] or caps.max(initial=0) > 2:
        raise ValueError("one linear factor at most, and caps at most 2")
    slots, floors = [None], [None]
    for j in range(1, len(order) + 1):
        values = np.repeat(ell[:, order[j:]], caps[order[j:]], axis=1)
        slots.append(values.shape[1])
        floors.append(np.cumsum(np.hstack([np.zeros((len(ell), 1)),
                                           np.sort(values, axis=1)]), axis=1))
    stack = [(0, (np.zeros((1, len(factors)), dtype=np.int64),
                  np.zeros((1, len(ell))), np.zeros((1, len(ell))),
                  np.array([degree]), np.array([True])))]
    while stack:
        j, (rows, p1, p2, left, tied) = stack.pop()
        f, cap, width = order[j], caps[order[j]], widths[order[j]]
        kids = []
        for v in range(cap + 1):
            rest = left - width * v
            ok = (rest >= 0) & (rest <= 2 * slots[j + 1]) & (rest % 2 == 0)
            if symmetric:
                ok &= ~tied | (2 * v <= cap)
            i = np.flatnonzero(ok)
            r = rows[i]
            r[:, f] = v
            kids.append((r, p1[i] + v * ell[:, f],
                         p2[i] + (cap - v) * ell[:, f], rest[i],
                         tied[i] & (2 * v == cap)))
        rows, p1, p2, left, tied = (np.concatenate(a) for a in zip(*kids))
        need = left // 2
        bounds = np.stack(
            [(p + floors[j + 1][:, r].T).max(axis=1)
             for p, r in ((p1, need), (p2, slots[j + 1] - need))], axis=1)
        keep = (bounds <= tol).all(axis=1)
        if symmetric and j + 1 == len(order):
            keep &= ~tied
        yield j + 1, rows, bounds, keep
        i = np.flatnonzero(keep)
        if j + 1 < len(order) and len(i):
            stack.extend((j + 1, (rows[c], p1[c], p2[c], left[c], tied[c]))
                         for c in reversed(np.array_split(
                             i, -(-len(i) // exotica._SEARCH_ROWS))))
