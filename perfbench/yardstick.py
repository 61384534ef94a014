"""A fixed slice of interpreter work that measures the host's speed.

The benchmark runs on a shared host whose speed changes by up to 1.9 times
from one moment to the next, for every process alike.  While a round or a
set-up probe is timed, a ``Prober`` therefore runs ``probe()`` from a timer
signal every ``PROBE_EVERY_S`` seconds, inside operations as well as between
them, and ``run.py`` scales each piece of an operation by ``REFERENCE_S``
over the probe times around it.  A calibrated time reads as the time the
operation would have taken on a host where one probe takes ``REFERENCE_S``:
it moves with the library's speed and much less with the host's.

The probe uses no library code, so no change to the library can move it.
Its mix follows the library's: products of polynomials with ``Fraction``
coefficients (most of its time), a tuple-keyed dict and a sort.  It needs
only modules that the library imports too, so it can run while the library
is being imported without importing anything on the library's behalf.
"""

import contextlib
import gc
import signal
from fractions import Fraction
from time import perf_counter

PROBE_EVERY_S = 0.04
# A round figure between the probe's times in the fast and the slow state
# (about 1.5 and 2.8 ms) of the 2-vCPU host the baseline was recorded on.
REFERENCE_S = 0.002

_P = [Fraction(i % 5 + 1, i + 2) for i in range(9)]
_Q = [Fraction(3, i + 4) for i in range(9)]


def _convolve(p, q):
    """Coefficients of the product of two polynomials, as ``dicecore``
    multiplies them, but in the benchmark's own code."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def probe():
    """Run the fixed work once and return its duration in seconds."""
    start = perf_counter()
    coeffs = _P
    for _ in range(4):
        coeffs = _convolve(_P, _Q)
    table = {}
    for i in range(600):
        table[(i & 63, i >> 6)] = [i, i * i]
    rows = sorted((v[1] % 97, k) for k, v in table.items())
    if coeffs[0] < 0 or not rows:  # keep every result live
        raise AssertionError("yardstick probe went wrong")
    return perf_counter() - start


class Prober:
    """Probes of one timed region: ``probes`` holds a (start, end, probe
    time) triple per probe, start and end being ``perf_counter`` readings
    around the whole interruption."""

    def __init__(self):
        self.probes = []
        self._busy = False

    def probe(self, *_signal_args):
        if self._busy:  # a signal that arrived during a probe
            return
        self._busy = True
        gc_was_enabled = gc.isenabled()
        gc.disable()  # the library's heap must not slow the probe
        try:
            start = perf_counter()
            probe_s = probe()
            self.probes.append((start, perf_counter(), probe_s))
        finally:
            if gc_was_enabled:
                gc.enable()
            self._busy = False

    @contextlib.contextmanager
    def probing(self):
        """Probe once at the start, on a timer signal every PROBE_EVERY_S
        seconds while the block runs, and once at the end; put the previous
        signal handler back."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        try:
            self.probe()
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.probe()

    def seconds(self, first=0):
        """Time the probes from index ``first`` on took out of the region."""
        return sum(end - start for start, end, _ in self.probes[first:])
