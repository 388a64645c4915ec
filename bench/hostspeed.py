"""Host speed: a fixed piece of the benchmark's own exact arithmetic, timed
between requests, so that request times can be put at one reference speed.

The host this benchmark runs on shares its cores.  Two things slow a request
there.  Other processes may take the core away for a while: the request's
CPU time leaves that wait out, so requests are timed in CPU time.  And the
core itself may run slower, up to about 1.7x in phases that last from
seconds to minutes, while a neighbour loads the hardware it shares: that
shows in CPU time as much as in wall time.  `probe()` times, in CPU time, a
fixed calibration task (canonical bases, determinants and products in
Q[t]/(f) by `oracles`, which imports no latclass code, on fixed inputs: the
same mix of small-integer and Fraction work as the requests).  A time t
measured while the probe takes c seconds is reported as t * REFERENCE_S / c,
the time it would take on a host where the probe takes REFERENCE_S; a change
to latclass moves t and leaves c alone.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from time import process_time

import oracles as ox

# median probe time on a quiet 2-core host (Intel Xeon 2.0 GHz, Python 3.11)
REFERENCE_S = 0.0113

_F = (16, 8, 4, 1)     # t^3 + 4t^2 + 8t + 16


def _inputs():
    rng = Random(20260218)
    out = []
    for n in (3, 4, 4, 5) * 16:
        while True:
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if ox.det(m):
                break
        gens = [tuple(Fraction(x, rng.randint(1, 4)) for x in c)
                for c in ox.columns(m)]
        out.append((m, gens))
    elems = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(56)]
    return out, elems


_MATS, _ELEMS = _inputs()


def task():
    """The calibration task; its result is fixed."""
    acc = 0
    for m, gens in _MATS:
        acc += ox.det(m).numerator
        acc += sum(x.numerator for x in ox.canonical_basis(gens)[0])
    for x in _ELEMS:
        for y in _ELEMS:
            acc += sum(ox.cyc_mul(_F, x, y))
    return acc


def probe() -> float:
    """CPU seconds the calibration task takes now."""
    c0 = process_time()
    task()
    return process_time() - c0
