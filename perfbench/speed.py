"""Machine-speed probe used to normalise measured times.

On a shared host the same job can run 30% slower for seconds at a time
while neighbours load the CPU.  ``probe()`` times a fixed exact-rational
elimination, the kind of work the program spends its time on; the
benchmark runs it between jobs and scales each job's wall time by
``REF / probe``, giving seconds at the reference speed at which the probe
takes ``REF`` seconds.  Raw wall times are printed next to the normalised
ones.  The probe runs no program code, so a change to the program cannot
move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF = 0.010

_MATRIX = [
    [Fraction((7 * i * i + 3 * j + 1) % 23 - 11, (i + 2 * j) % 5 + 1) for j in range(7)]
    for i in range(7)
]


def _eliminate() -> None:
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def probe(reps: int = 6) -> float:
    """Seconds taken by ``reps`` runs of the fixed elimination."""
    t0 = time.perf_counter()
    for _ in range(reps):
        _eliminate()
    return time.perf_counter() - t0
