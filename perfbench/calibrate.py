"""Host speed, measured by a fixed kernel run between the CLI calls.

On a shared machine other tenants slow the whole virtual CPU for seconds to
minutes at a time: pure-Python code then runs up to twice as long, and the
process's own CPU time grows with it, so neither wall nor CPU time of a call
is steady from one run to the next.  The kernel below does a fixed amount of
work of the two kinds the program spends its time on (Python integer
arithmetic on coefficient lists, and numpy calls on vectors of a few hundred
entries) and never touches the program.  The benchmark times it before and
after every call; a call's time divided by the kernel's time around it, times
``REFERENCE_S``, is the call's time at the reference speed of the host.  A
change to the program moves that figure by the share it moves the call.

``REFERENCE_S`` is the kernel's median time measured on a 2-core x86 virtual
machine (Intel Xeon, Python 3.11, numpy 2.4, one thread), so the normalised
figures read as seconds on that machine at that speed.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.012

_P = 1000003
_A = [(i * 7919 + 13) % _P for i in range(64)]
_B = [(i * 104729 + 7) % _P for i in range(64)]
_N = 160
_rng = np.random.default_rng(0)
_COLS = _rng.integers(0, _N, 5 * _N)
_VALS = _rng.integers(1, _P, 5 * _N)
_PTR = np.arange(0, 5 * _N + 1, 5)


def _kernel() -> int:
    out = [0] * (len(_A) + len(_B) - 1)
    for _ in range(8):
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                out[i + j] += x * y
        out = [c % _P for c in out]
    v = np.arange(1, _N + 1, dtype=np.int64)
    for _ in range(300):
        t = _VALS * v[_COLS] % _P
        c = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(t)))
        v = (c[_PTR[1:]] - c[_PTR[:-1]]) % _P
    return out[1] + int(v[0])


def sample() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def warm_up(repeats: int = 5) -> None:
    for _ in range(repeats):
        _kernel()
