"""Dense reference implementations used by the CLI verify mode and tests.

Everything here is an O(n^3)-style correctness anchor, not a performance
path: characteristic polynomial by Hessenberg reduction, minimal polynomial
by per-vector Krylov saturation, and the integer characteristic polynomial
by CRT of modular Hessenberg runs.  The references that only tests use
(rank, determinant, invariant factors, P(A)) live with the tests.

The Hessenberg recurrence works on raw numpy coefficient rows so a 560x560
verify run stays in seconds.
"""

from __future__ import annotations

import math

import numpy as np

from .ff import next_prime
from .poly import FieldPoly, IntPoly, crt_combine, poly_lcm


def _as_array(matrix, p: int) -> np.ndarray:
    arr = np.array(matrix, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("dense oracle expects a square matrix")
    return arr % p


def _hessenberg(H: np.ndarray, p: int) -> np.ndarray:
    """Similarity reduction to upper Hessenberg form over GF(p)."""
    n = H.shape[0]
    for k in range(n - 2):
        pivot = None
        for i in range(k + 1, n):
            if H[i, k]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != k + 1:
            H[[k + 1, pivot], :] = H[[pivot, k + 1], :]
            H[:, [k + 1, pivot]] = H[:, [pivot, k + 1]]
        inv = pow(int(H[k + 1, k]), -1, p)
        for i in range(k + 2, n):
            f = int(H[i, k])
            if f:
                factor = f * inv % p
                H[i, :] = (H[i, :] - factor * H[k + 1, :]) % p
                H[:, k + 1] = (H[:, k + 1] + factor * H[:, i]) % p
    return H


def dense_charpoly(matrix, p: int) -> FieldPoly:
    """Characteristic polynomial det(XI - A) via Hessenberg reduction."""
    H = _hessenberg(_as_array(matrix, p), p)
    n = H.shape[0]
    # charpolys of leading principal submatrices, as coefficient rows
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = polys[k]
        cur[1 : k + 1] = prev[:k]  # X * prev
        cur[:k] = (cur[:k] - int(H[k - 1, k - 1]) * prev[:k]) % p
        beta = 1
        for i in range(k - 1, 0, -1):
            beta = beta * int(H[i, i - 1]) % p
            if beta == 0:
                break
            w = int(H[i - 1, k - 1]) * beta % p
            if w:
                cur[:i] = (cur[:i] - w * polys[i - 1, :i]) % p
    return FieldPoly([int(c) for c in polys[n]], p)


def _local_minpoly(B: np.ndarray, start: np.ndarray, p: int) -> FieldPoly:
    """Minimal polynomial of the Krylov chain of one start vector."""
    n = B.shape[0]
    rows = []  # (reduced vector, pivot index, combo coefficients)
    w = start.copy()
    combo = [1]
    while True:
        w = w.copy()
        for vec, piv, vec_combo in rows:
            f = int(w[piv])
            if f:
                w = (w - f * vec) % p
                for j, c in enumerate(vec_combo):
                    combo[j] = (combo[j] - f * c) % p
        nz = np.nonzero(w)[0]
        if len(nz) == 0:
            return FieldPoly(combo, p)
        piv = int(nz[0])
        inv = pow(int(w[piv]), -1, p)
        rows.append((w * inv % p, piv, [c * inv % p for c in combo]))
        w = np.sum(B * w[None, :] % p, axis=1) % p  # next Krylov vector B*w
        combo = [0] + combo
        if len(combo) > n + 1:
            raise AssertionError("Krylov chain exceeded the dimension")


def dense_minpoly(matrix, p: int) -> FieldPoly:
    """Minimal polynomial as the lcm of per-basis-vector local minpolys."""
    B = _as_array(matrix, p)
    n = B.shape[0]
    m = FieldPoly.one(p)
    e = np.zeros(n, dtype=np.int64)
    for i in range(n):
        e[i] = 1
        m = poly_lcm(m, _local_minpoly(B, e, p))
        e[i] = 0
        if m.degree == n:
            break
    return m


def charpoly_coeff_bound(n: int, norm: int) -> int:
    """Conservative bound (1 + sqrt(n)*norm)**n on charpoly coefficients,
    computed exactly: the integer-plus-sqrt(n) expansion x + y*sqrt(n) is
    accumulated in integers and the ceiling taken at the end."""
    norm = max(1, int(norm))
    x = 0
    y = 0
    for k in range(n + 1):
        term = math.comb(n, k) * norm**k * n ** (k // 2)
        if k % 2 == 0:
            x += term
        else:
            y += term
    s = math.isqrt(y * y * n)
    if s * s < y * y * n:
        s += 1
    return x + s


def dense_integer_charpoly(matrix) -> IntPoly:
    """Integer characteristic polynomial by CRT over word-size primes.

    The primes multiply past twice ``charpoly_coeff_bound``, a bound on the
    coefficients of any n x n characteristic polynomial of that norm, so the
    result needs nothing from the integer pipeline that it checks.
    """
    arr = [[int(v) for v in row] for row in matrix]
    n = len(arr)
    norm = max((abs(v) for row in arr for v in row), default=0)
    bound = 2 * charpoly_coeff_bound(n, max(1, norm))
    residues = []
    modulus = 1
    prime = 1 << 29
    while modulus <= bound:
        prime = next_prime(prime)
        residues.append(dense_charpoly(arr, prime))
        modulus *= prime
    return crt_combine(residues)
