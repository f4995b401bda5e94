"""Dense reference implementations used by tests and the CLI verify mode.

Everything here is an O(n^3)-style correctness anchor, not a performance
path: characteristic polynomial by Hessenberg reduction, rank/determinant by
elimination, minimal polynomial by per-vector Krylov saturation, invariant
factors by the Smith form of XI - A over GF(p)[X] at small n, and the
integer characteristic polynomial by CRT of modular Hessenberg runs.

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


def dense_rank(matrix, p: int) -> int:
    A = _as_array(matrix, p)
    m, n = A.shape
    rank = 0
    for col in range(n):
        pivot = None
        for i in range(rank, m):
            if A[i, col]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != rank:
            A[[rank, pivot], :] = A[[pivot, rank], :]
        inv = pow(int(A[rank, col]), -1, p)
        A[rank, :] = A[rank, :] * inv % p
        for i in range(rank + 1, m):
            f = int(A[i, col])
            if f:
                A[i, :] = (A[i, :] - f * A[rank, :]) % p
        rank += 1
        if rank == m:
            break
    return rank


def dense_det(matrix, p: int) -> int:
    A = _as_array(matrix, p)
    n = A.shape[0]
    det = 1
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if A[i, col]:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != col:
            A[[col, pivot], :] = A[[pivot, col], :]
            det = -det
        v = int(A[col, col])
        det = det * v % p
        inv = pow(v, -1, p)
        for i in range(col + 1, n):
            f = int(A[i, col])
            if f:
                factor = f * inv % p
                A[i, :] = (A[i, :] - factor * A[col, :]) % p
    return det % p


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


def dense_invariant_factors(matrix, p: int) -> list[FieldPoly]:
    """Invariant factors of A, largest first, via the Smith form of XI - A.

    Intended for small n (tests use n <= 25); entries are polynomials and
    the reduction is the classical minimal-degree pivot sweep.
    """
    A = _as_array(matrix, p)
    n = A.shape[0]
    x = FieldPoly.x(p)
    M = [
        [
            (x if i == j else FieldPoly.zero(p)) - FieldPoly([int(A[i, j])], p)
            for j in range(n)
        ]
        for i in range(n)
    ]

    def min_entry(t):
        best = None
        for i in range(t, n):
            for j in range(t, n):
                if not M[i][j].is_zero:
                    if best is None or M[i][j].degree < M[best[0]][best[1]].degree:
                        best = (i, j)
        return best

    for t in range(n):
        while True:
            pos = min_entry(t)
            if pos is None:
                break
            i, j = pos
            if i != t:
                M[t], M[i] = M[i], M[t]
            if j != t:
                for row in M:
                    row[t], row[j] = row[j], row[t]
            dirty = False
            for i in range(t + 1, n):
                if not M[i][t].is_zero:
                    q = M[i][t] // M[t][t]
                    for j in range(t, n):
                        M[i][j] = M[i][j] - q * M[t][j]
                    dirty = dirty or not M[i][t].is_zero
            for j in range(t + 1, n):
                if not M[t][j].is_zero:
                    q = M[t][j] // M[t][t]
                    for i in range(t, n):
                        M[i][j] = M[i][j] - q * M[i][t]
                    dirty = dirty or not M[t][j].is_zero
            if dirty:
                continue
            # pivot must divide the remaining submatrix
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if not (M[i][j] % M[t][t]).is_zero:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, n):
                M[t][j] = M[t][j] + M[offender][j]
    diag = [M[i][i].monic() for i in range(n) if not M[i][i].is_zero]
    factors = [d for d in diag if d.degree > 0]
    factors.sort(key=lambda f: f.degree, reverse=True)
    return factors


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


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Matrix product mod p without int64 overflow (column-blocked)."""
    n = A.shape[0]
    out = np.zeros((n, B.shape[1]), dtype=np.int64)
    for j in range(B.shape[1]):
        out[:, j] = np.sum(A * B[:, j][None, :] % p, axis=1) % p
    return out


def dense_poly_of_matrix(matrix, p: int, poly: FieldPoly) -> np.ndarray:
    """poly(A) as a dense matrix mod p (Horner)."""
    A = _as_array(matrix, p)
    n = A.shape[0]
    acc = np.eye(n, dtype=np.int64) * (poly.coeffs[-1] % p) % p
    for i in range(len(poly.coeffs) - 2, -1, -1):
        acc = _matmul_mod(A, acc, p)
        acc = (acc + np.eye(n, dtype=np.int64) * poly.coeffs[i]) % p
    return acc

