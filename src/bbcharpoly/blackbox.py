"""Black-box operators over GF(p) and the Wiedemann kernels.

An operator exposes only its dimension and ``apply(vector)``; vectors are
dense numpy int64 arrays with canonical entries in ``[0, p)``, and every
apply returns a new canonical array and leaves its input unchanged.  An
operator whose ``takes_blocks`` is true also takes an n x k block of such
columns and returns the block of their images.  The bounds below rely on
that contract: a product of two canonical entries is at most (p - 1)^2.
Reduction is lazy: a kernel that sums ``terms`` products adds them raw and
reduces once per output entry when ``terms * (p - 1)^2 < 2^63``
(``_lazy_sum_fits``), so the sum cannot overflow int64.  Otherwise it
reduces every product first.  The Toeplitz preconditioner applies L, D
and U as a scaling and two convolutions (``conv_mod``) before an apply of A.

The kernels: minimal polynomial via Berlekamp-Massey on projected Krylov
sequences, rank and determinant via a random preconditioner A * U * D * L
(`_Preconditioner`) or by elimination, and trace.  One rule,
``preconditioner``, picks for both kernels: a symmetric operator takes
L = U = I, the cheaper A * D, where the field is large enough, and every
other operator takes Toeplitz L and U.  A Toeplitz-kind call with
n <= ``_ELIMINATION_MAX_N`` = 1024 takes no preconditioner: it applies the
operator to the n columns of I, as one block where it takes blocks, and
eliminates mod p (`_eliminate`), so its rank and determinant are exact in
every field and it draws no random value.  Only larger Toeplitz-kind calls
run Toeplitz trials.
Only a minimal polynomial that is returned carries the annihilation
certificate.  A rank or determinant trial reads its answer from one
uncertified round's generator: a determinant from a generator whose degree
or X factor proves it, and a rank estimate that never exceeds the true rank
(proved in `rank_blackbox`), so repetition takes a max.  On A * D that round
projects with u = D v and takes two sequence terms per apply.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .poly import (
    ComputationError,
    FieldPoly,
    _lazy_sum_fits,
    _lazy_sum_terms,
    conv_mod,
    poly_lcm,
)


class MinpolyNotCertifiedError(ComputationError):
    """Candidate minimal polynomial failed the annihilation check."""


class DetNotCertifiedError(ComputationError):
    """Determinant preconditioning failed to produce a full-degree minpoly."""


def random_vector(n: int, p: int, rng) -> np.ndarray:
    return np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)


def _dot_mod(u: np.ndarray, v: np.ndarray, p: int, lazy: bool) -> int:
    """u . v mod p; ``lazy`` is ``_lazy_sum_fits(len(u), p)``, which the
    caller decides once for many dots."""
    if lazy:
        return int(u @ v) % p
    # (u*v) % p keeps every summand < p; the sum then fits easily in int64.
    return int(np.sum(u * v % p) % p)


class BlackBoxOperator:
    """Linear map known only through matrix-vector products.

    ``apply`` takes a canonical int64 vector.  An operator whose
    ``takes_blocks`` is true also takes an n x k block whose columns are
    such vectors, and returns A times it in the same shape."""

    takes_blocks = False

    def __init__(self, dimension: int, p: int, cost: int, symmetric: bool = False):
        self.dimension = dimension
        self.p = p
        self.cost = cost  # estimated scalar operations per apply
        self.symmetric = symmetric  # a true value promises A^T = A

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def trace(self) -> int:
        """Trace in [0, p) via n applies of unit vectors."""
        total = 0
        e = np.zeros(self.dimension, dtype=np.int64)
        for i in range(self.dimension):
            e[i] = 1
            total += int(self.apply(e)[i])
            e[i] = 0
        return total % self.p


class SparseMatrix:
    """Row-sorted nonzero triples; integer entries.

    ``symmetric`` records, from one O(nnz) pass at construction, whether the
    integer matrix equals its transpose (then so does every reduction mod p).
    """

    __slots__ = ("n", "entries", "symmetric")

    def __init__(self, n: int, entries):
        self.n = n
        self.entries = tuple(sorted(entries))
        values = {}
        for row, col, val in self.entries:
            if not (0 <= row < n and 0 <= col < n):
                raise ValueError(f"entry ({row}, {col}) outside {n}x{n}")
            if val == 0:
                raise ValueError(f"explicit zero stored at ({row}, {col})")
            if (row, col) in values:
                raise ValueError(f"duplicate entry at ({row}, {col})")
            values[row, col] = val
        self.symmetric = all(values.get((c, r)) == v for (r, c), v in values.items())

    @classmethod
    def from_dense(cls, rows) -> "SparseMatrix":
        n = len(rows)
        entries = [
            (i, j, int(v))
            for i, row in enumerate(rows)
            for j, v in enumerate(row)
            if v
        ]
        return cls(n, entries)

    def to_dense(self):
        out = [[0] * self.n for _ in range(self.n)]
        for row, col, val in self.entries:
            out[row][col] = val
        return out

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def diagonal_sum(self) -> int:
        return sum(v for r, c, v in self.entries if r == c)

    def max_abs(self) -> int:
        return max((abs(v) for _, _, v in self.entries), default=0)

    def operator(self, p: int) -> "SparseOperator":
        return SparseOperator(self, p)

    def __repr__(self):
        return f"SparseMatrix(n={self.n}, nnz={self.nnz})"


class SparseOperator(BlackBoxOperator):
    """CSR apply of a SparseMatrix reduced mod p; ``applies`` counts the
    vectors applied to, k for a block of k columns."""

    takes_blocks = True

    def __init__(self, matrix: SparseMatrix, p: int):
        kept = [(r, c, v % p) for r, c, v in matrix.entries if v % p]
        super().__init__(
            matrix.n, p, cost=2 * len(kept) + matrix.n, symmetric=matrix.symmetric
        )
        n = matrix.n
        indptr = [0] * (n + 1)
        for r, _, _ in kept:
            indptr[r + 1] += 1
        for i in range(n):
            indptr[i + 1] += indptr[i]
        indptr = np.array(indptr, dtype=np.int64)
        self._cols = np.array([c for _, c, _ in kept], dtype=np.int64)
        self._vals = np.array([v for _, _, v in kept], dtype=np.int64)
        self._diag = matrix.diagonal_sum() % p
        lengths = np.diff(indptr)
        self._lazy = _lazy_sum_fits(int(lengths.max(initial=0)), p)
        # reduceat sums each row from its start to the next start, so it gets
        # the starts of the nonempty rows only; their sums are scattered back
        # when some row is empty.
        nonempty = np.flatnonzero(lengths)
        self._starts = indptr[nonempty]
        self._rows = None if len(nonempty) == n else nonempty
        self.applies = 0

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.ndim == 2:
            return self._apply_block(v)
        self.applies += 1
        if len(self._vals) == 0:
            return np.zeros(self.dimension, dtype=np.int64)
        t = self._vals * v[self._cols]
        if not self._lazy:
            t %= self.p
        sums = np.add.reduceat(t, self._starts) % self.p
        if self._rows is None:
            return sums
        out = np.zeros(self.dimension, dtype=np.int64)
        out[self._rows] = sums
        return out

    def _apply_block(self, m: np.ndarray) -> np.ndarray:
        """A * m for an n x k block m, in slices of at most n^2 / nnz
        columns, so the gathered products of a slice never hold more than
        n^2 entries."""
        n, k = m.shape
        self.applies += k
        out = np.zeros(m.shape, dtype=np.int64)
        if len(self._vals) == 0:
            return out
        rows = slice(None) if self._rows is None else self._rows
        width = max(1, n * n // len(self._vals))
        vals = self._vals[:, None]
        for s in range(0, k, width):
            t = m[self._cols, s : s + width]  # a new array, so multiplied in place
            t *= vals
            out[rows, s : s + width] = self._row_sums(t)
        return out

    def _row_sums(self, t: np.ndarray) -> np.ndarray:
        """The sums mod p of the nonempty rows of t, one column per column
        of a slice of gathered products, updating t in place."""
        if not self._lazy:
            t %= self.p
        return np.add.reduceat(t, self._starts) % self.p

    def trace(self) -> int:
        return self._diag


class PolyOfMatrix(BlackBoxOperator):
    """P(A)^e as an operator; Horner needs deg(P) applies of A per round,
    each followed by a scaled add and a reduction of n entries."""

    def __init__(self, base: BlackBoxOperator, poly: FieldPoly, power: int = 1):
        if poly.p != base.p:
            raise ValueError("polynomial and operator moduli differ")
        if poly.degree < 0:
            raise ValueError("zero polynomial of a matrix")
        super().__init__(
            base.dimension,
            base.p,
            cost=power * poly.degree * (base.cost + 2 * base.dimension),
            symmetric=base.symmetric,
        )
        self.base = base
        self.poly = poly
        self.power = power
        self.takes_blocks = base.takes_blocks

    def apply(self, v: np.ndarray) -> np.ndarray:
        p = self.p
        *low, lead = self.poly.coeffs
        w = v
        for _ in range(self.power):
            acc = w if lead == 1 else lead * w % p
            for c in reversed(low):
                acc = self.base.apply(acc)  # a new array, so updated in place
                if c:
                    acc += c * w
                    acc %= p
            w = acc
        return w.copy() if w is v else w


class ShiftedOperator(BlackBoxOperator):
    """lambda*I - A."""

    def __init__(self, base: BlackBoxOperator, shift: int):
        super().__init__(
            base.dimension,
            base.p,
            cost=base.cost + 2 * base.dimension,
            symmetric=base.symmetric,
        )
        self.base = base
        self.shift = shift % base.p
        self.takes_blocks = base.takes_blocks

    def apply(self, v: np.ndarray) -> np.ndarray:
        return (self.shift * v - self.base.apply(v)) % self.p


class LowRankPerturbation(BlackBoxOperator):
    """A + U*V with U of shape (n, r) and V of shape (r, n)."""

    def __init__(self, base: BlackBoxOperator, U: np.ndarray, V: np.ndarray):
        n = base.dimension
        U = np.asarray(U, dtype=np.int64) % base.p
        V = np.asarray(V, dtype=np.int64) % base.p
        if U.shape[0] != n or V.shape[1] != n or U.shape[1] != V.shape[0]:
            raise ValueError("perturbation factor shapes are inconsistent")
        r = U.shape[1]
        super().__init__(n, base.p, cost=base.cost + 4 * n * r)
        self.base = base
        self.U = U
        self.V = V
        # V @ v sums n products per entry and U @ w sums r.
        self._lazy = _lazy_sum_fits(max(n, r), base.p)

    def apply(self, v: np.ndarray) -> np.ndarray:
        p = self.p
        if self._lazy:
            uv = self.U @ (self.V @ v % p) % p
            return (self.base.apply(v) + uv) % p
        w = np.sum(self.V * v[None, :] % p, axis=1) % p
        uv = np.sum(self.U * w[None, :] % p, axis=1) % p
        return (self.base.apply(v) + uv) % p


def preconditioner(A: BlackBoxOperator) -> str:
    """The kind of `_Preconditioner` that rank and determinant calls on A
    take: "diagonal" or "toeplitz".

    A * D serves a symmetric A once 2n(n+1) <= q - 1, where its per-trial
    failure bound r(r+1)/(2(q-1)) + r/q is under 1/4 + 1/(2(n+1)) for every
    rank r <= n.  Below that a diagonal A with repeated eigenvalues meets the
    birthday bound too often.
    """
    n = A.dimension
    return "diagonal" if A.symmetric and 2 * n * (n + 1) <= A.p - 1 else "toeplitz"


def one_trial_suffices(c: int, n: int, q: int, kind: str) -> bool:
    """Whether one rank trial of ``kind`` over GF(q) errs with probability
    at most 1/n^2 for every rank r <= c.

    The per-trial bounds of `rank_blackbox` grow with r, so they are taken
    at c: c(c+1)/(2(q-1)) + c/q for "diagonal" and
    c(c+1)/q + c(c+1)/(2(q-1)) for "toeplitz", compared with 1/n^2 after
    multiplying out by 2 q (q-1) n^2.
    """
    if kind == "diagonal":
        scaled = c * (c + 1) * q + 2 * c * (q - 1)
    else:
        scaled = 2 * c * (c + 1) * (q - 1) + c * (c + 1) * q
    return scaled * n * n <= 2 * q * (q - 1)


class _Preconditioner(BlackBoxOperator):
    """A * U * D * L with unit-triangular Toeplitz L, U and a diagonal D.

    Serves both kernels; ``preconditioner(A)`` picks its kind.  ``toeplitz``
    draws L, U and D.  ``diagonal`` draws only D and takes L = U = I, that
    is A * D (``lc`` and ``uc`` are None).

    A Toeplitz apply is L, D and U in that order, two convolutions
    (``conv_mod``) around the scaling, then one apply of A.  Rank and
    determinant calls build the Toeplitz kind only above
    ``_ELIMINATION_MAX_N``; below it they eliminate.

    The arguments below are about L * A * U * D, and they hold for
    B' = A * U * D * L word for word.  B' = L^-1 (L * A * U * D) L is
    similar to it, so the two have the same minimal polynomial and rank, and
    det B' = det(A) * det(D).  A trial's sequence on B' is
    u . B'^k v = (L^-T u) . (L * A * U * D)^k (L v), and (u, v) ->
    (L^-T u, L v) is a bijection, so uniform projections give every
    sequence with the same probability on both.

    Toeplitz.  Rank: the triangular pair forces a generic rank profile with
    high probability (Kaltofen and Saunders, 1991; two-sided diagonals alone
    demonstrably fail on block-Jordan powers), and D separates the nonzero
    eigenvalues, so the minimal polynomial degree reveals the rank.
    Determinant: L and U are unit triangular, so det = det(A) * det(D), and
    the Toeplitz-diagonal product makes the spectrum of a nonsingular A
    nonderogatory with high probability (Chen, Eberly, Kaltofen, Saunders,
    Turner and Villard, LAA 2002; a diagonal alone fails persistently on
    identity-like blocks over small fields).  Reversing the index order
    turns L and U into the upper/lower pair those arguments use.

    Diagonal, for a symmetric A of rank r over GF(q), q odd, and the d_i
    uniform in GF(q)*.  A * D = D^-1 (D * A) D, so A * D and D * A have the
    same minimal polynomial and rank.  That minimal polynomial is X^[r < n]
    times a polynomial of degree r with a nonzero constant term, so it
    reveals r, except with probability at most r/(q-1) + r(r-1)/(2(q-1)) =
    r(r+1)/(2(q-1)).

    Proof.  A symmetric matrix of rank r has a nonsingular r x r principal
    submatrix M; with its indices first, A = F^T M F for F = [I_r | W].  So
    D * A = X * Y with X = D F^T and Y = M F, and its nonzero Jordan blocks
    are those of the r x r matrix C = Y * X = M * (F D F^T).
    (i) Index one.  By Cauchy-Binet det(F D F^T) = sum over r-sets S of
    det(F_S)^2 * prod_{i in S} d_i, a nonzero form of degree r in d (S = the
    first r indices has coefficient 1); by Schwartz-Zippel it vanishes with
    probability at most r/(q-1).  Otherwise C is invertible, rank(A D A) = r
    and the eigenvalue 0 of D * A is semisimple.
    (ii) Cyclic on the range.  C is cyclic iff det[v, Cv, ..., C^(r-1) v] is
    nonzero for some v; as a polynomial in d it has degree r(r-1)/2, so by
    Schwartz-Zippel it fails with probability at most r(r-1)/(2(q-1)) once
    it is a nonzero polynomial.  It is: at d = (d', 0), C = M * D', and M * D'
    has r distinct eigenvalues for some diagonal D' over the algebraic
    closure.  Induct on a pivot block P of M: a nonzero diagonal entry a, or,
    when M's diagonal is zero, some [[0, b], [b, 0]]; its Schur complement S
    is symmetric and invertible.  Take D' = diag(D_P, e * D_S).  Over the
    power series in e the characteristic polynomial of M * D' factors
    (Hensel) into one part reducing to that of P * D_P, with roots a * x or
    +-b * sqrt(xy) (distinct, as q is odd), and one whose roots are e times
    those of S * D_S, distinct and nonzero by induction.  For a diagonal A
    the r(r-1)/(2(q-1)) is the birthday bound for two equal d_i.  This is
    the symmetric diagonal-preconditioner statement of Chen, Eberly,
    Kaltofen, Saunders, Turner and Villard (LAA 2002), after Eberly and
    Kaltofen (ISSAC 1997).
    At r = n, C = A * D itself (F = I), so A * D is cyclic except with
    probability at most n(n-1)/(2(q-1)), and det(A * D) = det(A) * det(D).

    Projection u = D v.  A trial round on this kind reads the sequence
    s_k = (D v) . B^k v of B = A * D, two terms per apply (`_round_terms`),
    and a trial still fails with probability at most r(r+1)/(2(q-1)) + r/q.
    No estimate exceeds the rank, whatever the projection (`rank_blackbox`).
    B is self-adjoint for the nondegenerate form <x, y> = x^T D y, and
    s_k = <v, B^k v>.  Let (i) and (ii) hold: B has index one and is cyclic
    on its range R, dim R = r, with minimal polynomial f there, deg f = r.
    ker B is D-orthogonal to R (<x, B y> = <B x, y> = 0 for x in ker B), so
    the form stays nondegenerate on R.  With v = v0 + v1, v0 in ker B and v1
    in R, s = s0 + s1: s0 is <v0, v0> at k = 0 and zero after, and
    s1_k = <B^k v1, v1> has the Hankel matrix K^T D K for the Krylov matrix
    K = [v1, B v1, ..., B^(r-1) v1].  If v1 is cyclic for B on R, K is a
    basis of R, K^T D K is its nonsingular Gram matrix, and s1 has the
    generator f; then s has the generator f or X * f (an isotropic v0 only
    hides the X), and the estimate is r either way.  v1 is uniform on R, and
    det K, in coordinates of R, is a polynomial of degree r in v1, nonzero
    as a cyclic vector exists; by Schwartz-Zippel it vanishes with
    probability at most r/q.  At r = n the generator then has degree n, so
    the determinant is certified; an X factor still proves singularity.
    This is the symmetric projection of LinBox's BlackboxContainerSymmetric
    and of Eberly and Kaltofen (ISSAC 1997).
    """

    def __init__(self, base: BlackBoxOperator, rng):
        n, p = base.dimension, base.p
        toeplitz = preconditioner(base) == "toeplitz"
        # an apply of A after the scaling and, for Toeplitz, two dense
        # length-n convolutions
        super().__init__(n, p, cost=base.cost + n + (2 * n * n if toeplitz else 0))
        self.base = base
        self.lc = self.uc = None
        if toeplitz:
            self.lc = np.concatenate(([1], random_vector(n - 1, p, rng)))
            self.uc = np.concatenate(([1], random_vector(n - 1, p, rng)))
        self.d = np.array([rng.randrange(1, p) for _ in range(n)], dtype=np.int64)

    def det_diag(self) -> int:
        out = 1
        for entry in self.d:
            out = out * int(entry) % self.p
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        n, p = self.dimension, self.p
        if self.lc is None:
            return self.base.apply(self.d * v % p)
        w = conv_mod(self.lc, v, p)[:n]  # L: lc is its first column
        w = self.d * w % p
        w = conv_mod(self.uc[::-1], w, p)[n - 1 :]  # U: uc is its first row
        return self.base.apply(w)


class BerlekampMassey:
    """Incremental minimal linear recurrence of a sequence over GF(p).

    ``zeros`` counts the zero discrepancies in a row that end the sequence so
    far: the terms the current generator already predicted.
    """

    def __init__(self, p: int, capacity: int):
        self.p = p
        # the discrepancy sums L + 1 products; lazily while L + 1 fits
        self._lazy_terms = _lazy_sum_terms(p)
        self._seq = np.zeros(capacity, dtype=np.int64)
        self._C = np.zeros(capacity + 1, dtype=np.int64)
        self._C[0] = 1
        # B is C as it was before the last length change, cut to that L + 1
        # entries; C is zero beyond its L, so nothing of B is lost.
        self._B = np.ones(1, dtype=np.int64)
        self.L = 0
        self._m = 1
        self._b_inv = 1  # inverse of the discrepancy at the last length change
        self.count = 0
        self.zeros = 0

    def add(self, term: int):
        p = self.p
        i = self.count
        self._seq[i] = term % p
        window = self._seq[i - self.L : i + 1][::-1]
        live = self._C[: self.L + 1]
        d = _dot_mod(live, window, p, self.L < self._lazy_terms)
        if d == 0:
            self._m += 1
            self.zeros += 1
        else:
            self.zeros = 0
            coef = d * self._b_inv % p
            B, m = self._B, self._m
            if 2 * self.L <= i:  # length change: C before this update becomes B
                self._B, self._b_inv, self._m = live.copy(), pow(d, -1, p), 0
                self.L = i + 1 - self.L
            # m + len(B) = i + 2 - L_old <= capacity + 1, and deg(X^m B) is at
            # most the new L, so C stays zero beyond L.
            seg = self._C[m : m + len(B)]
            seg -= coef * B
            seg %= p
            self._m += 1
        self.count += 1

    def generator(self) -> FieldPoly:
        """Monic minimal generator: X^L * C(1/X)."""
        rev = [int(self._C[self.L - j]) for j in range(self.L + 1)]
        return FieldPoly(rev, self.p)


def _annihilates(A: BlackBoxOperator, poly: FieldPoly, rng) -> bool:
    """Check poly(A) * w == 0 for one fresh random w."""
    w = random_vector(A.dimension, A.p, rng)
    return not PolyOfMatrix(A, poly).apply(w).any()


# A round ends once this many discrepancies in a row are zero and the
# sequence is that much longer than twice the generator's degree (early
# termination: Kaltofen and Lee, JSC 2003; Eberly, ISSAC 2003).
_EARLY_STOP = 8
# A run of z zeros before the generator is complete came about p^-z of the
# time in GF(3) and GF(5) (run 8: 2 of 4,747 early-ended GF(3) rounds), so
# the run must also reach p^z >= 2^_EARLY_STOP_BITS; that lengthens it only
# below p = 32.
_EARLY_STOP_BITS = 40


def _early_stop_run(p: int) -> int:
    return max(_EARLY_STOP, -(-_EARLY_STOP_BITS // (p.bit_length() - 1)))


def _round_terms(A: BlackBoxOperator, rng, lazy: bool, symmetric: bool):
    """One round's projected Krylov sequence, each apply made only when the
    next term is asked for.

    In general u . A^k v for random u and v: one apply per term after the
    first.  ``symmetric`` (a diagonal-kind `_Preconditioner` B = A * D with A
    symmetric) takes u = D v.  B is self-adjoint for <x, y> = x^T D y, so
    with w_i = B^i v the terms (D v) . B^(i+j) v are <w_i, w_j>: with
    y_i = D w_i, s_2i = y_i . w_i and s_2i+1 = y_i . w_(i+1), where
    w_(i+1) = A y_i.  Two terms per apply of A; the trial bound this
    projection keeps is proved in `_Preconditioner`.
    """
    n, p = A.dimension, A.p
    if symmetric:
        w = random_vector(n, p, rng)
        while True:
            y = A.d * w % p
            yield _dot_mod(y, w, p, lazy)
            w = A.base.apply(y)
            yield _dot_mod(y, w, p, lazy)
    u = random_vector(n, p, rng)
    w = random_vector(n, p, rng)
    while True:
        yield _dot_mod(u, w, p, lazy)
        w = A.apply(w)


_CERTIFIED_ROUNDS = 6  # rounds before a certified minimal polynomial gives up
_RANK_STREAK = 2  # trials a best rank estimate stands, where one does not suffice

# The largest n at which rank and determinant calls on a Toeplitz-kind
# operator materialise it and eliminate (`_eliminate_operator`) instead of
# running Krylov trials; the n x n int64 matrix takes 8 MiB at the cap.  The
# "dense elimination" table of tools/poly_kernel_sizes.py (one full run, one
# BLAS thread, each time the best of three calls, of one from n = 560), ms
# against a one-trial Krylov rank call: on its worst case, an input whose
# elimination is dense from the first pivot, 1,238 against 1,206 at n = 800
# and 2,617 against 2,515 at 1024 for p = 1000003 (3,079 against 3,739 at
# 1024 for p = 227); on P(A), deg P = 3, 2,061 against 2,797 at 1024; on
# sums of companion blocks, as sparse as the census forms, 31 against 2,918.
# At p = 2^31 - 1 it won on every row.  The cap keeps the worst case within
# 1.5 times one trial at every measured n; above it Toeplitz-kind calls run
# trials.
_ELIMINATION_MAX_N = 1024


def _eliminates(A: BlackBoxOperator) -> bool:
    """Whether rank and determinant calls on A take `_eliminate`."""
    return A.dimension <= _ELIMINATION_MAX_N and preconditioner(A) == "toeplitz"


def _eliminate_operator(A: BlackBoxOperator) -> tuple[int, int]:
    """(rank, det) of A by `_eliminate`, after applying A to the n columns
    of I: as one block where A ``takes_blocks``, one column at a time
    otherwise."""
    eye = np.eye(A.dimension, dtype=np.int64)
    if A.takes_blocks:
        return _eliminate(A.apply(eye), A.p)
    return _eliminate(np.column_stack([A.apply(c) for c in eye]), A.p)


def _eliminate(m: np.ndarray, p: int) -> tuple[int, int]:
    """(rank, det) over GF(p), p < 2^31, of the square matrix m of canonical
    int64 residues, by Gaussian elimination one pivot at a time; m is
    overwritten.

    Each pivot is one rank-1 update of the rows below it that are nonzero
    in its column: the normalised pivot row times each row's entry (every
    product below p^2 < 2^62), subtracted and reduced once.  det carries the
    sign of the row swaps and is 0 below full rank."""
    n = m.shape[0]
    rank, det = 0, 1
    for col in range(n):
        below = np.flatnonzero(m[rank:, col]) + rank
        if len(below) == 0:
            det = 0
            continue
        top = below[0]
        if top != rank:
            m[[rank, top]] = m[[top, rank]]
            det = -det
        pivot = int(m[rank, col])
        det = det * pivot % p
        rows = below[1:]
        if len(rows):
            row = m[rank, col + 1 :] * pow(pivot, -1, p) % p
            m[rows, col + 1 :] = (m[rows, col + 1 :] - m[rows, col, None] * row) % p
        rank += 1
    return rank, det


def wiedemann_minpoly(
    A: BlackBoxOperator, rng, trial_bound: int | None = None
) -> FieldPoly:
    """Minimal polynomial of A, certified; or one round's generator.

    A round feeds the projected sequence u . A^i v to Berlekamp-Massey, one
    apply per term after the first; a trial round on a diagonal-kind
    `_Preconditioner` takes u = D v and two terms per apply
    (`_round_terms`).  A round takes at most 2D terms, D a proven bound on
    the degree of A's minimal polynomial: a sequence with a generator of
    degree at most D is fixed by its first 2D terms.  It ends early once z
    discrepancies in a row are zero and at least 2L + z terms are in, L the
    generator's degree, z = 8 (longer below p = 32, see
    ``_early_stop_run``); a generator cut off this way can only be wrong if
    z discrepancies vanished by chance.  Every
    round's generator divides the true minimal polynomial.

    Without ``trial_bound`` (D = n) the result is the lcm of the rounds'
    generators, certified: it returns at degree n (a degree-n divisor of the
    minimal polynomial is the minimal polynomial), or from the second round
    on once it passes a random annihilation check, and gives up after
    ``_CERTIFIED_ROUNDS`` rounds.  With ``trial_bound`` D it returns the
    generator of one round, with no lcm and no certificate; `rank_blackbox`
    and `det_blackbox` read their answers from such a divisor.
    """
    n, p = A.dimension, A.p
    terms = 2 * (n if trial_bound is None else trial_bound)
    lazy = _lazy_sum_fits(n, p)
    run = _early_stop_run(p)
    symmetric = (
        trial_bound is not None and isinstance(A, _Preconditioner) and A.lc is None
    )
    result = FieldPoly.one(p)
    for rounds in range(1, _CERTIFIED_ROUNDS + 1):
        bm = BerlekampMassey(p, terms)
        # islice asks for no term past the last, so no apply is wasted
        for term in islice(_round_terms(A, rng, lazy, symmetric), terms):
            bm.add(term)
            if bm.zeros >= run and bm.count >= 2 * bm.L + run:
                break
        gen = bm.generator()
        if trial_bound is not None:
            return gen
        if gen.degree > 0:
            result = poly_lcm(result, gen) if result.degree > 0 else gen
        if result.degree == n:
            return result
        if rounds >= 2 and result.degree >= 1 and _annihilates(A, result, rng):
            return result
    raise MinpolyNotCertifiedError(
        f"minpoly not certified after {_CERTIFIED_ROUNDS} rounds (n={n}, p={p})"
    )


def rank_blackbox(A: BlackBoxOperator, rng, ceiling: int | None = None) -> int:
    """Rank exactly by elimination, or via the minimal polynomial of a
    randomly preconditioned operator.

    A Toeplitz-kind A (``preconditioner``) with n <= ``_ELIMINATION_MAX_N``
    = 1024 is applied to the n columns of I and its rank read off by
    `_eliminate`: exact in every field, with no trial and no draw.  Every
    other call, a diagonal-kind one or a Toeplitz-kind one above the cap,
    runs trials.  Each trial wraps A in a fresh `_Preconditioner`, so that,
    except with small probability, the minimal polynomial m has degree
    rank(A) plus one when A is singular.  For rank r over GF(q) one trial
    fails with probability at most r(r+1)/(2(q-1)) + r/q on the diagonal
    path A * D, whose round projects with u = D v and takes two terms per
    apply (proved in `_Preconditioner`), and at most r(r+1)/q +
    r(r+1)/(2(q-1)) on the Toeplitz path A * U * D * L, whose trials are
    distributed as those of the similar L * A * U * D (`_Preconditioner`):
    the first term for the generic rank profile of L * A * U (Kaltofen and
    Saunders, 1991), the second for D, by the same argument with 1 x 1
    pivots.  In GF(2) and GF(3) that bound says nothing, and Krylov
    estimates do come out low with no signal: every such call takes the
    Toeplitz kind, so up to the cap it eliminates and is exact, and above
    it the scope is still open.  On the Krylov path, on the test
    suite's rank strategies (400 derandomized examples each) 104 of 502
    calls at p <= 5 came out low, and none of the 698 at p >= 59; but at
    GF(101), n <= 60, 132 of 5,797 Toeplitz trials of acceptance 4's planted
    forms came out low.
    Estimates only err low (see below), so the max over trials is kept.

    ``ceiling`` c (default n) must be a proven bound on rank(A).  An
    operator of rank r < n has a minimal polynomial of degree at most r + 1
    (X times that of its restriction to its range), so each trial is one
    uncertified round of `wiedemann_minpoly` with trial bound
    D = min(c + 1, n); and no estimate exceeds rank(A) <= c, so sampling
    stops at an estimate of c.  It also stops after the first trial when
    that trial's bound at c is at most 1/n^2 (`one_trial_suffices`, for the
    kind ``preconditioner(A)`` picks), and the call then errs with
    probability at most that bound.  Otherwise it stops once the best
    estimate has stood for ``_RANK_STREAK`` = 2 trials in a row (the one
    that set it included), or after 8 trials; one exact trial would give
    the answer, so the call errs only if all its trials, at least two, came
    out low, with probability at most the square of the per-trial bound.
    Integer runs on a symmetric matrix pick their field so that the first
    rule holds wherever the lazy int64 kernels allow it
    (`integer._field_prime_floor`).

    Why a trial needs no annihilation certificate.  The preconditioned
    operator has rank r = rank(A), as its outer factors are invertible.  Let
    g be the round's generator, of degree L; the estimate is L - 1 if X | g
    and L otherwise.  L is at most the linear complexity L* of the whole
    projected sequence, and L* is at most the degree of the minimal
    polynomial m: n if r = n, and at most r + 1 if r < n.  So the estimate
    exceeds r only if r < n, L = r + 1 and X does not divide g.  Then
    L = L*, and the round has at least 2L terms (a full round has
    2D >= 2(r + 1); an early stop needs 2L + z), which fix the sequence's
    minimal generator uniquely.  So g is that generator: it divides m and
    has degree r + 1 >= deg m, so g = m, and X divides it, a contradiction.
    An all-zero sequence gives g = 1 and the estimate 0.
    """
    n = A.dimension
    if _eliminates(A):
        return _eliminate_operator(A)[0]
    c = n if ceiling is None else ceiling
    needed = 1 if one_trial_suffices(c, n, A.p, preconditioner(A)) else _RANK_STREAK
    best = 0
    streak = 0
    for _ in range(8):
        pre = _Preconditioner(A, rng)
        m = wiedemann_minpoly(pre, rng, trial_bound=min(c + 1, n))
        # m = 1 (a zero sequence) has m(0) = 1 and so estimates 0
        est = m.degree - 1 if m.coefficient(0) == 0 else m.degree
        if est > best:
            best = est
            streak = 1
        else:
            streak += 1
        if best >= c or streak >= needed:
            break
    return best


def det_blackbox(A: BlackBoxOperator, rng) -> int:
    """Determinant exactly by elimination, or via the minimal polynomial of
    a det-preserving preconditioned operator.

    A Toeplitz-kind A with n <= ``_ELIMINATION_MAX_N`` = 1024 is applied to
    the n columns of I, through its own ``apply`` (for lambda*I - A, the
    shift's) on every call, and `_eliminate` gives its determinant exactly,
    with the sign of its row swaps.  Every other call wraps A in a fresh
    `_Preconditioner` per attempt and reads one uncertified round's
    generator m (trial bound n), which divides the true minpoly of the
    preconditioned operator.  Degree n certifies m as that minpoly and det =
    (-1)^n * c0 / det(D), since A * U * D * L has determinant det(A) *
    det(D) (L and U are unit triangular); any X factor certifies singularity
    (0 is then an eigenvalue of the preconditioned operator, hence of A up
    to the invertible factors).  Anything else moves on to a fresh
    preconditioner; four are tried.
    """
    n, p = A.dimension, A.p
    if _eliminates(A):
        return _eliminate_operator(A)[1]
    for _ in range(4):
        pre = _Preconditioner(A, rng)
        m = wiedemann_minpoly(pre, rng, trial_bound=n)
        if m.coefficient(0) == 0:
            return 0
        if m.degree == n:
            det_scaled = m.coefficient(0) if n % 2 == 0 else -m.coefficient(0)
            return det_scaled * pow(pre.det_diag(), -1, p) % p
    raise DetNotCertifiedError(
        "determinant not certified after 4 preconditioned attempts"
    )


# ---------------------------------------------------------------------------
# Canonical-form constructions


def _negated_coeffs(poly):
    if isinstance(poly, FieldPoly):
        return [(-c) % poly.p for c in poly.coeffs[:-1]]
    return [-c for c in poly.coeffs[:-1]]


def build_companion(poly) -> SparseMatrix:
    """Companion matrix: subdiagonal ones, last column -a_i."""
    if not poly.is_monic:
        raise ValueError("companion matrix needs a monic polynomial")
    if poly.degree < 1:
        raise ValueError("companion matrix needs degree >= 1")
    return build_block_jordan(poly, 1)


def build_block_jordan(poly, k: int) -> SparseMatrix:
    """k companion blocks of poly coupled by B blocks with B[d-1][0] = 1."""
    if k < 1:
        raise ValueError("block count must be >= 1")
    if not poly.is_monic:
        raise ValueError("block Jordan matrix needs a monic polynomial")
    d = poly.degree
    neg = _negated_coeffs(poly)
    entries = []
    for b in range(k):
        off = b * d
        entries.extend((off + i + 1, off + i, 1) for i in range(d - 1))
        entries.extend((off + i, off + d - 1, v) for i, v in enumerate(neg) if v)
        if b + 1 < k:
            entries.append((off + d - 1, off + d, 1))
    return SparseMatrix(k * d, entries)


def block_diagonal(blocks) -> SparseMatrix:
    """Direct sum of SparseMatrix blocks."""
    entries = []
    offset = 0
    for block in blocks:
        entries.extend((offset + r, offset + c, v) for r, c, v in block.entries)
        offset += block.n
    return SparseMatrix(offset, entries)
