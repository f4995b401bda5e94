"""The Toeplitz-diagonal preconditioner and its two kernels against dense oracles.

Inputs are structured where preconditioning is known to be needed: sparse
matrices with empty rows, powers of nilpotent block-Jordan matrices and of
their transposes,
identity-like blocks of one repeated eigenvalue, and lambda*I - A at an
eigenvalue lambda of A.  The rng seed is part of each example.  At
p = 2^31 - 1 the Toeplitz convolutions inside the preconditioner take the
16-bit split path of ``conv_mod``.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcharpoly.blackbox import (
    DetNotCertifiedError,
    MinpolyNotCertifiedError,
    PolyOfMatrix,
    ShiftedOperator,
    SparseMatrix,
    _Preconditioner,
    block_diagonal,
    build_block_jordan,
    det_blackbox,
    rank_blackbox,
)
from bbcharpoly.oracle import dense_det, dense_poly_of_matrix, dense_rank
from bbcharpoly.poly import FieldPoly
from helpers import linear

M31 = (1 << 31) - 1
LARGE = (65537, 1000003, M31)  # rank is exact with high probability
ANY = (2, 3, 59, 101) + LARGE
SETTINGS = settings(max_examples=50, deadline=None)
MAX_N = 40
SEEDS = st.integers(0, (1 << 32) - 1)


@st.composite
def block_sizes(draw, max_block=8):
    """Block sizes with total at most MAX_N."""
    sizes = draw(st.lists(st.integers(1, max_block), min_size=1, max_size=12))
    out, total = [], 0
    for k in sizes:
        if total + k > MAX_N:
            break
        out.append(k)
        total += k
    return out


@st.composite
def eigen_blocks(draw, p):
    """Jordan blocks and identity-like runs over a few repeated eigenvalues.

    Returns (SparseMatrix, eigenvalues used).
    """
    pool = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
    parts, used = [], []
    for k in draw(block_sizes()):
        c = draw(st.sampled_from(pool))
        used.append(c)
        if draw(st.booleans()):
            parts.append(build_block_jordan(linear(c, p), k))  # one Jordan block
        else:
            parts.extend([build_block_jordan(linear(c, p), 1)] * k)  # c * I_k
    return block_diagonal(parts), used


@st.composite
def structured_case(draw, primes):
    """(p, dense rows mod p, operator), n <= MAX_N."""
    p = draw(st.sampled_from(primes))
    kind = draw(st.sampled_from(["sparse", "jordan-power", "eigen-blocks", "shifted"]))
    if kind == "sparse":
        n = draw(st.integers(1, MAX_N))
        empty = draw(st.sets(st.integers(0, n - 1), max_size=n))
        cells = draw(
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        )
        value = st.one_of(st.just(p - 1), st.integers(1, p - 1))
        matrix = SparseMatrix(n, [(r, c, draw(value)) for r, c in sorted(cells) if r not in empty])
        return p, matrix.to_dense(), matrix.operator(p)
    if kind == "jordan-power":
        # strictly upper or, transposed, strictly lower: each one-sided
        # Toeplitz product leaves one of them nilpotent
        x = FieldPoly.x(p)
        J = block_diagonal([build_block_jordan(x, k) for k in draw(block_sizes())])
        if draw(st.booleans()):
            J = SparseMatrix(J.n, [(c, r, v) for r, c, v in J.entries])
        e = draw(st.integers(1, 4))
        rows = dense_poly_of_matrix(J.to_dense(), p, x**e).tolist()
        return p, rows, PolyOfMatrix(J.operator(p), x, e)
    matrix, eigenvalues = draw(eigen_blocks(p))
    if kind == "eigen-blocks":
        return p, [[x % p for x in row] for row in matrix.to_dense()], matrix.operator(p)
    lam = draw(st.sampled_from(eigenvalues))
    rows = [
        [((lam if i == j else 0) - x) % p for j, x in enumerate(row)]
        for i, row in enumerate(matrix.to_dense())
    ]
    return p, rows, ShiftedOperator(matrix.operator(p), lam)


@SETTINGS
@given(structured_case(ANY), SEEDS)
def test_preconditioner_is_l_a_u_d(case, seed):
    p, rows, op = case
    n = len(rows)
    pre = _Preconditioner(op, random.Random(seed))
    lc, uc, d = (list(map(int, x)) for x in (pre.lc, pre.uc, pre.d))
    assert lc[0] == uc[0] == 1 and all(d)
    v = [random.Random(seed + 1).randrange(p) for _ in range(n)]
    w = [d[j] * v[j] % p for j in range(n)]
    w = [sum(uc[j - i] * w[j] for j in range(i, n)) % p for i in range(n)]  # U
    w = [sum(a * x for a, x in zip(row, w)) % p for row in rows]  # A
    w = [sum(lc[i - j] * w[j] for j in range(i + 1)) % p for i in range(n)]  # L
    assert pre.apply(np.array(v, dtype=np.int64)).tolist() == w
    det_d = 1
    for x in d:
        det_d = det_d * x % p
    assert pre.det_diag() == det_d


@SETTINGS
@given(structured_case(ANY), SEEDS)
def test_rank_never_exceeds_dense(case, seed):
    p, rows, op = case
    try:
        got = rank_blackbox(op, random.Random(seed))
    except MinpolyNotCertifiedError:
        return  # no estimate at all is not an overestimate
    assert got <= dense_rank(rows, p)


@SETTINGS
@given(structured_case(LARGE), SEEDS)
def test_rank_equals_dense_in_large_fields(case, seed):
    p, rows, op = case
    assert rank_blackbox(op, random.Random(seed)) == dense_rank(rows, p)


@SETTINGS
@given(structured_case((59, 101) + LARGE), SEEDS)
def test_det_is_dense_or_uncertified(case, seed):
    p, rows, op = case
    try:
        got = det_blackbox(op, random.Random(seed))
    except DetNotCertifiedError:
        return
    assert int(got) == dense_det(rows, p)
