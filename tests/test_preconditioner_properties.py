"""Both kinds of the preconditioner and the two kernels against dense oracles.

Inputs are structured where preconditioning is known to be needed: sparse
matrices with empty rows, powers of nilpotent block-Jordan matrices and of
their transposes,
identity-like blocks of one repeated eigenvalue, and lambda*I - A at an
eigenvalue lambda of A.  The rng seed is part of each example.  The Toeplitz
kind applies L and U by ``conv_mod``, at p = 2^31 - 1 on the 16-bit split
path.

Symmetric inputs, which the diagonal kind A * D serves for rank and
determinant where the field admits it, are Gram and congruence matrices
X^T M X, diagonals with repeated entries, sums of isotropic rank-one
nilpotents v v^T with v^T v = 0 (p = 1 mod 4), P(A)^j, and A - lambda*I at
an eigenvalue.

Every rank and determinant call here runs Krylov trials (`krylov_path`),
as calls do above `blackbox._ELIMINATION_MAX_N`, except in the last test:
there the small-field calls take their default path, elimination.
"""

import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bbcharpoly import blackbox
from bbcharpoly.blackbox import (
    BerlekampMassey,
    DetNotCertifiedError,
    PolyOfMatrix,
    ShiftedOperator,
    SparseMatrix,
    _Preconditioner,
    block_diagonal,
    build_block_jordan,
    build_companion,
    det_blackbox,
    preconditioner,
    rank_blackbox,
    wiedemann_minpoly,
)
from bbcharpoly.poly import FieldPoly
from helpers import (
    dense_det,
    dense_poly_of_matrix,
    dense_rank,
    krylov_path,
    linear,
    sparse_leaf,
)

M31 = (1 << 31) - 1
LARGE = (65537, 1000003, M31)  # rank is exact with high probability
ANY = (2, 3, 59, 101) + LARGE
# the smallest prime p = 1 mod 4 with 2n(n + 1) <= p - 1 at n = MAX_N, so
# every symmetric case there takes the diagonal kind
SMALL_DIAGONAL = 3301
SETTINGS = settings(max_examples=50, deadline=None)
# A rank trial of rank r <= MAX_N over GF(q) errs with probability at most
# r(r + 1)/(2(q - 1)) + r/q on the diagonal path and r(r + 1)/q +
# r(r + 1)/(2(q - 1)) on the Toeplitz one (`rank_blackbox`): up to 1.3% and
# 3.8% at r = 40, q = 65537.  A rank call is low only if two of its trials
# are, and a determinant goes uncertified only if all four of its attempts
# fail, yet fresh draws over many runs would still fail some.  The tests
# that assert an exact outcome in LARGE fields run one fixed set of
# examples, with no example database.
PINNED = settings(SETTINGS, derandomize=True, database=None)
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


def _congruence(n, k, p, rng, gram):
    """X^T M X mod p for a random k x n matrix X, M = I or random symmetric."""
    X = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(k)]
    M = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            M[a][b] = M[b][a] = int(a == b) if gram else rng.randrange(p)
    MX = [[sum(M[a][c] * X[c][j] for c in range(k)) % p for j in range(n)] for a in range(k)]
    return [[sum(X[a][i] * MX[a][j] for a in range(k)) % p for j in range(n)] for i in range(n)]


def _isotropic_sum(n, p, rng):
    """Sum of rank-one v v^T, v^T v = 0, on disjoint supports: A^2 = 0."""
    i = next(pow(g, (p - 1) // 4, p) for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)
    assert i * i % p == p - 1
    order = list(range(n))
    rng.shuffle(order)
    rows = [[0] * n for _ in range(n)]
    pos = 0
    while pos + 2 <= n and (pos == 0 or rng.random() < 0.7):
        v = [0] * n
        for _ in range(rng.randrange(1, (n - pos) // 2 + 1)):
            a = rng.randrange(1, p)
            v[order[pos]], v[order[pos + 1]] = a, a * i % p
            pos += 2
        for r in range(n):
            for c in range(n):
                rows[r][c] = (rows[r][c] + v[r] * v[c]) % p
    return rows


@st.composite
def symmetric_case(draw, primes):
    """(p, dense rows mod p, operator) for a symmetric operator, n <= MAX_N.

    A base matrix S, then S itself, P(S + lam*I)^j with x - lam dividing P,
    or lam*I - (S + lam*I); lam is an eigenvalue whenever S is singular.
    """
    p = draw(st.sampled_from(primes))
    kinds = ["gram", "congruence", "repeated-diagonal"]
    if p % 4 == 1:
        kinds.append("isotropic")
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2 if kind == "isotropic" else 1, MAX_N))
    rng = random.Random(draw(SEEDS))
    if kind == "repeated-diagonal":
        pool = [rng.randrange(p) for _ in range(draw(st.integers(1, 3)))]
        rows = [[rng.choice(pool) if i == j else 0 for j in range(n)] for i in range(n)]
    elif kind == "isotropic":
        rows = _isotropic_sum(n, p, rng)
    else:
        rows = _congruence(n, draw(st.integers(1, n)), p, rng, gram=kind == "gram")
    wrapper = draw(st.sampled_from(["none", "poly-power", "shifted"]))
    lam = rng.randrange(p)
    if wrapper != "none":
        rows = [[(x + lam * (i == j)) % p for j, x in enumerate(row)] for i, row in enumerate(rows)]
    op = SparseMatrix.from_dense(rows).operator(p)
    assert op.symmetric
    if wrapper == "shifted":
        rows = [[((lam if i == j else 0) - x) % p for j, x in enumerate(row)] for i, row in enumerate(rows)]
        return p, rows, ShiftedOperator(op, lam)
    if wrapper == "poly-power":
        poly = linear(lam, p)
        if draw(st.booleans()):
            poly = poly * linear(rng.randrange(p), p)
        e = draw(st.integers(1, 3))
        return p, dense_poly_of_matrix(rows, p, poly**e).tolist(), PolyOfMatrix(op, poly, e)
    return p, rows, op


@SETTINGS
@given(symmetric_case(ANY), SEEDS)
def test_symmetric_rank_never_exceeds_dense(case, seed):
    p, rows, op = case
    with krylov_path():
        assert rank_blackbox(op, random.Random(seed)) <= dense_rank(rows, p)


@PINNED
@given(symmetric_case(LARGE), SEEDS)
def test_symmetric_rank_equals_dense_in_large_fields(case, seed):
    p, rows, op = case
    assert preconditioner(op) == "diagonal"
    with krylov_path():
        assert rank_blackbox(op, random.Random(seed)) == dense_rank(rows, p)


@SETTINGS
@given(symmetric_case((59, 101) + LARGE), SEEDS)
def test_symmetric_det_is_dense_or_uncertified(case, seed):
    p, rows, op = case
    try:
        with krylov_path():
            got = det_blackbox(op, random.Random(seed))
    except DetNotCertifiedError:
        return
    assert got == dense_det(rows, p)


@PINNED
@given(symmetric_case(LARGE), SEEDS)
def test_symmetric_det_equals_dense_in_large_fields(case, seed):
    p, rows, op = case
    assert preconditioner(op) == "diagonal"
    with krylov_path():
        assert det_blackbox(op, random.Random(seed)) == dense_det(rows, p)


@SETTINGS
@given(symmetric_case(LARGE), SEEDS)
def test_diagonal_preconditioner_is_d_a(case, seed):
    # the diagonal kind is A * D, which has the minimal polynomial of D * A
    p, rows, op = case
    n = len(rows)
    assert preconditioner(op) == "diagonal"
    pre = _Preconditioner(op, random.Random(seed))
    assert pre.lc is None and pre.uc is None
    d = list(map(int, pre.d))
    assert all(0 < x < p for x in d)
    v = [random.Random(seed + 1).randrange(p) for _ in range(n)]
    w = [sum(a * d[j] * v[j] for j, a in enumerate(row)) % p for row in rows]
    assert pre.apply(np.array(v, dtype=np.int64)).tolist() == w
    assert pre.cost == op.cost + n
    det_d = 1
    for x in d:
        det_d = det_d * x % p
    assert pre.det_diag() == det_d


@contextmanager
def recorded_rounds():
    """The terms of every round, as its `BerlekampMassey` receives them."""
    rounds = []

    class Recording(BerlekampMassey):
        def __init__(self, *args):
            super().__init__(*args)
            self.terms = []
            rounds.append(self.terms)

        def add(self, term):
            self.terms.append(term)
            super().add(term)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blackbox, "BerlekampMassey", Recording)
        yield rounds


@SETTINGS
@given(symmetric_case(LARGE + (SMALL_DIAGONAL,)), SEEDS, st.data())
def test_symmetric_round_terms_are_dv_b_k_v(case, seed, data):
    # a diagonal-kind trial round draws only v and takes u = D v
    p, rows, op = case
    n = len(rows)
    assert preconditioner(op) == "diagonal"
    pre = _Preconditioner(op, random.Random(seed))
    bound = data.draw(st.integers(1, n))
    with recorded_rounds() as rounds:
        wiedemann_minpoly(pre, random.Random(seed + 1), trial_bound=bound)
    [terms] = rounds
    assert 1 <= len(terms) <= 2 * bound
    draws = random.Random(seed + 1)
    v = [draws.randrange(p) for _ in range(n)]
    d = list(map(int, pre.d))
    dv = [x * y % p for x, y in zip(d, v)]
    want, w = [], v
    for _ in terms:
        want.append(sum(a * b for a, b in zip(dv, w)) % p)
        w = [sum(a * d[j] * w[j] for j, a in enumerate(row)) % p for row in rows]
    assert terms == want


@SETTINGS
@given(st.one_of(symmetric_case(LARGE), structured_case(LARGE)), SEEDS, st.data())
def test_trial_round_applies(case, seed, data):
    # t terms take t // 2 applies of A on the diagonal kind and t - 1 on the
    # Toeplitz kind, and building the preconditioner makes no apply
    p, rows, op = case
    n = len(rows)
    leaf, per = sparse_leaf(op)
    pre = _Preconditioner(op, random.Random(seed))
    assert leaf.applies == 0
    bound = data.draw(st.integers(1, n))
    with recorded_rounds() as rounds:
        wiedemann_minpoly(pre, random.Random(seed + 1), trial_bound=bound)
    [terms] = rounds
    if preconditioner(op) == "diagonal":
        assert leaf.applies == per * (len(terms) // 2) and len(terms) // 2 <= bound
    else:
        assert leaf.applies == per * (len(terms) - 1) and len(terms) - 1 <= 2 * bound - 1


def test_full_trial_round_applies():
    # a generator of degree D needs all 2D terms: D applies of A on the
    # diagonal kind and 2D - 1 on the Toeplitz kind, none at construction
    n = 12
    diagonal = SparseMatrix(n, [(i, i, i + 1) for i in range(n)])
    for p, kind, applies in (
        (1000003, "diagonal", n),
        (1000003, "toeplitz", 2 * n - 1),
        (M31, "toeplitz", 2 * n - 1),
    ):
        matrix = diagonal
        if kind == "toeplitz":
            matrix = build_companion(FieldPoly(list(range(1, n + 1)) + [1], p))
        op = matrix.operator(p)
        assert preconditioner(op) == kind
        pre = _Preconditioner(op, random.Random(5))
        assert op.applies == 0
        with recorded_rounds() as rounds:
            m = wiedemann_minpoly(pre, random.Random(6), trial_bound=n)
        assert m.degree == n
        assert len(rounds[0]) == 2 * n
        assert op.applies == applies


@SETTINGS
@given(structured_case(ANY), SEEDS)
def test_preconditioner_is_a_u_d_l(case, seed):
    # a symmetric A in a large enough field takes the case L = U = I
    p, rows, op = case
    n = len(rows)
    pre = _Preconditioner(op, random.Random(seed))
    diagonal = preconditioner(op) == "diagonal"
    assert (pre.lc is None) == (pre.uc is None) == diagonal
    if diagonal:
        lc = uc = [1] + [0] * (n - 1)
    else:
        lc, uc = list(map(int, pre.lc)), list(map(int, pre.uc))
    d = list(map(int, pre.d))
    assert lc[0] == uc[0] == 1 and all(0 < x < p for x in d)

    def audl(v):
        w = [sum(lc[i - j] * v[j] for j in range(i + 1)) % p for i in range(n)]  # L
        w = [d[j] * w[j] % p for j in range(n)]
        w = [sum(uc[j - i] * w[j] for j in range(i, n)) % p for i in range(n)]  # U
        return [sum(a * x for a, x in zip(row, w)) % p for row in rows]  # A

    v = [random.Random(seed + 1).randrange(p) for _ in range(n)]
    assert pre.apply(np.array(v, dtype=np.int64)).tolist() == audl(v)
    # an apply of A after the scaling and, for Toeplitz, two convolutions
    assert pre.cost == op.cost + n + (0 if diagonal else 2 * n * n)
    det_d = 1
    for x in d:
        det_d = det_d * x % p
    assert pre.det_diag() == det_d


@SETTINGS
@given(structured_case(ANY), SEEDS)
def test_rank_never_exceeds_dense(case, seed):
    p, rows, op = case
    with krylov_path():
        assert rank_blackbox(op, random.Random(seed)) <= dense_rank(rows, p)


@PINNED
@given(structured_case(LARGE), SEEDS)
def test_rank_equals_dense_in_large_fields(case, seed):
    p, rows, op = case
    with krylov_path():
        assert rank_blackbox(op, random.Random(seed)) == dense_rank(rows, p)


@SETTINGS
@given(structured_case((59, 101) + LARGE), SEEDS)
def test_det_is_dense_or_uncertified(case, seed):
    p, rows, op = case
    try:
        with krylov_path():
            got = det_blackbox(op, random.Random(seed))
    except DetNotCertifiedError:
        return
    assert got == dense_det(rows, p)


@settings(PINNED, max_examples=200)
@given(st.one_of(structured_case((2, 3, 5)), symmetric_case((2, 3, 5))), SEEDS)
def test_small_field_ranks_are_exact_below_the_crossover(case, seed):
    # these fields admit the diagonal kind only at n = 1 and p = 5, so at n
    # up to `_ELIMINATION_MAX_N` every other call eliminates, and none comes
    # out low
    p, rows, op = case
    assume(preconditioner(op) == "toeplitz")
    assert len(rows) <= blackbox._ELIMINATION_MAX_N
    assert rank_blackbox(op, random.Random(seed)) == dense_rank(rows, p)
    assert det_blackbox(op, random.Random(seed)) == dense_det(rows, p)
