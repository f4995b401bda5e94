"""The lazily reduced black-box kernels against Python-int references.

A kernel that sums ``terms`` raw products of residues takes the lazy path
only while terms * (p - 1)^2 < 2^63.  The bound tests put all-(p - 1)
inputs on both sides of that flip, where a lazy sum one step past it wraps
int64 and gives a wrong residue; the property tests cover random operators.
The float64 rule n * (p - 1)^2 < 2^53 is tested at its boundary, and the
Toeplitz preconditioner's convolutions with all-(p - 1) factors on both
paths of ``conv_mod``.  `_eliminate`, the exact rank and
determinant of small Toeplitz-kind calls, is checked against the dense
references at every p up to 2^31 - 1.

The next section checks the early-terminated minimal polynomial and the
rank ceiling against the dense oracle on operators whose minimal polynomial
has low degree, where a round stops long before 2n terms.  The last one
checks that the annihilation certificate guards every certified minimal
polynomial below degree n, and no rank or determinant trial.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbcharpoly import blackbox
from bbcharpoly.adaptive import AdaptiveConfig, charpoly_with_details, invariant_factor
from bbcharpoly.blackbox import (
    BerlekampMassey,
    BlackBoxOperator,
    DetNotCertifiedError,
    LowRankPerturbation,
    MinpolyNotCertifiedError,
    PolyOfMatrix,
    ShiftedOperator,
    SparseMatrix,
    _dot_mod,
    _Preconditioner,
    _early_stop_run,
    block_diagonal,
    build_block_jordan,
    build_companion,
    det_blackbox,
    one_trial_suffices,
    rank_blackbox,
    wiedemann_minpoly,
)
from bbcharpoly.cli import main
from bbcharpoly.integer import integer_minpoly
from bbcharpoly.oracle import dense_minpoly
from bbcharpoly.poly import FieldPoly, _float_sum_fits, _lazy_sum_fits
from bbcharpoly.sms import emit_sms
from helpers import counted_trials, dense_det, dense_rank, krylov_path, sparse_leaf

M31 = (1 << 31) - 1  # the Mersenne prime: 2 products of p - 1 fit, 3 do not
P4 = 1358187923  # prime with 4 * (p - 1)^2 < 2^63 <= 5 * (p - 1)^2
# Not prime, but the sparse apply and the dot need only a modulus: two
# products of p - 1 = 2^31 sum to exactly 2^63, one past the int64 maximum.
EDGE = (1 << 31) + 1
P24 = (1 << 24) - 3  # prime; 32 * (p - 1)^2 < 2^53 <= 33 * (p - 1)^2

PRIMES = (3, 101, 65537, 1000003, M31)
SETTINGS = settings(max_examples=40, deadline=None)


def vec(values):
    return np.array(values, dtype=np.int64)


def reference_matvec(rows, v, p):
    return [sum(a * int(x) for a, x in zip(row, v)) % p for row in rows]


def reference_generator(seq, p):
    """Berlekamp-Massey on Python ints; the monic generator X^L C(1/X)."""
    C, B = [1], [1]
    L, m, b = 0, 1, 1
    for i, s in enumerate(seq):
        d = sum(C[j] * seq[i - j] for j in range(L + 1)) % p
        if d == 0:
            m += 1
            continue
        coef = d * pow(b, -1, p) % p
        T = C[:]
        C += [0] * (len(B) + m - len(C))
        for j, x in enumerate(B):
            C[j + m] = (C[j + m] - coef * x) % p
        if 2 * L <= i:
            L, B, b, m = i + 1 - L, T, d, 1
        else:
            m += 1
    C += [0] * (L + 1 - len(C))
    return FieldPoly([C[L - j] for j in range(L + 1)], p)


class TestLazyBound:
    @pytest.mark.parametrize(
        "terms, p, fits",
        [
            (2, M31, True),
            (3, M31, False),
            (4, P4, True),
            (5, P4, False),
            # 2^31 * (65537 - 1)^2 is exactly 2^63: the bound is strict
            ((1 << 31) - 1, 65537, True),
            (1 << 31, 65537, False),
            (2, EDGE, False),
            (0, M31, True),
        ],
    )
    def test_fits_matches_the_int64_maximum(self, terms, p, fits):
        assert _lazy_sum_fits(terms, p) == fits
        assert fits == (terms * (p - 1) ** 2 <= (1 << 63) - 1)

    def test_sparse_rows_on_both_sides_of_the_flip(self):
        # The 3-entry row needs the reduced path; a bound taken on a shorter
        # row than the longest one wraps it.
        p = M31
        rows = [[p - 1, p - 1, 0], [p - 1, p - 1, p - 1], [0, 0, 0]]
        op = SparseMatrix.from_dense(rows).operator(p)
        v = vec([p - 1] * 3)
        assert op.apply(v).tolist() == reference_matvec(rows, v, p)

    @pytest.mark.parametrize(
        "p, rows",
        [
            # longest row of 2 at M31: lazy, with an empty row scattered back
            (M31, [[0, 0, 0], [M31 - 1, M31 - 1, 0], [0, 0, M31 - 1]]),
            # the sum is exactly 2^63: lazy only under a non-strict bound
            (EDGE, [[EDGE - 1, EDGE - 1], [EDGE - 1, 0]]),
        ],
    )
    def test_sparse_at_the_edge(self, p, rows):
        op = SparseMatrix.from_dense(rows).operator(p)
        v = vec([p - 1] * len(rows))
        assert op.apply(v).tolist() == reference_matvec(rows, v, p)

    @pytest.mark.parametrize(
        "p, length", [(P4, 4), (P4, 5), (M31, 2), (M31, 3), (EDGE, 2), (EDGE, 1)]
    )
    def test_dot_on_both_sides_of_the_flip(self, p, length):
        u = vec([p - 1] * length)
        assert _dot_mod(u, u, p, _lazy_sum_fits(length, p)) == length * (p - 1) ** 2 % p

    @pytest.mark.parametrize(
        "n, r, x", [(4, 4, P4 - 1), (5, 1, P4 - 1), (1, 4, 1), (1, 5, 1)]
    )
    def test_low_rank_on_both_sides_of_the_flip(self, n, r, x):
        # V v sums n products of x (p - 1); with x = 1 and n = 1 it is p - 1,
        # and U (V v) sums r products of (p - 1)^2.
        p = P4
        U = [[p - 1] * r for _ in range(n)]
        V = [[x] * n for _ in range(r)]
        zero = SparseMatrix(n, []).operator(p)
        op = LowRankPerturbation(zero, vec(U), vec(V))
        v = vec([p - 1] * n)
        w = reference_matvec(V, v, p)
        assert op.apply(v).tolist() == reference_matvec(U, w, p)

    @pytest.mark.parametrize(
        "p, length, edge", [(P4, 7, 4), (P4, 9, 5), (M31, 3, 2), (M31, 5, 3)]
    )
    def test_berlekamp_massey_on_both_sides_of_the_flip(self, p, length, edge):
        # The discrepancy at a term sums L + 1 products; the runs must reach
        # a sum of `edge` terms, the last lazy or the first reduced length.
        rng = random.Random(length)
        seen = set()
        for _ in range(50):
            seq = [p - 1 - rng.randrange(3) for _ in range(length)]
            bm = BerlekampMassey(p, length)
            for s in seq:
                seen.add(bm.L + 1)
                bm.add(s)
            assert bm.generator() == reference_generator(seq, p)
        assert edge in seen

    @pytest.mark.parametrize("p", [M31, P4])
    def test_berlekamp_massey_long_sequences(self, p):
        # Dense generators of degree about 20: unreduced discrepancies would
        # reach several times 2^63.
        rng = random.Random(p)
        for _ in range(10):
            seq = [rng.randrange(p) for _ in range(40)]
            bm = BerlekampMassey(p, len(seq))
            for s in seq:
                bm.add(s)
            assert bm.generator() == reference_generator(seq, p)


class _Draws:
    """Stands in for random.Random, returning the given values in order."""

    def __init__(self, values):
        self._values = iter(values)

    def randrange(self, *_):
        return next(self._values)


class _AllMax(BlackBoxOperator):
    """Maps every vector to the all-(p - 1) vector; keeps its inputs."""

    seen = ()

    def apply(self, v):
        self.seen = [*self.seen, v.tolist()]
        return vec([self.p - 1] * self.dimension)


class TestFloatBound:
    @pytest.mark.parametrize("p", [2, 3, 227, 65537, 1000003, P24, M31])
    def test_admits_the_largest_exact_length(self, p):
        # at p = 2, 3 and 65537, (p - 1)^2 divides 2^53: the refused length
        # sums to exactly 2^53, and only a strict bound refuses it
        n = ((1 << 53) - 1) // (p - 1) ** 2
        assert n * (p - 1) ** 2 < 1 << 53 <= (n + 1) * (p - 1) ** 2
        assert _float_sum_fits(n, p)
        assert not _float_sum_fits(n + 1, p)

    @pytest.mark.parametrize("p", [P24, M31])
    def test_toeplitz_apply_with_all_max_factors(self, p):
        # lc = (1, p-1, ...), uc = (1, 1, ...), d = (p-1, ...): L is p - 1
        # below its unit diagonal and U * D is p - 1 on and above it, so an
        # entry of either convolution sums up to n products (p - 1)^2, as it
        # is at P24 and on the 16-bit split path at 2^31 - 1
        n = 33
        assert _lazy_sum_fits(n, p) == (p == P24)
        base = _AllMax(n, p, cost=0)
        draws = [p - 1] * (n - 1) + [1] * (n - 1) + [p - 1] * n
        pre = _Preconditioner(base, _Draws(draws))
        L = [[p - 1 if j < i else int(i == j) for j in range(n)] for i in range(n)]
        UD = [[p - 1 if j >= i else 0 for j in range(n)] for i in range(n)]
        columns = [reference_matvec(UD, col, p) for col in zip(*L)]
        UDL = [list(row) for row in zip(*columns)]
        v = vec([p - 1] * n)
        assert pre.apply(v).tolist() == [p - 1] * n
        assert base.seen == [reference_matvec(UDL, v, p)]


# ---------------------------------------------------------------------------
# Random operators against a dense Python-int reference


def residues(p):
    return st.one_of(st.just(p - 1), st.integers(0, p - 1))


@st.composite
def operator_case(draw):
    """(p, dense rows, SparseMatrix, v): some rows forced empty."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 40))
    empty = draw(st.sets(st.integers(0, n - 1), max_size=n))
    cells = draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n)
    )
    value = st.one_of(st.just(p - 1), st.integers(-2 * p, 2 * p).filter(bool))
    entries = [(r, c, draw(value)) for r, c in sorted(cells) if r not in empty]
    matrix = SparseMatrix(n, entries)
    rows = [[x % p for x in row] for row in matrix.to_dense()]
    v = vec(draw(st.lists(residues(p), min_size=n, max_size=n)))
    return p, rows, matrix, v


def check_apply(op, v, want):
    before = v.copy()
    out = op.apply(v)
    assert out is not v
    assert np.array_equal(v, before)
    assert out.dtype == np.int64
    assert out.tolist() == want


@SETTINGS
@given(operator_case())
def test_sparse_matches_dense(case):
    p, rows, matrix, v = case
    check_apply(matrix.operator(p), v, reference_matvec(rows, v, p))


@SETTINGS
@given(operator_case(), st.data())
def test_poly_of_matrix_matches_dense(case, data):
    p, rows, matrix, v = case
    degree = data.draw(st.integers(0, 4))
    low = data.draw(
        st.lists(st.one_of(st.just(0), residues(p)), min_size=degree, max_size=degree)
    )
    lead = data.draw(st.one_of(st.just(1), st.integers(1, p - 1)))
    power = data.draw(st.integers(1, 3))
    f = FieldPoly(low + [lead], p)
    want = [int(x) for x in v]
    for _ in range(power):
        acc = [lead * x % p for x in want]  # Horner on Python ints
        for c in reversed(low):
            acc = [(y + c * x) % p for y, x in zip(reference_matvec(rows, acc, p), want)]
        want = acc
    check_apply(PolyOfMatrix(matrix.operator(p), f, power), v, want)


@SETTINGS
@given(operator_case(), st.data())
def test_shifted_matches_dense(case, data):
    p, rows, matrix, v = case
    shift = data.draw(st.integers(-p, 2 * p))
    av = reference_matvec(rows, v, p)
    want = [(shift * int(x) - y) % p for x, y in zip(v, av)]
    check_apply(ShiftedOperator(matrix.operator(p), shift), v, want)


@SETTINGS
@given(operator_case(), st.data())
def test_low_rank_matches_dense(case, data):
    p, rows, matrix, v = case
    n = len(rows)
    r = data.draw(st.integers(1, 45))
    U = [data.draw(st.lists(residues(p), min_size=r, max_size=r)) for _ in range(n)]
    V = [data.draw(st.lists(residues(p), min_size=n, max_size=n)) for _ in range(r)]
    uvv = reference_matvec(U, reference_matvec(V, v, p), p)
    want = [(y + z) % p for y, z in zip(reference_matvec(rows, v, p), uvv)]
    check_apply(LowRankPerturbation(matrix.operator(p), vec(U), vec(V)), v, want)


@st.composite
def block_case(draw):
    """(p, SparseMatrix, n x k block of residues), k from 1 to n + 3."""
    p, _, matrix, _ = draw(operator_case())
    n = matrix.n
    k = draw(st.integers(1, n + 3))
    cells = st.lists(residues(p), min_size=n * k, max_size=n * k)
    return p, matrix, vec(draw(cells)).reshape(n, k)


def block_operator(kind, matrix, p, rng):
    """An operator of the given kind over matrix mod p, its parameters from rng."""
    op = matrix.operator(p)
    if kind == "poly":
        low = [rng.randrange(p) for _ in range(rng.randrange(4))]
        return PolyOfMatrix(op, FieldPoly(low + [rng.randrange(1, p)], p), rng.randint(1, 3))
    if kind == "shifted":
        return ShiftedOperator(op, rng.randrange(p))
    return op


@SETTINGS
@pytest.mark.parametrize("kind", ["sparse", "poly", "shifted"])
@example(  # nnz = n^2: slices of one column
    case=(M31, SparseMatrix.from_dense([[M31 - 1] * 3] * 3), vec(range(12)).reshape(3, 4)),
    seed=0,
)
@example(case=(101, SparseMatrix(5, []), vec(range(40)).reshape(5, 8) % 101), seed=0)
@given(block_case(), st.integers(0, (1 << 32) - 1))
def test_block_apply_matches_columns(kind, case, seed):
    # slices of n^2 / nnz columns: every case with nnz > n^2 / k crosses one,
    # and the gathered products of none hold more than n^2 entries
    p, matrix, block = case
    n, k = block.shape
    op = block_operator(kind, matrix, p, random.Random(seed))
    assert op.takes_blocks
    leaf, per = sparse_leaf(op)
    row_sums, sizes = leaf._row_sums, []
    leaf._row_sums = lambda t: sizes.append(t.size) or row_sums(t)
    before = block.copy()
    out = op.apply(block)
    assert np.array_equal(block, before)
    assert out.dtype == np.int64 and out.shape == (n, k)
    assert leaf.applies == per * k
    columns = [op.apply(block[:, j].copy()).tolist() for j in range(k)]
    assert leaf.applies == 2 * per * k
    assert out.T.tolist() == columns
    assert max(sizes, default=0) <= n * n


@st.composite
def elimination_case(draw):
    """(p, dense rows) for `_eliminate`, n from 1 to 12: all zero, sparse
    with empty rows, of a planted rank r (an n x r times an r x n factor), or
    the rows of a triangular matrix with a nonzero diagonal in a random
    order, so that elimination needs row swaps."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["zero", "sparse", "planted-rank", "swapped"]))
    entry = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    if kind == "zero":
        return p, [[0] * n for _ in range(n)]
    if kind == "sparse":
        empty = draw(st.sets(st.integers(0, n - 1), max_size=n))
        cell = st.one_of(st.just(0), entry)
        return p, [[0 if i in empty else draw(cell) for _ in range(n)] for i in range(n)]
    if kind == "planted-rank":
        r = draw(st.integers(0, n))
        B = [[draw(entry) for _ in range(r)] for _ in range(n)]
        C = [[draw(entry) for _ in range(n)] for _ in range(r)]
        return p, [
            [sum(B[i][k] * C[k][j] for k in range(r)) % p for j in range(n)]
            for i in range(n)
        ]
    nonzero = st.integers(1, p - 1)
    rows = [
        [draw(nonzero) if i == j else draw(entry) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    return p, [rows[i] for i in draw(st.permutations(range(n)))]


@SETTINGS
@example(case=(3, [[0]]))
@example(case=(M31, [[M31 - 1]]))
@example(case=(M31, [[0, M31 - 1], [M31 - 1, M31 - 1]]))  # one swap: det = -(p - 1)^2
@given(elimination_case())
def test_eliminate_matches_dense(case):
    p, rows = case
    got = blackbox._eliminate(np.array(rows, dtype=np.int64), p)
    assert got == (dense_rank(rows, p), dense_det(rows, p))


def test_wrappers_of_a_vector_only_operator_take_no_blocks():
    base = _AllMax(4, 101, cost=0)
    assert not base.takes_blocks
    assert not PolyOfMatrix(base, FieldPoly([1, 1], 101)).takes_blocks
    assert not ShiftedOperator(base, 3).takes_blocks
    op = SparseMatrix(4, [(0, 1, 5)]).operator(101)
    assert not LowRankPerturbation(op, vec([[1]] * 4), vec([[1] * 4])).takes_blocks


# ---------------------------------------------------------------------------
# Early termination and rank ceilings on low-degree minimal polynomials

LOW_FIELDS = (3, 5, 101, 65537)
EXACT = 65537  # from here on one trial is exact with high probability
SEEDS = st.integers(0, (1 << 32) - 1)
# A rank trial of rank r over GF(q) errs with probability at most
# r(r + 1)/(2(q - 1)) on the diagonal path and r(r + 1)/q + r(r + 1)/(2(q - 1))
# on the Toeplitz one (`rank_blackbox`): up to 3.8% at r = 40 and q = EXACT,
# so fresh draws at EXACT fail some runs.  The tests that assert an exact
# outcome there run one fixed set of examples, with no example database.
PINNED = settings(SETTINGS, derandomize=True)


@st.composite
def low_degree_case(draw):
    """(p, dense rows mod p, SparseMatrix) with a minimal polynomial of low
    degree, its rows and columns permuted: a scalar matrix, a diagonal of at
    most three repeated values, nilpotent Jordan blocks, or repeated
    companion blocks of one polynomial of degree at most 4."""
    p = draw(st.sampled_from(LOW_FIELDS))
    kind = draw(st.sampled_from(["scalar", "diagonal", "nilpotent", "companion"]))
    if kind in ("scalar", "diagonal"):
        n = draw(st.integers(1, 40))
        distinct = 1 if kind == "scalar" else 3
        pool = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=distinct))
        values = [draw(st.sampled_from(pool)) for _ in range(n)]
        matrix = SparseMatrix(n, [(i, i, a) for i, a in enumerate(values) if a])
    elif kind == "nilpotent":
        sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=10))
        x = FieldPoly.x(p)
        matrix = block_diagonal([build_block_jordan(x, k) for k in sizes])
    else:
        d = draw(st.integers(1, 4))
        f = FieldPoly(draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1], p)
        matrix = block_diagonal([build_companion(f)] * draw(st.integers(1, 40 // d)))
    perm = draw(st.permutations(range(matrix.n)))
    matrix = SparseMatrix(matrix.n, [(perm[r], perm[c], v) for r, c, v in matrix.entries])
    return p, [[x % p for x in row] for row in matrix.to_dense()], matrix


@PINNED
@given(low_degree_case(), SEEDS)
def test_minpoly_divides_dense(case, seed):
    p, rows, matrix = case
    try:
        got = wiedemann_minpoly(matrix.operator(p), random.Random(seed))
    except MinpolyNotCertifiedError:
        return  # no answer is not a wrong answer
    want = dense_minpoly(rows, p)
    assert (want % got).is_zero
    if p >= EXACT:
        assert got == want


@PINNED
@given(low_degree_case().filter(lambda case: case[0] >= EXACT), SEEDS)
def test_round_stops_once_the_generator_settles(case, seed):
    # A round's sequence has a generator of degree at most d, so it is
    # settled by term 2d and stops run terms later, not at 2n; one round is
    # exact here, and a trial round takes no certificate.
    p, rows, matrix = case
    n, want = matrix.n, dense_minpoly(rows, p)
    op = matrix.operator(p)
    got = wiedemann_minpoly(op, random.Random(seed), trial_bound=n)
    assert got == want
    terms = min(2 * want.degree + _early_stop_run(p), 2 * n)
    assert op.applies <= terms - 1
    if terms < 2 * n:
        assert op.applies < 2 * n - 1  # the round stopped early


@st.composite
def rank_case(draw):
    """(p, dense rows, operator, proven ceiling): a low-degree case or
    A - a for a diagonal entry a, with a ceiling between the rank and n."""
    p, rows, matrix = draw(low_degree_case())
    op = matrix.operator(p)
    if draw(st.booleans()):
        a = rows[0][0]
        op = ShiftedOperator(op, a)
        rows = [
            [((a if i == j else 0) - x) % p for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    rank = dense_rank(rows, p)
    return p, rows, op, draw(st.integers(rank, len(rows)))


def trial_bound(c, q, kind):
    """One rank trial's failure bound at rank c over GF(q), as a fraction."""
    pair = Fraction(c * (c + 1), 2 * (q - 1))
    if kind == "diagonal":
        return pair + Fraction(c, q)
    return Fraction(c * (c + 1), q) + pair


@SETTINGS
@given(st.integers(1, 200), st.data(), st.sampled_from(["diagonal", "toeplitz"]))
def test_one_trial_boundary_matches_fractions(n, data, kind):
    # the least q* whose bound is at most 1/n^2, found on fractions: the
    # predicate turns at q*, as the bound falls with q
    c = data.draw(st.integers(1, n))
    low, high = 2, 4 * (c + 1) ** 2 * n * n  # the bound fails at 2, holds at high
    while high - low > 1:
        mid = (low + high) // 2
        if trial_bound(c, mid, kind) <= Fraction(1, n * n):
            high = mid
        else:
            low = mid
    q_star = high
    assert one_trial_suffices(c, n, q_star, kind)
    assert not one_trial_suffices(c, n, q_star - 1, kind)


@PINNED
@given(rank_case(), SEEDS)
def test_rank_under_a_ceiling_never_exceeds_dense(case, seed):
    p, rows, op, ceiling = case
    got = rank_blackbox(op, random.Random(seed), ceiling=ceiling)
    assert got <= dense_rank(rows, p)
    if p >= EXACT:
        assert got == dense_rank(rows, p)


@PINNED
@given(rank_case(), SEEDS)
def test_rank_at_its_ceiling_takes_one_trial(case, seed):
    # A first trial that reaches the ceiling ends the call; where its first
    # round is exact that is 2(c + 1) - 1 applies for a degree bound of
    # c + 1, or 2n - 1 for a full rank.  On the Krylov path at every n.
    p, rows, op, _ = case
    c = dense_rank(rows, p)
    leaf, per = sparse_leaf(op)
    with krylov_path(), counted_trials() as bounds:
        got = rank_blackbox(op, random.Random(seed), ceiling=c)
    assert bounds[0] == min(c + 1, len(rows))
    assert got <= c
    if p >= EXACT:
        assert got == c
        assert len(bounds) == 1
        assert leaf.applies <= per * 2 * (c + 1)


@settings(PINNED, max_examples=200)
@given(rank_case().filter(lambda case: case[0] <= 5), SEEDS)
def test_small_field_ranks_are_exact_below_the_crossover(case, seed):
    # GF(3) and GF(5) calls take the Toeplitz kind, so at n up to
    # `_ELIMINATION_MAX_N` they eliminate, and no call comes out low
    p, rows, op, ceiling = case
    assert len(rows) <= blackbox._ELIMINATION_MAX_N
    assert rank_blackbox(op, random.Random(seed), ceiling=ceiling) == dense_rank(rows, p)


@SETTINGS
@given(rank_case(), SEEDS)
def test_ceiling_n_is_no_ceiling(case, seed):
    p, rows, op, _ = case
    want = rank_blackbox(op, random.Random(seed))
    assert rank_blackbox(op, random.Random(seed), ceiling=len(rows)) == want


# ---------------------------------------------------------------------------
# Certificates guard only the minimal polynomials that are returned


@contextmanager
def counted_certificates():
    """Record the polynomial of every `_annihilates` check."""
    checked = []
    real = blackbox._annihilates

    def counting(A, poly, rng):
        checked.append(poly)
        return real(A, poly, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blackbox, "_annihilates", counting)
        yield checked


@SETTINGS
@given(rank_case(), SEEDS)
def test_rank_and_det_take_no_certificate(case, seed):
    p, rows, op, ceiling = case
    rng = random.Random(seed)
    with counted_certificates() as checked:
        assert rank_blackbox(op, rng, ceiling=ceiling) <= dense_rank(rows, p)
        try:
            assert det_blackbox(op, rng) == dense_det(rows, p)
        except DetNotCertifiedError:
            pass
    assert checked == []


@SETTINGS
@given(low_degree_case(), SEEDS)
def test_certified_minpoly_below_n_passed_a_certificate(case, seed):
    p, rows, matrix = case
    with counted_certificates() as checked:
        try:
            got = wiedemann_minpoly(matrix.operator(p), random.Random(seed))
        except MinpolyNotCertifiedError:
            return  # no answer is not a wrong answer
    if got.degree < matrix.n:
        assert checked[-1] == got


def test_certified_callers_take_a_certificate(tmp_path, capsys):
    # Each certified caller meets a minimal polynomial of degree 2 < n = 6.
    p = 101
    diagonal = SparseMatrix(6, [(i, i, 1 + i % 2) for i in range(6)])
    op = diagonal.operator(p)
    want = dense_minpoly(diagonal.to_dense(), p)
    with counted_certificates() as checked:
        charpoly_with_details(op, AdaptiveConfig(seed=1))
    assert want in checked
    with counted_certificates() as checked:
        integer_minpoly(diagonal, random.Random(1))
    assert any(poly.degree == 2 for poly in checked)
    with counted_certificates() as checked:
        invariant_factor(op, 2, random.Random(1), minpoly=want, previous=want)
    assert checked  # A + U V has a minimal polynomial of degree at most 4
    path = tmp_path / "m.sms"
    path.write_text(emit_sms(diagonal))
    with counted_certificates() as checked:
        assert main(["minpoly", "--field", str(p), "--seed", "1", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert want in checked
