"""The lazily reduced black-box kernels against Python-int references.

A kernel that sums ``terms`` raw products of residues takes the lazy path
only while terms * (p - 1)^2 < 2^63.  The bound tests put all-(p - 1)
inputs on both sides of that flip, where a lazy sum one step past it wraps
int64 and gives a wrong residue; the property tests cover random operators.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcharpoly.blackbox import (
    BerlekampMassey,
    LowRankPerturbation,
    PolyOfMatrix,
    ShiftedOperator,
    SparseMatrix,
    _dot_mod,
)
from bbcharpoly.poly import FieldPoly, _lazy_sum_fits

M31 = (1 << 31) - 1  # the Mersenne prime: 2 products of p - 1 fit, 3 do not
P4 = 1358187923  # prime with 4 * (p - 1)^2 < 2^63 <= 5 * (p - 1)^2
# Not prime, but the sparse apply and the dot need only a modulus: two
# products of p - 1 = 2^31 sum to exactly 2^63, one past the int64 maximum.
EDGE = (1 << 31) + 1

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
        assert _dot_mod(u, u, p) == length * (p - 1) ** 2 % p

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
