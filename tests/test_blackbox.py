import random

import numpy as np
import pytest

from bbcharpoly import blackbox
from bbcharpoly.blackbox import (
    BerlekampMassey,
    BlackBoxOperator,
    DetNotCertifiedError,
    LowRankPerturbation,
    PolyOfMatrix,
    ShiftedOperator,
    SparseMatrix,
    block_diagonal,
    build_block_jordan,
    build_companion,
    det_blackbox,
    one_trial_suffices,
    preconditioner,
    rank_blackbox,
    random_vector,
    wiedemann_minpoly,
)
from bbcharpoly.poly import FieldPoly
from bbcharpoly.oracle import dense_charpoly, dense_minpoly

from helpers import (
    counted_trials,
    dense_det,
    dense_poly_of_matrix,
    dense_rank,
    rand_irreducible,
)


def linear(a, p):
    return FieldPoly([-a, 1], p)


def diag_matrix(values):
    return SparseMatrix(len(values), [(i, i, v) for i, v in enumerate(values) if v])


class TestSparseMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, [(0, 0, 1), (0, 0, 2)])
        with pytest.raises(ValueError):
            SparseMatrix(2, [(0, 5, 1)])
        with pytest.raises(ValueError):
            SparseMatrix(2, [(0, 0, 0)])

    def test_offsets(self):
        m = SparseMatrix(3, [(0, 1, 4), (2, 0, 1), (2, 2, 5)])
        assert m.nnz == 3
        assert m.diagonal_sum() == 5
        assert m.max_abs() == 5

    def test_dense_roundtrip(self):
        rows = [[0, 3], [-2, 0]]
        assert SparseMatrix.from_dense(rows).to_dense() == rows

    def test_apply_matches_dense(self):
        rng = random.Random(0)
        p = 101
        for _ in range(20):
            n = rng.randrange(1, 12)
            rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
            op = SparseMatrix.from_dense(rows).operator(p)
            v = random_vector(n, p, rng)
            want = [sum(rows[i][j] * int(v[j]) for j in range(n)) % p for i in range(n)]
            assert list(op.apply(v)) == want


class TestOperatorCombinators:
    def _linearity(self, op, rng, rounds=100):
        n, p = op.dimension, op.p
        for _ in range(rounds):
            u = random_vector(n, p, rng)
            v = random_vector(n, p, rng)
            a = rng.randrange(p)
            b = rng.randrange(p)
            left = op.apply((a * u + b * v) % p)
            right = (a * op.apply(u) + b * op.apply(v)) % p
            assert np.array_equal(left, right)

    def test_linearity_spot_checks(self):
        rng = random.Random(1)
        p = 101
        n = 9
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        base = SparseMatrix.from_dense(rows).operator(p)
        self._linearity(base, rng)
        self._linearity(PolyOfMatrix(base, FieldPoly([3, 1, 2], p), 2), rng)
        self._linearity(ShiftedOperator(base, 17), rng)
        U = np.array([[rng.randrange(p)] for _ in range(n)])
        V = np.array([[rng.randrange(p) for _ in range(n)]])
        self._linearity(LowRankPerturbation(base, U, V), rng)

    def test_poly_of_matrix_matches_dense(self):
        rng = random.Random(2)
        p = 101
        n = 8
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        f = FieldPoly([5, 0, 2, 1], p)
        op = PolyOfMatrix(SparseMatrix.from_dense(rows).operator(p), f, 2)
        dense = dense_poly_of_matrix(rows, p, f**2)
        for _ in range(5):
            v = random_vector(n, p, rng)
            want = np.array(
                [sum(int(dense[i, j]) * int(v[j]) for j in range(n)) % p for i in range(n)]
            )
            assert np.array_equal(op.apply(v), want)

    def test_sparse_operator_counts_its_applies(self):
        # the empty matrix's early return counts too, and so do the n
        # applies of the generic trace
        rng = random.Random(4)
        p = 101
        for matrix in (diag_matrix([1, 2, 3]), SparseMatrix(3, [])):
            op = matrix.operator(p)
            assert op.applies == 0
            for k in range(1, 4):
                op.apply(random_vector(3, p, rng))
                assert op.applies == k
            BlackBoxOperator.trace(op)
            assert op.applies == 6

    def test_shifted_operator(self):
        p = 7
        A = diag_matrix([1, 2]).operator(p)
        op = ShiftedOperator(A, 3)
        v = np.array([1, 1], dtype=np.int64)
        assert list(op.apply(v)) == [2, 1]

    def test_poly_of_matrix_cost_accounting(self):
        rng = random.Random(3)
        p = 101
        n = 6
        base = diag_matrix([1] * n).operator(p)
        f = rand_irreducible(3, p, rng)
        op = PolyOfMatrix(base, f, 2)
        op.apply(random_vector(n, p, rng))
        assert base.applies == f.degree * 2
        # each apply of A is followed by a scaled add and a reduction
        assert op.cost == f.degree * 2 * (base.cost + 2 * n)


class TestSymmetry:
    SYM = SparseMatrix(3, [(0, 1, -5), (1, 0, -5), (0, 2, 3), (2, 0, 3), (2, 2, 7)])

    def test_integer_symmetric_detected(self):
        assert self.SYM.symmetric
        assert self.SYM.operator(101).symmetric
        assert diag_matrix([1, 1, 2]).symmetric
        assert SparseMatrix(2, []).symmetric

    def test_asymmetric_not_detected(self):
        assert not SparseMatrix(3, [(0, 1, 2), (1, 0, 3)]).symmetric
        assert not SparseMatrix(3, [(0, 1, 2)]).symmetric
        assert not SparseMatrix(3, [(0, 1, 2), (1, 0, 3)]).operator(101).symmetric

    def test_wrappers_keep_it(self):
        p = 101
        for matrix, want in ((self.SYM, True), (build_companion(linear(2, p) ** 3), False)):
            op = matrix.operator(p)
            assert PolyOfMatrix(op, linear(4, p), 2).symmetric is want
            assert ShiftedOperator(op, 3).symmetric is want
            assert ShiftedOperator(PolyOfMatrix(op, linear(1, p)), 5).symmetric is want

    def test_perturbation_and_preconditioners_drop_it(self):
        p, rng = 101, random.Random(3)
        op = self.SYM.operator(p)
        U = np.ones((3, 1), dtype=np.int64)
        V = np.ones((1, 3), dtype=np.int64)
        assert not LowRankPerturbation(op, U, V).symmetric
        for q in (p, 13):  # the diagonal and the Toeplitz kind
            assert not blackbox._Preconditioner(self.SYM.operator(q), rng).symmetric

    def test_diagonal_path_boundary(self, monkeypatch):
        # n = 2: 2n(n+1) = 12, so GF(13) is the smallest field the diagonal
        # path admits and GF(11) falls back to Toeplitz, for rank and
        # determinant alike, on the Krylov path.
        monkeypatch.setattr(blackbox, "_ELIMINATION_MAX_N", 0)
        built = []

        class Recording(blackbox._Preconditioner):
            def __init__(self, base, rng):
                super().__init__(base, rng)
                built.append("diagonal" if self.lc is None else "toeplitz")

        monkeypatch.setattr(blackbox, "_Preconditioner", Recording)
        sym = SparseMatrix(2, [(0, 1, 1), (1, 0, 1)])
        asym = SparseMatrix(2, [(0, 1, 1)])
        for matrix, q, want in (
            (sym, 13, "diagonal"),
            (sym, 11, "toeplitz"),
            (asym, 13, "toeplitz"),
        ):
            op = matrix.operator(q)
            assert preconditioner(op) == want
            built.clear()
            assert rank_blackbox(op, random.Random(1)) <= dense_rank(matrix.to_dense(), q)
            assert built and set(built) == {want}
            built.clear()
            try:
                assert det_blackbox(op, random.Random(1)) == dense_det(matrix.to_dense(), q)
            except DetNotCertifiedError:
                pass  # no answer is not a wrong answer
            assert built and set(built) == {want}

    def test_diagonal_cost(self):
        op = self.SYM.operator(101)
        assert blackbox._Preconditioner(op, random.Random(1)).cost == op.cost + 3


class TestBerlekampMassey:
    @staticmethod
    def generator(seq, p):
        bm = BerlekampMassey(p, len(seq))
        for term in seq:
            bm.add(term)
        return bm.generator()

    def test_fibonacci(self):
        p = 101
        seq = [1, 1]
        for _ in range(20):
            seq.append((seq[-1] + seq[-2]) % p)
        assert self.generator(seq, p) == FieldPoly([-1, -1, 1], p)

    def test_geometric(self):
        p = 13
        seq = [pow(5, i, p) for i in range(10)]
        assert self.generator(seq, p) == linear(5, p)

    def test_zero_sequence(self):
        assert self.generator([0] * 8, 7) == FieldPoly.one(7)


class TestWiedemann:
    def test_companion_minpoly(self):
        rng = random.Random(4)
        p = 10007
        for d in (1, 2, 5, 12):
            f = FieldPoly([rng.randrange(p) for _ in range(d)] + [1], p)
            A = build_companion(f).operator(p)
            assert wiedemann_minpoly(A, rng) == f

    def test_identity(self):
        rng = random.Random(5)
        A = diag_matrix([1] * 9).operator(11)
        assert wiedemann_minpoly(A, rng) == linear(1, 11)

    def test_diag112(self):
        rng = random.Random(6)
        A = diag_matrix([1, 1, 2]).operator(11)
        m = wiedemann_minpoly(A, rng)
        assert m == dense_minpoly(diag_matrix([1, 1, 2]).to_dense(), 11)
        assert m == linear(1, 11) * linear(2, 11)

    def test_block_jordan_minpoly(self):
        rng = random.Random(7)
        p = 101
        for d, k in ((1, 3), (2, 2), (3, 2)):
            f = rand_irreducible(d, p, rng)
            A = build_block_jordan(f, k).operator(p)
            assert wiedemann_minpoly(A, rng) == (f**k).monic()

    def test_divides_known_annihilator(self):
        rng = random.Random(8)
        p = 101
        f = rand_irreducible(2, p, rng)
        g = linear(3, p)
        A = block_diagonal([build_companion(f), build_companion(g)]).operator(p)
        m = wiedemann_minpoly(A, rng)
        annihilator = f * g
        assert (annihilator % m).is_zero
        # and the known annihilator really kills 20 random vectors
        op = PolyOfMatrix(A, annihilator)
        for _ in range(20):
            assert not op.apply(random_vector(A.dimension, p, rng)).any()


class TestRank:
    def test_jordan_nilpotent(self):
        rng = random.Random(10)
        p = 101
        for e in (1, 2, 3, 5):
            J = build_block_jordan(FieldPoly.x(p), e)  # J_{X^e}
            assert rank_blackbox(J.operator(p), rng) == e - 1

    def test_zero_matrix(self):
        rng = random.Random(11)
        assert rank_blackbox(SparseMatrix(5, []).operator(101), rng) == 0

    def test_all_zero_sequence_estimates_zero(self, monkeypatch):
        # Zero projections give an all-zero sequence and the generator 1:
        # each trial estimates 0, and no trial raises.
        def zeros(n, p, rng):
            return np.zeros(n, dtype=np.int64)

        monkeypatch.setattr(blackbox, "random_vector", zeros)
        monkeypatch.setattr(blackbox, "_ELIMINATION_MAX_N", 0)
        A = SparseMatrix.from_dense([[1, 2], [3, 4]]).operator(101)
        assert rank_blackbox(A, random.Random(1)) == 0

    def test_random_rank_product(self):
        rng = random.Random(12)
        p = 10007
        n, r = 30, 17
        B = [[rng.randrange(p) for _ in range(r)] for _ in range(n)]
        C = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        M = [
            [sum(B[i][k] * C[k][j] for k in range(r)) % p for j in range(n)]
            for i in range(n)
        ]
        assert dense_rank(M, p) == r
        assert rank_blackbox(SparseMatrix.from_dense(M).operator(p), rng) == r

    def test_matches_dense_oracle_sweep(self):
        rng = random.Random(13)
        p = 101
        for _ in range(15):
            n = rng.randrange(2, 16)
            rows = [
                [rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(n)]
                for _ in range(n)
            ]
            op = SparseMatrix.from_dense(rows).operator(p)
            assert rank_blackbox(op, rng) == dense_rank(rows, p)


class TestOneTrialRule:
    """A rank call stops after its first trial where one trial's bound at
    its ceiling is at most 1/n^2, and keeps the streak of two elsewhere.

    A trial is one round of at most 2D terms, D = min(c + 1, n): at most
    2D - 1 applies, or D on the symmetric ``diagonal`` kind.  So a call
    that took more applies than one round can take made two trials.  The
    calls take the Krylov path at every n."""

    @pytest.fixture(autouse=True)
    def krylov(self, monkeypatch):
        monkeypatch.setattr(blackbox, "_ELIMINATION_MAX_N", 0)

    @staticmethod
    def low_rank(n, r, p, rng):
        B = [[rng.randrange(p) for _ in range(r)] for _ in range(n)]
        C = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        return [
            [sum(B[i][k] * C[k][j] for k in range(r)) % p for j in range(n)]
            for i in range(n)
        ]

    def test_toeplitz_kind_takes_one_round_where_the_bound_holds(self):
        p, n, r = 1000003, 10, 6
        rows = self.low_rank(n, r, p, random.Random(31))
        op = SparseMatrix.from_dense(rows).operator(p)
        assert preconditioner(op) == "toeplitz"
        assert one_trial_suffices(n - 1, n, p, "toeplitz")
        assert rank_blackbox(op, random.Random(32), ceiling=n - 1) == dense_rank(rows, p)
        assert op.applies <= 2 * n - 1

    def test_diagonal_kind_takes_one_round_where_the_bound_holds(self):
        p, n = 1000003, 10
        values = [1, 2, 3, 4, 5, 6, 0, 0, 0, 0]
        op = diag_matrix(values).operator(p)
        assert preconditioner(op) == "diagonal"
        assert one_trial_suffices(n - 1, n, p, "diagonal")
        assert rank_blackbox(op, random.Random(33), ceiling=n - 1) == 6
        assert op.applies <= n

    @pytest.mark.parametrize("seed", range(4))
    def test_small_field_takes_two_trials_below_the_ceiling(self, seed):
        # GF(227): the Toeplitz bound at c = 9 exceeds 1, so the first trial
        # stands only once a second one agrees
        p, n, r = 227, 10, 6
        rows = self.low_rank(n, r, p, random.Random(34))
        assert dense_rank(rows, p) == r
        op = SparseMatrix.from_dense(rows).operator(p)
        assert not one_trial_suffices(n - 1, n, p, preconditioner(op))
        assert rank_blackbox(op, random.Random(seed), ceiling=n - 1) <= r
        assert op.applies > 2 * n - 1


class _VectorOnly(BlackBoxOperator):
    """A dense matrix mod p that takes single vectors only."""

    def __init__(self, rows, p):
        super().__init__(len(rows), p, cost=len(rows) ** 2)
        self.rows = np.array(rows, dtype=np.int64) % p

    def apply(self, v):
        assert v.ndim == 1
        return self.rows @ v % self.p


class TestElimination:
    """Rank and determinant calls on a Toeplitz-kind operator with
    n <= ``_ELIMINATION_MAX_N`` apply it to the columns of I and eliminate;
    every other call runs Krylov trials."""

    def test_diagonal_kind_runs_krylov_trials(self):
        p = 1000003
        op = diag_matrix([1, 2, 3, 0, 0]).operator(p)
        assert preconditioner(op) == "diagonal"
        assert op.dimension <= blackbox._ELIMINATION_MAX_N
        with counted_trials() as bounds:
            assert rank_blackbox(op, random.Random(1)) == 3
        assert bounds and set(bounds) == {5}
        with counted_trials() as bounds:
            assert det_blackbox(ShiftedOperator(op, 5), random.Random(2)) == 4 * 3 * 2 * 25
        assert bounds and set(bounds) == {5}

    def test_toeplitz_kind_eliminates_up_to_the_crossover(self, monkeypatch):
        p, n = 101, 6
        op = build_block_jordan(linear(0, p), n).operator(p)  # one nilpotent block
        assert preconditioner(op) == "toeplitz"
        monkeypatch.setattr(blackbox, "_ELIMINATION_MAX_N", n)
        with counted_trials() as bounds:
            assert rank_blackbox(op, random.Random(1)) == n - 1
            assert det_blackbox(op, random.Random(1)) == 0
        assert bounds == [] and op.applies == 2 * n  # one block of n columns each
        monkeypatch.setattr(blackbox, "_ELIMINATION_MAX_N", n - 1)
        with counted_trials() as bounds:
            assert rank_blackbox(op, random.Random(1)) <= n - 1
        assert bounds

    def test_shifted_determinant_applies_the_shift(self, monkeypatch):
        # every lambda materialises lambda*I - A afresh, through the shift
        rng = random.Random(3)
        p, n = 101, 8
        f = FieldPoly([rng.randrange(p) for _ in range(n)] + [1], p)
        matrix = build_companion(f)
        A = matrix.operator(p)
        shapes = []
        real = ShiftedOperator.apply

        def recording(self, v):
            shapes.append(v.shape)
            return real(self, v)

        monkeypatch.setattr(ShiftedOperator, "apply", recording)
        with counted_trials() as bounds:
            for lam in (0, 7, 50):
                rows = [
                    [((lam if i == j else 0) - x) % p for j, x in enumerate(row)]
                    for i, row in enumerate(matrix.to_dense())
                ]
                assert det_blackbox(ShiftedOperator(A, lam), rng) == dense_det(rows, p)
                assert det_blackbox(ShiftedOperator(A, lam), rng) == f(lam)
        assert shapes == [(n, n)] * 6 and bounds == []

    @pytest.mark.parametrize("p", [3, (1 << 31) - 1])
    def test_toeplitz_kind_above_120_eliminates_with_no_draw(self, p):
        # companion sums of n = 130: one with a singular block for the rank,
        # one with every block nonsingular for the determinant
        n = 130
        assert n <= blackbox._ELIMINATION_MAX_N
        draws = random.Random(p)
        singular, nonsingular = [], []
        for k in range(n // 2):
            tail = [draws.randrange(p)]
            singular.append(build_companion(FieldPoly([0 if k == 0 else 1, *tail, 1], p)))
            nonsingular.append(build_companion(FieldPoly([1 + k % (p - 1), *tail, 1], p)))
        rng = random.Random(9)
        state = rng.getstate()
        with counted_trials() as bounds:
            for blocks, kernel, dense in (
                (singular, rank_blackbox, dense_rank),
                (nonsingular, det_blackbox, dense_det),
            ):
                matrix = block_diagonal(blocks)
                op = matrix.operator(p)
                assert preconditioner(op) == "toeplitz" and op.dimension == n
                assert kernel(op, rng) == dense(matrix.to_dense(), p)
        assert bounds == [] and rng.getstate() == state

    def test_vector_only_operator_is_applied_column_by_column(self):
        rng = random.Random(4)
        p = 101
        for n in (1, 5, 9):
            rows = [[rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)]
            op = _VectorOnly(rows, p)
            assert preconditioner(op) == "toeplitz" and not op.takes_blocks
            assert rank_blackbox(op, rng) == dense_rank(rows, p)
            assert det_blackbox(op, rng) == dense_det(rows, p)


def scalar(x, p):
    """x, after checking that it is a plain int in [0, p)."""
    assert type(x) is int and 0 <= x < p
    return x


class TestDet:
    def test_shifted_diag_example(self):
        rng = random.Random(14)
        A = diag_matrix([1, 2]).operator(7)
        assert scalar(det_blackbox(ShiftedOperator(A, 3), rng), 7) == 2

    def test_singular(self):
        rng = random.Random(15)
        rows = [[1, 2, 3], [0, 0, 0], [4, 5, 6]]
        det = det_blackbox(SparseMatrix.from_dense(rows).operator(101), rng)
        assert scalar(det, 101) == 0

    def test_random_vs_dense(self):
        rng = random.Random(16)
        p = 10007
        n = 20
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        got = det_blackbox(SparseMatrix.from_dense(rows).operator(p), rng)
        assert scalar(got, p) == dense_det(rows, p)

    def test_eigenvalue_sweep(self):
        rng = random.Random(17)
        p = 101
        eigs = [3, 3, 7, 50]
        A = diag_matrix(eigs).operator(p)
        for lam in range(0, p, 9):
            want = 1
            for e in eigs:
                want = want * (lam - e) % p
            assert scalar(det_blackbox(ShiftedOperator(A, lam), rng), p) == want


class TestTrace:
    def test_identity(self):
        A = diag_matrix([1] * 12)
        assert scalar(A.operator(101).trace(), 101) == 12

    def test_displayed_example_matrix(self):
        # 7x7 block matrix with diagonal (0,0,0,0,6,0,2): trace 8
        rows = [
            [0, 0, 0, 0, 2, 0, 0],
            [1, 0, 0, 0, -9, 0, 0],
            [0, 1, 0, 0, 16, 0, 0],
            [0, 0, 1, 0, -14, 0, 0],
            [0, 0, 0, 1, 6, 0, 0],
            [0, 0, 0, 0, 0, 0, -1],
            [0, 0, 0, 0, 0, 1, 2],
        ]
        m = SparseMatrix.from_dense(rows)
        assert m.diagonal_sum() == 8
        for p in (5, 7, 101):
            assert scalar(m.operator(p).trace(), p) == 8 % p

    def test_fast_path_equals_generic(self):
        rng = random.Random(18)
        p = 101
        for _ in range(5):
            n = rng.randrange(1, 10)
            rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            op = SparseMatrix.from_dense(rows).operator(p)
            assert op.trace() == scalar(BlackBoxOperator.trace(op), p)

    def test_sparse_trace_makes_no_apply(self):
        rng = random.Random(19)
        p = 101
        rows = [[rng.randrange(-9, 10) for _ in range(50)] for _ in range(50)]
        op = SparseMatrix.from_dense(rows).operator(p)
        assert scalar(op.trace(), p) == sum(rows[i][i] for i in range(50)) % p
        assert op.applies == 0


class TestConstructions:
    def test_companion_1x1(self):
        p = 101
        c = build_companion(linear(5, p))
        assert c.to_dense() == [[5]]

    def test_block_jordan_classical(self):
        p = 101
        J = build_block_jordan(linear(4, p), 3)
        assert J.to_dense() == [
            [4, 1, 0],
            [0, 4, 1],
            [0, 0, 4],
        ]

    def test_companion_layout(self):
        f = FieldPoly([2, -9, 16, -14, 6][::-1] + [1], 101)  # arbitrary monic
        C = build_companion(f)
        dense = C.to_dense()
        d = f.degree
        for i in range(d - 1):
            assert dense[i + 1][i] == 1
        for i in range(d):
            assert dense[i][d - 1] == (-f.coeffs[i]) % 101

    def test_charpoly_of_companion(self):
        rng = random.Random(19)
        p = 101
        f = rand_irreducible(4, p, rng)
        assert dense_charpoly(build_companion(f).to_dense(), p) == f

    def test_charpoly_of_block_jordan(self):
        rng = random.Random(20)
        p = 101
        f = rand_irreducible(2, p, rng)
        J = build_block_jordan(f, 3)
        assert dense_charpoly(J.to_dense(), p) == (f**3).monic()

    def test_nonmonic_rejected(self):
        with pytest.raises(ValueError):
            build_companion(FieldPoly([1, 2], 7))


class TestBlockJordanNullityLaw:
    def test_small_sweep(self):
        # nu(P^k(J_{P^e})) = min(k, e) * d, exercised lightly here;
        # the exhaustive sweep is an acceptance criterion.
        rng = random.Random(21)
        p = 101
        for d, e, k in ((1, 3, 2), (2, 2, 3), (3, 2, 1)):
            P = rand_irreducible(d, p, rng)
            J = build_block_jordan(P, e)
            op = PolyOfMatrix(J.operator(p), P, k)
            nullity = e * d - rank_blackbox(op, rng)
            assert nullity == min(k, e) * d
