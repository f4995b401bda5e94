import math
import random

import pytest

from bbcharpoly import integer
from bbcharpoly.adaptive import AdaptiveConfig, TraceLog
from bbcharpoly.blackbox import (
    SparseMatrix,
    block_diagonal,
    build_companion,
    one_trial_suffices,
)
from bbcharpoly.ff import next_prime
from bbcharpoly.graphs import rook_graph, symmetric_power
from bbcharpoly.integer import (
    IntegerCharpolyError,
    integer_charpoly,
    integer_charpoly_with_details,
    integer_minpoly,
    lift_charpoly,
    minpoly_coeff_bound,
)
from bbcharpoly.oracle import (
    charpoly_coeff_bound,
    dense_charpoly,
    dense_integer_charpoly,
    dense_minpoly,
)
from bbcharpoly.poly import (
    BadPrimeError,
    FieldPoly,
    IntPoly,
    factor,
)

from helpers import random_sparse_integer_matrix


def int_diag(values):
    n = len(values)
    return SparseMatrix(n, [(i, i, v) for i, v in enumerate(values) if v])


class TestBounds:
    def test_minpoly_bound_examples(self):
        assert minpoly_coeff_bound(2, 1) == 2
        assert minpoly_coeff_bound(1, 1) == 1
        assert minpoly_coeff_bound(16, 10) == 87

    def test_charpoly_bound_examples(self):
        assert charpoly_coeff_bound(1, 1) == 2
        assert charpoly_coeff_bound(2, 1) == 6

    def test_charpoly_bound_monotone(self):
        assert charpoly_coeff_bound(5, 1) < charpoly_coeff_bound(6, 1)
        assert charpoly_coeff_bound(5, 2) < charpoly_coeff_bound(5, 3)

    def test_charpoly_bound_dominates(self):
        rng = random.Random(0)
        for _ in range(10):
            n = rng.randrange(1, 10)
            m = random_sparse_integer_matrix(n, rng)
            bound = charpoly_coeff_bound(n, max(1, m.max_abs()))
            cp = dense_integer_charpoly(m.to_dense())
            assert max(map(abs, cp.coeffs)) <= bound


class TestIntegerMinpoly:
    def test_diag112(self):
        rng = random.Random(1)
        A = int_diag([1, 1, 2])
        assert integer_minpoly(A, rng) == IntPoly([2, -3, 1])

    def test_companion(self):
        rng = random.Random(2)
        f = IntPoly([1, -10, 1])
        A = build_companion(f)
        assert integer_minpoly(A, rng) == f

    def test_zero_matrix(self):
        rng = random.Random(3)
        A = SparseMatrix(4, [])
        assert integer_minpoly(A, rng) == IntPoly([0, 1])

    def test_prime_budget_scales_with_the_bound(self):
        # A 2401-bit coefficient needs about 85 primes of 28-29 bits, past
        # a fixed budget of 80 but inside the one derived from the bound.
        rng = random.Random(5)
        f = IntPoly([1, (1 << 2400) + 1, 0, 1])
        assert integer_minpoly(build_companion(f), rng) == f

    @staticmethod
    def scripted(monkeypatch, script):
        """Make ``script(k, p)`` integer_minpoly's k-th residue, at prime p;
        returns the lists of primes drawn, of the ``trial_bound`` of each
        call (None for a certified one) and of the primes of each CRT group,
        filled as the run goes."""
        primes, bounds, groups = [], [], []
        crt_combine = integer.crt_combine

        def residue(op, rng, trial_bound=None):
            primes.append(op.p)
            bounds.append(trial_bound)
            return script(len(primes) - 1, op.p)

        def recorded(group):
            groups.append([g.p for g in group])
            return crt_combine(group)

        monkeypatch.setattr(integer, "wiedemann_minpoly", residue)
        monkeypatch.setattr(integer, "crt_combine", recorded)
        return primes, bounds, groups

    def test_low_degree_residues_are_dropped(self, monkeypatch):
        # residue 0 falls short (a failed projection) and residue 1, of the
        # true degree, restarts the group; residue 2 drops a degree (a bad
        # prime) and is skipped; residue 4 verifies
        want = IntPoly([2, -3, 1])

        def script(k, p):
            if k in (0, 2):
                return FieldPoly([-1 - k // 2, 1], p)
            return want.reduce(p)

        primes, bounds, groups = self.scripted(monkeypatch, script)
        assert integer_minpoly(int_diag([1, 1, 2]), random.Random(1)) == want
        assert len(primes) == 5
        assert groups == [[primes[0]], [primes[1]], [primes[1], primes[3]]]
        # one round per CRT prime, a certified minimal polynomial to verify
        assert bounds == [3, 3, 3, 3, None]

    def test_a_short_single_round_residue_is_dropped(self, monkeypatch):
        # residue 1 is a one-round generator that fell short: a proper
        # divisor of the true minimal polynomial, between full residues
        want = IntPoly([2, -3, 1])

        def script(k, p):
            return FieldPoly([-1, 1], p) if k == 1 else want.reduce(p)

        primes, bounds, groups = self.scripted(monkeypatch, script)
        assert integer_minpoly(int_diag([1, 1, 2]), random.Random(1)) == want
        assert len(primes) == 4
        assert groups == [[primes[0]], [primes[0], primes[2]]]
        assert bounds == [3, 3, 3, None]

    def test_a_failed_verification_prime_joins_the_group(self, monkeypatch):
        # The scripted residues draw no randomness, so the primes are those
        # of the seed alone.  With c = 6 + (the product of the first three),
        # the reconstruction reads 6 at each of them: stable, and wrong.  The
        # verification prime disagrees with full degree and joins the group,
        # whose four primes then give c.
        rng, seen = random.Random(2), set()
        c = 6 + math.prod(integer._random_minpoly_prime(rng, seen) for _ in range(3))
        want = IntPoly([c, -(c + 1), 1])
        primes, bounds, groups = self.scripted(monkeypatch, lambda k, p: want.reduce(p))
        assert integer_minpoly(int_diag([1, c]), random.Random(2)) == want
        assert len(primes) == 7
        assert groups[3] == primes[:4]
        assert bounds == [2, 2, 2, None, 2, 2, None]

    def test_a_higher_degree_verification_restarts_the_group(self, monkeypatch):
        # The first two residues fall short to X - 1, so the group is stable
        # (and past its small coefficient bound) but wrong.  The certified
        # verification residue has the true degree: it proves the group
        # wrong and starts the next one, which the next prime confirms.
        want = IntPoly([2, -3, 1])

        def script(k, p):
            return FieldPoly([-1, 1], p) if k < 2 else want.reduce(p)

        primes, bounds, groups = self.scripted(monkeypatch, script)
        assert integer_minpoly(int_diag([1, 2]), random.Random(3)) == want
        assert len(primes) == 5
        assert groups == [primes[:1], primes[:2], primes[2:3], primes[2:4]]
        assert bounds == [2, 2, None, 2, None]

    def test_rook_cube_applies(self, monkeypatch):
        # 3 x 3 rook graph's symmetric cube, n = 84 and deg 26: four CRT
        # primes take one round of 2 * 26 + 8 terms (59 applies) each, and
        # the verification prime a certified minimal polynomial (144)
        A = symmetric_power(rook_graph(3), 3).adjacency()
        ops = []
        build = SparseMatrix.operator

        def recorded(matrix, p):
            ops.append(build(matrix, p))
            return ops[-1]

        monkeypatch.setattr(SparseMatrix, "operator", recorded)
        assert integer_minpoly(A, random.Random(808)).degree == 26
        assert [op.applies for op in ops] == [59, 59, 59, 59, 144]
        assert sum(op.applies for op in ops) == 380

    def test_matches_dense_krylov_over_primes(self):
        rng = random.Random(4)
        for _ in range(5):
            n = rng.randrange(2, 16)
            m = random_sparse_integer_matrix(n, rng)
            mp = integer_minpoly(m, rng)
            for p in (10007, 65537, next_prime(1 << 20)):
                assert mp.reduce(p) == dense_minpoly(m.to_dense(), p)


def field_factors(minpoly, charpoly):
    """The field pass's (P, e, m) triples for a minimal and a characteristic
    polynomial mod p."""
    rng = random.Random(0)
    m = dict(factor(charpoly, rng))
    return [(f, e, m[f]) for f, e in factor(minpoly, rng)]


class TestLiftCharpoly:
    def test_diag112_by_hand(self):
        A = int_diag([1, 1, 2])
        minpoly_z = IntPoly([2, -3, 1])  # (X-1)(X-2)
        p = 7
        charpoly_mod_p = minpoly_z.reduce(p) * FieldPoly([-1, 1], p)
        factors = field_factors(minpoly_z.reduce(p), charpoly_mod_p)
        out = lift_charpoly(A, minpoly_z, p, factors)[0]
        assert out == IntPoly([-2, 5, -4, 1])  # (X-1)^2 (X-2)

    def test_minpoly_equals_charpoly(self):
        f = IntPoly([1, -10, 1])
        A = build_companion(f)
        out = lift_charpoly(A, f, 13, field_factors(f.reduce(13), f.reduce(13)))[0]
        assert out == f

    def test_doubled_companion_block(self):
        f = IntPoly([1, -10, 1])
        C = build_companion(f)
        A = block_diagonal([C, C])
        factors = field_factors(f.reduce(13), (f.reduce(13) ** 2).monic())
        out = lift_charpoly(A, f, 13, factors)[0]
        assert out == f * f

    def test_bad_prime_detected(self):
        # mod 5, (X-1)(X-6) = (X-1)^2 is no longer squarefree
        A = int_diag([1, 6])
        minpoly_z = IntPoly([6, -7, 1])
        image = minpoly_z.reduce(5)
        with pytest.raises(BadPrimeError, match="not squarefree"):
            lift_charpoly(A, minpoly_z, 5, field_factors(image, image))

    def test_field_minpoly_that_is_no_reduction_is_a_bad_prime(self):
        # a field pass that found (X-1)^2 (X-2) where the integer minimal
        # polynomial reduces to (X-1)(X-2)
        A = int_diag([1, 1, 2])
        minpoly_z = IntPoly([2, -3, 1])
        wrong = minpoly_z.reduce(7) * FieldPoly([-1, 1], 7)
        with pytest.raises(BadPrimeError, match="field minimal polynomial"):
            lift_charpoly(A, minpoly_z, 7, field_factors(wrong, wrong))

    def test_charpoly_that_is_no_integer_image_is_a_bad_prime(self):
        # S = X^2 - 10X + 1 is irreducible over Z and splits mod 23 as
        # (X - 4)(X - 6); (X - 4)^2 (X - 6) is the image of no integer
        # charpoly whose squarefree part is S: the grouping keeps X - 4 and
        # X - 6 apart, and no factors of S over Z lie above them
        S = IntPoly([1, -10, 1])
        A = block_diagonal([build_companion(S), int_diag([5])])
        charpoly = FieldPoly([-4, 1], 23) ** 2 * FieldPoly([-6, 1], 23)
        with pytest.raises(BadPrimeError, match="over Z"):
            lift_charpoly(A, S, 23, field_factors(S.reduce(23), charpoly))

    def test_small_prime_rejected(self):
        A = int_diag([1, 1, 2])
        factors = [(FieldPoly([1, 1], 3), 1, 3)]
        with pytest.raises(BadPrimeError, match="does not exceed"):
            lift_charpoly(A, IntPoly([2, -3, 1]), 3, factors)


class TestIntegerCharpoly:
    def test_diag112(self):
        A = int_diag([1, 1, 2])
        assert integer_charpoly(A, AdaptiveConfig(seed=5)) == IntPoly([-2, 5, -4, 1])

    def test_zero_matrix(self):
        A = SparseMatrix(5, [])
        got = integer_charpoly(A, AdaptiveConfig(seed=6))
        assert got == IntPoly([0, 0, 0, 0, 0, 1])

    def test_matches_dense_oracle(self):
        rng = random.Random(7)
        for trial in range(6):
            n = rng.randrange(2, 20)
            m = random_sparse_integer_matrix(n, rng)
            got = integer_charpoly(m, AdaptiveConfig(seed=trial))
            assert got == dense_integer_charpoly(m.to_dense())

    def test_trace_and_divisibility_invariants(self):
        rng = random.Random(8)
        for trial in range(4):
            n = rng.randrange(2, 16)
            m = random_sparse_integer_matrix(n, rng)
            details = integer_charpoly_with_details(m, AdaptiveConfig(seed=trial))
            cp = details.charpoly
            assert cp.degree == n
            assert cp.coefficient(n - 1) == -m.diagonal_sum()
            q, r = divmod(cp, details.minpoly)
            assert r.is_zero
            bound = charpoly_coeff_bound(n, max(1, m.max_abs()))
            assert max(map(abs, cp.coeffs)) <= bound

    def test_reduction_matches_dense_mod_fresh_primes(self):
        rng = random.Random(9)
        m = random_sparse_integer_matrix(12, rng)
        cp = integer_charpoly(m, AdaptiveConfig(seed=9))
        prime = 1 << 21
        for _ in range(10):
            prime = next_prime(prime)
            assert cp.reduce(prime) == dense_charpoly(m.to_dense(), prime)

    def test_three_distinct_primes_before_giving_up(self, monkeypatch):
        # the field-prime draw often repeats a prime; a repeat is no attempt
        def always_bad(A, cfg):
            raise BadPrimeError("every prime is bad here")

        monkeypatch.setattr(integer, "charpoly_with_details", always_bad)
        A = SparseMatrix(4, [(0, 0, 2), (0, 1, 1), (1, 1, 2), (2, 3, -1), (3, 2, 1)])
        for seed in range(200):
            with pytest.raises(IntegerCharpolyError) as info:
                integer_charpoly(A, AdaptiveConfig(seed=seed))
            bad = info.value.bad_primes
            assert len(bad) == len(set(bad)) == 3, f"seed={seed}"

    def test_lifted_factor_report(self):
        A = int_diag([1, 1, 2])
        details = integer_charpoly_with_details(A, AdaptiveConfig(seed=10))
        pairs = sorted(
            (f.coeffs, e) for f, e in zip(details.lifted_factors, details.lift_exponents)
        )
        assert pairs == [((-2, 1), 1), ((-1, 1), 2)]


class TestFieldPrimeFloor:
    """The field floor of a symmetric matrix is raised to the least q at
    which one diagonal-kind rank trial is right to 1/n^2, where that q keeps
    the lazy int64 sums; an asymmetric matrix keeps the default floor."""

    @staticmethod
    def default_floor(n):
        return min(max(2 * n + 1, 4 * n * n, 1 << 12), 1 << 30)

    @staticmethod
    def least_one_trial_field(n, kind):
        low, high = 2, 4 * (n + 1) ** 2 * n * n  # the predicate fails at 2
        while high - low > 1:
            mid = (low + high) // 2
            if one_trial_suffices(n, n, mid, kind):
                high = mid
            else:
                low = mid
        return high

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_floor_is_raised_exactly_where_the_rule_says(self, symmetric):
        for n in range(1, 201):
            floor, raised = integer._field_prime_floor(n, symmetric)
            default = self.default_floor(n)
            q_star = self.least_one_trial_field(n, "diagonal")
            fast = (n + 1) * (q_star - 1) ** 2 < 1 << 63
            if symmetric and q_star > default and q_star <= 1 << 30 and fast:
                assert (floor, raised) == (q_star, True)
                assert one_trial_suffices(n, n, floor, "diagonal")
                assert 2 * n * (n + 1) <= floor - 1  # the diagonal kind serves
            else:
                assert (floor, raised) == (default, False)

    def test_examples(self):
        assert integer._field_prime_floor(84, True) == (25782625, True)
        assert integer._field_prime_floor(148, True)[1]
        assert integer._field_prime_floor(149, True) == (self.default_floor(149), False)
        assert integer._field_prime_floor(53, False) == (self.default_floor(53), False)
        for n in (560, 1820):  # the cubes of the 4 x 4 graphs keep their fields
            for symmetric in (True, False):
                assert integer._field_prime_floor(n, symmetric) == (
                    self.default_floor(n),
                    False,
                )

    def test_field_event_names_the_prime_and_floor(self):
        m = symmetric_power(rook_graph(3), 2).adjacency()  # n = 36, symmetric
        log = TraceLog()
        details = integer_charpoly_with_details(m, AdaptiveConfig(seed=1, trace_log=log))
        fields = [e for e in log.events if e["event"] == "field"]
        assert fields == [
            {"event": "field", "prime": details.field_prime, "floor": 909793, "raised": True}
        ]
        assert details.field_prime >= 909793


class TestPinnedDraws:
    """Field prime, bad primes and field method of fixed-seed integer runs.

    The values were recorded once.  The integer pipeline draws the CRT
    primes, the field prime and the field seed from one generator, so a
    change that adds, drops or reorders a random draw moves some of them
    even when every characteristic polynomial stays right.
    """

    SEEDS = range(1, 7)
    RECORDED = {  # matrix -> (field prime, bad primes, field method), per seed
        "rook-square": [
            (911219, [], "nullity-comb"),
            (909899, [], "nullity-comb"),
            (911357, [], "nullity-comb"),
            (910799, [], "nullity-comb"),
            (911707, [], "nullity-comb"),
            (911503, [], "nullity-comb"),
        ],
        "random-sparse": [
            (4231, [], "trivial"),
            (4219, [], "trivial"),
            (4129, [], "trivial"),
            (4219, [], "trivial"),
            (5003, [], "trivial"),
            (4241, [], "trivial"),
        ],
    }

    @staticmethod
    def matrix(name):
        if name == "rook-square":  # symmetric square of the 3x3 rook graph, n = 36
            return symmetric_power(rook_graph(3), 2).adjacency()
        return random_sparse_integer_matrix(14, random.Random(2024))

    @pytest.mark.parametrize("name", ["rook-square", "random-sparse"])
    def test_charpoly_and_draws(self, name):
        m = self.matrix(name)
        want = dense_integer_charpoly(m.to_dense())
        got = []
        for seed in self.SEEDS:
            details = integer_charpoly_with_details(m, AdaptiveConfig(seed=seed))
            assert details.charpoly == want
            got.append(
                (details.field_prime, details.bad_primes, details.field_result.method)
            )
        assert got == self.RECORDED[name]
