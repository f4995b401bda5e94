import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcharpoly import multiplicity
from bbcharpoly.adaptive import TraceLog
from bbcharpoly.blackbox import (
    PolyOfMatrix,
    build_companion,
    rank_blackbox,
    wiedemann_minpoly,
)
from bbcharpoly.ff import DlogContext, find_index_calculus_field, index_calculus_subprime
from bbcharpoly.multiplicity import (
    FactorProfile,
    InconsistentNullityError,
    IndexCalculusFailure,
    NoCandidateError,
    _EchelonTracker,
    _solve_sweep,
    combinatorial_search,
    degree_trace_residual,
    det_rounds,
    index_calculus,
    nullities_to_occurrences,
    solve_mod_p,
)
from bbcharpoly.oracle import dense_charpoly
from bbcharpoly.poly import factor

from helpers import (
    linear,
    planted_primary_form,
    rand_irreducible,
    random_census_instance,
    random_sparse_matrix,
)


def profile(poly, e):
    return FactorProfile(poly, e)


class TestNullityMultiplicity:
    """nullity(P^e(A)) = m * deg(P) once e reaches P's minpoly multiplicity."""

    def test_planted_example(self):
        p = 7
        rng = random.Random(0)
        A, mults = planted_primary_form([(linear(1, p), {2: 1, 1: 1})], p)
        assert mults == [3]
        op = A.operator(p)
        assert op.dimension - rank_blackbox(PolyOfMatrix(op, linear(1, p), 2), rng) == 3

    def test_companion_full_degree(self):
        p = 101
        rng = random.Random(1)
        P = rand_irreducible(5, p, rng)
        A = build_companion(P).operator(p)
        assert A.dimension - rank_blackbox(PolyOfMatrix(A, P, 1), rng) == 5

    def test_diag112(self):
        p = 11
        rng = random.Random(2)
        A, _ = planted_primary_form(
            [(linear(1, p), {1: 2}), (linear(2, p), {1: 1})], p
        )
        op = A.operator(p)
        assert op.dimension - rank_blackbox(PolyOfMatrix(op, linear(2, p)), rng) == 1
        assert op.dimension - rank_blackbox(PolyOfMatrix(op, linear(1, p)), rng) == 2


class TestNullitiesToOccurrences:
    def test_frozen_examples(self):
        assert nullities_to_occurrences([3, 4, 4], 1, minpoly_mult=2) == [2, 1]
        assert nullities_to_occurrences([5, 5], 5, minpoly_mult=1) == [1]
        assert nullities_to_occurrences([2, 3, 3], 1, minpoly_mult=2) == [1, 1]

    def test_terminal_formula(self):
        # nu = (3, 4) with e = 2, d = 1: n1 = 2 via (2nu1-nu2), n2 via terminal
        assert nullities_to_occurrences([3, 4], 1, minpoly_mult=2) == [2, 1]

    def test_prefix_only(self):
        # three nullities without e: two counts
        assert nullities_to_occurrences([3, 4, 4], 1) == [2, 1]

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentNullityError):
            nullities_to_occurrences([3, 5, 5], 2, minpoly_mult=2)  # not divisible
        with pytest.raises(InconsistentNullityError):
            nullities_to_occurrences([1, 3, 3], 1, minpoly_mult=2)  # negative n1

    def test_random_planted_censuses(self):
        rng = random.Random(3)
        p = 101
        for _ in range(50):
            d = rng.randrange(1, 4)
            e = rng.randrange(1, 5)
            P = rand_irreducible(d, p, rng)
            counts = {j: rng.randrange(0, 3) for j in range(1, e + 1)}
            counts[e] = max(1, counts.get(e, 0))
            # nullities from the block census: nu_j = d * sum_k min(j, k) n_k
            nus = [
                d * sum(min(j, k) * c for k, c in counts.items())
                for j in range(1, e + 2)
            ]
            got = nullities_to_occurrences(nus, d, minpoly_mult=e)
            assert got == [counts.get(j, 0) for j in range(1, e + 1)]

    @staticmethod
    @st.composite
    def planted(draw):
        """(d, counts n_1..n_e with n_e >= 1, nullities nu_1..nu_{e+1})."""
        d = draw(st.integers(1, 3))
        e = draw(st.integers(1, 5))
        counts = draw(st.lists(st.integers(0, 3), min_size=e - 1, max_size=e - 1))
        counts.append(draw(st.integers(1, 3)))
        nus = [
            d * sum(min(j, k) * c for k, c in enumerate(counts, start=1))
            for j in range(1, e + 2)
        ]
        return d, counts, nus

    @settings(max_examples=200, deadline=None)
    @given(planted())
    def test_every_prefix_gives_the_planted_counts(self, case):
        d, counts, nus = case
        e = len(counts)
        for L in range(1, e + 2):
            assert nullities_to_occurrences(nus[:L], d) == counts[: L - 1]
            want = counts if e <= L else counts[: L - 1]
            assert nullities_to_occurrences(nus[:L], d, minpoly_mult=e) == want

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_a_step_off_the_multiples_of_d_raises(self, data):
        # valid steps d * b_j, then one step that is negative or not a multiple
        d = data.draw(st.integers(1, 3))
        blocks = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
        steps = [d * b for b in blocks]
        bad = data.draw(st.integers(-9, 9).filter(lambda s: s < 0 or s % d))
        steps[data.draw(st.integers(0, len(steps) - 1))] = bad
        e = data.draw(st.one_of(st.none(), st.integers(1, 6)))
        nus = list(itertools.accumulate(steps))
        with pytest.raises(InconsistentNullityError):
            nullities_to_occurrences(nus, d, minpoly_mult=e)

    def test_steps_checked_before_any_count(self):
        # d = 2: the steps 1, 1 and 3 are not multiples of d
        with pytest.raises(InconsistentNullityError):
            nullities_to_occurrences([1, 2], 2)
        with pytest.raises(InconsistentNullityError):
            nullities_to_occurrences([3], 2, minpoly_mult=2)
        # one nullity and e > 1 pin no count, only the block total
        assert nullities_to_occurrences([4], 2, minpoly_mult=2) == []


class TestDegreeTraceResidual:
    def test_exact_charpoly(self):
        p = 101
        rng = random.Random(4)
        blocks = [
            (rand_irreducible(2, p, rng), {1: 2, 2: 1}),
            (linear(7, p), {1: 1}),
        ]
        A, mults = planted_primary_form(blocks, p)
        profiles = [profile(poly, max(c)) for poly, c in blocks]
        tr = A.operator(p).trace()
        assert degree_trace_residual(mults, profiles, A.n, tr, p) == (0, 0)
        bumped = [mults[0] + 1, mults[1]]
        gap = degree_trace_residual(bumped, profiles, A.n, tr, p)[0]
        assert gap == -profiles[0].degree


class TestDetRounds:
    def test_none_unless_the_field_exceeds_n(self):
        assert det_rounds(13, 5) is None
        assert det_rounds(13, 13) is None

    @pytest.mark.parametrize(
        "n, p, candidates", [(1, 2, 1), (15, 59, 1), (84, 28229, 1), (240, 1000003, 7)]
    )
    def test_least_rounds_below_one_in_n_squared(self, n, p, candidates):
        r = det_rounds(n, p, candidates)
        miss = Fraction(n - 1, p)
        assert candidates * miss**r <= Fraction(1, n * n)
        assert r == 1 or candidates * miss ** (r - 1) > Fraction(1, n * n)


class TestCombinatorialSearch:
    def test_single_factor_unique(self):
        p = 101
        rng = random.Random(5)
        A, _ = planted_primary_form([(linear(1, p), {2: 1, 1: 1})], p)
        profiles = [profile(linear(1, p), 2)]
        out = combinatorial_search(A.operator(p), profiles, [{}] * len(profiles), rng)
        assert out == {(0, 1): 1, (0, 2): 1}

    def test_minpoly_degree_n_unique(self):
        p = 11
        rng = random.Random(6)
        A, _ = planted_primary_form(
            [(linear(1, p), {1: 1}), (linear(2, p), {1: 1})], p
        )
        profiles = [profile(linear(1, p), 1), profile(linear(2, p), 1)]
        out = combinatorial_search(A.operator(p), profiles, [{}] * len(profiles), rng)
        assert out == {(0, 1): 1, (1, 1): 1}

    def test_two_factor_linear_system(self):
        p = 11
        rng = random.Random(7)
        A, mults = planted_primary_form(
            [(linear(1, p), {1: 2}), (linear(2, p), {1: 1})], p
        )
        assert mults == [2, 1]
        profiles = [profile(linear(1, p), 1), profile(linear(2, p), 1)]
        out = combinatorial_search(A.operator(p), profiles, [{}] * len(profiles), rng)
        assert out == {(0, 1): 2, (1, 1): 1}

    def test_det_discrimination_needed(self):
        # single eigenvalue pair that degree+trace cannot separate
        p = 101
        rng = random.Random(8)
        blocks = [(linear(2, p), {1: 1, 2: 1}), (linear(4, p), {1: 1})]
        A, mults = planted_primary_form(blocks, p)  # mults (3, 1), n = 4
        profiles = [profile(linear(2, p), 2), profile(linear(4, p), 1)]
        out = combinatorial_search(A.operator(p), profiles, [{}] * len(profiles), rng)
        got = [
            sum(j * c for (i, j), c in out.items() if i == idx)
            for idx in range(len(profiles))
        ]
        assert got == mults

    def test_known_slots_and_tails_respected(self):
        p = 101
        rng = random.Random(9)
        blocks = [(linear(3, p), {1: 2, 2: 1, 3: 1})]
        A, mults = planted_primary_form(blocks, p)
        profiles = [profile(linear(3, p), 3)]
        # nu_1 = 4 and nu_2 = 6 solve n_1 = 2 and leave two blocks among
        # powers 2..3
        out = combinatorial_search(A.operator(p), profiles, [{1: 4, 2: 6}], rng)
        assert out == {(0, 1): 2, (0, 2): 1, (0, 3): 1}

    def test_leaves_no_reference_cycle(self):
        # a cycle would keep the candidate list alive until a full collection
        p = 101
        blocks = [(linear(2, p), {1: 1, 2: 1}), (linear(4, p), {1: 1})]
        A, _ = planted_primary_form(blocks, p)
        profiles = [profile(linear(2, p), 2), profile(linear(4, p), 1)]
        gc.collect()
        gc.disable()
        try:
            combinatorial_search(
                A.operator(p), profiles, [{}] * len(profiles), random.Random(8)
            )
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_zero_candidates(self):
        p = 101
        rng = random.Random(10)
        A, _ = planted_primary_form([(linear(1, p), {1: 3})], p)
        profiles = [profile(linear(1, p), 1)]
        with pytest.raises(NoCandidateError):
            # nu_1 = 5 solves n_1 = 5, which contradicts n = 3
            combinatorial_search(A.operator(p), profiles, [{1: 5}], rng)


class FirstDraws(random.Random):
    """random.Random whose first randrange calls return fixed values; the
    seeded stream starts only after them."""

    def __init__(self, seed, first):
        super().__init__(seed)
        self.first = list(first)

    def randrange(self, *args):
        if self.first:
            return self.first.pop(0)
        return super().randrange(*args)


class TestIndexCalculus:
    def test_frozen_worked_example(self):
        # lambda = 3, 4 are the first two draws; generator 2 of GF(11)*
        rng = FirstDraws(11, [3, 4])
        A, _ = planted_primary_form(
            [(linear(1, 11), {1: 2}), (linear(2, 11), {1: 1})], 11
        )
        profiles = [profile(linear(1, 11), 1), profile(linear(2, 11), 1)]
        assert DlogContext(11).generator == 2
        assert index_calculus_subprime(11, 3) == 5
        log = TraceLog()
        out = index_calculus(A.operator(11), profiles, [0, 1], {}, rng, trace_log=log)
        assert out == {0: 2, 1: 1}
        assert log.events[-1] == {"event": "ic-solved", "rows": 2, "multiplicities": out}
        assert [e["lam"] for e in log.events if e["event"] == "ic-row"] == [3, 4]

    def test_field_without_subprime_raises(self):
        # 100 = 2^2 * 5^2 has no prime factor above n = 6
        A, _ = planted_primary_form([(linear(3, 101), {1: 6})], 101)
        rng = random.Random(20)
        state = rng.getstate()
        with pytest.raises(ValueError, match="no prime factor of q-1 exceeding n=6"):
            index_calculus(A.operator(101), [profile(linear(3, 101), 1)], [0], {}, rng)
        assert rng.getstate() == state

    def test_single_unknown(self):
        q, _ = find_index_calculus_field(6)
        rng = random.Random(12)
        A, _ = planted_primary_form([(linear(3, q), {2: 3})], q)
        profiles = [profile(linear(3, q), 2)]
        out = index_calculus(A.operator(q), profiles, [0], {}, rng)
        assert out == {0: 6}

    def test_companion_recovers_minpoly_multiplicities(self):
        rng = random.Random(13)
        q, _ = find_index_calculus_field(12)
        f1 = rand_irreducible(2, q, rng)
        f2 = linear(5, q)
        full = (f1**2 * f2**3).monic()
        A = build_companion(full)
        profiles = [FactorProfile(f, e) for f, e in factor(full, rng)]
        out = index_calculus(
            A.operator(q), profiles, list(range(len(profiles))), {}, rng
        )
        want = {i: prof.minpoly_mult for i, prof in enumerate(profiles)}
        assert out == want

    def test_known_partial_product(self):
        rng = random.Random(14)
        q, _ = find_index_calculus_field(8)
        blocks = [(linear(2, q), {1: 3}), (linear(7, q), {1: 2}), (linear(9, q), {3: 1})]
        A, mults = planted_primary_form(blocks, q)
        profiles = [
            profile(linear(2, q), 1),
            profile(linear(7, q), 1),
            profile(linear(9, q), 3),
        ]
        out = index_calculus(A.operator(q), profiles, [0, 1], {2: 3}, rng)
        assert out == {0: 3, 1: 2}

    def test_degree_check_failure(self):
        rng = random.Random(15)
        q, _ = find_index_calculus_field(6)
        A, _ = planted_primary_form([(linear(3, q), {1: 6})], q)
        profiles = [profile(linear(3, q), 1), profile(linear(5, q), 1)]
        # lie about the known part: A has no factor x - 5
        with pytest.raises(IndexCalculusFailure):
            index_calculus(A.operator(q), profiles, [0], {1: 2}, rng)

    def test_assignments_discriminated_by_determinant(self):
        # every assignment meets the degree identity, so only determinants
        # can tell the planted one apart
        rng = random.Random(17)
        q, _ = find_index_calculus_field(6)
        A, mults = planted_primary_form(
            [(linear(2, q), {1: 2}), (linear(7, q), {1: 1, 2: 1}), (linear(4, q), {1: 1})],
            q,
        )
        assert mults == [2, 3, 1]
        profiles = [profile(linear(2, q), 1), profile(linear(7, q), 2), profile(linear(4, q), 1)]
        log = TraceLog()
        out = index_calculus(
            A.operator(q),
            profiles,
            [],
            {2: 1},
            rng,
            enumerated=[0, 1],
            assignments=[(1, 4), (2, 3), (3, 2)],
            trace_log=log,
        )
        assert out == {0: 2, 1: 3}
        assert any(e["event"] == "search-det" for e in log.events)
        assert log.events[-1] == {"event": "ic-solved", "rows": 0, "multiplicities": out}

    def test_assignment_sweep_solves_the_rest(self):
        rng = random.Random(18)
        q, _ = find_index_calculus_field(9)
        f = rand_irreducible(2, q, rng)
        A, mults = planted_primary_form(
            [(f, {1: 2}), (linear(3, q), {2: 1}), (linear(8, q), {1: 1})], q
        )
        profiles = [profile(f, 1), profile(linear(3, q), 2), profile(linear(8, q), 1)]
        out = index_calculus(
            A.operator(q),
            profiles,
            [1, 2],
            {},
            rng,
            enumerated=[0],
            assignments=[(1,), (2,), (3,)],
        )
        assert out == {0: 2, 1: 2, 2: 1}

    def test_nothing_to_solve_draws_nothing(self):
        q, _ = find_index_calculus_field(6)
        A, _ = planted_primary_form([(linear(3, q), {1: 6})], q)
        rng = random.Random(19)
        state = rng.getstate()
        log = TraceLog()
        out = index_calculus(
            A.operator(q),
            [profile(linear(3, q), 1)],
            [],
            {0: 6},
            rng,
            trace_log=log,
        )
        assert out == {}
        assert log.events == [{"event": "ic-solved", "rows": 0, "multiplicities": {}}]
        assert rng.getstate() == state


    def test_sweep_solves_once_per_enumerated_factor(self, monkeypatch):
        calls = []
        real = multiplicity.solve_mod_p
        monkeypatch.setattr(
            multiplicity, "solve_mod_p", lambda *a: calls.append(1) or real(*a)
        )
        self.test_assignment_sweep_solves_the_rest()
        assert len(calls) == 2  # the right-hand side and one log column


@st.composite
def sweep_systems(draw):
    """A full-rank tracker mod p, right-hand sides, log columns and assignments."""
    p = draw(st.sampled_from([7, 101, 65537, 2147483629]))
    k = draw(st.integers(0, 6))
    s = draw(st.integers(0, 3))
    values = st.integers(0, p - 1)
    tracker = _EchelonTracker(k, p)
    while tracker.rank < k:
        tracker.try_add(draw(st.lists(values, min_size=k, max_size=k)))
    rhs = draw(st.lists(values, min_size=k, max_size=k))
    columns = [draw(st.lists(values, min_size=k, max_size=k)) for _ in range(s)]
    mults = st.tuples(*[st.integers(0, 40)] * s)
    assignments = draw(st.lists(mults, max_size=12))
    return tracker, rhs, columns, assignments


@settings(max_examples=60, deadline=None)
@given(sweep_systems())
def test_sweep_equals_one_solve_per_assignment(system):
    tracker, rhs, columns, assignments = system
    p = tracker.p
    want = []
    for assign in assignments:
        shifted = [
            (b - sum(a * col[j] for a, col in zip(assign, columns))) % p
            for j, b in enumerate(rhs)
        ]
        want.append(solve_mod_p(tracker, shifted))
    assert _solve_sweep(tracker, rhs, columns, assignments) == want


class TestCrossMethodAgreement:
    def test_planted_and_sparse_matrices(self):
        # The instances come from their own stream, so a kernel that draws
        # more or fewer random values does not change which matrices are
        # tested; each trial's algorithms get a seed drawn from it.
        rng = random.Random(16)
        nontrivial = 0
        for trial in range(100):
            if trial % 2 == 0:
                A, polys, _, mults, q, _ = random_census_instance(rng)
            else:
                n = rng.randrange(8, 41)
                q, _ = find_index_calculus_field(n)
                A = random_sparse_matrix(n, q, rng)
                mults = None
            work = random.Random(rng.randrange(1 << 32))
            op = A.operator(q)
            minpoly = wiedemann_minpoly(op, work)
            profiles = [FactorProfile(f, e) for f, e in factor(minpoly, work)]
            census = combinatorial_search(op, profiles, [{}] * len(profiles), work)
            comb_mults = [
                sum(j * c for (i, j), c in census.items() if i == idx)
                for idx in range(len(profiles))
            ]
            ic = index_calculus(op, profiles, list(range(len(profiles))), {}, work)
            ic_mults = [ic[i] for i in range(len(profiles))]
            assert comb_mults == ic_mults, f"trial={trial} q={q}"
            if mults is not None:
                # planted truth: map profile order back to construction order
                want = {}
                for poly, m in zip(polys, mults):
                    want[poly.coeffs] = m
                for pr, m in zip(profiles, comb_mults):
                    assert want[pr.poly.coeffs] == m
            if sum(pr.degree * pr.minpoly_mult for pr in profiles) < op.dimension:
                nontrivial += 1
        assert nontrivial >= 30


class TestFrobeniusBlockMatrix:
    ROWS = [
        [0, 0, 0, 0, 2, 0, 0],
        [1, 0, 0, 0, -9, 0, 0],
        [0, 1, 0, 0, 16, 0, 0],
        [0, 0, 1, 0, -14, 0, 0],
        [0, 0, 0, 1, 6, 0, 0],
        [0, 0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, 1, 2],
    ]

    def test_true_multiplicities_have_zero_residual(self):
        rng = random.Random(17)
        p = 101
        cp = dense_charpoly(self.ROWS, p)
        fac = factor(cp, rng)
        profiles = [FactorProfile(f, m) for f, m in fac]
        mults = [m for _, m in fac]
        tr = sum(self.ROWS[i][i] for i in range(7))
        got = degree_trace_residual(mults, profiles, 7, tr % p, p)
        assert got == (0, 0)
