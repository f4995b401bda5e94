import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcharpoly import adaptive, multiplicity
from bbcharpoly.adaptive import (
    AdaptiveConfig,
    _enumerate_assignments,
    MethodUnavailableError,
    TraceLog,
    blackbox_charpoly_field,
    charpoly_with_details,
    hybrid_multiplicities,
    invariant_factor,
    invfact_multiplicities,
    nullity_comb_search,
)
from bbcharpoly.blackbox import (
    DetNotCertifiedError,
    MinpolyNotCertifiedError,
    PolyOfMatrix,
    SparseMatrix,
    block_diagonal,
    build_companion,
    random_vector,
    wiedemann_minpoly,
)
from bbcharpoly.cli import main
from bbcharpoly.ff import DlogContext, find_index_calculus_field
from bbcharpoly.graphs import rook_graph, symmetric_power
from bbcharpoly.integer import integer_charpoly
from bbcharpoly.multiplicity import FactorProfile, IndexCalculusFailure
from bbcharpoly.oracle import dense_charpoly, dense_integer_charpoly
from bbcharpoly.poly import FactorizationError, FieldPoly, factor
from bbcharpoly.sms import emit_sms

from helpers import (
    dense_invariant_factors,
    linear,
    planted_primary_form,
    rand_irreducible,
    random_census_instance,
    random_sparse_matrix,
)


def diag(values, p):
    return SparseMatrix(len(values), [(i, i, v % p) for i, v in enumerate(values) if v % p])


class TestNullityCombSearch:
    def test_planted_example(self):
        p = 101
        A, mults = planted_primary_form(
            [(linear(1, p), {2: 1, 1: 1}), (linear(2, p), {1: 1})], p
        )
        assert mults == [3, 1]
        op = A.operator(p)
        rng = random.Random(0)
        minpoly = wiedemann_minpoly(op, rng)
        profiles = [FactorProfile(f, e) for f, e in factor(minpoly, rng)]
        cfg = AdaptiveConfig(seed=0)
        got = nullity_comb_search(op, profiles, cfg, rng)
        want = {tuple(linear(1, p).coeffs): 3, tuple(linear(2, p).coeffs): 1}
        for prof, m in zip(profiles, got):
            assert want[tuple(prof.poly.coeffs)] == m

    def test_retry_re_estimates_only_the_first_attempts_nullities(self, monkeypatch):
        # e = 4, 2, 3: the first attempt measures the prefix (X-1, X-2, X-3
        # at power 1, X-1 at power 2) and one extra power of each factor;
        # the retry must re-estimate exactly those, with no new power
        p = 10007
        A, mults = planted_primary_form(
            [(linear(1, p), {4: 1, 1: 1}), (linear(2, p), {2: 1}), (linear(3, p), {3: 1})],
            p,
        )
        op = A.operator(p)
        rng = random.Random(0)
        minpoly = wiedemann_minpoly(op, rng)
        profiles = [FactorProfile(f, e) for f, e in factor(minpoly, rng)]
        assert sorted(prof.minpoly_mult for prof in profiles) == [2, 3, 4]
        log = TraceLog()
        first_attempt = []
        real_search = adaptive.combinatorial_search

        def inconsistent_once(*args, **kwargs):
            if not first_attempt:
                first_attempt.extend(e for e in log.events if e["event"] == "rank")
                raise multiplicity.InconsistentNullityError("stub failure")
            return real_search(*args, **kwargs)

        monkeypatch.setattr(adaptive, "combinatorial_search", inconsistent_once)
        cfg = AdaptiveConfig(seed=0, threshold=5, trace_log=log)
        got = nullity_comb_search(op, profiles, cfg, rng)
        want = {tuple(linear(c, p).coeffs): m for c, m in zip((1, 2, 3), mults)}
        assert [want[tuple(prof.poly.coeffs)] for prof in profiles] == got
        ranks = [e for e in log.events if e["event"] == "rank"]
        retry = ranks[len(first_attempt):]
        first = {(tuple(e["factor"]), e["power"]): e["nullity"] for e in first_attempt}
        assert len(first) == len(first_attempt) == 7
        assert sorted((tuple(e["factor"]), e["power"]) for e in retry) == sorted(first)
        for e in retry:
            assert e["nullity"] <= first[(tuple(e["factor"]), e["power"])]

    def test_random_sparse_vs_oracle(self):
        rng = random.Random(1)
        p = 10007
        A = random_sparse_matrix(50, p, rng)
        cfg = AdaptiveConfig(seed=1, method="nullity-comb")
        cp = blackbox_charpoly_field(A.operator(p), cfg)
        assert cp == dense_charpoly(A.to_dense(), p)


class TestNullityCombLeavesSlotsToSearch:
    """Over GF(p) with p > n, factors with no measured nullity may go to the
    search, whose census determinants then certify; with p <= n they are
    measured."""

    def test_diagonal_with_many_blocks_measures_until_search_is_small(
        self, capsys, tmp_path
    ):
        # six eigenvalues, 40 blocks each: left all to the search, the
        # degree identity alone would allow more than 10^6 censuses
        p, n = 1000003, 240
        A = diag([2 + i // 40 for i in range(n)], p)
        path = tmp_path / "diag.sms"
        path.write_text(emit_sms(A))
        argv = ["charpoly", "--field", str(p), "--method", "nullity-comb"]
        argv += ["--seed", "1", "--output", "json", "--explain", str(path)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["coeffs"] == list(dense_charpoly(A.to_dense(), p).coeffs)
        events = [json.loads(line)["event"] for line in err.splitlines()]
        assert events.count("rank") <= 6

    def test_census_absorbing_a_high_nullity_is_not_returned(self, monkeypatch):
        # (m_a + 1, m_b + 1, m_h - 1) meets the degree and trace identities
        # of the planted (m_a, m_b, m_h) = (1, 1, 2); with nu(X - a) one
        # block too high and X - b, h left to the search, only a determinant
        # tells the two apart
        p, a, b = 1000003, 2, 1
        c = next(c for c in range(1, p) if pow((a + b) ** 2 - 4 * c, (p - 1) // 2, p) == p - 1)
        h = FieldPoly([c, -(a + b), 1], p)
        A, _ = planted_primary_form(
            [(linear(a, p), {1: 1}), (linear(b, p), {1: 1}), (h, {1: 2})], p
        )
        want = linear(a, p) * linear(b, p) * h**2
        real_rank = adaptive.rank_blackbox

        def rank_one_low(op, rng, ceiling=None):
            r = real_rank(op, rng, ceiling=ceiling)
            return r - 1 if op.poly == linear(a, p) else r

        monkeypatch.setattr(adaptive, "rank_blackbox", rank_one_low)
        for seed in range(1, 5):
            log = TraceLog()
            cfg = AdaptiveConfig(seed=seed, method="nullity-comb", threshold=2, trace_log=log)
            try:
                got = charpoly_with_details(A.operator(p), cfg).charpoly
            except adaptive.AdaptiveError:
                got = None
            ranked = {tuple(e["factor"]) for e in log.events if e["event"] == "rank"}
            assert ranked == {linear(a, p).coeffs}, f"seed {seed}"
            assert got in (None, want), f"seed {seed}"
            assert any(e["event"] == "retry" for e in log.events), f"seed {seed}"

    def test_small_field_measures_every_factor(self):
        # over GF(5) with n = 13 > 5 the censuses (1, 9, 1) and (5, 1, 5) of
        # X - 1, X - 2, X - 3 meet the degree and the trace, and their
        # polynomials agree at every lambda in GF(5) (x^4 = 1 there), so
        # only measured nullities tell them apart
        p = 5
        A = diag([0, 0, 1] + [2] * 9 + [3], p)
        want = dense_charpoly(A.to_dense(), p)
        for seed in range(1, 4):
            res = charpoly_with_details(A.operator(p), AdaptiveConfig(seed=seed))
            assert res.method == "nullity-comb", f"seed {seed}"
            assert res.charpoly == want, f"seed {seed}"

    def test_rook_cube_leaves_factors_to_search(self):
        m = symmetric_power(rook_graph(3), 3).adjacency()
        log = TraceLog()
        cfg = AdaptiveConfig(seed=1, method="nullity-comb", trace_log=log)
        assert integer_charpoly(m, cfg) == dense_integer_charpoly(m.to_dense())
        (method,) = [e for e in log.events if e["event"] == "method"]
        ranks = sum(e["event"] == "rank" for e in log.events)
        assert ranks < method["factors"]


class TestInvariantFactor:
    def test_diag112(self):
        p = 101
        rng = random.Random(2)
        op = diag([1, 1, 2], p).operator(p)
        f1 = wiedemann_minpoly(op, rng)
        assert f1 == linear(1, p) * linear(2, p)
        f2 = invariant_factor(op, 2, rng, minpoly=f1, previous=f1)
        assert f2 == linear(1, p)

    def test_companion_second_factor_trivial(self):
        p = 101
        rng = random.Random(3)
        f = rand_irreducible(4, p, rng)
        op = build_companion(f).operator(p)
        f2 = invariant_factor(op, 2, rng, minpoly=f, previous=f)
        assert f2 == FieldPoly.one(p)

    def test_frobenius_construction(self):
        p = 101
        rng = random.Random(4)
        g = linear(3, p) * linear(7, p)
        f = (g * rand_irreducible(2, p, rng)).monic()
        A = block_diagonal([build_companion(f), build_companion(g)])
        op = A.operator(p)
        f1 = wiedemann_minpoly(op, rng)
        assert f1 == f
        f2 = invariant_factor(op, 2, rng, minpoly=f1, previous=f1)
        assert f2 == g

    def test_chain_and_product_sweep(self):
        rng = random.Random(5)
        p = 101
        for _ in range(6):
            n = rng.randrange(4, 18)
            A = random_sparse_matrix(n, p, rng, min_per_row=1, max_per_row=3)
            dense = A.to_dense()
            want = dense_invariant_factors(dense, p)
            op = A.operator(p)
            minpoly = wiedemann_minpoly(op, rng)
            got = [minpoly]
            for j in range(2, len(want) + 1):
                got.append(
                    invariant_factor(op, j, rng, minpoly=minpoly, previous=got[-1])
                )
            assert got == want
            prod = FieldPoly.one(p)
            for fj in got:
                prod = prod * fj
            assert prod == dense_charpoly(dense, p)


class TestDrivers:
    @pytest.mark.parametrize("p", [9, 15, 2, 4, (1 << 31) + 11])
    def test_modulus_checked_before_any_apply(self, p):
        rows = [[1, 2, 0, 0], [0, 3, 1, 0], [5, 0, 0, 1], [0, 0, 7, 2]]
        op = SparseMatrix.from_dense(rows).operator(p)
        with pytest.raises(ValueError, match=f"got {p}$"):
            charpoly_with_details(op, AdaptiveConfig(seed=1))
        assert op.applies == 0

    def test_companion_trivial_path(self):
        rng = random.Random(6)
        p = 10007
        f = rand_irreducible(9, p, rng)
        res = charpoly_with_details(
            build_companion(f).operator(p), AdaptiveConfig(seed=6)
        )
        assert res.charpoly == f
        assert res.method == "trivial"

    def test_planted_jordan_tower(self):
        p = 101
        A, _ = planted_primary_form([(linear(1, p), {3: 1, 2: 1}), (linear(2, p), {1: 1})], p)
        cp = blackbox_charpoly_field(A.operator(p), AdaptiveConfig(seed=7))
        assert cp == (linear(1, p) ** 5 * linear(2, p)).monic()

    def test_random_sparse_auto_vs_oracle(self):
        rng = random.Random(8)
        p = 10007
        A = random_sparse_matrix(60, p, rng)
        cp = blackbox_charpoly_field(A.operator(p), AdaptiveConfig(seed=8))
        assert cp == dense_charpoly(A.to_dense(), p)

    @pytest.mark.parametrize("method", ["nullity-comb", "index", "hybrid", "invfact"])
    def test_all_methods_on_planted_instances(self, method):
        rng = random.Random(9)
        done = 0
        while done < 6:
            A, polys, census, mults, q, p = random_census_instance(rng)
            cfg = AdaptiveConfig(seed=done, method=method)
            cp = blackbox_charpoly_field(A.operator(q), cfg)
            want = FieldPoly.one(q)
            for poly, m in zip(polys, mults):
                want = want * poly**m
            assert cp == want.monic(), f"method={method} q={q}"
            done += 1

    def test_method_unavailable(self):
        # GF(65537): 65536 = 2^16 has no prime factor > n
        p = 65537
        rng = random.Random(10)
        A, _ = planted_primary_form(
            [(linear(1, p), {1: 2}), (linear(2, p), {1: 1})], p
        )
        with pytest.raises(MethodUnavailableError):
            blackbox_charpoly_field(
                A.operator(p), AdaptiveConfig(seed=10, method="index")
            )
        # auto falls back to nullity-comb instead
        cp = blackbox_charpoly_field(A.operator(p), AdaptiveConfig(seed=10))
        assert cp == (linear(1, p) ** 2 * linear(2, p)).monic()

    @pytest.mark.parametrize(
        "module, name, error",
        [
            (multiplicity, "det_blackbox", DetNotCertifiedError),
            (adaptive, "wiedemann_minpoly", MinpolyNotCertifiedError),
            (adaptive, "index_calculus", IndexCalculusFailure),
            (adaptive, "factor", FactorizationError),
            # every other error the driver once listed by name, raised by factor
            (adaptive, "factor", adaptive.AdaptiveError),
            (adaptive, "factor", DetNotCertifiedError),
            (adaptive, "factor", multiplicity.InconsistentNullityError),
            (adaptive, "factor", IndexCalculusFailure),
            (adaptive, "factor", MinpolyNotCertifiedError),
            (adaptive, "factor", multiplicity.NoCandidateError),
            (adaptive, "factor", multiplicity.SearchExplosionError),
        ],
    )
    def test_retries_a_kernel_failure(self, monkeypatch, module, name, error):
        # the first call of the randomized kernel fails; the second attempt
        # draws afresh and must still give the oracle's answer
        real, calls = getattr(module, name), []

        def flaky(*args, **kwargs):
            calls.append(name)
            if len(calls) == 1:
                raise error("stub failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, flaky)
        q, _ = find_index_calculus_field(27)
        A, _ = planted_primary_form(
            [(linear(1, q), {1: 2, 2: 1}), (linear(2, q), {1: 1, 3: 1})], q
        )
        log = TraceLog()
        cp = blackbox_charpoly_field(
            A.operator(q), AdaptiveConfig(seed=3, method="index", trace_log=log)
        )
        assert cp == dense_charpoly(A.to_dense(), q)
        assert [e["event"] for e in log.events].count("retry") == 1
        assert len(calls) > 1

    def test_determinism_under_seed(self):
        rng = random.Random(11)
        q, _ = find_index_calculus_field(24)
        A = random_sparse_matrix(24, q, rng)
        log1, log2 = TraceLog(), TraceLog()
        cp1 = blackbox_charpoly_field(
            A.operator(q), AdaptiveConfig(seed=42, trace_log=log1)
        )
        cp2 = blackbox_charpoly_field(
            A.operator(q), AdaptiveConfig(seed=42, trace_log=log2)
        )
        assert cp1 == cp2
        assert log1.lines() == log2.lines()

    @pytest.mark.parametrize(
        "values, built",
        [
            # f_2 = (X-1)(X-2)(X-3)(X-4) and f_3 = 1: the peel solves all
            ([1, 1, 2, 2, 3, 3, 4, 4], []),
            # f_2 = X-5 leaves X-5 to the discrete-log system
            ([1, 2, 3, 4, 5, 5], [23]),
        ],
    )
    def test_index_builds_a_dlog_context_only_for_a_system(
        self, monkeypatch, tmp_path, capsys, values, built
    ):
        contexts, real_init = [], DlogContext.__init__

        def counted(self, q):
            contexts.append(q)
            real_init(self, q)

        monkeypatch.setattr(DlogContext, "__init__", counted)
        path = tmp_path / "diag.sms"
        path.write_text(emit_sms(diag(values, 23)))
        argv = ["multiplicities", "--field", "23", "--method", "index", "--seed", "2"]
        assert main([*argv, "--explain", str(path)]) == 0
        out, err = capsys.readouterr()
        want = [f"{values.count(v)}\t1\t1\tX-{v}" for v in sorted(set(values))]
        assert out.splitlines() == want
        events = [json.loads(line)["event"] for line in err.splitlines()]
        assert ("ic-solved" in events) == bool(built)
        assert contexts == built

    def test_cayley_hamilton_spot_check(self):
        rng = random.Random(12)
        p = 101
        A, _ = planted_primary_form(
            [(rand_irreducible(2, p, rng), {2: 1}), (linear(5, p), {1: 2})], p
        )
        op = A.operator(p)
        cp = blackbox_charpoly_field(op, AdaptiveConfig(seed=12))
        evaluated = PolyOfMatrix(op, cp)
        for _ in range(5):
            assert not evaluated.apply(random_vector(op.dimension, p, rng)).any()


class TestHybrid:
    def test_all_degree_one_mult_one(self):
        # pure nullity path: s = 0, no system
        q, _ = find_index_calculus_field(9)
        rng = random.Random(13)
        A, mults = planted_primary_form(
            [(linear(2, q), {1: 4}), (linear(3, q), {1: 3}), (linear(5, q), {1: 2})],
            q,
        )
        op = A.operator(q)
        minpoly = wiedemann_minpoly(op, rng)
        profiles = [FactorProfile(f, e) for f, e in factor(minpoly, rng)]
        cfg = AdaptiveConfig(seed=13)
        got = hybrid_multiplicities(op, profiles, cfg, rng)
        want = {(-2 % q, 1): 4, (-3 % q, 1): 3, (-5 % q, 1): 2}
        for prof, m in zip(profiles, got):
            assert want[prof.poly.coeffs] == m

    def test_mixed_degrees_vs_oracle(self):
        rng = random.Random(14)
        # two degree-3 factors and three degree-1 factors, n = 30
        shape_list = [(3, {1: 2}), (3, {2: 1}), (1, {1: 6}), (1, {2: 2}), (1, {1: 8})]
        n = sum(d * sum(j * c for j, c in counts.items()) for d, counts in shape_list)
        assert n == 30
        q, _ = find_index_calculus_field(n)
        polys = []
        while len(polys) < len(shape_list):
            f = rand_irreducible(shape_list[len(polys)][0], q, rng)
            if f not in polys:
                polys.append(f)
        blocks = [(f, counts) for f, (_, counts) in zip(polys, shape_list)]
        A, mults = planted_primary_form(blocks, q)
        op = A.operator(q)
        minpoly = wiedemann_minpoly(op, rng)
        profiles = [FactorProfile(f, e) for f, e in factor(minpoly, rng)]
        cfg = AdaptiveConfig(seed=14)
        got = hybrid_multiplicities(op, profiles, cfg, rng)
        want = {f.coeffs: m for f, m in zip(polys, mults)}
        for prof, m in zip(profiles, got):
            assert want[prof.poly.coeffs] == m
        cp = dense_charpoly(A.to_dense(), q)
        got_cp = FieldPoly.one(q)
        for prof, m in zip(profiles, got):
            got_cp = got_cp * prof.poly**m
        assert got_cp == cp


def brute_force_assignments(shapes, budget):
    """Every tuple over the ranges e_i .. budget // d_i, filtered by degree."""
    ranges = [range(e, budget // d + 1) for d, e in shapes]
    return [
        t
        for t in itertools.product(*ranges)
        if sum(d * m for (d, _), m in zip(shapes, t)) <= budget
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), max_size=4),
    st.integers(0, 24),
    st.integers(0, 300),
)
def test_enumerated_assignments_equal_brute_force(shapes, budget, cap):
    got = _enumerate_assignments(shapes, budget, cap)
    # the enumeration gives up once the prefixes of some length >= 1
    # outnumber cap
    prefixes = range(1, len(shapes) + 1)
    widest = max(
        (len(brute_force_assignments(shapes[:k], budget)) for k in prefixes), default=0
    )
    if widest > cap:
        assert got is None
    else:
        assert got == brute_force_assignments(shapes, budget)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=5),
    st.integers(0, 24),
    st.integers(0, 12),
    st.integers(0, 300),
)
def test_enumeration_overflow_carries_to_larger_splits(shapes, budget, extra, cap):
    # hybrid's split s + 1 enumerates the shapes of split s plus one, under a
    # budget at least as large, so it stops at the first split that overflows
    if _enumerate_assignments(shapes[:-1], budget, cap) is None:
        assert _enumerate_assignments(shapes, budget + extra, cap) is None


class TestInvfactDriver:
    def test_resolves_everything(self):
        p = 101
        rng = random.Random(15)
        A, mults = planted_primary_form(
            [(linear(1, p), {2: 2}), (linear(3, p), {1: 3})], p
        )
        op = A.operator(p)
        minpoly = wiedemann_minpoly(op, rng)
        profiles = [FactorProfile(f, e) for f, e in factor(minpoly, rng)]
        got = invfact_multiplicities(op, profiles, AdaptiveConfig(seed=15), rng)
        want = {(-1 % p, 1): 4, (-3 % p, 1): 3}
        for prof, m in zip(profiles, got):
            assert want[prof.poly.coeffs] == m


class TestOracleProperty:
    """Every method against the dense oracle on drawn instances."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), planted=st.booleans())
    def test_every_method_equals_dense_charpoly(self, seed, planted):
        rng = random.Random(seed)
        if planted:
            A, _, _, _, q, _ = random_census_instance(rng)
        else:
            n = rng.randrange(1, 25)
            q, _ = find_index_calculus_field(n, rng)
            A = random_sparse_matrix(n, q, rng)
        want = dense_charpoly(A.to_dense(), q)
        for method in adaptive.METHODS:
            cfg = AdaptiveConfig(method=method, seed=rng.randrange(1 << 32))
            assert blackbox_charpoly_field(A.operator(q), cfg) == want, method


class TestPinnedWork:
    """Exact apply counts of fixed-seed runs.

    The counts were recorded once.  In this small field a projection or a
    determinant fails often enough that the count depends on the values
    drawn, so a change that adds, drops or reorders a random draw moves
    some of them even when every characteristic polynomial stays right.
    """

    SEEDS = range(1, 7)
    APPLIES = {  # (form, method) -> applies of the matrix, one per seed
        (0, "auto"): [249, 251, 251, 251, 251, 251],
        (0, "nullity-comb"): [242, 244, 244, 244, 244, 244],
        (0, "index"): [249, 251, 251, 251, 251, 251],
        (0, "hybrid"): [122, 124, 124, 124, 124, 124],
        (0, "invfact"): [291, 293, 293, 322, 293, 380],
        (1, "auto"): [422, 316, 263, 261, 446, 316],
        (1, "nullity-comb"): [833, 833, 833, 831, 831, 833],
        (1, "index"): [422, 316, 263, 261, 446, 316],
        (1, "hybrid"): [320, 320, 320, 318, 318, 320],
        (1, "invfact"): [422, 316, 263, 261, 446, 316],
    }

    @staticmethod
    def forms(q):
        # form 0: auto picks index with a discrete-log system, hybrid
        # enumerates assignments; form 1: nine non-cheap factors, so hybrid
        # solves a discrete-log system for each enumerated assignment
        yield [
            (linear(1, q), {1: 1}),
            (linear(2, q), {1: 1}),
            (linear(3, q), {1: 2, 2: 1}),
            (linear(4, q), {2: 1}),
            (linear(5, q), {1: 1, 3: 1}),
            (linear(6, q), {1: 3}),
        ]
        yield [(linear(a, q), {1: 1, 2: 1}) for a in range(1, 10)]

    @pytest.mark.parametrize("method", ["auto", "nullity-comb", "index", "hybrid", "invfact"])
    def test_charpoly_and_apply_count(self, method):
        q, _ = find_index_calculus_field(27)
        for form, census in enumerate(self.forms(q)):
            A, mults = planted_primary_form(census, q)
            want = FieldPoly.one(q)
            for (poly, _), m in zip(census, mults):
                want = want * poly**m
            applies = []
            for seed in self.SEEDS:
                op = A.operator(q)
                res = charpoly_with_details(op, AdaptiveConfig(seed=seed, method=method))
                assert res.charpoly == want, f"form {form} seed {seed}"
                applies.append(op.applies)
            assert applies == self.APPLIES[form, method], f"form {form}"
