"""Property tests of the polynomial kernels against the plain loops they replace.

p = 2^31 - 1 makes every convolution whose shorter operand has more than 2
coefficients, and every Frobenius matrix-vector product of degree above 2,
take the 16-bit split path; it never takes the float64 Frobenius build.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bbcharpoly.ff import is_prime, next_prime
from bbcharpoly.poly import (
    _ARRAY_FIXED_STEPS,
    _ARRAY_STEPS_PER_COEFF,
    _FLOAT_FROBENIUS_MIN_N,
    _NEWTON_WORK,
    _NEWTON_WORK_SPLIT,
    _REDUCTION_MAX_N,
    FieldPoly,
    IntPoly,
    _bezout_mod_p,
    _distinct_degree,
    _divmod_arrays,
    _euclid_remainder,
    _float_sum_fits,
    _frobenius,
    _frobenius_matrix,
    _imul_lists,
    _lazy_sum_fits,
    _long_division,
    _Modulus,
    _reduction_matrix,
    conv_mod,
    factor,
    gcd_free_basis,
    poly_gcd,
    product_of_powers,
)
from helpers import (
    distinct_irreducibles,
    is_irreducible,
    pow_mod,
    rand_irreducible,
    reference_gcd_free_basis,
    schoolbook_product,
)

PRIMES = (3, 101, 65537, 1000003, (1 << 31) - 1)
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def field_polys(draw, p, min_degree=0, max_degree=60):
    """A polynomial over GF(p) of degree in [min_degree, max_degree], max_degree < p."""
    d = draw(st.integers(min_degree, min(max_degree, p - 1)))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    lead = draw(st.integers(1, p - 1))
    return FieldPoly(coeffs + [lead], p)


@st.composite
def modulus_and_pair(draw):
    p = draw(st.sampled_from(PRIMES))
    f = draw(field_polys(p, min_degree=1))
    a = draw(field_polys(p, max_degree=f.degree - 1)) % f
    b = draw(field_polys(p, max_degree=f.degree - 1)) % f
    return f, a, b


def reference_gcd(f, g):
    a, b = list(f.coeffs), list(g.coeffs)
    while b:
        a, b = b, _long_division(a, b, f.p)[1]
    return FieldPoly(a, f.p).monic()


def reference_pow(h, e, f):
    result = FieldPoly.one(f.p) % f
    while e:
        if e & 1:
            result = (result * h) % f
        h = (h * h) % f
        e >>= 1
    return result


class TestFixedModulus:
    @SETTINGS
    @given(modulus_and_pair())
    def test_product_remainder_matches_long_division(self, case):
        f, a, b = case
        m = _Modulus(f)
        product = (a * b).coeffs
        want = _long_division(product, f.coeffs, f.p)[1]
        assert m.poly(m.mul(m.vector(a), m.vector(b))).coeffs == tuple(want)

    @SETTINGS
    @given(modulus_and_pair())
    def test_frobenius_is_pth_power(self, case):
        f, h, _ = case
        if f.degree < 2:
            return
        m = _Modulus(f)
        got = m.poly(_frobenius(m)(m.vector(h)))
        assert got == reference_pow(h, f.p, f)


def largest_lazy_prime(n):
    """The largest prime p with n * (p - 1)^2 < 2^63, for n >= 3."""
    p = math.isqrt(((1 << 63) - 1) // n) + 1
    while not is_prime(p):
        p -= 1
    return p


def reduced_product(u, v, f):
    """u * v mod f by a schoolbook product and `_long_division`."""
    return _long_division(schoolbook_product(u, v), list(f.coeffs), f.p)[1]


class TestReductionMatrix:
    """`_Modulus.mul` by the reduction matrix R against a schoolbook
    product reduced by `_long_division`, and the rule that picks R.

    Each case also multiplies the all-(p - 1) vectors.  p = 2^31 - 1 and
    the next prime above the lazy-sum edge take the two convolutions.
    """

    def check(self, data, p, n):
        f = FieldPoly(data.draw(coefficient_lists(p, n)) + [1], p)
        m = _Modulus(f)
        assert (m.R is not None) == (n <= _REDUCTION_MAX_N and _lazy_sum_fits(n, p))
        u, v = (
            data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
            for _ in "uv"
        )
        for a, b in ((u, v), ([p - 1] * n, [p - 1] * n)):
            got = m.mul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
            assert list(m.poly(got).coeffs) == reduced_product(a, b, f)
        return m

    @SETTINGS
    @given(st.data())
    def test_both_sides_of_the_crossover(self, data):
        p = data.draw(st.sampled_from([3, 227, 1000003]))
        c = _REDUCTION_MAX_N
        edge = st.sampled_from([c - 1, c, c + 1, c + 9])
        n = data.draw(st.one_of(st.integers(1, 40), edge))
        self.check(data, p, n)

    @SETTINGS
    @given(st.data(), st.integers(3, 40), st.booleans())
    def test_lazy_sum_edge(self, data, n, above):
        edge = largest_lazy_prime(n)
        assert _lazy_sum_fits(n, edge) and not _lazy_sum_fits(n, next_prime(edge))
        m = self.check(data, next_prime(edge) if above else edge, n)
        assert (m.R is None) == above

    @SETTINGS
    @given(st.data(), st.integers(1, 40))
    def test_large_prime(self, data, n):
        # two products of residues mod 2^31 - 1 fit int64, three do not
        assert (self.check(data, M31, n).R is None) == (n > 2)

    @SETTINGS
    @given(st.data())
    def test_rows_are_powers_of_x(self, data):
        # float64 BLAS builds R while n * (p - 1)^2 < 2^53, int64 beyond
        p = data.draw(st.sampled_from([227, 1000003, 25782653]))
        n = data.draw(st.integers(1, 70))
        f = FieldPoly(data.draw(coefficient_lists(p, n)) + [1], p)
        R = _reduction_matrix(_Modulus(f).low, p)
        assert R.dtype == np.int64 and R.shape == (n - 1, n)
        for j, row in enumerate(R.tolist()):
            want = _long_division([0] * (n + j) + [1], list(f.coeffs), p)[1]
            assert row == want + [0] * (n - len(want))


M31 = (1 << 31) - 1


def reference_rows(m):
    """The Frobenius matrix row by row: X^(ip) mod f = X^((i-1)p) * X^p mod f."""
    n = m.n
    x = np.zeros(n, dtype=np.int64)
    x[1] = 1
    Q = np.zeros((n, n), dtype=np.int64)
    Q[0, 0] = 1
    Q[1] = m.pow(x, m.p)
    for i in range(2, n):
        Q[i] = m.mul(Q[i - 1], Q[1])
    return Q


P24 = (1 << 24) - 3  # the largest n with n * (p - 1)^2 < 2^53 is 32


class TestFloatFrobenius:
    """The float64 Frobenius build against the int64 rows, Q and its products.

    Each case also applies the map to a random vector and to the all-(p - 1)
    vector, whose products are the largest any vector gives.
    """

    def check(self, data, p, n):
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        m = _Modulus(FieldPoly(coeffs + [1], p))
        Q, want = _frobenius_matrix(m), reference_rows(m)
        assert np.array_equal(Q, want)
        frobenius = _frobenius(m)
        h = np.array(
            data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        for v in (h, np.full(n, p - 1, dtype=np.int64)):
            got = frobenius(v)
            assert got.dtype == np.int64
            # a Python-int product: no int64 or float64 rounding to share
            assert got.tolist() == [
                sum(int(a) * int(b) for a, b in zip(v, col)) % p for col in want.T
            ]
        return Q

    @SETTINGS
    @given(st.data())
    def test_both_sides_of_the_crossover(self, data):
        p = data.draw(st.sampled_from([47, 227, 65537, 1000003]))
        c = _FLOAT_FROBENIUS_MIN_N
        n = data.draw(st.sampled_from([2, 3, c - 1, c, c + 1, 2 * c + 1, 40]))
        Q = self.check(data, p, n)
        assert (Q.dtype == np.float64) == (n >= c)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_large_degree(self, data):
        # isqrt(n) rows by M, then blocks by G, with a short last block
        n = data.draw(st.sampled_from([99, 120, 130]))
        assert self.check(data, 1000003, n).dtype == np.float64

    @SETTINGS
    @given(st.data(), st.sampled_from([32, 33]))
    def test_float_rule_edge(self, data, n):
        assert _float_sum_fits(32, P24) and not _float_sum_fits(33, P24)
        Q = self.check(data, P24, n)
        assert (Q.dtype == np.float64) == (n == 32)

    @SETTINGS
    @given(st.data())
    def test_large_prime_takes_int64(self, data):
        n = data.draw(st.integers(_FLOAT_FROBENIUS_MIN_N, 40))
        assert self.check(data, M31, n).dtype == np.int64


class TestEuclidStep:
    """`_euclid_remainder` on a dividend one coefficient longer than the
    divisor, against `_long_division`.

    a = (q1 X + q0) * b + r with r drawn shorter than b, down to a few
    coefficients or none, so the remainder can drop several degrees.
    """

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_long_division(self, data):
        p = data.draw(st.sampled_from([3, 1000003, M31]))
        len_b = data.draw(st.integers(2, 130))
        b = data.draw(coefficient_lists(p, len_b))
        q = data.draw(coefficient_lists(p, 2))
        r = data.draw(coefficient_lists(p, data.draw(st.integers(0, len_b - 1))))
        a = list((FieldPoly(q, p) * FieldPoly(b, p) + FieldPoly(r, p)).coeffs)
        got = _euclid_remainder(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
        assert got.tolist() == _long_division(a, b, p)[1] == r


def coefficient_lists(p, length):
    """A stripped coefficient list of exactly ``length`` entries mod p."""
    if length == 0:
        return st.just([])
    return st.tuples(
        st.lists(st.integers(0, p - 1), min_size=length - 1, max_size=length - 1),
        st.integers(1, p - 1),
    ).map(lambda t: t[0] + [t[1]])


class TestDivision:
    """divmod, // and % at each kernel edge against `_long_division`.

    Each case also divides with `_divmod_arrays` directly, so the
    recurrence/Newton edge is met whichever side of the list/array cutoff
    the division falls on.  p = 2^31 - 1 takes the split convolutions.
    """

    PRIMES = (3, 101, 1000003, (1 << 31) - 1)

    def check(self, data, len_a, len_b, p=None):
        if p is None:
            p = data.draw(st.sampled_from(self.PRIMES))
        a = data.draw(coefficient_lists(p, len_a))
        b = data.draw(coefficient_lists(p, len_b))
        q, r = _long_division(a, b, p)
        f, g = FieldPoly(a, p), FieldPoly(b, p)
        assert divmod(f, g) == (FieldPoly(q, p), FieldPoly(r, p))
        assert f // g == FieldPoly(q, p)
        assert f % g == FieldPoly(r, p)
        av, bv = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        qv, rv = _divmod_arrays(av, bv, p)
        assert (qv.tolist(), rv.tolist()) == (q, r)

    @SETTINGS
    @given(st.data())
    def test_list_array_cutoff(self, data):
        # the divisor lengths around m * (len b - k) = w, for a quotient of m
        k, w = _ARRAY_STEPS_PER_COEFF, _ARRAY_FIXED_STEPS
        m = data.draw(st.sampled_from([1, 2, 8, 31, 33, 64, 65, 200]))
        edge = k + -(-w // m)  # the shortest divisor that takes arrays
        len_b = data.draw(st.sampled_from([edge - 1, edge, edge + 1]))
        self.check(data, m + len_b - 1, len_b)

    @SETTINGS
    @given(st.data())
    def test_recurrence_newton_cutoff(self, data):
        # the divisor lengths around m * min(m, len b) = w, for a quotient of
        # m, where w is the edge of the split regime at p = 2^31 - 1
        p = data.draw(st.sampled_from(self.PRIMES))
        m = data.draw(st.sampled_from([31, 32, 33, 64, 65, 200]))
        w = _NEWTON_WORK if _lazy_sum_fits(m, p) else _NEWTON_WORK_SPLIT
        edge = -(-w // m)  # the shortest divisor that takes Newton
        len_b = data.draw(st.sampled_from([edge - 1, edge, edge + 1, 2 * m]))
        self.check(data, m + len_b - 1, len_b, p)

    @SETTINGS
    @given(st.data())
    def test_divisor_shorter_than_quotient(self, data):
        # rev(b) has fewer terms than the quotient and is padded with zeros
        len_b = data.draw(st.integers(1, 8))
        m = data.draw(st.integers(len_b + 1, 2 * _NEWTON_WORK_SPLIT // len_b))
        self.check(data, m + len_b - 1, len_b)

    @SETTINGS
    @given(st.data())
    def test_no_quotient(self, data):
        len_b = data.draw(st.integers(1, 2 * _ARRAY_FIXED_STEPS))
        self.check(data, data.draw(st.integers(0, len_b - 1)), len_b)


class TestGcd:
    @SETTINGS
    @given(st.data())
    def test_divides_both_and_matches_list_euclid(self, data):
        p = data.draw(st.sampled_from(PRIMES))
        common = data.draw(field_polys(p, max_degree=20))
        f = common * data.draw(field_polys(p, max_degree=40))
        g = common * data.draw(field_polys(p, max_degree=40))
        d = poly_gcd(f, g)
        assert (f % d).is_zero and (g % d).is_zero
        assert d == reference_gcd(f, g)
        assert common.degree <= d.degree


class TestFactor:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_expands_to_input_with_irreducible_factors(self, data):
        p = data.draw(st.sampled_from(PRIMES))
        f = data.draw(field_polys(p, min_degree=1))
        if data.draw(st.booleans()) and 2 * f.degree < p and f.degree <= 30:
            f = f * f
        fac = factor(f, random.Random(data.draw(st.integers(0, 2**32))))
        assert product_of_powers(fac, FieldPoly([f.coeffs[-1]], p)) == f
        assert all(is_irreducible(g) for g, _ in fac)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([p for p in PRIMES if p > 60]),
        st.integers(1, 6),
        st.integers(2, 4),
        st.integers(0, 2**32),
    )
    def test_distinct_same_degree_irreducibles(self, p, d, count, seed):
        # count irreducibles of degree d found at step d shrink the part
        # that the later gcds run against; two of degree 2d + 1 stay behind
        rng = random.Random(seed)
        planted = set()
        for degree, k in ((d, count), (2 * d + 1, 2)):
            want = len(planted) + k
            for _ in range(50 * k):
                if len(planted) == want:
                    break
                planted.add(rand_irreducible(degree, p, rng))
        f = FieldPoly.one(p)
        for g in planted:
            f = f * g
        fac = factor(f, rng)
        assert {g for g, _ in fac} == planted
        assert all(e == 1 for _, e in fac)


def reference_distinct_degree(f):
    """The per-degree loop: one gcd(v, X^(p^d) - X) for every degree d."""
    p = f.p
    parts = []
    v = f
    d = 0
    if f.degree >= 2:
        m = _Modulus(f)
        frobenius = _frobenius(m)
        x = FieldPoly.x(p)
        h = m.vector(x)
        while v.degree >= 2 * (d + 1):
            d += 1
            h = frobenius(h)
            g = poly_gcd(v, m.poly(h) - x)
            if g.degree > 0:
                parts.append((g, d))
                v = v // g
    if v.degree > 0:
        parts.append((v, v.degree))
    return parts


def planted(degrees, p, seed):
    """Product of distinct random monic irreducibles of the given degrees."""
    rng = random.Random(seed)
    factors = set()
    for d in degrees:
        want = len(factors) + 1
        while len(factors) < want:
            factors.add(rand_irreducible(d, p, rng))
    f = FieldPoly.one(p)
    for g in factors:
        f = f * g
    return f


def block_size(f):
    return max(1, math.isqrt(f.degree // 2))


class TestDistinctDegreeBlocks:
    """Blocked splitting gives the parts of the per-degree loop, in its order."""

    LARGE = [p for p in PRIMES if p > 60]
    seeds = st.integers(0, 2**32)

    def check(self, degrees, p, seed):
        f = planted(degrees, p, seed)
        assert _distinct_degree(f) == reference_distinct_degree(f)
        return f

    @SETTINGS
    @given(st.sampled_from(LARGE), st.integers(2, 12), seeds)
    def test_all_linear_block_product_is_zero(self, p, count, seed):
        f = self.check([1] * count, p, seed)
        # X^p = X mod f, so h_1 - X and the first block's product are 0
        assert pow_mod(FieldPoly.x(p), p, f) == FieldPoly.x(p)

    @SETTINGS
    @given(st.sampled_from(LARGE), st.integers(1, 2), seeds)
    def test_degrees_e_and_2e_in_one_block(self, p, e, seed):
        linear = 8 * e * e - 3 * e
        f = self.check([e, 2 * e] + [1] * linear, p, seed)
        assert 2 * e <= block_size(f)

    @SETTINGS
    @given(st.sampled_from(LARGE), st.integers(2, 4), st.integers(0, 3), seeds)
    def test_factors_on_both_sides_of_a_block_edge(self, p, edge, extra, seed):
        linear = 2 * edge * edge - 2 * edge - 1 + extra
        f = self.check([edge, edge + 1] + [1] * linear, p, seed)
        assert block_size(f) == edge

    @SETTINGS
    @given(st.sampled_from(LARGE), st.integers(1, 30), seeds)
    def test_single_irreducible(self, p, d, seed):
        f = self.check([d], p, seed)
        assert _distinct_degree(f) == [(f, d)]

    @SETTINGS
    @given(st.sampled_from(LARGE), st.integers(1, 3), st.integers(1, 3), seeds)
    def test_degrees_two_and_three(self, p, twos, threes, seed):
        self.check([2] * twos + [3] * threes, p, seed)

    @SETTINGS
    @given(st.lists(st.integers(1, 8), min_size=1, max_size=8), seeds)
    def test_split_frobenius_products(self, degrees, seed):
        # at p = 2^31 - 1 every Frobenius product of degree above 2 splits
        self.check(degrees, (1 << 31) - 1, seed)


def reference_irreducible(f):
    """Rabin's test with square-and-multiply powers of X."""
    p, d = f.p, f.degree
    x = FieldPoly.x(p)
    h = x % f
    powers = [h]
    for _ in range(d):
        h = reference_pow(h, p, f)
        powers.append(h)
    if powers[d] != x % f:
        return False
    r = 2
    rest = d
    while rest > 1:
        if rest % r == 0:
            if poly_gcd(f, powers[d // r] - x).degree != 0:
                return False
            while rest % r == 0:
                rest //= r
        r += 1
    return True


@SETTINGS
@given(st.data())
def test_is_irreducible_matches_rabin_with_powers(data):
    p = data.draw(st.sampled_from(PRIMES))
    f = data.draw(field_polys(p, min_degree=2, max_degree=8))
    assert is_irreducible(f) == reference_irreducible(f)


@SETTINGS
@given(st.sampled_from((3, 5, 7, 101, 1000003)), st.data())
def test_bezout_pair_meets_the_hensel_degree_bounds(p, data):
    # the Hensel step takes s*g + t*h = 1 with deg s < deg h and
    # deg t < deg g, for coprime g and h of degree at least 1
    def poly():
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=12))
        return FieldPoly(coeffs + [data.draw(st.integers(1, p - 1))], p)

    g, h = poly(), poly()
    assume(poly_gcd(g, h).degree == 0)
    s, t = _bezout_mod_p(g, h)
    assert s * g + t * h == FieldPoly.one(p)
    assert s.degree < h.degree and t.degree < g.degree


@SETTINGS
@given(st.sampled_from((3, 5, 101, 65537)), st.data())
def test_grouping_is_the_pairwise_gcd_refinement(p, data):
    # planted irreducible factors P with exponent e in the minimal polynomial
    # and multiplicity m >= e; few exponents, so groups of several factors
    # are common.  The pairwise-gcd refinement of (squarefree part, minimal
    # polynomial, characteristic polynomial), with the exponents of the
    # characteristic polynomial, is the same basis.
    k = data.draw(st.integers(1, 5))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    polys = distinct_irreducibles(k, 3, p, rng)
    factors = []
    for f in polys:
        e = data.draw(st.integers(1, 2))
        factors.append((f, e, e + data.draw(st.integers(0, 2))))
    one = FieldPoly.one(p)
    S = product_of_powers(((f, 1) for f, _, _ in factors), one)
    M = product_of_powers(((f, e) for f, e, _ in factors), one)
    C = product_of_powers(((f, m) for f, _, m in factors), one)
    assert gcd_free_basis(factors) == reference_gcd_free_basis([S, M, C], C)


class TestRingMethods:
    """The ring methods FieldPoly and IntPoly share commute with reduction.

    Coefficients include multiples of p, so sums, negations and derivatives
    must strip the leading terms that vanish mod p.
    """

    @staticmethod
    def ints(p):
        return st.integers(-(1 << 40), 1 << 40) | st.integers(-3, 3).map(lambda k: k * p)

    def int_polys(self, p):
        return st.lists(self.ints(p), max_size=8).map(IntPoly)

    @SETTINGS
    @given(st.data())
    def test_commute_with_reduce(self, data):
        p = data.draw(st.sampled_from((3, 101, (1 << 31) - 1)))
        f, g = data.draw(self.int_polys(p)), data.draw(self.int_polys(p))
        e = data.draw(st.integers(0, 4))
        c = data.draw(self.ints(p))
        fp, gp = f.reduce(p), g.reduce(p)
        pairs = [
            ((f + g).reduce(p), fp + gp),
            ((f - g).reduce(p), fp - gp),
            ((-f).reduce(p), -fp),
            ((f**e).reduce(p), fp**e),
            (f.derivative().reduce(p), fp.derivative()),
            ((c + f).reduce(p), c + fp),
            ((f - c).reduce(p), fp - c),
        ]
        for want, got in pairs:
            assert got == want and hash(got) == hash(want)
            assert got.p == p and all(0 <= x < p for x in got.coeffs)
            assert not got.coeffs or got.coeffs[-1] != 0
        assert (f == c) == (f.coeffs == ((c,) if c else ()))
        if f == c:
            assert fp == c
        # over GF(p) an int compares by its residue
        assert (fp == c) == (fp.coeffs == ((c % p,) if c % p else ()))
        assert (fp == c) == (fp == c + 7 * p)

    @SETTINGS
    @given(st.data())
    def test_equal_polynomials_hash_equal(self, data):
        p = data.draw(st.sampled_from((3, 101, (1 << 31) - 1)))
        f, g = data.draw(self.int_polys(p)), data.draw(self.int_polys(p))
        assert f + g == g + f and hash(f + g) == hash(g + f)
        assert IntPoly(list(f.coeffs) + [0, 0]) == f
        assert hash(IntPoly(list(f.coeffs) + [0, 0])) == hash(f)
        fp, gp = f.reduce(p), g.reduce(p)
        assert fp + gp == gp + fp and hash(fp + gp) == hash(gp + fp)
        shifted = FieldPoly([x + p for x in f.coeffs], p)
        assert shifted == fp and hash(shifted) == hash(fp)


@st.composite
def int_lists(draw, max_size=130, max_bits=1113):
    """A signed coefficient list, about half zeros, of at most max_bits bits."""
    size = draw(st.integers(0, max_size))
    bits = draw(st.integers(0, max_bits))
    coeff = st.just(0) | st.integers(-(1 << bits), 1 << bits)
    return draw(st.lists(coeff, min_size=size, max_size=size))


@st.composite
def extreme_lists(draw, max_size=130, max_bits=1113):
    """A list whose coefficients are all -2^k or 2^k - 1 for one k: the
    largest product coefficients that k and the length allow."""
    size = draw(st.integers(1, max_size))
    k = draw(st.integers(0, max_bits))
    coeff = st.sampled_from((-(1 << k), (1 << k) - 1))
    return draw(st.lists(coeff, min_size=size, max_size=size))


class TestIntegerProduct:
    """`_imul_lists` (one Kronecker product) against the schoolbook loop.

    Lengths reach 130 on either side and coefficients 1,113 bits, the
    Hensel lift's precision at n = 1,820.
    """

    @settings(max_examples=100, deadline=None)
    @given(int_lists(), int_lists())
    @example([], [5])
    @example([3], [])
    @example([-7], [0, 0, -1 << 200, 1])
    @example([0] * 70, [1] * 65)
    def test_matches_schoolbook(self, a, b):
        assert _imul_lists(a, b) == schoolbook_product(a, b)

    @settings(max_examples=100, deadline=None)
    @given(extreme_lists(), extreme_lists())
    @example([-(1 << 7)] * 2, [-(1 << 7)] * 2)  # 2^15 needs 17 signed bits
    def test_slot_boundary(self, a, b):
        assert _imul_lists(a, b) == schoolbook_product(a, b)


class TestConvolutionBound:
    P = (1 << 31) - 1
    # the shortest operand length at which a split sum can reach 2^63
    LIMIT = -(-(1 << 63) // ((P - 1) * 0xFFFF))

    @pytest.fixture
    def convolve_calls(self, monkeypatch):
        calls = []

        def fake(a, b):
            calls.append((len(a), len(b)))
            return np.zeros(len(a) + len(b) - 1, dtype=np.int64)

        monkeypatch.setattr(np, "convolve", fake)
        return calls

    def test_limit_is_near_two_to_the_sixteen(self):
        assert self.LIMIT == (1 << 16) + 2

    def test_raises_at_the_bound_before_convolving(self, convolve_calls):
        z = np.zeros(self.LIMIT, dtype=np.int64)
        with pytest.raises(OverflowError):
            conv_mod(z, z, self.P)
        assert convolve_calls == []

    def test_splits_below_the_bound(self, convolve_calls):
        z = np.zeros(self.LIMIT - 1, dtype=np.int64)
        out = conv_mod(z, np.zeros(self.LIMIT + 5, dtype=np.int64), self.P)
        assert len(out) == 2 * self.LIMIT + 3
        assert len(convolve_calls) == 2  # the two 16-bit halves

    @pytest.mark.parametrize("short, calls", [(2, 1), (3, 2)])
    def test_unsplit_while_the_lazy_sum_fits(self, monkeypatch, short, calls):
        # An output entry sums `short` products of (p - 1)^2: 2 of them fit
        # int64 at p = 2^31 - 1 and 3 do not, whatever the longer length.
        real, seen = np.convolve, []

        def counting(a, b):
            seen.append((len(a), len(b)))
            return real(a, b)

        monkeypatch.setattr(np, "convolve", counting)
        p, long = self.P, 9
        for a, b in ((short, long), (long, short)):
            seen.clear()
            av = np.full(a, p - 1, dtype=np.int64)
            bv = np.array([p - 1 - i for i in range(b)], dtype=np.int64)
            want = [
                sum(int(av[i]) * int(bv[k - i]) for i in range(a) if 0 <= k - i < b) % p
                for k in range(a + b - 1)
            ]
            assert conv_mod(av, bv, p).tolist() == want
            assert len(seen) == calls
