import functools
import hashlib
import operator
import random

import pytest

from bbcharpoly import poly
from bbcharpoly.cli import main
from bbcharpoly.ff import next_prime
from bbcharpoly.poly import (
    BadPrimeError,
    FieldPoly,
    IntPoly,
    _lift_tree,
    _mod_coeffs,
    crt_combine,
    factor,
    gcd_free_basis,
    hensel_lift_basis,
    poly_gcd,
    poly_lcm,
    pow_mod,
    product_of_powers,
    squarefree_part,
)

from helpers import is_irreducible


def fp(coeffs, p):
    return FieldPoly(coeffs, p)


def linear(a, p):
    """X - a over GF(p)."""
    return FieldPoly([-a, 1], p)


class TestArithmetic:
    def test_gcd_example(self):
        # GF(5): gcd(X^2-1, X-1) = X-1
        assert poly_gcd(fp([-1, 0, 1], 5), fp([-1, 1], 5)) == fp([-1, 1], 5)

    def test_mod_example(self):
        # GF(7): (X^2+1) mod (X-2) = 5, i.e. the evaluation at 2
        assert fp([1, 0, 1], 7) % fp([-2, 1], 7) == fp([5], 7)

    def test_int_product_example(self):
        assert IntPoly([-1, 1]) * IntPoly([1, 1]) == IntPoly([-1, 0, 1])

    def test_divmod_roundtrip_random(self):
        rng = random.Random(1)
        for p in (101, 10007):
            for _ in range(50):
                a = fp([rng.randrange(p) for _ in range(rng.randrange(1, 30))], p)
                b = fp([rng.randrange(p) for _ in range(rng.randrange(1, 12))], p)
                if b.is_zero:
                    continue
                q, r = divmod(a, b)
                assert q * b + r == a
                assert r.degree < b.degree

    def test_large_prime_multiplication(self):
        # Exercises the 16-bit split path of the convolution.
        p = (1 << 31) - 1  # the Mersenne prime M31, the largest supported modulus
        rng = random.Random(2)
        a = [rng.randrange(p) for _ in range(40)]
        b = [rng.randrange(p) for _ in range(40)]
        from bbcharpoly.poly import _mul_mod_lists

        got = _mul_mod_lists(a, b, p)
        want = [0] * 79
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                want[i + j] = (want[i + j] + ai * bj) % p
        n = len(want)
        while n and want[n - 1] == 0:
            n -= 1
        assert got == want[:n]

    def test_derivative_and_lcm(self):
        f = fp([2, 0, 1], 7)  # X^2 + 2
        assert f.derivative() == fp([0, 2], 7)
        g = linear(1, 7) * linear(2, 7)
        h = linear(2, 7) * linear(3, 7)
        assert poly_lcm(g, h) == (linear(1, 7) * linear(2, 7) * linear(3, 7)).monic()

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            divmod(fp([1, 1], 5), FieldPoly.zero(5))

    def test_mixed_modulus_rejected(self):
        with pytest.raises(ValueError):
            fp([1], 5) + fp([1], 7)

    def test_int_division_requires_monic(self):
        f = IntPoly([0, 0, 2])  # 2X^2
        assert divmod(f, IntPoly([0, 1]))[0] == IntPoly([0, 2])
        with pytest.raises(ValueError):
            divmod(f, IntPoly([0, 2]))  # exact, but 2X is not monic
        with pytest.raises(ValueError):
            divmod(IntPoly([1, 0, 1]), IntPoly([0, 2]))


class TestEvaluation:
    def test_eval_examples(self):
        # GF(11): (X^2 - 3X + 2)(4) = 16 - 12 + 2 = 6
        assert fp([2, -3, 1], 11)(4) == 6
        f = fp([3, 5, 1], 11)
        assert f(0) == 3
        g = IntPoly([-2, 1]) * IntPoly([-1, 1]) ** 4
        assert g(2) == 0
        assert g(1) == 0
        assert g(3) == 16


class TestSquarefree:
    def test_integer_example(self):
        g = IntPoly([-2, 1]) * IntPoly([-1, 1]) ** 4
        assert squarefree_part(g) == IntPoly([2, -3, 1])

    def test_field_example(self):
        assert squarefree_part(linear(1, 7) ** 2) == linear(1, 7)

    def test_fixed_point(self):
        f = linear(1, 101) * linear(5, 101) * fp([1, 1, 1], 101)
        assert squarefree_part(f) == f.monic()

    def test_precondition(self):
        f = fp([0, 1], 5) ** 6  # degree 6 > p = 5
        with pytest.raises(ValueError):
            squarefree_part(f)

    def test_radical_divides(self):
        rng = random.Random(3)
        p = 101
        for _ in range(30):
            f = FieldPoly.one(p)
            for _ in range(rng.randrange(1, 4)):
                f = f * linear(rng.randrange(p), p) ** rng.randrange(1, 4)
            s = squarefree_part(f)
            assert poly_gcd(s, f) == s


class TestFactor:
    def test_example_gf7(self):
        f = fp([-1, 0, 1], 7)  # X^2 - 1
        fac = factor(f, random.Random(0))
        assert set(fac) == {(linear(1, 7), 1), (linear(6, 7), 1)}
        assert product_of_powers(fac, FieldPoly([f.coeffs[-1]], 7)) == f

    def test_example_gf5_splits(self):
        f = fp([1, 0, 1], 5)  # X^2 + 1 = (X-2)(X-3) mod 5
        fac = factor(f, random.Random(0))
        assert set(fac) == {(linear(2, 5), 1), (linear(3, 5), 1)}

    def test_example_gf5_irreducible(self):
        f = fp([-1, -2, 1], 5)  # X^2 - 2X - 1, discriminant 8 = 3 is a non-residue
        assert all(pow(a, 2, 5) != 3 for a in range(5))
        fac = factor(f, random.Random(0))
        assert fac == ((f.monic(), 1),)

    def test_roundtrip_random(self):
        rng = random.Random(4)
        for p, count in ((101, 500), (10007, 500)):
            for _ in range(count):
                deg = rng.randrange(1, 51)
                coeffs = [rng.randrange(p) for _ in range(deg)] + [
                    rng.randrange(1, p)
                ]
                f = fp(coeffs, p)
                fac = factor(f, rng)
                assert product_of_powers(fac, FieldPoly([f.coeffs[-1]], p)) == f
                for poly, mult in fac:
                    assert mult >= 1
                    assert poly.is_monic

    def test_returned_factors_are_irreducible(self):
        rng = random.Random(5)
        p = 101
        for _ in range(25):
            deg = rng.randrange(2, 25)
            f = fp([rng.randrange(p) for _ in range(deg)] + [1], p)
            for poly, _ in factor(f, rng):
                assert is_irreducible(poly)

    def test_multiplicities_recovered(self):
        p = 10007
        rng = random.Random(6)
        f = linear(3, p) ** 4 * fp([1, 1, 1], p) ** 2 * linear(9, p)
        fac = factor(f, rng)
        assert dict(fac) == {
            linear(3, p): 4,
            fp([1, 1, 1], p): 2,
            linear(9, p): 1,
        }


class TestSplitCap:
    """A gcd kernel that never returns a proper factor ends equal-degree
    splitting after 64 draws instead of hanging."""

    @pytest.fixture
    def draws(self, monkeypatch):
        real_gcd, real_split = poly.poly_gcd, poly._equal_degree
        real_draw, drawn = poly._random_poly, []

        def never_splits(a, b):
            g = real_gcd(a, b)
            return g if g.degree in (0, a.degree) else FieldPoly.one(a.p)

        def split_with_faulty_gcd(*args):
            # only equal-degree splitting sees the fake: the lcm inside
            # wiedemann_minpoly keeps the real gcd, so the minimal
            # polynomial it certifies is the true one
            outer, poly.poly_gcd = poly.poly_gcd, never_splits
            try:
                return real_split(*args)
            finally:
                poly.poly_gcd = outer

        def counted(*args):
            drawn.append(args)
            return real_draw(*args)

        monkeypatch.setattr(poly, "_equal_degree", split_with_faulty_gcd)
        monkeypatch.setattr(poly, "_random_poly", counted)
        return drawn

    def test_equal_degree_raises_after_64_draws(self, draws):
        f = linear(1, 101) * linear(2, 101)
        with pytest.raises(poly.FactorizationError):
            poly._equal_degree(f, 1, random.Random(0))
        assert len(draws) == 64

    def test_factored_minpoly_exits_3(self, draws, tmp_path, capsys):
        path = tmp_path / "m.sms"
        path.write_text("3 3 M\n1 1 1\n2 2 1\n3 3 2\n0 0 0\n")  # diag(1, 1, 2)
        argv = ["minpoly", "--field", "101", "--seed", "1", "--output", "factored"]
        argv.append(str(path))
        assert main(argv) == 3
        assert "computation failed" in capsys.readouterr().err
        assert len(draws) == 64


class TestGcdStabilizes:
    """A modular integer gcd that never stabilizes is a computation failure:
    it raises ComputationError, and the command exits 3 with one line."""

    @pytest.fixture
    def unstable(self, monkeypatch):
        # every prime yields a new reconstruction, so no two agree
        monkeypatch.setattr(poly, "crt_combine", lambda rs: IntPoly([len(rs), 1]))

    def test_squarefree_part_raises(self, unstable):
        f = IntPoly([1, -2, 1])  # (X - 1)^2
        with pytest.raises(poly.ComputationError, match="did not stabilize"):
            squarefree_part(f)

    def test_integer_charpoly_exits_3(self, unstable, tmp_path, capsys):
        path = tmp_path / "m.sms"
        path.write_text("2 2 M\n1 1 1\n1 2 1\n2 2 1\n0 0 0\n")  # a Jordan block
        assert main(["charpoly", "--integer", "--seed", "1", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "bbcharpoly: computation failed: modular gcd did not stabilize\n"


class TestPinnedFactor:
    """Factor lists and generator use of ``factor`` on fixed random polynomials.

    The values were recorded once.  The factor list depends on f alone; the
    64 bits drawn right after the call pin every draw Cantor-Zassenhaus made,
    so a change to the parts handed to ``_equal_degree``, or to their order,
    moves them even when every factorization stays right.
    """

    RECORDED = {  # (p, degree) -> ([(degree, multiplicity)], factor digest, next 64 bits)
        (1000003, 40): ([(13, 1), (27, 1)], "afa035607d38df04", 6128465579050963553),
        (1000003, 120): (
            [(1, 1), (3, 1), (3, 1), (113, 1)],
            "a76e68747066dbb6",
            3254919039099025116,
        ),
        (1000003, 400): (
            [(1, 1), (1, 1), (1, 1), (11, 1), (12, 1), (15, 1), (46, 1), (145, 1), (168, 1)],
            "424d97db241b20e5",
            14644053278653229583,
        ),
        (2147483647, 40): (
            [(1, 1), (1, 1), (1, 1), (2, 1), (3, 1), (4, 1), (28, 1)],
            "9b4cb20da78a67e9",
            10661093198177804632,
        ),
        (2147483647, 120): (
            [(1, 1), (1, 1), (5, 1), (6, 1), (29, 1), (78, 1)],
            "efad359d26a42e36",
            16110642283668599391,
        ),
        (2147483647, 400): (
            [(1, 1), (1, 1), (5, 1), (7, 1), (8, 1), (28, 1), (87, 1), (91, 1), (172, 1)],
            "e0366a321916eaab",
            15171740154097094495,
        ),
    }

    @pytest.mark.parametrize("p, degree", sorted(RECORDED))
    def test_factor_list_and_draws(self, p, degree):
        coeffs = random.Random(degree)
        f = fp([coeffs.randrange(p) for _ in range(degree)] + [1], p)
        rng = random.Random(degree + 1)
        fac = factor(f, rng)
        assert product_of_powers(fac, FieldPoly([f.coeffs[-1]], p)) == f
        shape = [(g.degree, e) for g, e in fac]
        listing = repr([(g.coeffs, e) for g, e in fac]).encode()
        digest = hashlib.sha256(listing).hexdigest()[:16]
        assert (shape, digest, rng.getrandbits(64)) == self.RECORDED[(p, degree)]

class TestGcdFreeBasis:
    def test_spec_example(self):
        # minimal polynomial (X-1)^2 (X-2), characteristic (X-1)^3 (X-2)^2
        p = 101
        basis, exponents = gcd_free_basis([(linear(1, p), 2, 3), (linear(2, p), 1, 2)])
        assert set(basis) == {linear(1, p), linear(2, p)}
        exp = dict(zip(basis, exponents))
        assert exp[linear(1, p)] == 3
        assert exp[linear(2, p)] == 2

    def test_single_squarefree(self):
        # X^2 + X + 1 = (X - 2)(X - 4) mod 7: one (e, m) group, one product
        p = 7
        f = fp([1, 1, 1], p)
        basis, exponents = gcd_free_basis([(linear(2, p), 1, 1), (linear(4, p), 1, 1)])
        assert basis == (f,)
        assert exponents == (1,)

    def test_groups_with_different_exponents_stay_apart(self):
        # X^2 + X + 1 = (X - 3)(X - 9) mod 13 shares (e, m) = (2, 2); X - 1
        # has (1, 1)
        p = 13
        f, g = linear(1, p), fp([1, 1, 1], p)
        factors = [(linear(3, p), 2, 2), (f, 1, 1), (linear(9, p), 2, 2)]
        basis, exponents = gcd_free_basis(factors)
        assert basis == (f, g)
        assert exponents == (1, 2)

    def test_sorted_by_degree_then_coefficients(self):
        p = 101
        factors = [(fp([1, 0, 1], p), 1, 1), (linear(5, p), 1, 2), (linear(7, p), 1, 3)]
        basis, exponents = gcd_free_basis(factors)
        assert basis == (linear(7, p), linear(5, p), fp([1, 0, 1], p))
        assert exponents == (3, 2, 1)

    def test_pairwise_coprime_and_reconstruction(self):
        rng = random.Random(8)
        p = 101
        for _ in range(40):
            roots = rng.sample(range(p), rng.randrange(1, 5))
            factors = []
            for r in roots:
                e = rng.randrange(1, 3)
                factors.append((linear(r, p), e, e + rng.randrange(0, 3)))
            basis, exponents = gcd_free_basis(factors)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    assert poly_gcd(basis[i], basis[j]).degree == 0
            expanded = product_of_powers(zip(basis, exponents), FieldPoly.one(p))
            charpoly = product_of_powers(
                ((f, m) for f, _, m in factors), FieldPoly.one(p)
            )
            assert expanded == charpoly


class TestHensel:
    def test_integral_factors_fixed_point(self):
        S = IntPoly([-1, 0, 1])
        out = hensel_lift_basis(S, [linear(1, 5), linear(-1, 5)], 5)
        assert set(out) == {IntPoly([-1, 1]), IntPoly([1, 1])}

    def test_irreducible_passthrough(self):
        S = IntPoly([1, -10, 1])
        out = hensel_lift_basis(S, [S.reduce(7)], 7)
        assert out == [S]

    def test_quadratic_lift_product(self):
        # X^2 - 10X + 1 is irreducible over Z but splits mod 23 as (X-4)(X-6).
        S = IntPoly([1, -10, 1])
        p = 23
        basis = [linear(4, p), linear(6, p)]
        bound = 1000
        modulus = p
        while modulus <= 2 * bound:
            modulus *= p
        out = _lift_tree(_mod_coeffs(S, modulus), basis, p, modulus)
        prod = out[0] * out[1]
        assert all(
            (a - b) % modulus == 0 for a, b in zip(prod.coeffs, S.coeffs)
        )
        for lifted, orig in zip(out, basis):
            assert lifted.reduce(p) == orig

    def test_split_without_integer_factors_is_a_bad_prime(self):
        # the split of the irreducible X^2 - 10X + 1 mod 23 lifts to no
        # factors over Z, and the exact product check says so
        with pytest.raises(BadPrimeError, match="over Z"):
            hensel_lift_basis(IntPoly([1, -10, 1]), [linear(4, 23), linear(6, 23)], 23)

    def test_random_lifts(self):
        rng = random.Random(9)
        p = 101
        for _ in range(25):
            deg = rng.randrange(2, 31)
            S = IntPoly([rng.randrange(-50, 50) for _ in range(deg)] + [1])
            red = S.reduce(p)
            if squarefree_part(red) != red.monic():
                continue
            fac = factor(red, rng)
            basis = [f for f, _ in fac]
            bound = max(1000, max(map(abs, S.coeffs)))
            modulus = p
            while modulus <= 2 * bound:
                modulus *= p
            out = _lift_tree(_mod_coeffs(S, modulus), basis, p, modulus)
            prod = IntPoly([1])
            for g in out:
                prod = prod * g
            assert all(
                c % modulus == 0 for c in (prod - S).coeffs
            )
            assert sorted(g.reduce(p).coeffs for g in out) == sorted(
                b.coeffs for b in basis
            )

    def test_precision_is_smallest_power(self, monkeypatch):
        # S = (X - 1201)(X + 1) = X^2 - 1200X - 1201: ||S||_2 = 1697.4..., so
        # 2 * 2^(deg S) * (floor(||S||_2) + 1) = 2 * 4 * 1698 = 13584, and
        # 7^4 = 2401 <= 13584 < 7^5 = 16807
        S = IntPoly([-1201, 1]) * IntPoly([1, 1])
        assert S == IntPoly([-1201, -1200, 1])
        seen = []
        lift_tree = poly._lift_tree

        def recording(f, parts, p, modulus):
            seen.append(modulus)
            return lift_tree(f, parts, p, modulus)

        monkeypatch.setattr(poly, "_lift_tree", recording)
        hensel_lift_basis(S, [linear(1201, 7), linear(-1, 7)], 7)
        assert seen[0] == 7**5

    def test_lift_comes_back_exact(self):
        # -1201 is 1200 mod 7^4 = 2401: a lift one power short of the bound
        # would read X + 1200 back
        S = IntPoly([-1201, 1]) * IntPoly([1, 1])
        out = hensel_lift_basis(S, [linear(1201, 7), linear(-1, 7)], 7)
        assert out == [IntPoly([-1201, 1]), IntPoly([1, 1])]

    def test_random_integer_factors_come_back_exact(self):
        # products of random monic integer factors, lifted from their
        # images mod a prime at which the images stay pairwise coprime
        rng = random.Random(11)
        checked = 0
        while checked < 20:
            factors = [
                IntPoly([rng.randrange(-10**6, 10**6) for _ in range(d)] + [1])
                for d in (rng.randrange(1, 6) for _ in range(rng.randrange(2, 5)))
            ]
            S = functools.reduce(operator.mul, factors)
            p = next_prime(rng.randrange(50, 500))
            red = S.reduce(p)
            if squarefree_part(red) != red:
                continue
            out = hensel_lift_basis(S, [f.reduce(p) for f in factors], p)
            assert out == factors
            checked += 1

    def test_bad_basis_rejected(self):
        with pytest.raises(BadPrimeError):
            hensel_lift_basis(IntPoly([-1, 0, 1]), [linear(1, 5)], 5)


class TestCrt:
    def test_trivial(self):
        assert crt_combine([fp([1, 1], 5), fp([1, 1], 7)]) == IntPoly([1, 1])

    def test_symmetric_range_example(self):
        # x = 4 mod 5, x = 5 mod 7 -> 19 -> -16 in the symmetric range mod 35
        out = crt_combine([fp([4, 1], 5), fp([5, 1], 7)])
        assert out == IntPoly([-16, 1])

    def test_single_residue(self):
        assert crt_combine([fp([4, 1], 5)]) == IntPoly([-1, 1])

    def test_degree_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal degree"):
            crt_combine([fp([1, 1], 5), fp([1, 1], 7), fp([1, 0, 1], 11)])


class TestText:
    def test_render(self):
        assert fp([2, -3, 1], 11).text() == "2 + 8*X + X^2"
        assert IntPoly([2, -3, 1]).text() == "2 - 3*X + X^2"
        assert IntPoly([]).text() == "0"
        assert IntPoly([0, -1]).text() == "-X"

    def test_pow_mod(self):
        p = 101
        f = fp([1, 1, 1], p)
        x = FieldPoly.x(p)
        assert pow_mod(x, p**2, f) == pow_mod(pow_mod(x, p, f), p, f)
