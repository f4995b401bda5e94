import ast
import random
from pathlib import Path

from bbcharpoly import oracle
from bbcharpoly.blackbox import build_block_jordan, build_companion
from bbcharpoly.oracle import dense_charpoly, dense_integer_charpoly, dense_minpoly
from bbcharpoly.poly import FieldPoly, IntPoly

from helpers import dense_det, dense_invariant_factors, dense_rank, rand_irreducible


def linear(a, p):
    return FieldPoly([-a, 1], p)


def diag(values):
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


def test_charpoly_diag():
    assert dense_charpoly(diag([1, 2]), 7) == linear(1, 7) * linear(2, 7)


def test_charpoly_companion_and_jordan():
    rng = random.Random(0)
    p = 101
    f = rand_irreducible(3, p, rng)
    assert dense_charpoly(build_companion(f).to_dense(), p) == f
    assert dense_charpoly(build_block_jordan(f, 2).to_dense(), p) == (f**2).monic()


def test_charpoly_random_matches_det_of_shift():
    # charpoly(lambda) = det(lambda I - A) pointwise
    rng = random.Random(1)
    p = 101
    for _ in range(10):
        n = rng.randrange(1, 9)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        cp = dense_charpoly(rows, p)
        for lam in (0, 1, 17, 42):
            shifted = [
                [(lam * (i == j) - rows[i][j]) % p for j in range(n)]
                for i in range(n)
            ]
            assert cp(lam) == dense_det(shifted, p)


def test_rank_and_det_examples():
    p = 101
    J3 = build_block_jordan(FieldPoly.x(p), 3)
    assert dense_rank(J3.to_dense(), p) == 2
    assert dense_det(diag([1] * 6), p) == 1
    assert dense_det(diag([0, 3]), p) == 0


def test_invariant_factors_example():
    p = 101
    factors = dense_invariant_factors(diag([1, 1, 2]), p)
    assert factors == [linear(1, p) * linear(2, p), linear(1, p)]


def test_invariant_factors_consistency_sweep():
    rng = random.Random(2)
    p = 101
    for _ in range(12):
        n = rng.randrange(1, 9)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        inv = dense_invariant_factors(rows, p)
        prod = FieldPoly.one(p)
        for f in inv:
            prod = prod * f
        assert prod == dense_charpoly(rows, p)
        assert inv[0] == dense_minpoly(rows, p)
        for a, b in zip(inv, inv[1:]):
            assert (a % b).is_zero  # chain: each divides its predecessor


def test_invariant_factors_of_primary_form():
    rng = random.Random(3)
    p = 101
    f = rand_irreducible(2, p, rng)
    g = linear(7, p)
    # Diag(C_{f*g}, C_g): invariant factors f*g, g
    from bbcharpoly.blackbox import block_diagonal

    A = block_diagonal([build_companion((f * g).monic()), build_companion(g)])
    assert dense_invariant_factors(A.to_dense(), p) == [(f * g).monic(), g]


def test_minpoly_vs_wiedemann_examples():
    p = 11
    assert dense_minpoly(diag([1, 1, 2]), p) == linear(1, p) * linear(2, p)
    assert dense_minpoly(diag([0, 0, 0]), p) == FieldPoly.x(p)


def test_integer_charpoly_small():
    assert dense_integer_charpoly(diag([1, 1, 2])) == IntPoly([-2, 5, -4, 1])
    # (X-1)^2 (X-2) = X^3 - 4X^2 + 5X - 2
    assert dense_integer_charpoly([[0, -1], [1, 0]]) == IntPoly([1, 0, 1])


def test_integer_charpoly_trace_row():
    rng = random.Random(4)
    for _ in range(5):
        n = rng.randrange(1, 8)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        cp = dense_integer_charpoly(rows)
        assert cp.degree == n
        assert cp.coefficient(n - 1) == -sum(rows[i][i] for i in range(n))


def test_oracle_imports_only_ff_and_poly():
    # the oracle checks the pipeline, so it takes nothing from the code it checks
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("bbcharpoly")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("bbcharpoly") for a in node.names)
    assert package == {"ff", "poly"}
