"""Shared constructions for the test suite."""

import hashlib

from bbcharpoly.blackbox import (
    PolyOfMatrix,
    SparseMatrix,
    SparseOperator,
    block_diagonal,
    build_block_jordan,
)
from bbcharpoly.poly import (
    BadPrimeError,
    FieldPoly,
    _distinct_degree,
    divide_out,
    poly_gcd,
)


# sha256 of the integer characteristic polynomial of the 4 x 4 rook graph's
# symmetric cube (n = 560) under `coeffs_digest`; acceptance 8 computes it.
ROOK_CUBE_CHARPOLY_SHA256 = "4f2069ff7eb8ea166567170e20eb5b45bb4a0df66b9c791078b992f7ec86d202"


def coeffs_digest(coeffs) -> str:
    """sha256 of integer coefficients, constant term first, comma-joined."""
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()


def sparse_leaf(op):
    """The SparseOperator under op's wrappers, and the applies of it that
    one apply of op makes."""
    per = 1
    while not isinstance(op, SparseOperator):
        if isinstance(op, PolyOfMatrix):
            per *= op.power * op.poly.degree
        op = op.base
    return op, per


def schoolbook_product(a, b):
    """The product of integer coefficient lists, one term at a time."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def linear(a, p):
    return FieldPoly([-a, 1], p)


def is_irreducible(f: FieldPoly) -> bool:
    """Whether distinct-degree splitting leaves f whole.

    A reducible f has a factor of degree <= deg f / 2, repeated or not, and
    some block of ``_distinct_degree`` splits it off.
    """
    return f.degree >= 1 and _distinct_degree(f.monic()) == [(f.monic(), f.degree)]


def reference_gcd_free_basis(polys, target: FieldPoly):
    """(basis, exponents) by pairwise-gcd refinement: the pairwise-coprime
    monic refinement of ``polys``, sorted by degree and then coefficients,
    and the exponent of each basis polynomial in ``target``.

    Raises BadPrimeError when the target is not a product of powers of the
    refined basis.
    """
    items = []
    for f in polys:
        f = f.monic()
        if f.degree > 0 and f not in items:
            items.append(f)
    refining = True
    while refining:
        refining = False
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                g = poly_gcd(items[i], items[j])
                if g.degree > 0:
                    a, b = items[i], items[j]
                    items = [h for h in items if h not in (a, b)]
                    for r in (g, a // g, b // g):
                        r = r.monic()
                        if r.degree > 0 and r not in items:
                            items.append(r)
                    refining = True
                    break
            if refining:
                break
    items.sort(key=lambda f: (f.degree, f.coeffs))
    exponents = []
    residual = target.monic()
    for g in items:
        e, residual = divide_out(residual, g)
        exponents.append(e)
    if residual.degree > 0:
        raise BadPrimeError("target is not a product of powers of the basis")
    return tuple(items), tuple(exponents)


def rand_irreducible(d, p, rng):
    while True:
        f = FieldPoly([rng.randrange(p) for _ in range(d)] + [1], p)
        if is_irreducible(f):
            return f


def distinct_irreducibles(count, max_degree, p, rng):
    out = []
    while len(out) < count:
        f = rand_irreducible(rng.randrange(1, max_degree + 1), p, rng)
        if f not in out:
            out.append(f)
    return out


def planted_primary_form(census, p):
    """Block-diagonal matrix from a [(poly, {power: count})] block census.

    Returns (matrix, expected multiplicities aligned with the census order).
    """
    parts = []
    mults = []
    for poly, counts in census:
        m = 0
        for j, c in sorted(counts.items()):
            for _ in range(c):
                parts.append(build_block_jordan(poly, j))
            m += j * c
        mults.append(m)
    return block_diagonal(parts), mults


def random_sparse_matrix(n, p, rng, min_per_row=2, max_per_row=10):
    entries = {}
    for i in range(n):
        for _ in range(rng.randrange(min_per_row, max_per_row + 1)):
            j = rng.randrange(n)
            v = rng.randrange(1, p)
            entries[(i, j)] = v
    return SparseMatrix(n, [(i, j, v) for (i, j), v in entries.items()])


def random_census_instance(rng, max_factors=4, max_e=3, max_d=2, pad_blocks=2):
    """Planted primary form over an index-calculus-compatible field.

    Returns (matrix, factor polys, census dict, multiplicities, q, p).
    """
    from bbcharpoly.ff import find_index_calculus_field

    k = rng.randrange(2, max_factors + 1)
    shapes = []
    n = 0
    for _ in range(k):
        d = rng.randrange(1, max_d + 1)
        e = rng.randrange(1, max_e + 1)
        counts = {j: rng.randrange(0, pad_blocks + 1) for j in range(1, e + 1)}
        counts[e] = max(1, counts.get(e, 0))
        shapes.append((d, counts))
        n += d * sum(j * c for j, c in counts.items())
    q, p = find_index_calculus_field(n, rng)
    polys = distinct_irreducibles(k, max_d, q, rng)
    polys = [
        f if f.degree == d else rand_irreducible(d, q, rng)
        for f, (d, _) in zip(polys, shapes)
    ]
    # re-draw until degrees match and all polys distinct
    while len(set(polys)) != k or any(
        f.degree != d for f, (d, _) in zip(polys, shapes)
    ):
        polys = [rand_irreducible(d, q, rng) for d, _ in shapes]
    census = [(f, counts) for f, (_, counts) in zip(polys, shapes)]
    matrix, mults = planted_primary_form(census, q)
    return matrix, polys, [c for _, c in census], mults, q, p


def random_sparse_integer_matrix(n, rng, lo=-9, hi=9, min_per_row=2, max_per_row=10):
    entries = {}
    for i in range(n):
        for _ in range(rng.randrange(min_per_row, max_per_row + 1)):
            j = rng.randrange(n)
            v = rng.randrange(lo, hi + 1)
            if v:
                entries[(i, j)] = v
    return SparseMatrix(n, [(i, j, v) for (i, j), v in entries.items()])
