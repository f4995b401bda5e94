"""Timings of the GF(p) division and product kernels at and around their cutoffs.

Prints microseconds per call (the best of five timing repeats) for
p = 1000003 and p = 2^31 - 1, where convolutions longer than two terms take
the 16-bit split path:

* ``division``: `_divmod_mod_lists` on coefficient lists by `_long_division`
  and by the array kernel (list conversions included), for quotient lengths
  m from 2 to 800 and divisor lengths around the edge
  m * (len b - ``_ARRAY_STEPS_PER_COEFF``) = ``_ARRAY_FIXED_STEPS``;
* ``gcd step``: one Euclid step (quotient length 2) on lists by
  `_long_division`, on arrays by `_divmod_arrays` and by the two-coefficient
  step of `_euclid_remainder`, for divisor lengths around
  ``_GCD_ARRAY_CUTOFF`` and at 120;
* ``quotient``: `_divmod_arrays` by the series recurrence and by the Newton
  inverse, for quotient lengths m from 8 to 128 and divisor lengths around
  the edge m * min(m, len b) = ``_NEWTON_WORK``, or ``_NEWTON_WORK_SPLIT``
  where convolutions of m terms split;
* ``product``: `_mul_mod_lists` (one convolution) against a schoolbook
  product of lists reduced mod p, by the shorter operand's length.

The ``integer product`` table times `_imul_lists` (one Kronecker product)
against the schoolbook loop on signed coefficient lists, in microseconds,
at the Hensel lift's shapes (lengths and coefficient bits) from 2 x 2 at 30
bits to 422 x 422 at 1,113 bits.

The ``modular product`` table times `_Modulus.mul` in microseconds, for n
from 8 to 2600 and p in 227, 1000003 and 25782653: by two convolutions
against the reduction matrix R (each path forced), and the build of R
(`_reduction_matrix`, by `_matmul_mod`, which takes limbs where the float
rule fails, as at 25782653 from n = 18).

The ``Frobenius build`` table times, in milliseconds, for n in 4 to 1000
and p in 227, 1000003, 25782653 and 2^31 - 1: the rows X^(ip) mod f by
`_Modulus.mul` (the reference the tests check the build against), the
one build `_frobenius_matrix` by `_matmul_mod`, one application of the map
(`_frobenius`) and the power X^p mod f that both start from.

Last, the ``dense elimination`` table times, in milliseconds, rank and
determinant calls on Toeplitz-kind operators for n in 84 to 1024 and p in
227, 1000003 and 2^31 - 1: a Krylov rank call (elimination switched off, so
each trial is a Toeplitz trial of two `conv_mod` calls and the scaling
before every apply) and its number of trials, a Krylov determinant call,
and elimination as one step, the operator applied to the n columns of I
and then `_eliminate` (`_eliminate_operator`).  Each time is the best of
three calls, of one from n = 560.  The inputs are nonsingular with high
probability, so a Krylov rank call stops at its first exact trial.
``sparse`` is a direct sum of companion matrices, whose elimination stays
as sparse as the census forms' does; ``P(A)`` is P(A) for a random monic P
of degree 3 and a random sparse A (`sparse_poly`); ``dense fill`` is a
sparse matrix with a full first row and column, whose elimination is dense
from its first pivot on: elimination's worst case.

Run from the root of a checkout, with one BLAS thread as the benchmark has:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/poly_kernel_sizes.py
"""

from __future__ import annotations

import random
import time
import timeit

import numpy as np

from bbcharpoly import blackbox, poly

PRIMES = (1000003, (1 << 31) - 1)
ELIMINATION_PRIMES = (227, 1000003, (1 << 31) - 1)
ELIMINATION_SIZES = (84, 120, 160, 200, 256, 560, 800, 1024)
FROBENIUS_PRIMES = (227, 1000003, 25782653, (1 << 31) - 1)
FROBENIUS_SIZES = (4, 8, 12, 16, 24, 32, 60, 84, 120, 240, 300, 1000)
MODULAR_PRIMES = (227, 1000003, 25782653)
MODULAR_SIZES = (8, 16, 26, 60, 120, 160, 200, 300, 400, 600, 1000, 2600)
# (len a, len b, coefficient bits)
INTEGER_SHAPES = (
    (2, 2, 30),
    (10, 10, 60),
    (30, 30, 100),
    (60, 60, 400),
    (210, 210, 568),
    (100, 320, 1113),
    (422, 211, 1113),
    (422, 422, 1113),
)


def usec(fn, repeat=5) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat, number)) / number * 1e6


def operands(len_a: int, len_b: int, p: int, rng):
    """Random coefficient lists of the given lengths with nonzero leads."""
    a = [rng.randrange(p) for _ in range(len_a - 1)] + [rng.randrange(1, p)]
    b = [rng.randrange(p) for _ in range(len_b - 1)] + [rng.randrange(1, p)]
    return a, b


def schoolbook(a, b):
    """The product of integer coefficient lists, one term at a time."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def quotient_by(newton: bool, a, b, p):
    """`_divmod_arrays` with its recurrence/Newton choice forced."""
    saved = poly._NEWTON_WORK, poly._NEWTON_WORK_SPLIT
    poly._NEWTON_WORK = poly._NEWTON_WORK_SPLIT = 0 if newton else 1 << 60
    try:
        av = np.array(a, dtype=np.int64)
        bv = np.array(b, dtype=np.int64)
        return usec(lambda: poly._divmod_arrays(av, bv, p))
    finally:
        poly._NEWTON_WORK, poly._NEWTON_WORK_SPLIT = saved


def row(label, cells, digits=1):
    print(f"{label:>14}" + "".join(f"{c:>12.{digits}f}" for c in cells))


def sparse_poly(n: int, p: int, dj: int, rng):
    """P(A) for a random monic P of degree dj and a random n x n A with
    about 3 entries per row."""
    cells = {(rng.randrange(n), rng.randrange(n)): rng.randrange(1, p) for _ in range(3 * n)}
    A = blackbox.SparseMatrix(n, [(r, c, x) for (r, c), x in cells.items()])
    f = poly.FieldPoly([rng.randrange(p) for _ in range(dj)] + [1], p)
    return blackbox.PolyOfMatrix(A.operator(p), f)


def arrow_fill(n: int, p: int, rng):
    """A sparse n x n A whose elimination is dense from its first pivot on:
    a full first row and column, a nonzero diagonal and about 3 more entries
    per row, so about 6n entries.  Nonsingular with high probability."""
    cells = {(rng.randrange(n), rng.randrange(n)): rng.randrange(1, p) for _ in range(3 * n)}
    cells.update({(i, i): rng.randrange(1, p) for i in range(n)})
    cells.update({(0, i): rng.randrange(1, p) for i in range(n)})
    cells.update({(i, 0): rng.randrange(1, p) for i in range(n)})
    return blackbox.SparseMatrix(n, [(r, c, x) for (r, c), x in cells.items()])


def companion_blocks(n: int, p: int, rng):
    """A direct sum of companion matrices of random monic polynomials of
    degree 1 to 3, with nonzero constant terms: nonsingular, and its
    elimination stays as sparse as the census forms'."""
    blocks, size = [], 0
    while size < n:
        d = min(rng.randrange(1, 4), n - size)
        coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d - 1)] + [1]
        blocks.append(blackbox.build_companion(poly.FieldPoly(coeffs, p)))
        size += d
    return blackbox.block_diagonal(blocks)


def msec(fn, repeat) -> float:
    """The best of ``repeat`` single calls, in milliseconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def krylov_calls(A, repeat):
    """A Krylov rank call's milliseconds and trials, and a Krylov determinant
    call's milliseconds and value, with elimination switched off.  Each
    time is the best of ``repeat`` calls; the trials come from one more."""
    trials = []
    saved = blackbox._ELIMINATION_MAX_N, blackbox.wiedemann_minpoly

    def counted(*args, **kwargs):
        trials.append(1)
        return saved[1](*args, **kwargs)

    blackbox._ELIMINATION_MAX_N = 0
    try:
        rank_ms = msec(lambda: blackbox.rank_blackbox(A, random.Random(1)), repeat)
        det_ms = msec(lambda: blackbox.det_blackbox(A, random.Random(2)), repeat)
        blackbox.wiedemann_minpoly = counted
        blackbox.rank_blackbox(A, random.Random(1))
        return rank_ms, len(trials), det_ms, blackbox.det_blackbox(A, random.Random(2))
    finally:
        blackbox._ELIMINATION_MAX_N, blackbox.wiedemann_minpoly = saved


def dense_elimination(rng) -> None:
    c = blackbox._ELIMINATION_MAX_N
    print("dense elimination (n, p, input), milliseconds per call: a Krylov rank")
    print("call and its trials, a Krylov determinant call, and elimination")
    print("(A applied to the columns of I, then `_eliminate`); Toeplitz-kind")
    print(f"calls eliminate while n <= _ELIMINATION_MAX_N = {c}")
    print(
        f"{'sizes':>32}{'Krylov rank':>13}{'trials':>8}{'Krylov det':>12}"
        f"{'eliminate':>11}"
    )
    inputs = (
        ("sparse", lambda n, p: companion_blocks(n, p, rng).operator(p)),
        ("P(A)", lambda n, p: sparse_poly(n, p, 3, rng)),
        ("dense fill", lambda n, p: arrow_fill(n, p, rng).operator(p)),
    )
    for p in ELIMINATION_PRIMES:
        for n in ELIMINATION_SIZES:
            for label, build in inputs:
                A = build(n, p)
                assert blackbox.preconditioner(A) == "toeplitz"
                repeat = 1 if n >= 560 else 3
                rank_ms, trials, det_ms, det = krylov_calls(A, repeat)
                assert blackbox._eliminate_operator(A)[1] == det
                elim_ms = msec(lambda: blackbox._eliminate_operator(A), repeat)
                name = f"({n}, {p}, {label})"
                print(
                    f"{name:>32}{rank_ms:>13.1f}{trials:>8d}{det_ms:>12.1f}"
                    f"{elim_ms:>11.1f}"
                )
    print()


def integer_product(rng) -> None:
    print("integer product (len a, len b, bits), microseconds per call")
    print(f"{'sizes':>16}{'schoolbook':>12}{'Kronecker':>12}")
    for len_a, len_b, bits in INTEGER_SHAPES:
        a, b = (
            [rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)]
            for n in (len_a, len_b)
        )
        cells = [usec(lambda: schoolbook(a, b)), usec(lambda: poly._imul_lists(a, b))]
        label = f"({len_a}, {len_b}, {bits})"
        print(f"{label:>16}" + "".join(f"{c:>12.1f}" for c in cells))
    print()


def modulus_by(rows: bool, f):
    """`_Modulus(f)` with its reduction path forced: the matrix R or the
    two convolutions."""
    m = poly._Modulus(f)
    if rows:
        m.R, m.inv = poly._reduction_matrix(m.low, f.p), None
    else:
        fv = np.array(f.coeffs, dtype=np.int64)
        m.R, m.inv = None, poly._series_inverse(fv[::-1][: f.degree], f.p)
    return m


def modular_product(rng) -> None:
    c = poly._REDUCTION_MAX_N
    print("modular product (n, p): `_Modulus.mul`, microseconds per call, by")
    print("two convolutions and by the reduction matrix R, and the build of R;")
    print(f"R while n <= _REDUCTION_MAX_N = {c} and n * (p - 1)^2 < 2^63")
    print(f"{'sizes':>18}{'convolutions':>14}{'R':>12}{'R build':>12}")
    for p in MODULAR_PRIMES:
        for n in MODULAR_SIZES:
            f = poly.FieldPoly([rng.randrange(p) for _ in range(n)] + [1], p)
            a, b = (
                np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
                for _ in range(2)
            )
            repeat = 1 if n >= 1000 else 5
            cells = [
                usec(lambda: m.mul(a, b), repeat)
                for m in (modulus_by(False, f), modulus_by(True, f))
            ]
            low = poly._Modulus(f).low
            cells.append(usec(lambda: poly._reduction_matrix(low, p), repeat))
            label = f"({n}, {p})"
            print(f"{label:>18}{cells[0]:>14.1f}{cells[1]:>12.1f}{cells[2]:>12.1f}")
    print()


def frobenius_rows(m):
    """The Frobenius matrix row by row, X^(ip) mod f = X^((i-1)p) * X^p mod f
    by `_Modulus.mul`: the reference its build is timed against."""
    Q = np.zeros((m.n, m.n), dtype=np.int64)
    Q[0, 0] = 1
    Q[1] = m.pow(m.vector(poly.FieldPoly.x(m.p)), m.p)
    for i in range(2, m.n):
        Q[i] = m.mul(Q[i - 1], Q[1])
    return Q


def frobenius_build(rng) -> None:
    print("Frobenius build (n, p), milliseconds per call: the rows reference,")
    print("the build by `_matmul_mod`, one application of the map and X^p")
    print(f"{'sizes':>20}{'rows':>12}{'build':>12}{'apply':>12}{'X^p':>12}")
    for p in FROBENIUS_PRIMES:
        for n in FROBENIUS_SIZES:
            f = poly.FieldPoly([rng.randrange(p) for _ in range(n)] + [1], p)
            m = poly._Modulus(f)
            x = m.vector(poly.FieldPoly.x(p))
            h = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
            frobenius = poly._frobenius(m)
            repeat = 2 if n >= 1000 else 5
            cells = [
                usec(lambda: frobenius_rows(m), repeat),
                usec(lambda: poly._frobenius_matrix(m), repeat),
                usec(lambda: frobenius(h), repeat),
                usec(lambda: m.pow(x, p), repeat),
            ]
            label = f"({n}, {p})"
            print(f"{label:>20}" + "".join(f"{c / 1e3:>12.4f}" for c in cells))
    print()


def main() -> None:
    rng = random.Random(1)
    for p in PRIMES:
        print(f"p = {p}, microseconds per call")

        k, w = poly._ARRAY_STEPS_PER_COEFF, poly._ARRAY_FIXED_STEPS
        print(f"\ndivision (len a, len b); lists while m * (len b - {k}) < {w}")
        print(f"{'sizes':>14}{'list':>12}{'array':>12}")
        for m in (2, 8, 32, 128, 800):
            edge = k + -(-w // m)  # the shortest divisor that takes arrays
            for len_b in sorted({2, edge - 1, edge, 2 * edge}):
                len_a = m + len_b - 1
                a, b = operands(len_a, len_b, p, rng)

                def array_path():
                    q, r = poly._divmod_arrays(
                        np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p
                    )
                    return q.tolist(), r.tolist()

                row(
                    f"({len_a}, {len_b})",
                    [usec(lambda: poly._long_division(a, b, p)), usec(array_path)],
                )

        c = poly._GCD_ARRAY_CUTOFF
        print(f"\ngcd step (len b + 1, len b); _GCD_ARRAY_CUTOFF = {c}")
        print(f"{'sizes':>14}{'list':>12}{'array':>12}{'two-coeff':>12}")
        for len_b in (c // 2, c - 1, c, c + 1, 2 * c, 120):
            a, b = operands(len_b + 1, len_b, p, rng)
            av, bv = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
            row(
                f"({len_b + 1}, {len_b})",
                [
                    usec(lambda: poly._long_division(a, b, p)),
                    usec(lambda: poly._divmod_arrays(av, bv, p)),
                    usec(lambda: poly._euclid_remainder(av, bv, p)),
                ],
            )

        w, split = poly._NEWTON_WORK, poly._NEWTON_WORK_SPLIT
        print(
            f"\nquotient (len a, len b), m = len a - len b + 1; recurrence while "
            f"m * min(m, len b) < {w}, or {split} where m terms split"
        )
        print(f"{'sizes':>14}{'list':>12}{'recurrence':>12}{'Newton':>12}")
        sizes = []
        for m in (8, 16, 32, 64, 128):
            work = w if poly._lazy_sum_fits(m, p) else split
            edge = -(-work // m)  # the shortest divisor that takes Newton
            for len_b in sorted({2, edge // 2, edge, 2 * edge, m}):
                if 2 <= len_b <= m:
                    sizes.append((m + len_b - 1, len_b))
        for len_a, len_b in sizes:
            a, b = operands(len_a, len_b, p, rng)
            row(
                f"({len_a}, {len_b})",
                [
                    usec(lambda: poly._long_division(a, b, p)),
                    quotient_by(False, a, b, p),
                    quotient_by(True, a, b, p),
                ],
            )

        print("\nproduct, by the shorter operand's length L (the other is 2L)")
        print(f"{'L':>14}{'schoolbook':>12}{'conv_mod':>12}")
        for length in (3, 5, 8, 15, 16, 32):
            a, b = operands(2 * length, length, p, rng)
            row(
                str(length),
                [
                    usec(lambda: poly._strip([x % p for x in schoolbook(a, b)])),
                    usec(lambda: poly._mul_mod_lists(a, b, p)),
                ],
            )
        print()

    integer_product(rng)
    modular_product(rng)
    frobenius_build(rng)
    dense_elimination(rng)


if __name__ == "__main__":
    main()
