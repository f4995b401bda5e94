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
(`_reduction_matrix`, float64 BLAS while n * (p - 1)^2 < 2^53, int64
beyond, as at 25782653 from n = 14).

The ``Frobenius build`` table times `_frobenius_matrix` in milliseconds,
for n in 4 to 1000 and p in 47, 227 and 1000003: its rows by
`_Modulus.mul` against its float64 BLAS build (each forced through
``_FLOAT_FROBENIUS_MIN_N``), and the power X^p mod f that both start from.

Last, the ``Toeplitz apply`` table times `blackbox._Preconditioner.apply`
over an identity operator, for n in 40, 120, 560 and 1024 and p in 3001 and
1000003: its two `conv_mod` calls against its one dense float64 product by
U * D * L, the build of that matrix (`_dense_toeplitz`) alone, and the dense
apply with the build amortised over 2n applies.

Run from the root of a checkout, with one BLAS thread as the benchmark has:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/poly_kernel_sizes.py
"""

from __future__ import annotations

import random
import timeit

import numpy as np

from bbcharpoly import blackbox, poly

PRIMES = (1000003, (1 << 31) - 1)
TOEPLITZ_PRIMES = (3001, 1000003)
TOEPLITZ_SIZES = (40, 120, 560, 1024)
FROBENIUS_PRIMES = (47, 227, 1000003)
FROBENIUS_SIZES = (4, 8, 12, 16, 24, 32, 64, 120, 240, 1000)
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


class Identity(blackbox.BlackBoxOperator):
    """The n x n identity, so that an apply times only the preconditioner."""

    def apply(self, v):
        return v


def toeplitz_apply(rng) -> None:
    print("Toeplitz apply (n, p), microseconds per call; dense while")
    print(f"n <= {blackbox._DENSE_TOEPLITZ_MAX_N} and n * (p - 1)^2 < 2^53")
    print(f"{'sizes':>14}{'conv_mod':>12}{'dense':>12}{'build':>12}{'amortised':>12}")
    for p in TOEPLITZ_PRIMES:
        for n in TOEPLITZ_SIZES:
            pre = blackbox._Preconditioner(Identity(n, p, cost=0), rng)
            v = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
            dense = usec(lambda: pre.apply(v))
            build = usec(lambda: blackbox._dense_toeplitz(pre.lc, pre.uc, pre.d, p))
            pre._m = None  # the conv_mod path
            convs = usec(lambda: pre.apply(v))
            row(f"({n}, {p})", [convs, dense, build, dense + build / (2 * n)])


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


def frobenius_build(rng) -> None:
    c = poly._FLOAT_FROBENIUS_MIN_N
    print("Frobenius build (n, p), milliseconds per call; BLAS from")
    print(f"n = _FLOAT_FROBENIUS_MIN_N = {c} while n * (p - 1)^2 < 2^53")
    print(f"{'sizes':>14}{'rows':>12}{'BLAS':>12}{'X^p':>12}")
    try:
        for p in FROBENIUS_PRIMES:
            for n in FROBENIUS_SIZES:
                f = poly.FieldPoly([rng.randrange(p) for _ in range(n)] + [1], p)
                m = poly._Modulus(f)
                x = m.vector(poly.FieldPoly.x(p))
                repeat = 2 if n >= 1000 else 5
                cells = []
                for crossover in (1 << 60, 0):
                    poly._FLOAT_FROBENIUS_MIN_N = crossover
                    cells.append(usec(lambda: poly._frobenius_matrix(m), repeat) / 1e3)
                cells.append(usec(lambda: m.pow(x, p), repeat) / 1e3)
                row(f"({n}, {p})", cells, digits=2)
    finally:
        poly._FLOAT_FROBENIUS_MIN_N = c
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
    toeplitz_apply(rng)


if __name__ == "__main__":
    main()
