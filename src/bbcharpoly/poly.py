"""Dense univariate polynomials over GF(p) and over the integers.

A polynomial is a coefficient sequence with the constant term first and no
trailing zeros; the zero polynomial has an empty sequence (``degree == -1``
stands in for the usual "minus infinity" convention).  ``FieldPoly`` carries
its modulus, ``IntPoly`` holds arbitrary-precision signed integers.

On top of the ring arithmetic this module provides squarefree decomposition,
Cantor-Zassenhaus factorization, the gcd-free basis of a factored
characteristic polynomial, multifactor quadratic Hensel lifting, and
coefficientwise CRT reconstruction.

Field multiplication is numpy convolution (``conv_mod``).  When the
min(len(a), len(b)) products summed into one output entry could overflow
int64 (``_lazy_sum_fits``, the one int64 sum rule shared with the black-box
kernels), one operand is split into 16-bit halves and the convolutions
recombined; at operand lengths where even the split sums could overflow
(2^16 for p near 2^31) it raises OverflowError.
Integer multiplication is Kronecker substitution (``_imul_lists``): both
operands are packed into one Python int each, in slots as wide as the bound
on a product coefficient, multiplied once and read back exactly.

Division over GF(p) has one array kernel, ``_divmod_arrays``: a reversed
series quotient, then one convolution for the remainder.  Euclid's algorithm
uses it while its remainders are long, except for its usual step, a quotient
of two coefficients, which is two scaled subtractions
(``_euclid_remainder``); list divisions whose work (quotient length times
divisor length) is small, and the moduli p^k of the Hensel lift, take
``_long_division``.

Factoring over GF(p) works on int64 coefficient vectors.  A product modulo
a fixed f of degree n (``_Modulus``) is one convolution and one int64
product with the reduction matrix R, whose row j is X^(n+j) mod f, built
once per modulus (``_reduction_matrix``), while n <= ``_REDUCTION_MAX_N``
and n * (p - 1)^2 < 2^63; otherwise it is reduced with the Newton inverse of
the reversed f, computed once, by two more convolutions.  Cantor-Zassenhaus
builds one ``_Modulus`` per polynomial it splits and takes every draw's
power in it.  Distinct-degree splitting steps through X^(p^d) mod f with
the Frobenius matrix of f (``_frobenius``) and takes one gcd per block of
degrees.  That matrix is built from R and applied by one kernel,
``_matmul_mod``: float64 BLAS products, each exact and reduced once per
entry through int64 (after the exact float kernels of Dumas, Giorgi and
Pernet, FFLAS/FFPACK, ACM TOMS 2008).  While n * (p - 1)^2 < 2^53
(``_float_sum_fits``) a product is one BLAS call; beyond, as for
p = 2^31 - 1, the left operand is cut into limbs of w bits with
n * (p - 1) * (2^w - 1) < 2^53, one BLAS call each, so the right matrix is
stored once and the Frobenius matrix takes one n x n float64 array.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ff import next_prime

# Crossovers from tools/poly_kernel_sizes.py, in us at p = 1000003 / 2^31 - 1.
# Long division takes about m * len(b) steps for a quotient of m
# coefficients; the array kernel about _ARRAY_STEPS_PER_COEFF per quotient
# coefficient plus _ARRAY_FIXED_STEPS.  So lists divide while
# m * (len(b) - _ARRAY_STEPS_PER_COEFF) < _ARRAY_FIXED_STEPS: a divisor of at
# most 7 coefficients at every m ((801, 2): 702 / 1,252 against 1,481 /
# 3,148), but a quotient of 2 only up to a divisor of 38 ((79, 78): arrays
# 26 / 22 against 37 / 56).  At the edge the two are about even.
_ARRAY_STEPS_PER_COEFF = 7
_ARRAY_FIXED_STEPS = 64
# A two-coefficient array Euclid step (`_euclid_remainder`) with a divisor of
# 16 ties lists at 1000003 and wins at 2^31 - 1 (12.6 / 8.0 against 12.7 /
# 19.3); with one of 32 it wins at both (12.9 / 8.3 against 20.6 / 25.0).
_GCD_ARRAY_CUTOFF = 16
# The series recurrence takes about m * min(m, len(b)) steps for a quotient
# of m coefficients, Newton a few convolutions per doubling of m, so its cost
# moves with p ("quotient" table, us by recurrence / Newton).  At 1000003 the
# two are even near a work of 512 ((len a, len b) = (47, 16): 48 / 49; (71, 8),
# also 512: 66 / 59; (79, 16), 1,024: 89 / 58).  Where convolutions of m terms
# split (``_lazy_sum_fits``; every m > 2 at p = 2^31 - 1) they are even
# between 1,024 and 2,048 ((79, 16), 1,024: 134 / 133; (135, 8), 1,024:
# 207 / 262; (95, 32), 2,048: 203 / 138; (143, 16), 2,048: 326 / 243).
_NEWTON_WORK = 512
_NEWTON_WORK_SPLIT = 2048
# `_Modulus` reduces by its matrix R up to degree 128 ("modular product" table,
# us at p = 227 / 1000003 / 25782653).  Per product R is faster up to n = 600
# (541 / 556 / 547 against 545 / 574 / 588 by two convolutions) and slower
# from 1,000 (1,723 / 1,769 / 1,674 against 1,448 / 1,640 / 1,534), but its
# build grows as n^3 and takes limbs where the float rule fails: at n = 120
# it costs 257 / 257 / 413, the saving of 24 products at 25782653, less than
# one Cantor-Zassenhaus power there (about 37), and at n = 160 547 / 540 /
# 847, the saving of 47.
_REDUCTION_MAX_N = 128


class ComputationError(ArithmeticError):
    """A computation failed, and a fresh try may succeed.

    Every such failure in the package derives from this class: the field
    driver retries it, and the command line maps it to exit code 3.
    """


class BadPrimeError(ComputationError):
    """The chosen prime does not preserve the structure being reduced."""


class FieldTooSmallError(ValueError):
    """Squarefree machinery needs p > deg(f); pick a larger field."""


class FactorizationError(ComputationError):
    """Equal-degree splitting found no split within its draws."""


def _strip(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def symmetric_range(coeffs, m: int) -> list:
    """Residues in [0, m) read in the symmetric range (-m/2, m/2]."""
    half = m // 2
    return [c - m if c > half else c for c in coeffs]


def _lazy_sum_terms(p: int) -> int:
    """The most raw products of residues mod p that sum exactly in int64.

    Each product of two entries in [0, p) is at most (p - 1)^2, so a sum of
    ``terms`` of them stays at most the int64 maximum 2^63 - 1 while
    terms * (p - 1)^2 < 2^63 (2 terms for p = 2^31 - 1, about 2^23 for p
    near 2^20).  A reduction c[:n] + c[n:] @ R by `_Modulus` sums at most
    n - 1 products and one residue, below n * (p - 1)^2, so it is exact
    while ``_lazy_sum_fits(n, p)``.
    """
    return ((1 << 63) - 1) // (p - 1) ** 2


def _lazy_sum_fits(terms: int, p: int) -> bool:
    """Whether ``terms`` raw products of residues mod p sum exactly in int64."""
    return terms <= _lazy_sum_terms(p)


def _float_sum_fits(terms: int, p: int) -> bool:
    """Whether a float64 dot product of ``terms`` residues mod p is exact.

    While terms * (p - 1)^2 < 2^53 every product and partial sum is a
    nonnegative integer below 2^53, which float64 holds exactly, so neither
    the summation order nor a fused multiply-add can change the result
    (32 terms for p near 2^24, about 2^13 for p near 2^20, none for
    p = 2^31 - 1).
    """
    return terms * (p - 1) ** 2 < 1 << 53


def _check_split_sum(terms: int, p: int) -> None:
    """Raise unless ``terms`` products of a residue mod p and a 16-bit half fit int64.

    With p <= 2^32 both 16-bit halves of a residue are at most 2^16 - 1, so
    each product is at most (p - 1) * (2^16 - 1) and the sum of ``terms`` of
    them overflows int64 once it can reach 2^63 (length 2^16 for p near 2^31).
    """
    if terms * (p - 1) * 0xFFFF >= 1 << 63:
        raise OverflowError(
            f"a sum of {terms} split products mod {p} can overflow int64"
        )


def conv_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """np.convolve(a, b) % p for int64 arrays with entries in [0, p).

    One output entry sums at most min(len(a), len(b)) products.  While
    ``_lazy_sum_fits`` holds for that many they are summed as they are;
    otherwise a is split into 16-bit halves, which is exact up to the bound
    of ``_check_split_sum`` and raises OverflowError beyond it.
    """
    if _lazy_sum_fits(min(len(a), len(b)), p):
        return np.convolve(a, b) % p
    _check_split_sum(min(len(a), len(b)), p)
    ah, al = a >> 16, a & 0xFFFF
    return ((np.convolve(ah, b) % p << 16) + np.convolve(al, b) % p) % p


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as int64, for arrays of residues mod p < 2^31, by float64 BLAS.

    Each entry sums terms = len(b) products.  While ``_float_sum_fits`` holds
    that is one float64 product.  Otherwise a is cut into limbs of w bits,
    the largest w with terms * (p - 1) * (2^w - 1) < 2^53, so each limb's
    product is exact; each is reduced through int64, and the limbs are
    recombined from the top by acc <- (acc * 2^w + product) mod p, below
    p^2 < 2^62 before each reduction.
    """
    terms = len(b)
    if _float_sum_fits(terms, p):
        return (a @ b).astype(np.int64) % p
    w = (((1 << 53) - 1) // (terms * (p - 1)) + 1).bit_length() - 1
    if w == 0:
        raise OverflowError(f"a float64 sum of {terms} products mod {p} is inexact")
    a = a.astype(np.int64)
    mask, shift = (1 << w) - 1, pow(2, w, p)
    acc = 0
    for low in reversed(range(0, (p - 1).bit_length(), w)):
        limb = (a >> low & mask).astype(np.float64)
        acc = (acc * shift + (limb @ b).astype(np.int64)) % p
    return acc


def _mul_mod_lists(a, b, p):
    """Product of coefficient lists mod p."""
    if not a or not b:
        return []
    av = np.asarray(a, dtype=np.int64)
    bv = np.asarray(b, dtype=np.int64)
    return _strip(conv_mod(av, bv, p).tolist())


def _series_inverse(s: np.ndarray, p: int) -> np.ndarray:
    """s^-1 mod X^len(s) over GF(p), for int64 s with s[0] nonzero.

    Each Newton step inv <- inv * (2 - s * inv) mod X^k doubles the correct
    coefficients; pad s with zeros to the precision wanted.
    """
    inv = np.array([pow(int(s[0]), -1, p)], dtype=np.int64)
    while len(inv) < len(s):
        k = min(2 * len(inv), len(s))
        e = -conv_mod(s[:k], inv, p)[:k] % p
        e[0] = (e[0] + 2) % p
        inv = conv_mod(inv, e, p)[:k]
    return inv


def _divmod_arrays(a: np.ndarray, b: np.ndarray, p: int):
    """(quotient, remainder) of stripped int64 coefficient arrays mod p; b nonzero.

    The quotient q has m = len(a) - deg b coefficients and rev(q) = rev(a) /
    rev(b) mod X^m, from the top m of each: by the series recurrence while
    its work m * min(m, len(b)) is below ``_NEWTON_WORK``, or
    ``_NEWTON_WORK_SPLIT`` where convolutions of m terms split (Euclid's
    steps have m = 1 or 2), else by Newton.
    """
    db = len(b) - 1
    m = len(a) - db
    if m <= 0:
        return a[:0], a
    ra = a[::-1][:m]
    work = _NEWTON_WORK if _lazy_sum_fits(m, p) else _NEWTON_WORK_SPLIT
    if m * min(m, len(b)) < work:
        ra, rb = ra.tolist(), b[::-1][:m].tolist()
        inv = pow(rb[0], -1, p)
        rq = []
        for i, c in enumerate(ra):
            for j in range(max(0, i - len(rb) + 1), i):
                c -= rq[j] * rb[i - j]
            rq.append(c * inv % p)
        q = np.array(rq[::-1], dtype=np.int64)
    else:
        rb = np.zeros(m, dtype=np.int64)
        rb[: len(b)] = b[::-1][:m]
        q = conv_mod(ra, _series_inverse(rb, p), p)[m - 1 :: -1]
    return q, _strip((a[:db] - conv_mod(q, b, p)[:db]) % p)


def _divmod_mod_lists(a, b, p):
    """(quotient, remainder) of coefficient lists mod p; b nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    m = len(a) - len(b) + 1  # quotient length
    if m * (len(b) - _ARRAY_STEPS_PER_COEFF) < _ARRAY_FIXED_STEPS:
        return _long_division(a, b, p)
    q, r = _divmod_arrays(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
    return q.tolist(), r.tolist()


def _long_division(a, b, m):
    """(quotient, remainder) of Python-int coefficient lists mod m.

    The leading coefficient of b must be invertible mod m; m may be composite
    (a monic divisor mod p^k).
    """
    inv_lead = pow(b[-1], -1, m)
    db = len(b) - 1
    rem = [c % m for c in a]
    if len(rem) <= db:
        return [], _strip(rem)
    quot = [0] * (len(rem) - db)
    for k in range(len(rem) - db - 1, -1, -1):
        c = rem[k + db] % m
        if c:
            q = c * inv_lead % m
            quot[k] = q
            for j in range(db + 1):
                rem[k + j] = (rem[k + j] - q * b[j]) % m
    return _strip(quot), _strip(rem[:db])


def product_of_powers(pairs, one):
    """one * f1**e1 * f2**e2 * ... over the (f, e) in ``pairs``."""
    out = one
    for f, e in pairs:
        out = out * f**e
    return out


def _power(base, e: int, one, mul=operator.mul):
    """base**e by square-and-multiply under ``mul``, starting from ``one``."""
    if e < 0:
        raise ValueError("negative polynomial power")
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base) if e > 1 else base
        e >>= 1
    return result


class _Poly:
    """The ring methods FieldPoly and IntPoly share.

    A subclass keeps a stripped ``coeffs`` tuple and its modulus ``p`` (None
    over Z), and defines ``_new``, ``*`` and ``divmod``.  ``_new(coeffs,
    changed)`` makes a polynomial of the same ring from a list of ints of
    which only the first ``changed`` may lie outside the ring's coefficient
    range; it reduces those and strips.
    """

    __slots__ = ("coeffs",)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def text(self) -> str:
        return _render_ascending(self.coeffs)

    def _check(self, other):
        if isinstance(other, type(self)):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return self._new([other], 1)
        return NotImplemented

    def _sum(self, other, sign: int):
        """self + sign * other."""
        o = self._check(other)
        if o is NotImplemented:
            return o
        a, b = self.coeffs, o.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += sign * c
        return self._new(out, len(b))

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self._new([-c for c in self.coeffs], len(self.coeffs))

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, e: int):
        return _power(self, e, self._new([1], 0))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        out = [i * c for i, c in enumerate(self.coeffs)][1:]
        return self._new(out, len(out))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self._new([other], 1)
        elif not isinstance(other, type(self)):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))


class FieldPoly(_Poly):
    """Dense polynomial over GF(p), constant term first, no trailing zeros."""

    __slots__ = ("p",)

    def __init__(self, coeffs, p: int, _trusted: bool = False):
        if _trusted:
            self.coeffs = tuple(coeffs)
        else:
            self.coeffs = tuple(_strip([int(c) % p for c in coeffs]))
        self.p = p

    @classmethod
    def zero(cls, p):
        return cls((), p, _trusted=True)

    @classmethod
    def one(cls, p):
        return cls((1,), p, _trusted=True)

    @classmethod
    def x(cls, p):
        return cls((0, 1), p, _trusted=True)

    def _new(self, coeffs, changed):
        p = self.p
        for i in range(changed):
            coeffs[i] %= p
        return FieldPoly(_strip(coeffs), p, _trusted=True)

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FieldPoly(
            _mul_mod_lists(self.coeffs, o.coeffs, self.p), self.p, _trusted=True
        )

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        q, r = _divmod_mod_lists(self.coeffs, o.coeffs, self.p)
        return (
            FieldPoly(q, self.p, _trusted=True),
            FieldPoly(r, self.p, _trusted=True),
        )

    def monic(self) -> "FieldPoly":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        inv = pow(self.coeffs[-1], -1, self.p)
        return FieldPoly(
            tuple(c * inv % self.p for c in self.coeffs), self.p, _trusted=True
        )

    def __call__(self, x: int) -> int:
        """Horner evaluation; deg(f) multiply-adds."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __repr__(self):
        return f"FieldPoly({self.text()!r}, p={self.p})"


def _pack(coeffs, width: int) -> int:
    """sum(c_i * 2^(8 * width * i)) for coefficients below 2^(8 * width) in
    absolute value: the packed positive parts less the packed negative parts."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in coeffs)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _imul_lists(a, b):
    """Product of integer coefficient lists by Kronecker substitution.

    Both lists are packed into Python ints at X = 2^(8 * width) and
    multiplied once (von zur Gathen and Gerhard, Modern Computer Algebra,
    8.4).  A product coefficient is at most max|a| * max|b| * min(len a,
    len b) in absolute value, so slots one sign bit wider than that bound
    (and than every input coefficient) hold each one exactly.  Adding
    2^(8 * width - 1) to every slot makes them all nonnegative, so the
    product is read back slot by slot with no carries between them.
    """
    if not a or not b:
        return []
    ma, mb = max(map(abs, a)), max(map(abs, b))
    width = (max(ma * mb * min(len(a), len(b)), ma, mb).bit_length() + 8) // 8
    size = (len(a) + len(b) - 1) * width
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * (size // width), "little")
    out = (_pack(a, width) * _pack(b, width) + offset).to_bytes(size, "little")
    return [
        int.from_bytes(out[i : i + width], "little") - half
        for i in range(0, size, width)
    ]


class IntPoly(_Poly):
    """Dense polynomial over Z with arbitrary-precision coefficients."""

    __slots__ = ()
    p = None

    def __init__(self, coeffs):
        self.coeffs = tuple(_strip([int(c) for c in coeffs]))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    def _new(self, coeffs, changed):
        return IntPoly(coeffs)

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return IntPoly(_imul_lists(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Division over Z by a monic divisor."""
        o = self._check(other)
        if o is NotImplemented:
            return o
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if not o.is_monic:
            raise ValueError("integer division requires a monic divisor")
        rem = list(self.coeffs)
        db = o.degree
        if len(rem) <= db:
            return IntPoly.zero(), self
        quot = [0] * (len(rem) - db)
        for k in range(len(rem) - db - 1, -1, -1):
            q = quot[k] = rem[k + db]
            if q:
                for j in range(db + 1):
                    rem[k + j] -= q * o.coeffs[j]
        return IntPoly(quot), IntPoly(rem[:db])

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reduce(self, p: int) -> FieldPoly:
        return FieldPoly([c % p for c in self.coeffs], p)

    def __repr__(self):
        return f"IntPoly({self.text()!r})"


def _render_ascending(coeffs) -> str:
    """Canonical text form ``c0 + c1*X + ... + cd*X^d`` with explicit signs."""
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            xpow = "X" if i == 1 else f"X^{i}"
            term = xpow if mag == 1 else f"{mag}*{xpow}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def _euclid_remainder(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a mod b for stripped int64 coefficient arrays mod p; b nonzero.

    When a is one coefficient longer than b and b has degree >= 1, the
    quotient q1 * X + q0 comes from the two leading coefficients and the
    remainder a - q1 * X * b - q0 * b from two scaled subtractions and one
    reduction, while two products of residues sum exactly in int64
    (``_lazy_sum_fits``, every p below 2^31).  Every other division is one
    `_divmod_arrays`.
    """
    db = len(b) - 1
    if len(a) != db + 2 or db < 1 or not _lazy_sum_fits(2, p):
        return _divmod_arrays(a, b, p)[1]
    inv = pow(int(b[-1]), -1, p)
    q1 = int(a[-1]) * inv % p
    q0 = (int(a[-2]) - q1 * int(b[-2])) * inv % p
    r = a[:db] - q0 * b[:db]
    r[1:] -= q1 * b[: db - 1]
    return _strip(r % p)


def poly_gcd(f, g):
    """Monic gcd over GF(p).

    While the divisor has at least ``_GCD_ARRAY_CUTOFF`` coefficients both
    remainders stay int64 arrays and each step is one `_euclid_remainder`
    (two scaled subtractions for the usual quotient of two coefficients).
    Smaller remainders finish on coefficient lists.
    """
    if f.p != g.p:
        raise ValueError(f"mixed moduli {f.p} and {g.p}")
    p = f.p
    a, b = f.coeffs, g.coeffs
    if len(b) >= _GCD_ARRAY_CUTOFF:
        a = np.array(a, dtype=np.int64)
        b = np.array(b, dtype=np.int64)
        while len(b) >= _GCD_ARRAY_CUTOFF:
            a, b = b, _euclid_remainder(a, b, p)
        a, b = a.tolist(), b.tolist()
    while b:
        a, b = b, _divmod_mod_lists(a, b, p)[1]
    return FieldPoly(a, p, _trusted=True).monic()


def poly_lcm(f, g):
    if f.is_zero or g.is_zero:
        return FieldPoly.zero(f.p)
    return ((f * g) // poly_gcd(f, g)).monic()


def _reduction_matrix(low: np.ndarray, p: int) -> np.ndarray:
    """The int64 (n - 1) x n matrix R whose row j is X^(n+j) mod f, for the
    monic f = X^n + sum low[t] X^t over GF(p).

    Row 0 is -low.  Given rows 0..k-1, the rows k..2k-1 are X^k times them:
    each row shifted up by k, its k coefficients at X^n..X^(n+k-1) reduced
    by rows 0..k-1 in one `_matmul_mod`, plus the shifted residue.
    """
    n = len(low)
    R = np.empty((n - 1, n))
    R[:1] = -low % p
    k = 1
    while k < n - 1:
        e = min(k, n - 1 - k)
        block = _matmul_mod(R[:e, n - k :], R[:k], p)
        block[:, k:] += R[:e, : n - k].astype(np.int64)
        R[k : k + e] = block % p
        k += e
    return R.astype(np.int64)


class _Modulus:
    """Arithmetic on int64 coefficient vectors modulo a fixed f of degree n >= 1.

    Vectors are reduced polynomials padded to length n.  A product c has at
    most 2n - 1 coefficients.  Up to degree ``_REDUCTION_MAX_N``, and while
    n * (p - 1)^2 < 2^63 (``_lazy_sum_fits``), it is reduced by one product
    with the reduction matrix R of `_reduction_matrix`, built once:
    c mod f = c[:n] + c[n:] @ R, each entry a sum of at most n - 1 products
    of residues and one residue (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 9).  Otherwise its quotient by the monic f has m <= n - 1
    coefficients and rev(quotient) = rev(c) * rev(f)^-1 mod X^m, as in
    `_divmod_arrays`; the inverse mod X^n, which holds every such prefix,
    comes once from `_series_inverse`, after which every reduction is two
    convolutions.
    """

    __slots__ = ("p", "n", "low", "R", "inv")

    def __init__(self, f: FieldPoly):
        p, n = f.p, f.degree
        f = np.array(f.monic().coeffs, dtype=np.int64)
        self.p, self.n = p, n
        self.low = f[:n]
        self.R = self.inv = None
        if n <= _REDUCTION_MAX_N and _lazy_sum_fits(n, p):
            self.R = _reduction_matrix(self.low, p)
        else:
            self.inv = _series_inverse(f[::-1][:n], p)

    def vector(self, g: FieldPoly) -> np.ndarray:
        out = np.zeros(self.n, dtype=np.int64)
        out[: len(g.coeffs)] = g.coeffs
        return out

    def poly(self, v: np.ndarray) -> FieldPoly:
        return FieldPoly(_strip(v.tolist()), self.p, _trusted=True)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        p, n = self.p, self.n
        c = conv_mod(a, b, p)
        m = len(c) - n
        if m <= 0:
            return c
        if self.R is not None:
            return (c[:n] + c[n:] @ self.R[:m]) % p
        q = conv_mod(c[: n - 1 : -1], self.inv[:m], p)[m - 1 :: -1]
        return (c[:n] - conv_mod(q, self.low, p)[:n]) % p

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        return _power(a, e, self.vector(FieldPoly.one(self.p)), self.mul)


def _shifts(c: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The float64 rows x cols Toeplitz matrix T[r, t] = c[t - r] (0 outside c)."""
    padded = np.zeros(rows - 1 + cols)
    padded[rows - 1 : rows - 1 + min(len(c), cols)] = c[:cols]
    # row r is the window starting at rows - 1 - r, so the last window first
    return sliding_window_view(padded, cols)[::-1]


def _frobenius_matrix(m: _Modulus) -> np.ndarray:
    """The float64 n x n matrix Q whose row i is X^(ip) mod f, for n >= 2.

    Row 1 is xp = X^p mod f, one power; every other row comes from
    `_matmul_mod` products.  The matrix of h -> h * g mod f has row
    r = X^r * g mod f: g shifted by r below X^n, plus its coefficients at
    X^(n+j) times the rows X^(n+j) mod f of the reduction matrix R:
    ``_Modulus.R`` where the products mod f use it, else one
    `_reduction_matrix` build.  With M the matrix of xp, the first
    k = isqrt(n) rows are Q[i] = Q[i-1] @ M; with G that of X^(kp), each next
    block of k rows is the block before it times G.
    """
    p, n = m.p, m.n
    x = np.zeros(n, dtype=np.int64)
    x[1] = 1
    xp = m.pow(x, p)

    def times(g):
        T = _shifts(g, n, 2 * n - 1)
        high = _matmul_mod(T[:, n:], R, p)
        return ((high + T[:, :n].astype(np.int64)) % p).astype(np.float64)

    R = (m.R if m.R is not None else _reduction_matrix(m.low, p)).astype(np.float64)
    k = math.isqrt(n)
    M = times(xp)
    Q = np.zeros((n, n))
    Q[0, 0] = 1
    for i in range(1, k + 1):
        Q[i] = _matmul_mod(Q[i - 1], M, p)
    G = times(Q[k])
    for i in range(k, n, k):
        end = min(i + k, n)
        Q[i:end] = _matmul_mod(Q[i - k : end - k], G, p)
    return Q


def _frobenius(m: _Modulus):
    """The GF(p)-linear map h -> h^p mod f on vectors of ``m``, for n >= 2.

    (sum h_i X^i)^p = sum h_i X^(ip), so the map is one `_matmul_mod` by
    the matrix of `_frobenius_matrix`.
    """
    p, Q = m.p, _frobenius_matrix(m)
    return lambda h: _matmul_mod(h, Q, p)


def _bezout_mod_p(g: FieldPoly, h: FieldPoly):
    """s, t with s*g + t*h = 1 over GF(p); g, h must be coprime.

    For deg g, deg h >= 1, extended Euclid already gives deg s < deg h and
    deg t < deg g (von zur Gathen and Gerhard, Modern Computer Algebra,
    Lemma 3.10), the bounds the Hensel step needs."""
    p = g.p
    r0, r1 = g, h
    s0, s1 = FieldPoly.one(p), FieldPoly.zero(p)
    t0, t1 = FieldPoly.zero(p), FieldPoly.one(p)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.degree != 0:
        raise ValueError("polynomials are not coprime")
    inv = pow(r0.coeffs[0], -1, p)
    s = FieldPoly([c * inv % p for c in s0.coeffs], p)
    t = FieldPoly([c * inv % p for c in t0.coeffs], p)
    return s, t


# ---------------------------------------------------------------------------
# Squarefree structure


def _squarefree_decomposition_field(f: FieldPoly):
    """Yun's algorithm: list of (monic factor, multiplicity); needs p > deg f."""
    p = f.p
    if p <= f.degree:
        raise FieldTooSmallError(
            f"squarefree decomposition needs p > deg(f) ({p} <= {f.degree})"
        )
    f = f.monic()
    out = []
    fp = f.derivative()
    a = poly_gcd(f, fp)
    b = f // a
    c = fp // a
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a.monic(), i))
        b = b // a
        c = d // a
        d = c - b.derivative()
        i += 1
    return out


_GCD_PRIME_FLOOR = 1 << 29


def _int_gcd_monic(f: IntPoly, g: IntPoly) -> IntPoly:
    """Monic gcd over Z of a monic f and arbitrary g, by modular CRT.

    The result is certified: it is reconstructed from primes realizing the
    minimal gcd degree, and returned only once it exactly divides both
    inputs, which pins it to the true gcd (any common divisor of maximal
    degree that divides both is the gcd, up to the monic normalization).
    """
    if g.is_zero:
        return f
    if f.degree == 0:
        return IntPoly.one()
    residues: list[FieldPoly] = []
    previous = None
    prime = _GCD_PRIME_FLOOR
    for _ in range(256):
        prime = next_prime(prime)
        fp = f.reduce(prime)
        gp = g.reduce(prime)
        if fp.degree < f.degree or gp.degree < g.degree:
            continue
        d = poly_gcd(fp, gp)
        if d.degree == 0:
            return IntPoly.one()
        if residues and d.degree < residues[0].degree:
            residues = []
            previous = None
        if residues and d.degree > residues[0].degree:
            continue
        residues.append(d)
        candidate = crt_combine(residues)
        if previous is not None and candidate == previous:
            if (f % candidate).is_zero and (g % candidate).is_zero:
                return candidate
        previous = candidate
    raise ComputationError("modular gcd did not stabilize")


def squarefree_part(f):
    """Monic product of the distinct irreducible factors of f.

    Over GF(p) this requires p > deg(f); over Z the input must be monic
    (minimal polynomials always are).
    """
    if isinstance(f, FieldPoly):
        if f.p <= f.degree:
            raise FieldTooSmallError(
                f"squarefree part needs p > deg(f) ({f.p} <= {f.degree})"
            )
        if f.degree <= 0:
            return FieldPoly.one(f.p)
        return (f // poly_gcd(f, f.derivative())).monic()
    if isinstance(f, IntPoly):
        if not f.is_monic:
            raise ValueError("integer squarefree part implemented for monic input")
        if f.degree <= 0:
            return IntPoly.one()
        return f // _int_gcd_monic(f, f.derivative())
    raise TypeError(f"unsupported polynomial type {type(f)!r}")


# ---------------------------------------------------------------------------
# Factorization over GF(p)


def _distinct_degree(f: FieldPoly):
    """Partial factorization of monic squarefree f into (product, degree) parts.

    One part per factor degree, ascending; h_e = X^(p^e) mod f comes from
    the Frobenius map of f.  A block is B = max(1, isqrt(deg f // 2)) degrees
    e = d+1 .. top: one gcd of the rest v with the product of the h_e - X
    mod f is G, the factors of v of degree in (d, top] (all of v when the
    product is 0), split by gcd(G, h_e - X) for ascending e < top until
    deg G < 2e leaves one irreducible.  So the parts, and the draws
    ``_equal_degree`` makes on them, are those of one gcd per degree (von
    zur Gathen and Shoup 1992).
    """
    p = f.p
    parts = []
    v = f
    d = 0
    if f.degree >= 2:
        m = _Modulus(f)
        frobenius = _frobenius(m)
        block = max(1, math.isqrt(f.degree // 2))
        x = h = m.vector(FieldPoly.x(p))
        while v.degree >= 2 * (d + 1):
            top = min(d + block, v.degree // 2)
            shifted = []
            for _ in range(d + 1, top + 1):
                h = frobenius(h)
                shifted.append((h - x) % p)
            G = poly_gcd(v, m.poly(reduce(m.mul, shifted)))
            if G.degree > 0:
                v = v // G
                for e, hx in enumerate(shifted, d + 1):
                    if G.degree < 2 * e:
                        break
                    g = G if e == top else poly_gcd(G, m.poly(hx))
                    if g.degree > 0:
                        parts.append((g, e))
                        G = G // g
                if G.degree > 0:
                    parts.append((G, G.degree))
            d = top
    if v.degree > 0:
        parts.append((v, v.degree))
    return parts


_SPLIT_DRAWS = 64  # _equal_degree gives up after this many draws


def _random_poly(degree_bound: int, p: int, rng) -> FieldPoly:
    return FieldPoly([rng.randrange(p) for _ in range(degree_bound)], p)


def _equal_degree(f: FieldPoly, d: int, rng):
    """Split monic squarefree f, all of whose factors have degree d.

    For odd p, r^((p^d - 1)/2) is 1 at each factor of f with probability
    about 1/2, independently, so a draw r splits f with probability about
    1/2 at least, and a correct gcd fails all ``_SPLIT_DRAWS`` = 64 draws
    (those of degree < 1 included) with probability near 2^-64.  Past them
    FactorizationError is raised: a faulty kernel ends the call instead of
    looping forever.  Every draw's power is taken in one `_Modulus` of f,
    so its reduction matrix is built once per polynomial split.
    """
    if f.degree == d:
        return [f]
    p = f.p
    exponent = (p**d - 1) // 2
    m = _Modulus(f)
    for _ in range(_SPLIT_DRAWS):
        r = _random_poly(f.degree, p, rng)
        if r.degree < 1:
            continue
        g = poly_gcd(f, r)
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)
        s = m.poly(m.pow(m.vector(r), exponent))
        g = poly_gcd(f, s - FieldPoly.one(p))
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)
    raise FactorizationError(f"no split of degree {f.degree} in {_SPLIT_DRAWS} draws")


def factor(f: FieldPoly, rng) -> tuple:
    """The (monic irreducible, multiplicity) pairs of f, sorted by degree
    and then coefficients; f is their product times its leading coefficient.

    Squarefree decomposition, then distinct-degree splitting with one gcd
    per block of degrees, then Cantor-Zassenhaus equal-degree splitting.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    result = {}
    if f.degree >= 1:
        for sqf, mult in _squarefree_decomposition_field(f.monic()):
            for part, d in _distinct_degree(sqf):
                for irr in _equal_degree(part, d, rng):
                    result[irr.monic()] = mult
    return tuple(sorted(result.items(), key=lambda kv: (kv[0].degree, kv[0].coeffs)))


# ---------------------------------------------------------------------------
# Gcd-free basis


def divide_out(f, g):
    """(e, f // g**e) for the largest e with g**e dividing f.

    f is nonzero and g non-constant, so the loop ends.
    """
    e = 0
    while True:
        q, r = divmod(f, g)
        if not r.is_zero:
            return e, f
        f = q
        e += 1


def gcd_free_basis(factors) -> tuple[tuple, tuple]:
    """(basis, exponents) of a characteristic polynomial from its factors.

    ``factors`` are (monic irreducible P, exponent e of P in the minimal
    polynomial, multiplicity m of P in the characteristic polynomial)
    triples.  Each basis polynomial is the product of the P of one (e, m)
    group, with exponent m; the basis is sorted by degree and then
    coefficients.  It is the coarsest gcd-free basis of the squarefree
    part, the minimal polynomial and the characteristic polynomial: a
    refinement of the three keeps two irreducible factors together exactly
    when their exponent vectors (1, e, m) agree (Bach, Driscoll and Shallit,
    "Factor refinement", J. Algorithms 1993).
    """
    groups: dict[tuple[int, int], list] = {}
    for f, e, m in factors:
        groups.setdefault((e, m), []).append(f)
    pairs = sorted(
        ((reduce(operator.mul, fs), m) for (_, m), fs in groups.items()),
        key=lambda pair: (pair[0].degree, pair[0].coeffs),
    )
    return tuple(g for g, _ in pairs), tuple(m for _, m in pairs)


# ---------------------------------------------------------------------------
# Hensel lifting


def _mod_coeffs(f: IntPoly, m: int) -> IntPoly:
    """f with every coefficient reduced into [0, m)."""
    return IntPoly([c % m for c in f.coeffs])


def _hensel_pair(f, g, h, s, t, p: int, target_modulus: int):
    """Quadratically lift f = g*h from mod p to mod target_modulus.

    IntPolys with coefficients in [0, current modulus): f, g, h monic, and
    s*g + t*h = 1 mod p with deg s < deg h, deg t < deg g.
    """
    m = p
    while m < target_modulus:
        m = min(m * m, target_modulus)
        e = _mod_coeffs(f - g * h, m)
        q, r = map(IntPoly, _long_division((s * e).coeffs, h.coeffs, m))
        g = _mod_coeffs(g + t * e + q * g, m)
        h = _mod_coeffs(h + r, m)
        if m == target_modulus:
            break  # the last step needs no Bezout pair mod m
        b = _mod_coeffs(s * g + t * h - 1, m)
        c, d = map(IntPoly, _long_division((s * b).coeffs, h.coeffs, m))
        s = _mod_coeffs(s - d, m)
        t = _mod_coeffs(t - t * b - c * g, m)
    return g, h


def _lift_tree(f: IntPoly, parts, p: int, modulus: int):
    """Lift monic f, coefficients in [0, modulus), against its mod-p factors."""
    if len(parts) == 1:
        return [f]
    mid = len(parts) // 2
    left = reduce(operator.mul, parts[:mid])
    right = reduce(operator.mul, parts[mid:])
    s, t = _bezout_mod_p(left, right)
    pair = (IntPoly(x.coeffs) for x in (left, right, s, t))
    g, h = _hensel_pair(f, *pair, p, modulus)
    return _lift_tree(g, parts[:mid], p, modulus) + _lift_tree(h, parts[mid:], p, modulus)


def hensel_lift_basis(S: IntPoly, basis, p: int):
    """The monic factors of S over Z congruent to the factors ``basis`` mod p.

    ``basis`` is a list of pairwise-coprime monic polynomials mod p.  A
    monic factor of S has coefficients of at most B = 2^(deg S) * ||S||_2
    (Mignotte; von zur Gathen and Gerhard, Modern Computer Algebra, 6.6), so
    the lift runs to the smallest p^k > 2 * 2^(deg S) * (floor(||S||_2) + 1)
    and reads each factor in the symmetric range.  Raises BadPrimeError
    unless ``basis`` multiplies to S mod p, and unless the lifted factors
    multiply to S exactly over Z.  Factors of S over Z congruent to
    ``basis`` are unique (Hensel) and within the bound, so when that check
    fails there are none.
    """
    if not S.is_monic or not all(g.is_monic for g in basis):
        raise ValueError("Hensel lifting requires a monic target and basis")
    if reduce(operator.mul, basis, FieldPoly.one(p)) != S.reduce(p):
        raise BadPrimeError("basis does not multiply to the target mod p")
    bound = 2**S.degree * (math.isqrt(sum(c * c for c in S.coeffs)) + 1)
    modulus = p
    while modulus <= 2 * bound:
        modulus *= p
    lifted = [
        IntPoly(symmetric_range(g.coeffs, modulus))
        for g in _lift_tree(_mod_coeffs(S, modulus), list(basis), p, modulus)
    ]
    if reduce(operator.mul, lifted, IntPoly.one()) != S:
        raise BadPrimeError("lifted factors do not multiply to the target over Z")
    return lifted


# ---------------------------------------------------------------------------
# CRT reconstruction


def crt_combine(residues) -> IntPoly:
    """Coefficientwise CRT of monic residues into the symmetric range.

    All residues must be monic of equal degree: callers group residues by
    degree first, so a mismatch is a caller error.
    """
    residues = list(residues)
    if not residues:
        raise ValueError("crt_combine needs at least one residue")
    moduli = [r.p for r in residues]
    if len(set(moduli)) != len(moduli):
        raise ValueError("crt_combine needs pairwise distinct prime moduli")
    if len({r.degree for r in residues}) != 1:
        raise ValueError("crt_combine needs residues of equal degree")
    for r in residues:
        if not r.is_monic:
            raise ValueError("crt_combine expects monic residues")
    width = residues[0].degree + 1
    coeffs = list(residues[0].coeffs) + [0] * (width - len(residues[0].coeffs))
    modulus = residues[0].p
    for r in residues[1:]:
        p = r.p
        inv = pow(modulus % p, -1, p)
        for i in range(width):
            ri = r.coefficient(i)
            delta = (ri - coeffs[i]) % p
            coeffs[i] = coeffs[i] + modulus * (delta * inv % p)
        modulus *= p
    return IntPoly(symmetric_range(coeffs, modulus))
