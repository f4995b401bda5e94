"""Characteristic polynomial over the integers.

The route: the integer minimal polynomial is reconstructed by CRT from its
images modulo random word-size primes, one Krylov round each (with early
termination once the symmetric-range reconstruction stabilizes and one
fresh prime's certified minimal polynomial re-verifies it); a prime q with
an index-calculus-friendly group structure is then drawn, and the adaptive
field driver factors the characteristic polynomial of A mod q.  Its
irreducible factors, grouped by their exponent e in the minimal polynomial
and their multiplicity m, give a gcd-free basis of the squarefree part S of
the minimal polynomial, which is Hensel-lifted, as far as a factor of S
needs, to recover the integer characteristic polynomial as a product of
lifted factors.

A prime is *bad* when the field minimal polynomial differs from the
reduction of the integer one, when the squarefree part stops being
squarefree mod q, when the lifted factors do not multiply to S exactly over
Z, or when the reassembled product has the wrong degree or trace; bad
primes are logged and retried (three distinct bad primes raise with
diagnostics).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

from .adaptive import AdaptiveConfig, CharpolyResult, charpoly_with_details
from .blackbox import SparseMatrix, one_trial_suffices, wiedemann_minpoly
from .ff import find_index_calculus_field, is_prime
from .poly import (
    BadPrimeError,
    ComputationError,
    FieldPoly,
    IntPoly,
    _float_sum_fits,
    _lazy_sum_fits,
    crt_combine,
    gcd_free_basis,
    hensel_lift_basis,
    poly_gcd,
    product_of_powers,
    squarefree_part,
)

_MINPOLY_PRIME_LO = 1 << 28
_MINPOLY_PRIME_HI = 1 << 29


class IntegerCharpolyError(ComputationError):
    """The integer pipeline ran out of good primes; carries diagnostics."""

    def __init__(self, message: str, bad_primes=()):
        self.bad_primes = list(bad_primes)
        super().__init__(
            message + (f" (bad primes tried: {self.bad_primes})" if bad_primes else "")
        )


def minpoly_coeff_bound(n: int, norm: int) -> int:
    """Worst-case bit size of integer minimal polynomial coefficients:
    ceil((n/2) * (log2 n + 2 log2 ||A|| + 0.212))."""
    if n < 1 or norm < 1:
        raise ValueError("need n >= 1 and norm >= 1")
    bits = (n / 2) * (math.log2(n) + 2 * math.log2(norm) + 0.212)
    return max(1, math.ceil(bits))


def _random_minpoly_prime(rng, seen) -> int:
    while True:
        candidate = rng.randrange(_MINPOLY_PRIME_LO, _MINPOLY_PRIME_HI) | 1
        if candidate not in seen and is_prime(candidate):
            seen.add(candidate)
            return candidate


def integer_minpoly(A: SparseMatrix, rng) -> IntPoly:
    """Integer minimal polynomial of A by CRT over random word-size primes.

    Each CRT prime takes one Krylov round, whose generator divides the
    minimal polynomial mod p.  It falls short only when the random
    projection fails, with probability at most 2 deg / p (Wiedemann, IEEE
    Trans. IT 1986; Kaltofen and Pan 1991): below 2^-18 for p > 2^28 and
    deg <= 422.  Residues of less-than-maximal degree, from such a round or
    a bad prime, are discarded.  Termination: the symmetric-range
    reconstruction must stay unchanged while two further primes arrive (one,
    once the primes' product is past the coefficient bound), and the
    certified minimal polynomial at one extra verification prime must
    reproduce it.  A failed verification restarts the count; its residue
    joins the group when it has the group's degree, and starts a new group
    when it has a higher one.  A pathological spread of degrees among the
    first 10 primes raises.  The prime budget scales with the coefficient
    bound: the primes it needs, plus 80 for bad primes and the stability
    checks.
    """
    seen: set[int] = set()
    group: list[FieldPoly] = []
    degrees_seen: list[int] = []
    candidate = None
    stable = 0
    bit_cap = minpoly_coeff_bound(A.n, max(1, A.max_abs())) + 8
    max_primes = -(-bit_cap // 28) + 80  # every prime exceeds 2^28
    for used in range(1, max_primes + 1):
        p = _random_minpoly_prime(rng, seen)
        residue = wiedemann_minpoly(A.operator(p), rng, trial_bound=A.n)
        degrees_seen.append(residue.degree)
        if used == 10:
            top = max(degrees_seen)
            if sum(1 for d in degrees_seen if d == top) <= 5:
                raise IntegerCharpolyError(
                    f"no majority degree among 10 primes: {sorted(degrees_seen)}"
                )
        if group and residue.degree < group[0].degree:
            continue  # bad prime (or failed projection): degree dropped
        if group and residue.degree > group[0].degree:
            group = []  # everything so far was bad
            candidate = None
            stable = 0
        group.append(residue)
        new_candidate = crt_combine(group)
        if candidate is not None and new_candidate == candidate:
            stable += 1
        else:
            stable = 0
        candidate = new_candidate
        past_bound = sum(g.p.bit_length() for g in group) > bit_cap
        if stable >= 2 or (stable >= 1 and past_bound):
            p_verify = _random_minpoly_prime(rng, seen)
            check = wiedemann_minpoly(A.operator(p_verify), rng)
            if check == candidate.reduce(p_verify):
                return candidate
            if check.degree > group[0].degree:
                group = []  # a certified higher degree: the group was bad
            if not group or check.degree == group[0].degree:
                group.append(check)
                candidate = crt_combine(group)
            stable = 0
    raise IntegerCharpolyError(
        f"integer minimal polynomial did not stabilize after {max_primes} primes"
    )


def lift_charpoly(
    A: SparseMatrix, minpoly_z: IntPoly, p: int, factors
) -> tuple[IntPoly, list[IntPoly], list[int]]:
    """Reassemble the integer charpoly from its factors mod one good prime.

    ``factors`` are the field pass's (monic irreducible P, exponent e in the
    minimal polynomial, multiplicity m in the characteristic polynomial)
    triples mod p.  Checks that they give the reduction of ``minpoly_z`` and
    that its squarefree part S stays squarefree mod p, groups them into a
    gcd-free basis (`gcd_free_basis`), lifts the basis to the factors of S
    over Z (`hensel_lift_basis`, which checks that they multiply to S
    exactly), and returns the product of lifted factors raised to their
    exponents, with the lifted factors and the exponents.  Violations of the
    good-prime conditions raise BadPrimeError.
    """
    n = A.n
    if p <= n:
        raise BadPrimeError(f"prime {p} does not exceed the dimension {n}")
    field_minpoly = product_of_powers(((f, e) for f, e, _ in factors), FieldPoly.one(p))
    if field_minpoly != minpoly_z.reduce(p):
        raise BadPrimeError(
            "field minimal polynomial differs from the integer reduction"
        )
    S = squarefree_part(minpoly_z)
    s_bar = S.reduce(p)
    if poly_gcd(s_bar, s_bar.derivative()).degree != 0:
        raise BadPrimeError("squarefree part is not squarefree mod p")
    basis, exponents = gcd_free_basis(factors)
    lifted = hensel_lift_basis(S, basis, p)
    out = product_of_powers(zip(lifted, exponents), IntPoly.one())
    if out.degree != n:
        raise BadPrimeError(f"lifted product has degree {out.degree}, wanted {n}")
    return out, lifted, list(exponents)


# distinct field primes tried before giving up, and the draws allowed to
# find them (find_index_calculus_field often repeats a prime)
_FIELD_ATTEMPTS = 3
_FIELD_DRAWS = 32


def _field_prime_floor(n: int, symmetric: bool) -> tuple[int, bool]:
    """Field size floor for the modular charpoly run, and whether the
    one-trial rank bound raised it.

    The floor is min(max(2n + 1, 4n^2, 2^12), 2^30), raised to the least q*
    at which one rank trial of the kind A takes ("diagonal" when symmetric,
    "toeplitz" otherwise) errs with probability at most 1/n^2 at rank n
    (`blackbox.one_trial_suffices`), about n^3 (n + 3)/2 and 3n^3 (n + 1)/2,
    so that the run's rank calls take one trial each.  It is raised only
    where q* <= 2^30 keeps that kind's fast exact kernels: lazy int64 sums of
    n + 1 products for "diagonal" (sparse rows, dots and Berlekamp-Massey
    discrepancies; symmetric n up to about 148), and the dense float64
    Toeplitz matrix for "toeplitz" (n up to about 53).  Elsewhere a rank
    call takes two agreeing trials, and the 1/n^2 of the determinant rounds
    (`multiplicity.det_rounds`) still holds.
    """
    floor = min(max(2 * n + 1, 4 * n * n, 1 << 12), 1 << 30)
    kind = "diagonal" if symmetric else "toeplitz"
    top = 1 << 30
    if one_trial_suffices(n, n, floor, kind) or not one_trial_suffices(n, n, top, kind):
        return floor, False
    low = floor  # the predicate fails at low and holds at top
    while top - low > 1:
        mid = (low + top) // 2
        if one_trial_suffices(n, n, mid, kind):
            top = mid
        else:
            low = mid
    fast = _lazy_sum_fits(n + 1, top) if symmetric else _float_sum_fits(n, top)
    return (top, True) if fast else (floor, False)


@dataclass
class IntegerCharpolyResult:
    charpoly: IntPoly
    minpoly: IntPoly
    field_result: CharpolyResult
    field_prime: int
    lifted_factors: list[IntPoly]
    lift_exponents: list[int]
    bad_primes: list[int]


def integer_charpoly_with_details(
    A: SparseMatrix, cfg: AdaptiveConfig | None = None
) -> IntegerCharpolyResult:
    if cfg is None:
        cfg = AdaptiveConfig()
    rng = random.Random(cfg.seed)
    n = A.n
    minpoly_z = integer_minpoly(A, rng)
    trace_z = A.diagonal_sum()
    floor, raised = _field_prime_floor(n, A.symmetric)
    bad: list[int] = []
    last_reason = None
    for _ in range(_FIELD_DRAWS):
        if len(bad) == _FIELD_ATTEMPTS:
            break
        q, _subprime = find_index_calculus_field(n, rng, min_q=floor)
        if q in bad:
            continue
        cfg._emit("field", prime=q, floor=floor, raised=raised)
        field_cfg = dataclasses.replace(cfg, seed=rng.randrange(1 << 62))
        try:
            field_result = charpoly_with_details(A.operator(q), field_cfg)
            lifted, factors, exponents = lift_charpoly(
                A, minpoly_z, q, field_result.factors
            )
            if lifted.coefficient(n - 1) != -trace_z:
                raise BadPrimeError("integer trace identity violated after lift")
            return IntegerCharpolyResult(
                charpoly=lifted,
                minpoly=minpoly_z,
                field_result=field_result,
                field_prime=q,
                lifted_factors=factors,
                lift_exponents=exponents,
                bad_primes=bad,
            )
        except BadPrimeError as err:
            bad.append(q)
            last_reason = str(err)
            cfg._emit("bad-prime", prime=q, reason=str(err))
    raise IntegerCharpolyError(
        f"no good prime after {len(bad)} attempts: {last_reason}", bad_primes=bad
    )


def integer_charpoly(A: SparseMatrix, cfg: AdaptiveConfig | None = None) -> IntPoly:
    """Characteristic polynomial of a sparse integer matrix (black-box)."""
    return integer_charpoly_with_details(A, cfg).charpoly
