"""Prime search, the modulus check, generators and discrete logarithms.

A GF(p) scalar is a plain int in ``[0, p)``; there is no element type.
``check_modulus`` holds the one rule for a modulus, an odd prime of at most
2**31 (deterministic Miller-Rabin, whose witness set is exact far beyond the
word-size range).  It runs where a modulus enters the program: the CLI's
``--field``, ``adaptive.charpoly_with_details`` and ``find_generator`` (so
``DlogContext``).  The black-box kernels take any modulus.

Discrete logarithms use baby-step/giant-step, with O(sqrt(q)) memory and
O(sqrt(q)) steps per lookup in every field.
"""

from __future__ import annotations

import math

WORD_PRIME_LIMIT = 1 << 31

# Exact for all n < 3.3 * 10**24 (covers the word-size range many times over).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for word-sized integers."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than ``n``."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def random_prime(rng, lo: int, hi: int) -> int:
    """Random prime in ``[lo, hi)``; raises if the interval has none."""
    if hi <= lo:
        raise ValueError("empty prime search interval")
    for _ in range(64 * (hi - lo).bit_length()):
        candidate = rng.randrange(lo, hi)
        if is_prime(candidate):
            return candidate
    # Dense scan fallback for very narrow intervals.
    for candidate in range(lo, hi):
        if is_prime(candidate):
            return candidate
    raise ValueError(f"no prime in [{lo}, {hi})")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (fine for word-sized n)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def check_modulus(p: int) -> int:
    """Return p, or raise ValueError naming p unless p is an odd prime <= 2**31."""
    if not isinstance(p, int) or p == 2 or p > WORD_PRIME_LIMIT or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime <= 2**31, got {p}")
    return p


def find_generator(q: int) -> int:
    """Smallest generator of GF(q)*, certified by checking g^((q-1)/r) != 1
    for every prime r dividing q-1."""
    check_modulus(q)
    radicals = list(factorize(q - 1))
    for g in range(2, q):
        if all(pow(g, (q - 1) // r, q) != 1 for r in radicals):
            return g
    raise ValueError(f"no generator found for GF({q})")  # unreachable for prime q


class DlogContext:
    """Discrete logarithms to the smallest generator of GF(q)*, by
    baby-step/giant-step.  Lookups are read-only once constructed."""

    __slots__ = ("q", "generator", "_baby", "_giant_step", "_m")

    def __init__(self, q: int):
        self.q = q
        self.generator = g = find_generator(q)
        self._m = m = math.isqrt(q - 2) + 1
        baby = {}
        acc = 1
        for j in range(m):
            baby.setdefault(acc, j)
            acc = acc * g % q
        self._baby = baby
        self._giant_step = pow(g, -m, q)

    def dlog(self, a: int) -> int:
        """Exponent e in [0, q-2] with generator**e == a; rejects a == 0."""
        q = self.q
        cur = a % q
        if cur == 0:
            raise ValueError("discrete log of zero")
        for i in range(self._m):
            j = self._baby.get(cur)
            if j is not None:
                return (i * self._m + j) % (q - 1)
            cur = cur * self._giant_step % q
        raise ArithmeticError("baby-step/giant-step exhausted")  # unreachable


def index_calculus_subprime(q: int, n: int) -> int | None:
    """Largest prime factor p of q-1 with p > n, or None if there is none.

    This is the modulus the multiplicity system is solved over; p > n makes
    multiplicities (all <= n) recoverable from their residues.
    """
    best = max(factorize(q - 1))
    return best if best > n else None


def find_index_calculus_field(
    n: int, rng=None, min_q: int | None = None
) -> tuple[int, int]:
    """Pick primes (q, p) with p > n, q = 1 + lambda*p prime and q > 2n.

    Without an rng the smallest valid p and q are returned (deterministic);
    with one, p is drawn randomly from the primes just above n.  ``min_q``
    raises the field-size floor; the integer pipeline passes at least 4n^2,
    and for a symmetric matrix up to about n^4/2, where that makes one
    diagonal-kind rank trial right to 1/n^2 (`integer._field_prime_floor`).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    floor = max(2 * n + 1, min_q if min_q is not None else 0)
    if floor > WORD_PRIME_LIMIT:
        raise ValueError(f"field floor {floor} exceeds the word-size bound")
    candidates: list[int] = []
    if rng is not None:
        hi = max(2 * n + 2, n + 66)
        # [n + 1, 2n] holds a prime (Bertrand), so every draw finds one
        for _ in range(8):
            candidates.append(random_prime(rng, n + 1, hi))
    p = next_prime(n)
    while True:
        candidates.append(p)
        p = next_prime(p)
        if len(candidates) >= 24:
            break
    for p in candidates:
        lam = max(1, -(-floor // p))  # smallest lambda with q >= floor
        q = 1 + lam * p
        while q <= WORD_PRIME_LIMIT:
            if q > 2 * n and q >= floor and q % 2 == 1 and is_prime(q):
                return q, p
            lam += 1
            q = 1 + lam * p
    raise ValueError(f"no index-calculus field found below 2**31 for n={n}")
