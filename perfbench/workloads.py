"""Seeded inputs, CLI calls and correctness gates of the three workloads.

Each workload is a fixed list of CLI calls built from the benchmark seed.
The program only ever sees the generated SMS text (piped on stdin) and the
argument list; the gate that judges each answer is computed here, from the
planted structure or from the dense oracle, outside the timed section.

The cost of a call depends mostly on the shape of its input: the Jordan
structure of a census form, the factor degrees of a random characteristic
polynomial.  Drawn afresh for every seed, those shapes made the time of one
run swing by a factor of two between seeds.  So the shapes (census) and the
matrices (nonderog) come from the fixed ``CORPUS_SEED``, and the benchmark
seed draws everything else: the census polynomials, a similarity transform
of every matrix (a permutation, and over a field a diagonal scaling too) and
the CLI ``--seed`` of every call.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field

ROOK = "rook-cube-int"
CENSUS = "census-field"
NONDEROG = "nonderog-field"
NAMES = (ROOK, CENSUS, NONDEROG)
CORPUS_SEED = 0

# rook-cube-int: the symmetric cube of the 3x3 rook graph (n = C(9,3) = 84).
# The 4x4 cube of acceptance 8 (n = 560) takes about 70 s per call on a
# 2-core x86 machine, which leaves no room for repeated calls inside one
# measured window.
ROOK_SIDE = 3
ROOK_POWER = 3
ROOK_CALLS = 8
ROOK_CHECK_PRIMES = 3
ROOK_MIN_CALLS = 32

# census-field: planted primary forms, every method on every form.
CENSUS_FORMS = 10
CENSUS_METHODS = ("auto", "nullity-comb", "index", "hybrid", "invfact")
CENSUS_MIN_N = 5
CENSUS_MAX_N = 120
CENSUS_MIN_CALLS = 100

# nonderog-field: random sparse matrices whose minimal polynomial is the
# characteristic polynomial, so factoring it is most of the work.
NONDEROG_P = 1000003
NONDEROG_N = 120
# An odd count keeps the median call inside one matrix's band of call times
# rather than between two matrices whose times differ.
NONDEROG_MATRICES = 7
NONDEROG_OFF_DIAGONAL = 4
NONDEROG_MIN_CALLS = 32


@dataclass
class Call:
    argv: list[str]
    sms: str
    check: object  # gate data, interpreted by the workload's gate


@dataclass
class Workload:
    name: str
    calls: list[Call]
    gate: object  # callable(call, stdout) -> error text or None
    # Calls a run makes at least.  The tail is reported at the percentile
    # that has ten calls beyond it at this count, the same in every run, so
    # that a run with more passes does not move it to another kind of call.
    min_calls: int
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared helpers


def emit_sms(n: int, entries) -> str:
    lines = [f"{n} {n} M"]
    lines.extend(f"{i + 1} {j + 1} {v}" for i, j, v in sorted(entries))
    lines.append("0 0 0")
    return "\n".join(lines) + "\n"


def similar(n: int, entries, rng, p=None):
    """P D A D^-1 P^T for a random permutation P and, over GF(p), a random
    nonzero diagonal D: the characteristic polynomial stays the same."""
    perm = list(range(n))
    rng.shuffle(perm)
    if p is None:
        return [(perm[i], perm[j], v) for i, j, v in entries]
    d = [rng.randrange(1, p) for _ in range(n)]
    return [(perm[i], perm[j], d[i] * v * pow(d[j], -1, p) % p)
            for i, j, v in entries]


def dense(n: int, entries):
    out = [[0] * n for _ in range(n)]
    for i, j, v in entries:
        out[i][j] = v
    return out


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    for d in range(2, int(m**0.5) + 1):
        if m % d == 0:
            return False
    return True


def index_calculus_field(n: int) -> int:
    """Smallest prime q > 2n such that q - 1 has a prime factor p > n: the
    fields where the index and hybrid methods can run at dimension n."""
    q = 2 * n + 1
    while True:
        if is_prime(q):
            rest, factor = q - 1, 2
            while factor * factor <= rest:
                while rest % factor == 0:
                    rest //= factor
                factor += 1
            largest = rest if rest > 1 else factor - 1
            if largest > n:
                return q
        q += 1


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def dense_charpoly_coeffs(matrix, p: int) -> list[int]:
    from bbcharpoly.oracle import dense_charpoly

    return [int(c) for c in dense_charpoly(matrix, p).coeffs]


# ---------------------------------------------------------------------------
# rook-cube-int


def rook_cube_entries(side: int, power: int):
    """Adjacency of the symmetric power of the side x side rook graph:
    power-subsets of the cells, adjacent when they differ by one rook move."""
    cells = side * side
    edge = {
        (a, b)
        for a in range(cells)
        for b in range(cells)
        if a != b and (a // side == b // side or a % side == b % side)
    }
    subsets = list(itertools.combinations(range(cells), power))
    index = {s: i for i, s in enumerate(subsets)}
    entries = []
    for i, s in enumerate(subsets):
        members = set(s)
        for a in s:
            for b in range(cells):
                if b not in members and (a, b) in edge:
                    j = index[tuple(sorted(members - {a} | {b}))]
                    entries.append((i, j, 1))
    return len(subsets), entries


def rook_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    n, entries = rook_cube_entries(ROOK_SIDE, ROOK_POWER)
    entries = similar(n, entries, rng)
    sms = emit_sms(n, entries)
    trace = sum(v for i, j, v in entries if i == j)
    primes = set()
    while len(primes) < ROOK_CHECK_PRIMES:
        m = rng.randrange(1 << 24, 1 << 25)
        if is_prime(m):
            primes.add(m)
    check = {"n": n, "trace": trace, "matrix": dense(n, entries),
             "primes": sorted(primes), "oracle": {}}
    calls = [
        Call(["charpoly", "--integer", "--seed", str(rng.randrange(1 << 30)),
              "--output", "json", "-"], sms, check)
        for _ in range(ROOK_CALLS)
    ]
    return Workload(ROOK, calls, rook_gate, ROOK_MIN_CALLS,
                    {"n": n, "nnz": len(entries)})


def rook_gate(call: Call, stdout: str):
    c = call.check
    coeffs = json.loads(stdout)["coeffs"]
    n = c["n"]
    if len(coeffs) != n + 1 or coeffs[n] != 1:
        return f"degree {len(coeffs) - 1} or leading coefficient wrong"
    if coeffs[n - 1] != -c["trace"]:
        return "trace identity fails"
    for p in c["primes"]:
        if p not in c["oracle"]:
            c["oracle"][p] = dense_charpoly_coeffs(c["matrix"], p)
        if [x % p for x in coeffs] != c["oracle"][p]:
            return f"disagrees with the dense oracle mod {p}"
    return None


# ---------------------------------------------------------------------------
# census-field


def _irreducible(coeffs, q) -> bool:
    """Degree <= 3: irreducible exactly when it has no root in GF(q)."""
    if len(coeffs) <= 2:
        return True
    for x in range(q):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % q
        if acc == 0:
            return False
    return True


def _block_jordan(coeffs, k, q, offset):
    """k companion blocks of a monic poly, each coupled to the next: one
    elementary divisor poly^k."""
    d = len(coeffs) - 1
    neg = [(-c) % q for c in coeffs[:-1]]
    out = []
    for b in range(k):
        off = offset + b * d
        out.extend((off + i + 1, off + i, 1) for i in range(d - 1))
        out.extend((off + i, off + d - 1, v) for i, v in enumerate(neg) if v)
        if b + 1 < k:
            out.append((off + d - 1, off + d, 1))
    return out


def _census_shape(rng):
    """2-10 factors of degree <= 3, powers <= 4, <= 3 blocks per power; the
    form is rejected unless some factor's multiplicity exceeds its minimal
    polynomial multiplicity (otherwise no multiplicity method runs)."""
    while True:
        shape = []
        for _ in range(rng.randint(2, 10)):
            top = rng.randint(1, 4)
            counts = {j: rng.randint(0, 3) for j in range(1, top + 1)}
            counts[top] = max(1, counts[top])
            shape.append((rng.randint(1, 3), counts))
        n = sum(d * j * c for d, counts in shape for j, c in counts.items())
        derogatory = any(sum(counts.values()) > 1 for _, counts in shape)
        if CENSUS_MIN_N <= n <= CENSUS_MAX_N and derogatory:
            return n, shape


def census_workload(seed: int) -> Workload:
    corpus = random.Random(CORPUS_SEED)
    rng = random.Random(seed)
    calls = []
    sizes = []
    for _ in range(CENSUS_FORMS):
        n, shape = _census_shape(corpus)
        q = index_calculus_field(n)
        entries, planted, offset = [], {}, 0
        for d, counts in shape:
            while True:
                coeffs = [rng.randrange(q) for _ in range(d)] + [1]
                if tuple(coeffs) not in planted and _irreducible(coeffs, q):
                    break
            for j, c in counts.items():
                for _ in range(c):
                    entries.extend(_block_jordan(coeffs, j, q, offset))
                    offset += d * j
            planted[tuple(coeffs)] = (
                sum(j * c for j, c in counts.items()),
                max(j for j, c in counts.items() if c),
            )
        sms = emit_sms(n, similar(n, entries, rng, q))
        sizes.append(n)
        for method in CENSUS_METHODS:
            argv = ["multiplicities", "--field", str(q), "--method", method,
                    "--seed", str(rng.randrange(1 << 30)), "--output", "json", "-"]
            calls.append(Call(argv, sms, {"q": q, "planted": planted}))
    return Workload(CENSUS, calls, census_gate, CENSUS_MIN_CALLS, {"n": sizes})


def census_gate(call: Call, stdout: str):
    q, planted = call.check["q"], call.check["planted"]
    got = {
        tuple(c % q for c in f["coeffs"]): (f["multiplicity"], f["minpoly_multiplicity"])
        for f in json.loads(stdout)["factors"]
    }
    if got != planted:
        return "multiplicities differ from the planted census"
    return None


# ---------------------------------------------------------------------------
# nonderog-field

_FACTOR = re.compile(r"\(([^()]*)\)(?:\^(\d+))?")
_TERM = re.compile(r"([+-]?)(?:(\d+)\*?)?(X(?:\^(\d+))?)?")


def parse_factored(text: str, p: int):
    """'(X^2-10*X+1)^2*(X-3)' -> [(ascending coeffs mod p, exponent)]."""
    factors = [(m.group(1), int(m.group(2) or 1)) for m in _FACTOR.finditer(text)]
    rebuilt = "*".join(f"({b})" + (f"^{e}" if e != 1 else "") for b, e in factors)
    if rebuilt != text:
        raise ValueError(f"unparsable factored output {text[:60]!r}")
    out = []
    for body, exponent in factors:
        coeffs = {}
        for sign, mag, x, power in _TERM.findall(body):
            if not mag and not x:
                continue
            value = int(mag or 1) * (-1 if sign == "-" else 1)
            degree = (int(power) if power else 1) if x else 0
            coeffs[degree] = value
        poly = [coeffs.get(i, 0) % p for i in range(max(coeffs) + 1)]
        out.append((poly, exponent))
    return out


def _nonderog_matrix(n, p, rng):
    entries = {(i, i): rng.randrange(1, p) for i in range(n)}
    for i in range(n):
        for _ in range(NONDEROG_OFF_DIAGONAL):
            j = rng.randrange(n)
            if j != i:
                entries[(i, j)] = rng.randrange(1, p)
    return [(i, j, v) for (i, j), v in entries.items()]


def nonderog_workload(seed: int) -> Workload:
    corpus = random.Random(CORPUS_SEED)
    rng = random.Random(seed)
    n, p = NONDEROG_N, NONDEROG_P
    calls = []
    for _ in range(NONDEROG_MATRICES):
        entries = similar(n, _nonderog_matrix(n, p, corpus), rng, p)
        argv = ["charpoly", "--field", str(p), "--output", "factored",
                "--seed", str(rng.randrange(1 << 30)), "-"]
        check = {"p": p, "matrix": dense(n, entries), "oracle": None}
        calls.append(Call(argv, emit_sms(n, entries), check))
    return Workload(NONDEROG, calls, nonderog_gate, NONDEROG_MIN_CALLS,
                    {"n": n, "matrices": NONDEROG_MATRICES})


def nonderog_gate(call: Call, stdout: str):
    c = call.check
    p = c["p"]
    if c["oracle"] is None:
        c["oracle"] = dense_charpoly_coeffs(c["matrix"], p)
    product = [1]
    for poly, exponent in parse_factored(stdout.strip(), p):
        if poly[-1] != 1:
            return "a factor is not monic"
        for _ in range(exponent):
            product = poly_mul(product, poly, p)
    if product != c["oracle"]:
        return "product of the factors differs from the dense charpoly"
    return None


BUILDERS = {ROOK: rook_workload, CENSUS: census_workload, NONDEROG: nonderog_workload}
