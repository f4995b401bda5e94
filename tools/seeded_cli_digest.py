"""Digest of seeded CLI output over a fixed corpus of small matrices.

Runs ``bbcharpoly.cli.main`` in-process with ``--seed 7 --explain`` on 21
built-in matrices (n <= 40): 12 planted primary forms over GF(101), GF(103),
GF(163), GF(1009), GF(10007) and GF(1000003), half of them symmetric, and 9
integer matrices.  Each matrix goes through ``charpoly`` and
``multiplicities`` with every method and every output form, and through
``minpoly`` with every output form.  Every run prints its exit code and a
sha256 of its stdout and stderr (the ``--explain`` trace and any error
message).  The last two lines are digests of all runs: ``answers`` covers
each run's label, exit code and stdout only, and ``final`` covers the
per-run lines, stderr included.

A change that must leave seeded output byte-identical leaves the final
digest unchanged.  A change that may move random draws, and so the
draw-dependent ``--explain`` fields, but no answer leaves the answers digest
unchanged.  The script takes no flags and imports ``bbcharpoly`` from
``PYTHONPATH``, so one copy of it compares two source trees:

    PYTHONPATH=src python3 tools/seeded_cli_digest.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/seeded_cli_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys

from bbcharpoly.cli import main
from bbcharpoly.graphs import rook_graph, symmetric_power

SEED = "7"
METHODS = ("auto", "nullity-comb", "index", "hybrid", "invfact")
OUTPUTS = ("coeffs", "factored", "json")
FIELDS = (101, 103, 163, 1009, 10007, 1000003)


def is_square(a: int, p: int) -> bool:
    return a % p == 0 or pow(a, (p - 1) // 2, p) == 1


def sqrt_minus_one(p: int) -> int | None:
    if p % 4 != 1:
        return None
    return next(x for x in range(2, p) if x * x % p == p - 1)


def jordan_blocks(coeffs, k: int, offset: int):
    """Entries of k companion blocks of the monic poly ``coeffs`` (constant
    term first), each coupled to the next: a single Jordan block of f^k."""
    d = len(coeffs) - 1
    out = []
    for b in range(k):
        off = offset + b * d
        out.extend((off + i + 1, off + i, 1) for i in range(d - 1))
        out.extend((off + i, off + d - 1, -c) for i, c in enumerate(coeffs[:-1]) if c)
        if b + 1 < k:
            out.append((off + d - 1, off + d, 1))
    return out


def permuted(n: int, entries, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[i], perm[j], v) for i, j, v in entries]


def reduce_entries(entries, p: int):
    return [(i, j, v % p) for i, j, v in entries if v % p]


def planted_form(p: int, rng):
    """Jordan blocks of a few linear and irreducible quadratic factors."""
    entries, n = [], 0
    nonresidue = next(c for c in range(2, p) if not is_square(c, p))
    factors = [[-a, 1] for a in rng.sample(range(p), 3)]
    factors.append([-nonresidue, 0, 1])
    for coeffs in factors:
        for j in rng.sample((1, 1, 2, 3), rng.randrange(1, 4)):
            entries += jordan_blocks(coeffs, j, n)
            n += (len(coeffs) - 1) * j
    return n, reduce_entries(permuted(n, entries, rng), p)


def symmetric_form(p: int, rng):
    """Symmetric blocks: repeated scalars, repeated 2x2 blocks with an
    irreducible characteristic polynomial and, when -1 is a square, the
    symmetric Jordan block a*I + [[1, i], [i, -1]]."""
    entries, n = [], 0
    for a in rng.sample(range(p), 3):
        for _ in range(rng.randrange(1, 4)):
            entries.append((n, n, a))
            n += 1
    while True:
        a, b, c = (rng.randrange(p) for _ in range(3))
        if not is_square((a - c) ** 2 + 4 * b * b, p):
            break
    for _ in range(rng.randrange(1, 4)):
        entries += [(n, n, a), (n, n + 1, b), (n + 1, n, b), (n + 1, n + 1, c)]
        n += 2
    i = sqrt_minus_one(p)
    if i is not None:
        a = rng.randrange(p)
        for _ in range(2):
            entries += [(n, n, a + 1), (n, n + 1, i), (n + 1, n, i)]
            entries.append((n + 1, n + 1, a - 1))
            n += 2
    return n, reduce_entries(permuted(n, entries, rng), p)


def random_integer(n: int, rng, symmetric: bool = False):
    values = {}
    for i in range(n):
        for _ in range(rng.randrange(1, 5)):
            j = rng.randrange(n)
            v = rng.randrange(-9, 10)
            if v:
                values[i, j] = v
                if symmetric:
                    values[j, i] = v
    return n, [(i, j, v) for (i, j), v in values.items()]


def rook_adjacency(power: int):
    """Adjacency of the 3x3 rook graph's symmetric power."""
    m = symmetric_power(rook_graph(3), power).adjacency()
    return m.n, list(m.entries)


def corpus():
    rng = random.Random(20240901)
    out = []
    for p in FIELDS:
        field = ["--field", str(p)]
        out.append((f"gf{p}-planted", field, *planted_form(p, rng)))
        out.append((f"gf{p}-symmetric", field, *symmetric_form(p, rng)))
    integer = [
        ("rook3", rook_adjacency(1)),
        ("rook3-square", rook_adjacency(2)),
        ("diag-repeats", (8, [(i, i, v) for i, v in enumerate([1, 1, 2, 2, 2, -3])])),
        ("jordan", (7, jordan_blocks([1, -10, 1], 2, 0) + jordan_blocks([-2, 1], 3, 4))),
        ("zero", (5, [])),
    ]
    integer += [(f"random{n}", random_integer(n, rng)) for n in (6, 12, 20)]
    integer.append(("random15-symmetric", random_integer(15, rng, symmetric=True)))
    out.extend((name, ["--integer"], n, entries) for name, (n, entries) in integer)
    return out


def sms(n: int, entries) -> str:
    lines = [f"{n} {n} M"]
    lines += [f"{i + 1} {j + 1} {v}" for i, j, v in sorted(entries)]
    return "\n".join(lines + ["0 0 0"]) + "\n"


def run(argv, text: str):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = str(main(argv))
    except Exception as exc:  # an escaped exception is a result too
        code = f"raised {type(exc).__name__}"
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def runs():
    for name, domain, n, entries in corpus():
        text = sms(n, entries)
        common = ["-", *domain, "--seed", SEED, "--explain"]
        for command in ("charpoly", "multiplicities"):
            for method in METHODS:
                for output in OUTPUTS:
                    argv = [command, *common, "--method", method, "--output", output]
                    yield f"{name} n={n} {command} {method} {output}", argv, text
        for output in OUTPUTS:
            argv = ["minpoly", *common, "--output", output]
            yield f"{name} n={n} minpoly {output}", argv, text


def digest_all() -> tuple[str, str]:
    """(answers digest, final digest) over every run."""
    total, answers = hashlib.sha256(), hashlib.sha256()
    for label, argv, text in runs():
        code, stdout, stderr = run(argv, text)
        digest = hashlib.sha256((stdout + "\0" + stderr).encode()).hexdigest()
        line = f"{label} exit={code} {digest}"
        print(line, flush=True)
        total.update(line.encode() + b"\n")
        answers.update(f"{label}\0{code}\0{stdout}\0".encode())
    return answers.hexdigest(), total.hexdigest()


if __name__ == "__main__":
    answers, final = digest_all()
    print(f"answers {answers}")
    print(f"final {final}")
