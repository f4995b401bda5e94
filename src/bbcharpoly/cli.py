"""Command-line interface.

Subcommands: ``charpoly``, ``minpoly``, ``multiplicities``, ``sympower``,
``verify``.  Matrices are read in SMS format (``-`` for stdin), results go
to stdout; ``--explain`` prints a JSON-lines decision trace to stderr when
the run ends, whether it succeeded or failed.

Exit codes: 0 success, 2 input error (including oracle refusals above the
size caps), 3 computation failure (a ``ComputationError``), 4 verification
mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .adaptive import (
    METHODS,
    AdaptiveConfig,
    MethodUnavailableError,
    TraceLog,
    charpoly_with_details,
)
from .blackbox import SparseMatrix, wiedemann_minpoly
from .ff import check_modulus, next_prime
from .graphs import Graph, GraphInputError, symmetric_power
from .integer import integer_charpoly_with_details, integer_minpoly
from .oracle import (
    dense_charpoly,
    dense_integer_charpoly,
    dense_minpoly,
)
from .poly import (
    ComputationError,
    FieldPoly,
    FieldTooSmallError,
    IntPoly,
    factor,
    symmetric_range,
)
from .sms import SmsFormatError, emit_sms, parse_sms

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3
EXIT_MISMATCH = 4

FIELD_VERIFY_CAP = 300
INTEGER_VERIFY_FULL_CAP = 300
INTEGER_VERIFY_REDUCTION_CAP = 1000
VERIFY_REDUCTION_PRIMES = 3


class UsageError(ValueError):
    """Bad flag combination or unusable input."""


class VerificationMismatch(RuntimeError):
    pass


_INPUT_ERRORS = (
    SmsFormatError,
    GraphInputError,
    UsageError,
    MethodUnavailableError,
    FieldTooSmallError,
)


# ---------------------------------------------------------------------------
# Rendering


def _descending_text(coeffs) -> str:
    """Compact factored-form rendering, highest power first: X^2-10*X+1."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "X" if mag == 1 else f"{mag}*X"
        else:
            body = f"X^{i}" if mag == 1 else f"{mag}*X^{i}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts) if parts else "0"


def _canonical_rows(rows) -> list:
    """Factor rows (factor, minpoly multiplicity or None, multiplicity) as
    (symmetric-range coefficients, degree, e, m), in the canonical order:
    degree, then descending lexicographic order of the coefficients
    (constant term first)."""
    out = []
    for f, e, m in rows:
        coeffs = symmetric_range(f.coeffs, f.p) if isinstance(f, FieldPoly) else f.coeffs
        out.append((tuple(coeffs), f.degree, e, m))
    out.sort(key=lambda r: (r[1], tuple(-c for c in r[0])))
    return out


def _print_poly(args, poly, rows, **payload) -> None:
    """Print ``poly`` in the ``--output`` form; ``rows`` are canonical factor
    rows, and JSON adds ``payload`` and, when there are rows, ``factors``."""
    if args.output == "coeffs":
        print(poly.text())
    elif args.output == "factored":
        rendered = [
            f"({_descending_text(coeffs)})" + ("" if m == 1 else f"^{m}")
            for coeffs, _, _, m in rows
        ]
        print("*".join(rendered) if rendered else "1")
    else:
        payload.update(
            verified=bool(args.verify), degree=poly.degree, coeffs=list(poly.coeffs)
        )
        if rows:
            payload["factors"] = [
                {"coeffs": list(coeffs), "exponent": m} for coeffs, _, _, m in rows
            ]
        print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# Shared plumbing


def _read_matrix(path: str) -> SparseMatrix:
    if path == "-":
        return parse_sms(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_sms(handle.read())
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}")


def _field_modulus(args) -> int | None:
    if args.field is None:
        return None  # integer mode, with --integer or by default
    try:
        return check_modulus(args.field)
    except ValueError as err:
        raise UsageError(f"--field: {err}")


def _fresh_primes(count: int, avoid=()) -> list[int]:
    out = []
    p = 1 << 22
    while len(out) < count:
        p = next_prime(p)
        if p not in avoid:
            out.append(p)
    return out


def _refuse_verify_above(n: int, cap: int) -> None:
    """Refuse a --verify run above its dense oracle's size cap, before any work."""
    if n > cap:
        raise UsageError(f"--verify refuses n > {cap} (n = {n})")


def _verify_field(matrix: SparseMatrix, p: int, charpoly: FieldPoly):
    want = dense_charpoly(matrix.to_dense(), p)
    if want != charpoly:
        raise VerificationMismatch(
            f"charpoly mod {p} disagrees with the dense oracle"
        )


def _verify_integer(matrix: SparseMatrix, charpoly: IntPoly, field_prime: int):
    n = matrix.n
    if n <= INTEGER_VERIFY_FULL_CAP:
        want = dense_integer_charpoly(matrix.to_dense())
        if want != charpoly:
            raise VerificationMismatch(
                "integer charpoly disagrees with the dense CRT oracle"
            )
        return
    dense = matrix.to_dense()
    for p in _fresh_primes(VERIFY_REDUCTION_PRIMES, avoid={field_prime}):
        if charpoly.reduce(p) != dense_charpoly(dense, p):
            raise VerificationMismatch(
                f"integer charpoly mod {p} disagrees with the dense oracle"
            )


def _charpoly_run(args, matrix: SparseMatrix, verify: bool):
    """Characteristic polynomial over the chosen domain, checked against the
    dense oracle when ``verify`` is set.

    Returns (modulus or None, charpoly, method, factor rows); the rows are
    ``_canonical_rows`` of (factor, its multiplicity in the minimal polynomial
    or None over the integers, its multiplicity in the characteristic
    polynomial).
    """
    try:
        cfg = AdaptiveConfig(
            threshold=args.threshold,
            method=args.method,
            seed=args.seed,
            trace_log=args.trace_log,
        )
    except ValueError as err:  # an out-of-range --threshold
        raise UsageError(str(err))
    p = _field_modulus(args)
    if verify:
        cap = FIELD_VERIFY_CAP if p is not None else INTEGER_VERIFY_REDUCTION_CAP
        _refuse_verify_above(matrix.n, cap)
    if p is not None:
        result = charpoly_with_details(matrix.operator(p), cfg)
        poly, method = result.charpoly, result.method
        rows = result.factors
        if verify:
            _verify_field(matrix, p, poly)
    else:
        details = integer_charpoly_with_details(matrix, cfg)
        poly, method = details.charpoly, details.field_result.method
        rows = [
            (f, None, e) for f, e in zip(details.lifted_factors, details.lift_exponents)
        ]
        if verify:
            _verify_integer(matrix, poly, details.field_prime)
    return p, poly, method, _canonical_rows(rows)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_charpoly(args) -> int:
    matrix = _read_matrix(args.matrix)
    p, poly, method, rows = _charpoly_run(args, matrix, args.verify)
    _print_poly(args, poly, rows, command="charpoly", modulus=p, method=method)
    return EXIT_OK


def cmd_minpoly(args) -> int:
    matrix = _read_matrix(args.matrix)
    rng = random.Random(args.seed)
    p = _field_modulus(args)
    if args.verify:
        # the integer check runs the dense minimal polynomial at several primes
        _refuse_verify_above(matrix.n, FIELD_VERIFY_CAP)
    if p is None and args.output == "factored":
        raise UsageError(
            "factored output of the integer minimal polynomial is not supported"
        )
    rows = []
    if p is not None:
        poly = wiedemann_minpoly(matrix.operator(p), rng)
        if args.verify and poly != dense_minpoly(matrix.to_dense(), p):
            raise VerificationMismatch("minpoly disagrees with the dense oracle")
        if args.output in ("factored", "json"):
            rows = [(f, m, m) for f, m in factor(poly, rng)]
    else:
        poly = integer_minpoly(matrix, rng)
        if args.verify:
            # The dense minpoly of a reduction always divides the reduced
            # integer minpoly; equality can fail at (rare) bad primes, so
            # demand divisibility everywhere and degree equality somewhere.
            dense = matrix.to_dense()
            degree_witness = False
            for check_p in _fresh_primes(VERIFY_REDUCTION_PRIMES):
                local = dense_minpoly(dense, check_p)
                if not (poly.reduce(check_p) % local).is_zero:
                    raise VerificationMismatch(
                        f"integer minpoly mod {check_p} disagrees with the oracle"
                    )
                degree_witness = degree_witness or local.degree == poly.degree
            if not degree_witness:
                raise VerificationMismatch(
                    "every reduction had a smaller dense minpoly degree"
                )
    _print_poly(args, poly, _canonical_rows(rows), command="minpoly", modulus=p)
    return EXIT_OK


def cmd_multiplicities(args) -> int:
    matrix = _read_matrix(args.matrix)
    p, poly, _, rows = _charpoly_run(args, matrix, args.verify)
    if args.output == "coeffs":
        for coeffs, degree, minpoly_mult, mult in rows:
            e_text = "-" if minpoly_mult is None else str(minpoly_mult)
            print(f"{mult}\t{e_text}\t{degree}\t{_descending_text(coeffs)}")
    elif args.output == "factored":
        _print_poly(args, poly, rows)
    else:
        payload = {
            "command": "multiplicities",
            "modulus": p,
            "verified": bool(args.verify),
            "factors": [
                {
                    "coeffs": list(coeffs),
                    "degree": degree,
                    "minpoly_multiplicity": minpoly_mult,
                    "multiplicity": mult,
                }
                for coeffs, degree, minpoly_mult, mult in rows
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_sympower(args) -> int:
    matrix = _read_matrix(args.matrix)
    graph = Graph.from_adjacency(matrix)
    power = symmetric_power(graph, args.k)
    sys.stdout.write(emit_sms(power.adjacency()))
    return EXIT_OK


def cmd_verify(args) -> int:
    matrix = _read_matrix(args.matrix)
    p, _, _, _ = _charpoly_run(args, matrix, verify=True)
    if p is not None:
        print(f"verify ok: charpoly mod {p} matches the dense oracle (n={matrix.n})")
    else:
        mode = (
            "dense CRT oracle"
            if matrix.n <= INTEGER_VERIFY_FULL_CAP
            else f"reduction mod {VERIFY_REDUCTION_PRIMES} fresh primes"
        )
        print(f"verify ok: integer charpoly matches the {mode} (n={matrix.n})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


@functools.cache  # parse_args leaves the parser as it was, so one serves every main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbcharpoly",
        description=(
            "Characteristic polynomials of sparse matrices in the black-box "
            "model, over a prime field or the integers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every matrix command takes ``common``; ``pipeline`` goes to the
    # commands that run the adaptive driver, ``shown`` to those that print
    # a polynomial
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("matrix", help="SMS matrix file, or - for stdin")
    mode = common.add_mutually_exclusive_group()
    mode.add_argument("--field", type=int, default=None, help="odd prime modulus")
    mode.add_argument(
        "--integer", action="store_true", help="work over Z (default)"
    )
    common.add_argument("--seed", type=int, default=None, help="rng seed")
    common.add_argument(
        "--explain",
        action="store_true",
        help="JSON-lines decision trace on stderr",
    )
    pipeline = argparse.ArgumentParser(add_help=False)
    pipeline.add_argument(
        "--method",
        choices=list(METHODS),
        default="auto",
        help="multiplicity method (default: auto)",
    )
    pipeline.add_argument(
        "--threshold", type=int, default=5, help="combinatorial threshold T"
    )
    shown = argparse.ArgumentParser(add_help=False)
    shown.add_argument(
        "--output",
        choices=["coeffs", "factored", "json"],
        default="coeffs",
        help="output form (default: coeffs)",
    )
    shown.add_argument(
        "--verify",
        action="store_true",
        help="cross-check against the dense oracle (size-capped)",
    )

    full = [common, pipeline, shown]
    for name, func, parents, text in (
        ("charpoly", cmd_charpoly, full, "characteristic polynomial"),
        ("minpoly", cmd_minpoly, [common, shown], "minimal polynomial"),
        ("multiplicities", cmd_multiplicities, full, "factor multiplicities"),
        ("verify", cmd_verify, [common, pipeline], "pipeline vs dense oracle comparison"),
    ):
        sub.add_parser(name, parents=parents, help=text).set_defaults(func=func)

    sp = sub.add_parser("sympower", help="symmetric k-th power of a graph")
    sp.add_argument("matrix", help="adjacency matrix in SMS format, or -")
    sp.add_argument("--k", type=int, required=True, help="subset size k")
    sp.set_defaults(func=cmd_sympower)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one trace for the whole run, printed whether the run succeeds or fails
    args.trace_log = TraceLog() if getattr(args, "explain", False) else None
    try:
        return args.func(args)
    except _INPUT_ERRORS as err:
        print(f"bbcharpoly: input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except VerificationMismatch as err:
        print(f"bbcharpoly: verification mismatch: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    except ComputationError as err:
        print(f"bbcharpoly: computation failed: {err}", file=sys.stderr)
        return EXIT_COMPUTE
    finally:
        if args.trace_log is not None:
            for line in args.trace_log.lines():
                print(line, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
