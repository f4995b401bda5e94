import importlib
import importlib.util
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from bbcharpoly.blackbox import SparseMatrix
from bbcharpoly.cli import build_parser, main
from bbcharpoly.adaptive import AdaptiveConfig, blackbox_charpoly_field
from bbcharpoly.ff import next_prime
from bbcharpoly.graphs import (
    Graph,
    GraphInputError,
    rook_graph,
    shrikhande_graph,
    symmetric_power,
)
from bbcharpoly.integer import integer_charpoly
from bbcharpoly.oracle import dense_charpoly
from bbcharpoly.poly import FieldPoly, IntPoly
from bbcharpoly.sms import SmsFormatError, emit_sms, parse_sms

from helpers import ROOK_CUBE_CHARPOLY_SHA256, coeffs_digest

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


DIAG112 = "3 3 M\n1 1 1\n2 2 1\n3 3 2\n0 0 0\n"
PATH3 = "3 3 M\n1 2 1\n2 1 1\n2 3 1\n3 2 1\n0 0 0\n"


def write_identity(tmp_path, n):
    entries = "\n".join(f"{i} {i} 1" for i in range(1, n + 1))
    return write(tmp_path, f"identity{n}.sms", f"{n} {n} M\n{entries}\n0 0 0\n")


class TestSms:
    def test_parse_example(self):
        m = parse_sms("2 2 M\n1 1 1\n2 2 2\n0 0 0\n")
        assert m.to_dense() == [[1, 0], [0, 2]]

    def test_padding_nonsquare(self):
        m = parse_sms("3 2 M\n1 1 1\n3 2 4\n0 0 0\n")
        assert m.n == 3
        assert m.to_dense() == [[1, 0, 0], [0, 0, 0], [0, 4, 0]]

    def test_roundtrip_canonical(self):
        text = "2 2 M\n2 2 2\n1 1 1\n0 0 0\n"
        assert emit_sms(parse_sms(text)) == "2 2 M\n1 1 1\n2 2 2\n0 0 0\n"
        canonical = emit_sms(parse_sms(text))
        assert emit_sms(parse_sms(canonical)) == canonical

    def test_field_marker_accepted_and_normalized(self):
        m = parse_sms("1 1 ZZ\n1 1 7\n0 0 0\n")
        assert emit_sms(m) == "1 1 M\n1 1 7\n0 0 0\n"

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("2 2 M\n1 1 1\n1 1 2\n0 0 0\n", "duplicate"),
            ("2 2 M\n3 1 1\n0 0 0\n", "outside"),
            ("2 2 M\n1 1 0\n0 0 0\n", "zero"),
            ("2 2 M\n1 1 1\n", "terminator"),
            ("2 2 M\n1 one 1\n0 0 0\n", "non-integer"),
            ("2 2\n1 1 1\n0 0 0\n", "3 tokens"),
            ("2 2 M\n1 1 1\n0 0 0\n9 9 9\n", "after"),
        ],
    )
    def test_malformed_inputs(self, text, fragment):
        with pytest.raises(SmsFormatError) as err:
            parse_sms(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(SmsFormatError) as err:
            parse_sms("2 2 M\n1 1 1\n1 1 2\n0 0 0\n")
        assert err.value.line_number == 3


class TestGraphs:
    def test_path_symmetric_square(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        power = symmetric_power(g, 2)
        # subsets in lex order: {0,1}, {0,2}, {1,2}
        assert power.vertex_count == 3
        assert power.edges == frozenset({(0, 1), (1, 2)})

    def test_k1_is_identity(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
        assert symmetric_power(g, 1) == g

    def test_dimension_counts(self):
        g16 = rook_graph(4)
        assert symmetric_power(g16, 3).vertex_count == 560
        assert math.comb(26, 3) == 2600

    def test_adjacency_validation(self):
        with pytest.raises(GraphInputError):
            Graph.from_adjacency(SparseMatrix(2, [(0, 1, 1)]))  # asymmetric
        with pytest.raises(GraphInputError):
            Graph.from_adjacency(SparseMatrix(2, [(0, 1, 2), (1, 0, 2)]))
        with pytest.raises(GraphInputError):
            Graph.from_adjacency(SparseMatrix(2, [(0, 0, 1)]))  # loop

    def test_adjacency_roundtrip(self):
        g = Graph.from_edges(5, [(0, 4), (1, 2), (3, 4)])
        assert Graph.from_adjacency(g.adjacency()) == g

    def test_rook_and_shrikhande_squares_are_cospectral(self):
        """Two non-isomorphic SRG(16, 6, 2, 2) whose symmetric squares share
        an integer characteristic polynomial (their cubes do not; see
        experiments/srg_cubes.py)."""
        graphs = (rook_graph(4), shrikhande_graph())
        local = []
        for g in graphs:
            nbrs = g.neighbors()
            assert g.vertex_count == 16 and all(len(nb) == 6 for nb in nbrs)
            for a in range(16):
                for b in range(a + 1, 16):
                    assert len(nbrs[a] & nbrs[b]) == 2  # lambda = mu = 2
            # each neighbourhood is 2-regular on six vertices: 2K3 when it
            # holds two triangles, C6 when it holds none
            shapes = set()
            for v in range(16):
                inside = {u: nbrs[u] & nbrs[v] for u in nbrs[v]}
                triangles = sum(
                    c in inside[b] for a, b, c in combinations(sorted(inside), 3)
                    if b in inside[a] and c in inside[a]
                )
                shapes.add((tuple(len(w) for w in inside.values()), triangles))
            local.append(shapes)
        assert local == [{((2,) * 6, 2)}, {((2,) * 6, 0)}]  # not isomorphic
        squares = [
            integer_charpoly(
                symmetric_power(g, 2).adjacency(), AdaptiveConfig(seed=1)
            )
            for g in graphs
        ]
        assert squares[0].degree == 120
        assert squares[0] == squares[1]

    def test_rook_and_shrikhande_cubes_differ(self, capsys, tmp_path):
        """The symmetric cubes (n = 560) are not cospectral.  Acceptance 8
        pins the rook cube's polynomial; this computes the Shrikhande cube's
        and checks it against the dense oracle mod a prime above 2^30, larger
        than every prime the run uses (below 2^29)."""
        cube = symmetric_power(shrikhande_graph(), 3).adjacency()
        path = write(tmp_path, "cube.sms", emit_sms(cube))
        code, out, _ = run_cli(
            capsys, "charpoly", "--integer", "--seed", "808", "--output", "json", path
        )
        assert code == 0
        coeffs = json.loads(out)["coeffs"]
        assert len(coeffs) == 561
        assert coeffs_digest(coeffs) != ROOK_CUBE_CHARPOLY_SHA256
        p = next_prime(1 << 30)
        assert list(dense_charpoly(cube.to_dense(), p).coeffs) == [c % p for c in coeffs]


class TestCharpolyCommand:
    def test_factored_integer_example(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, out, _ = run_cli(capsys, "charpoly", "--integer", "--output", "factored", path)
        assert code == 0
        assert out == "(X-1)^2*(X-2)\n"

    def test_integer_coefficients_past_2300_bits(self, capsys, tmp_path):
        # companion matrix of X^3 + (2^2400 + 1) X + 1
        c = (1 << 2400) + 1
        path = write(tmp_path, "m.sms", f"3 3 M\n2 1 1\n3 2 1\n1 3 -1\n2 3 {-c}\n0 0 0\n")
        code, out, _ = run_cli(capsys, "charpoly", "--integer", "--seed", "1", path)
        assert code == 0
        assert out == f"1 + {c}*X + X^3\n"

    def test_coeffs_field(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, out, _ = run_cli(
            capsys, "charpoly", "--field", "101", "--seed", "9", path
        )
        assert code == 0
        # (X-1)^2 (X-2) mod 101 = X^3 - 4X^2 + 5X - 2
        assert out == "99 + 5*X + 97*X^2 + X^3\n"

    def test_json_output(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, out, _ = run_cli(
            capsys, "charpoly", "--integer", "--output", "json", "--seed", "2", path
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 3
        assert payload["coeffs"] == [-2, 5, -4, 1]
        assert payload["factors"] == [
            {"coeffs": [-1, 1], "exponent": 2},
            {"coeffs": [-2, 1], "exponent": 1},
        ]

    def test_determinism_bytes(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", PATH3)
        outs = set()
        for _ in range(3):
            code, out, err = run_cli(
                capsys,
                "charpoly",
                "--field",
                "10007",
                "--seed",
                "77",
                "--explain",
                "--output",
                "json",
                path,
            )
            assert code == 0
            outs.add(out + "\x00" + err)
        assert len(outs) == 1

    def test_verify_flag(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, out, _ = run_cli(
            capsys, "charpoly", "--integer", "--verify", "--seed", "1", path
        )
        assert code == 0

    def test_stdin_dash(self, capsys, tmp_path, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(DIAG112))
        code, out, _ = run_cli(
            capsys, "charpoly", "--integer", "--output", "factored", "-"
        )
        assert code == 0
        assert out == "(X-1)^2*(X-2)\n"


class TestOtherCommands:
    def test_minpoly_integer(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, out, _ = run_cli(capsys, "minpoly", "--integer", "--seed", "3", path)
        assert code == 0
        assert out == "2 - 3*X + X^2\n"

    def test_minpoly_integer_factored_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, _, err = run_cli(
            capsys, "minpoly", "--integer", "--output", "factored", path
        )
        assert code == 2
        assert "factored" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--integer", "--output", "factored"), "factored output"),
            (("--integer", "--verify"), "--verify refuses n > 300 (n = 301)"),
            (("--field", "10007", "--verify"), "--verify refuses n > 300 (n = 301)"),
        ],
    )
    def test_minpoly_refusals_do_no_work(
        self, capsys, tmp_path, monkeypatch, flags, message
    ):
        from bbcharpoly import cli

        def boom(*args, **kwargs):
            raise AssertionError("a refused run computed a minimal polynomial")

        monkeypatch.setattr(cli, "integer_minpoly", boom)
        monkeypatch.setattr(cli, "wiedemann_minpoly", boom)
        path = write_identity(tmp_path, 301)
        code, _, err = run_cli(capsys, "minpoly", *flags, path)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("command", ["charpoly", "multiplicities", "verify"])
    @pytest.mark.parametrize(
        "flags, cap", [(("--field", "10007"), 300), (("--integer",), 1000)]
    )
    def test_verify_refusals_do_no_work(
        self, capsys, tmp_path, monkeypatch, command, flags, cap
    ):
        from bbcharpoly import cli
        from bbcharpoly.adaptive import AdaptiveError

        calls = []

        def pipeline(*args, **kwargs):
            calls.append(args)
            raise AdaptiveError("the pipeline ran")

        monkeypatch.setattr(cli, "charpoly_with_details", pipeline)
        monkeypatch.setattr(cli, "integer_charpoly_with_details", pipeline)
        verify = () if command == "verify" else ("--verify",)
        # at the cap the pipeline runs (and fails here); one past it, nothing runs
        for n, want in ((cap, 3), (cap + 1, 2)):
            path = write_identity(tmp_path, n)
            code, _, err = run_cli(capsys, command, *flags, *verify, path)
            assert code == want
        assert len(calls) == 1
        assert f"--verify refuses n > {cap} (n = {cap + 1})" in err

    def test_minpoly_integer_verify(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, out, _ = run_cli(
            capsys, "minpoly", "--integer", "--verify", "--seed", "3", path
        )
        assert (code, out) == (0, "2 - 3*X + X^2\n")

    @pytest.mark.parametrize(
        "wrong, message",
        [
            # no reduction of the true minimal polynomial divides it
            (IntPoly([3, -3, 1]), "integer minpoly mod"),
            # every reduction divides it, but none has its degree
            (IntPoly([2, -3, 1]) * IntPoly([-5, 1]), "smaller dense minpoly degree"),
        ],
    )
    def test_minpoly_integer_verify_mismatch(
        self, capsys, tmp_path, monkeypatch, wrong, message
    ):
        from bbcharpoly import cli

        monkeypatch.setattr(cli, "integer_minpoly", lambda matrix, rng: wrong)
        path = write(tmp_path, "m.sms", DIAG112)
        code, out, err = run_cli(capsys, "minpoly", "--integer", "--verify", path)
        assert (code, out) == (4, "")
        assert "verification mismatch" in err and message in err

    def test_minpoly_field_factored(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, out, _ = run_cli(
            capsys, "minpoly", "--field", "101", "--output", "factored", "--seed", "4", path
        )
        assert code == 0
        assert out == "(X-1)*(X-2)\n"

    def test_multiplicities_table(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, out, _ = run_cli(
            capsys, "multiplicities", "--field", "101", "--seed", "5", path
        )
        assert code == 0
        assert out == "2\t1\t1\tX-1\n1\t1\t1\tX-2\n"

    def test_sympower_path(self, capsys, tmp_path):
        path = write(tmp_path, "g.sms", PATH3)
        code, out, _ = run_cli(capsys, "sympower", "--k", "2", path)
        assert code == 0
        assert out == PATH3

    def test_verify_command(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, out, _ = run_cli(capsys, "verify", "--integer", "--seed", "6", path)
        assert code == 0
        assert out.startswith("verify ok")

    def test_verify_random_corpus(self, capsys, tmp_path):
        import random

        from bbcharpoly.sms import emit_sms
        from helpers import random_sparse_integer_matrix, random_sparse_matrix

        rng = random.Random(99)
        for trial in range(4):
            m = random_sparse_matrix(rng.randrange(5, 20), 10007, rng)
            path = write(tmp_path, f"f{trial}.sms", emit_sms(m))
            code, out, _ = run_cli(
                capsys, "verify", "--field", "10007", "--seed", str(trial), path
            )
            assert code == 0 and out.startswith("verify ok")
        for trial in range(3):
            m = random_sparse_integer_matrix(rng.randrange(4, 15), rng)
            path = write(tmp_path, f"i{trial}.sms", emit_sms(m))
            code, out, _ = run_cli(
                capsys, "verify", "--integer", "--seed", str(trial), path
            )
            assert code == 0 and out.startswith("verify ok")

    def test_multiplicities_integer_mode(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, out, _ = run_cli(
            capsys, "multiplicities", "--integer", "--seed", "2", path
        )
        assert code == 0
        assert out == "2\t-\t1\tX-1\n1\t-\t1\tX-2\n"

    def test_explain_stream(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, _, err = run_cli(
            capsys, "charpoly", "--field", "101", "--seed", "8", "--explain", path
        )
        assert code == 0
        lines = [line for line in err.splitlines() if line.strip()]
        assert lines
        events = [json.loads(line) for line in lines]
        assert any(e["event"] == "method" for e in events)

    def test_explain_method_names_its_preconditioner(self, capsys, tmp_path):
        # diag(1, 1, 2) is symmetric; one off-diagonal entry makes it not
        for text, want in (
            (DIAG112, "diagonal"),
            ("3 3 M\n1 1 1\n1 3 1\n2 2 1\n3 3 2\n0 0 0\n", "toeplitz"),
        ):
            path = write(tmp_path, "m.sms", text)
            for method in ("nullity-comb", "index", "hybrid"):
                code, _, err = run_cli(
                    capsys, "charpoly", "--field", "101", "--seed", "8",
                    "--method", method, "--explain", path,
                )
                assert code == 0
                events = [json.loads(line) for line in err.splitlines() if line.strip()]
                chosen = [e for e in events if e["event"] == "method"]
                assert [e["preconditioner"] for e in chosen] == [want]
                assert not any("preconditioner" in e for e in events if e["event"] != "method")


class TestCanonicalFactorOrder:
    """Every command lists factors by degree, then by descending symmetric-
    range coefficients: X+3, X-3, X-50 for diag(3, -3, 50, 50) over GF(101),
    where residue order would put X-50 (51) before X-3 (98).  Over Z the
    factors are the gcd-free basis X-50, X^2-9."""

    DIAG = "4 4 M\n1 1 3\n2 2 -3\n3 3 50\n4 4 50\n0 0 0\n"
    FIELD = ["--field", "101"]
    # (coeffs, degree, minpoly multiplicity, multiplicity)
    FIELD_ROWS = [([3, 1], 1, 1, 1), ([-3, 1], 1, 1, 1), ([-50, 1], 1, 1, 2)]
    INTEGER_ROWS = [([-50, 1], 1, None, 2), ([-9, 0, 1], 2, None, 1)]

    def run(self, capsys, tmp_path, *argv):
        path = write(tmp_path, "m.sms", self.DIAG)
        code, out, _ = run_cli(capsys, *argv, "--seed", "1", path)
        assert code == 0
        return out

    @pytest.mark.parametrize(
        "mode, rows, factored",
        [
            (FIELD, FIELD_ROWS, "(X+3)*(X-3)*(X-50)^2\n"),
            (["--integer"], INTEGER_ROWS, "(X-50)^2*(X^2-9)\n"),
        ],
    )
    def test_charpoly(self, capsys, tmp_path, mode, rows, factored):
        argv = ["charpoly", *mode, "--output"]
        assert self.run(capsys, tmp_path, *argv, "factored") == factored
        assert json.loads(self.run(capsys, tmp_path, *argv, "json"))["factors"] == [
            {"coeffs": c, "exponent": m} for c, _, _, m in rows
        ]

    def test_minpoly(self, capsys, tmp_path):
        argv = ["minpoly", *self.FIELD, "--output"]
        assert self.run(capsys, tmp_path, *argv, "factored") == "(X+3)*(X-3)*(X-50)\n"
        assert json.loads(self.run(capsys, tmp_path, *argv, "json"))["factors"] == [
            {"coeffs": c, "exponent": 1} for c, _, _, _ in self.FIELD_ROWS
        ]

    @pytest.mark.parametrize(
        "mode, rows, lines",
        [
            (FIELD, FIELD_ROWS, "1\t1\t1\tX+3\n1\t1\t1\tX-3\n2\t1\t1\tX-50\n"),
            (["--integer"], INTEGER_ROWS, "2\t-\t1\tX-50\n1\t-\t2\tX^2-9\n"),
        ],
    )
    def test_multiplicities(self, capsys, tmp_path, mode, rows, lines):
        argv = ["multiplicities", *mode, "--output"]
        assert self.run(capsys, tmp_path, *argv, "coeffs") == lines
        payload = json.loads(self.run(capsys, tmp_path, *argv, "json"))
        assert sorted(payload) == ["command", "factors", "modulus", "verified"]
        assert payload["factors"] == [
            {"coeffs": c, "degree": d, "minpoly_multiplicity": e, "multiplicity": m}
            for c, d, e, m in rows
        ]


class TestExitCodes:
    def test_malformed_sms(self, capsys, tmp_path):
        path = write(tmp_path, "bad.sms", "2 2 M\n1 1 1\n")
        code, _, err = run_cli(capsys, "charpoly", "--integer", path)
        assert code == 2
        assert "input error" in err

    def test_conflicting_mode_flags(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        with pytest.raises(SystemExit) as exc:
            main(["charpoly", "--field", "7", "--integer", path])
        assert exc.value.code == 2

    def test_bad_field(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        for bad in ("10", "9", "2"):
            code, _, err = run_cli(capsys, "charpoly", "--field", bad, path)
            assert code == 2
            assert "--field" in err and f"got {bad}" in err

    def test_method_unavailable(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, _, err = run_cli(
            capsys, "charpoly", "--field", "65537", "--method", "index", path
        )
        assert code == 2
        assert "method" in err.lower() or "index" in err

    def test_threshold_out_of_range(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        code, out, err = run_cli(
            capsys, "charpoly", "--field", "101", "--threshold", "0", path
        )
        assert code == 2 and out == ""
        assert err == "bbcharpoly: input error: threshold must be >= 1\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "charpoly", "--integer", "/nonexistent.sms")
        assert code == 2

    def test_sympower_bad_graph(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)  # diagonal entries = loops
        code, _, err = run_cli(capsys, "sympower", "--k", "2", path)
        assert code == 2

    def test_field_too_small_for_minpoly_degree(self, capsys, tmp_path):
        import random

        from bbcharpoly.sms import emit_sms
        from helpers import random_sparse_matrix

        rng = random.Random(7)
        m = random_sparse_matrix(120, 101, rng)
        path = write(tmp_path, "big.sms", emit_sms(m))
        code, _, err = run_cli(capsys, "charpoly", "--field", "101", "--seed", "1", path)
        assert code == 2
        assert "p > deg" in err

    def test_computation_failure_maps_to_exit_3(self, capsys, tmp_path, monkeypatch):
        from bbcharpoly import cli
        from bbcharpoly.adaptive import AdaptiveError

        def boom(*args, **kwargs):
            raise AdaptiveError("synthetic failure")

        monkeypatch.setattr(cli, "charpoly_with_details", boom)
        path = write(tmp_path, "m.sms", DIAG112)
        code, _, err = run_cli(capsys, "charpoly", "--field", "101", path)
        assert code == 3
        assert "computation failed" in err

    def test_every_error_class_has_one_exit_code(self, capsys, tmp_path, monkeypatch):
        # each exception class of the package is a ComputationError (exit 3),
        # one of main's input errors (exit 2) or VerificationMismatch (exit 4)
        import bbcharpoly
        from bbcharpoly import cli
        from bbcharpoly.poly import ComputationError

        classes = set()
        for info in pkgutil.iter_modules(bbcharpoly.__path__):
            module = importlib.import_module(f"bbcharpoly.{info.name}")
            for cls in vars(module).values():
                if isinstance(cls, type) and issubclass(cls, BaseException):
                    if cls.__module__ == module.__name__:
                        classes.add(cls)
        assert {ComputationError, cli.UsageError, cli.VerificationMismatch} <= classes

        def raising(cls):
            err = cls.__new__(cls)  # some constructors take more than a message
            err.args = ("synthetic failure",)

            def boom(*args, **kwargs):
                raise err

            return boom

        path = write(tmp_path, "m.sms", DIAG112)
        for cls in classes:
            kinds = {
                3: issubclass(cls, ComputationError),
                2: cls in cli._INPUT_ERRORS,
                4: cls is cli.VerificationMismatch,
            }
            assert sum(kinds.values()) == 1, cls
            monkeypatch.setattr(cli, "charpoly_with_details", raising(cls))
            code, _, err = run_cli(capsys, "charpoly", "--field", "101", path)
            assert kinds[code], cls
            assert err.count("\n") == 1 and "synthetic failure" in err, cls

    def test_verify_field_size_cap(self, capsys, tmp_path):
        path = write_identity(tmp_path, 301)
        code, _, err = run_cli(
            capsys, "verify", "--field", "10007", "--seed", "1", "--explain", path
        )
        assert code == 2
        assert "refuses" in err

    def test_explain_prints_when_verification_fails(
        self, capsys, tmp_path, monkeypatch
    ):
        from bbcharpoly import cli

        # an oracle that disagrees with every answer
        monkeypatch.setattr(cli, "dense_charpoly", lambda matrix, p: FieldPoly.one(p))
        path = write(tmp_path, "m.sms", DIAG112)
        code, _, err = run_cli(
            capsys, "verify", "--field", "101", "--seed", "1", "--explain", path
        )
        assert code == 4
        assert "verification mismatch" in err
        # the trace of the computation that ran is printed even though it failed
        events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert any(e["event"] == "method" for e in events)


class TestFlagsPerCommand:
    """Each subcommand's parser takes only the flags its command reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["minpoly", "--method", "index"],
            ["minpoly", "--field", "101", "--threshold", "0"],
            ["verify", "--verify"],
            ["verify", "--output", "json"],
        ],
    )
    def test_a_flag_its_command_never_reads_exits_2(self, capsys, tmp_path, argv):
        path = write(tmp_path, "m.sms", DIAG112)
        with pytest.raises(SystemExit) as exc:
            main([*argv, path])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_minpoly_explain_prints_no_events(self, capsys, tmp_path):
        path = write(tmp_path, "m.sms", DIAG112)
        got = run_cli(capsys, "minpoly", "--integer", "--seed", "3", "--explain", path)
        assert got == (0, "2 - 3*X + X^2\n", "")


class TestRepeatedMain:
    def test_calls_in_one_process_match_fresh_processes(self, capsys, tmp_path):
        # main builds its parser once per process; a run of calls with
        # different subcommands and options must print what each one prints
        # alone
        diag = write(tmp_path, "diag.sms", DIAG112)
        path = write(tmp_path, "path.sms", PATH3)
        calls = [
            ["charpoly", "--field", "101", "--seed", "3", "--explain", path],
            ["minpoly", "--integer", "--output", "json", "--seed", "2", diag],
            ["multiplicities", "--field", "10007", "--method", "index", "--seed", "5", path],
            ["sympower", "--k", "2", path],
            ["charpoly", "--integer", "--output", "factored", "--explain", "--seed", "1", path],
            ["charpoly", "--field", "9", diag],
            ["verify", "--field", "101", "--threshold", "2", "--seed", "4", diag],
        ]
        in_process = [run_cli(capsys, *argv) for argv in calls]
        assert build_parser() is build_parser()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for argv, got in zip(calls, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "bbcharpoly.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
                check=False,
            )
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 0, 2, 0]


class TestExplainEvents:
    def test_readme_lists_the_emitted_events(self):
        # the README's `--explain` event list against the event names that
        # the package passes to emit / _emit
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"with events\s+(.*?)\.\s", readme, re.S).group(1)
        documented = set(re.findall(r"`([a-z-]+)`", listed))
        emitted = set()
        for path in (ROOT / "src" / "bbcharpoly").glob("*.py"):
            source = path.read_text(encoding="utf-8")
            emitted.update(re.findall(r"\b_?emit\(\s*\"([a-z-]+)\"", source))
        assert documented == emitted


def test_readme_library_example_runs_as_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library entry points\n\n```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(example.group(1), namespace)
    assert re.search(r"integer_charpoly\(m\) +# X\^3 - 4X\^2 \+ 5X - 2\n", example.group(1))
    m, want = namespace["m"], IntPoly([-2, 5, -4, 1])
    assert integer_charpoly(m) == want
    # both drivers without a config, which defaults to AdaptiveConfig()
    assert blackbox_charpoly_field(m.operator(101)) == want.reduce(101)


def load_tool(name):
    """The script tools/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_seeded_corpus_answers_are_pinned():
    # every command, method and output of tools/seeded_cli_digest.py on its
    # 21 matrices; only the answers are pinned, as --explain fields may move
    # with the random draws
    answers, _ = load_tool("seeded_cli_digest").digest_all()
    assert answers == "b9106749ff94bc21babd88885a51a0f06ab8884a4e48dced149f223e8b068a47"


def test_dense_elimination_table_runs(monkeypatch, capsys):
    # the table that measures `_ELIMINATION_MAX_N`, at one small size, so a
    # kernel it times cannot be renamed or removed under it
    tool = load_tool("poly_kernel_sizes")
    monkeypatch.setattr(tool, "ELIMINATION_SIZES", (8,))
    monkeypatch.setattr(tool, "ELIMINATION_PRIMES", (227,))
    tool.dense_elimination(random.Random(1))
    out = capsys.readouterr().out
    for label in ("sparse", "P(A)", "dense fill"):
        assert f"(8, 227, {label})" in out
