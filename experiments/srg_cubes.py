"""Do symmetric cubes tell two cospectral strongly regular graphs apart?

The 4 x 4 rook graph and the Shrikhande graph are both SRG(16, 6, 2, 2), so
their adjacency matrices share a characteristic polynomial, and so do their
symmetric squares (n = 120).  This script builds each graph's symmetric cube
(n = 560) and its integer characteristic polynomial through the command-line
interface, exactly as a user would:

    bbcharpoly sympower --k 3 graph.sms > cube.sms
    bbcharpoly charpoly --integer --verify --explain --output json cube.sms

and reports, per graph, the method ``auto`` chose, the wall time of each
stage, the rank calls, the preconditioner that served the rank and
determinant calls, and then which factors of the two polynomials differ.

Run from the repository root:

    python experiments/srg_cubes.py [--seed N] [--k K]

With ``--verify`` the rook cube takes about 20 s; the test suite pins its
polynomial as a digest and computes only the Shrikhande cube
(``tests/test_cli.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bbcharpoly.graphs import rook_graph, shrikhande_graph  # noqa: E402
from bbcharpoly.sms import emit_sms  # noqa: E402


def cli(*argv: str) -> tuple[str, str, float]:
    """Run ``python -m bbcharpoly.cli argv``; returns (stdout, stderr, seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "bbcharpoly.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"bbcharpoly {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout, done.stderr, elapsed


def run_graph(name: str, graph, k: int, seed: int, workdir: str) -> dict:
    graph_file = os.path.join(workdir, f"{name}.sms")
    with open(graph_file, "w") as fh:
        fh.write(emit_sms(graph.adjacency()))
    power_sms, _, power_s = cli("sympower", "--k", str(k), graph_file)
    power_file = os.path.join(workdir, f"{name}-k{k}.sms")
    with open(power_file, "w") as fh:
        fh.write(power_sms)
    out, err, charpoly_s = cli(
        "charpoly", "--integer", "--verify", "--explain", "--output", "json",
        "--seed", str(seed), power_file,
    )
    payload = json.loads(out)
    events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    ranks = [e for e in events if e["event"] == "rank"]
    methods = [e for e in events if e["event"] == "method" and "preconditioner" in e]
    return {
        "graph": name,
        "n": payload["degree"],
        "method": payload["method"],
        "verified": payload["verified"],
        "sympower_s": round(power_s, 2),
        "charpoly_s": round(charpoly_s, 2),
        "rank_calls": len(ranks),
        "preconditioners": sorted({e["preconditioner"] for e in methods}),
        "coeffs": payload["coeffs"],
        "factors": {tuple(f["coeffs"]): f["exponent"] for f in payload["factors"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--k", type=int, default=3, help="symmetric power (default 3)")
    args = parser.parse_args(argv)
    graphs = (("rook4x4", rook_graph(4)), ("shrikhande", shrikhande_graph()))
    with tempfile.TemporaryDirectory() as workdir:
        results = [run_graph(name, g, args.k, args.seed, workdir) for name, g in graphs]
    for r in results:
        summary = {key: r[key] for key in r if key not in ("coeffs", "factors")}
        print(json.dumps(summary, sort_keys=True))
    a, b = results
    differ = a["coeffs"] != b["coeffs"]
    print(json.dumps({
        "k": args.k,
        "charpolys_differ": differ,
        # (degree, exponent) of each lifted factor present in one result only
        "only_" + a["graph"]: sorted((len(f) - 1, e) for f, e in a["factors"].items()
                                     if b["factors"].get(f) != e),
        "only_" + b["graph"]: sorted((len(f) - 1, e) for f, e in b["factors"].items()
                                     if a["factors"].get(f) != e),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
