"""bbcharpoly benchmark: seeded workloads driven through ``bbcharpoly.cli.main``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rook-cube-int --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop: a single caller issues the workload's
CLI calls in order, each after the previous one returned.  A pass is one
round of all the calls; passes repeat until the next one would end after
``--seconds``.  Every answer is checked outside the timed section.

On a shared machine other tenants slow the whole virtual CPU for seconds to
minutes at a time.  So a fixed kernel (``calibrate.py``) is timed before and
after every call, and every time reported is normalised by it to the
reference speed of the host: wall time x ``calibrate.REFERENCE_S`` / kernel
time.  The raw wall times are printed before the result line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that have every layer in ``tracer.LAYERS``
wrapped and ``--explain`` on, and prints the per-layer metrics; the spans are
written to ``.bench_out/`` when the run ends.  The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 7
SETUP_CALIBRATIONS = 7
TAIL_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print one normalised set-up time, then exit")
    return parser.parse_args(argv)


def checkout_src() -> str:
    """The program's sources in the checkout the benchmark runs from."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "bbcharpoly", "cli.py")):
        raise SystemExit(f"perfbench: no bbcharpoly sources under {src}; "
                         "run from the root of a checkout")
    return src


def import_program(src: str):
    sys.path.insert(0, src)
    import bbcharpoly.cli

    if not os.path.abspath(bbcharpoly.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported {bbcharpoly.cli.__file__}, not {src}")


def setup_once(workload: str, seed: int):
    """Import plus input generation and SMS serialisation, timed."""
    import workloads

    t0 = time.perf_counter()
    import_program(checkout_src())
    built = workloads.BUILDERS[workload](seed)
    return time.perf_counter() - t0, built


def setup_normalised(args) -> float:
    """One set-up, normalised by kernel samples taken right after it."""
    seconds, _ = setup_once(args.workload, args.seed)
    import calibrate  # after the set-up, whose time includes importing numpy

    calibrate.warm_up()
    kernel_s = statistics.median(calibrate.sample() for _ in range(SETUP_CALIBRATIONS))
    return seconds * calibrate.REFERENCE_S / kernel_s


def setup_seconds(args) -> float:
    """Median of fresh-interpreter set-ups, each in its own process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def run_call(cli, call, argv):
    """One CLI call with the SMS on stdin; returns (seconds, exit, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(call.sms)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed call, not a crashed run
                code = f"{type(exc).__name__}: {exc}"
            except SystemExit as exc:
                code = exc.code
            elapsed = time.perf_counter() - t0
    finally:
        sys.stdin = saved_stdin
    return elapsed, code, out.getvalue(), err.getvalue()


def run_pass(cli, work, explain=False, tracer=None):
    """All calls of the workload, each between two kernel samples; gates run
    after the timed section.

    Returns (raw seconds per call, normalised seconds per call, stderr per
    call, failures).
    """
    import calibrate

    results, kernel = [], [calibrate.sample()]
    for i, call in enumerate(work.calls):
        if tracer is not None:
            tracer.call_id = i
        argv = call.argv + ["--explain"] if explain else call.argv
        results.append(run_call(cli, call, argv))
        kernel.append(calibrate.sample())
    raw = [r[0] for r in results]
    # The median of two samples before and two after the call, so that one
    # sample a preemption stretched does not skew it.
    normalised = [t * calibrate.REFERENCE_S / statistics.median(kernel[max(i - 1, 0):i + 3])
                  for i, t in enumerate(raw)]
    failures = []
    for call, (_, code, out, err) in zip(work.calls, results):
        if code != 0:
            failures.append(f"{' '.join(call.argv)}: exit {code}: {err.strip()[-200:]}")
            continue
        try:
            problem = work.gate(call, out)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc}"
        if problem:
            failures.append(f"{' '.join(call.argv)}: {problem}")
    return raw, normalised, kernel, [r[3] for r in results], failures


def tail(times, min_calls):
    """The percentile with TAIL_BEYOND calls beyond it in a run of min_calls
    calls (nearest rank), and that percentile."""
    ordered = sorted(times)
    n, kept = len(ordered), min_calls - TAIL_BEYOND
    return ordered[-(-n * kept // min_calls) - 1], 100.0 * kept / min_calls


def measure(cli, work, seconds):
    """Untraced passes until the next one would overrun the window, and at
    least work.min_calls calls.

    Returns raw and normalised seconds per pass, normalised seconds per call,
    kernel samples and failures.
    """
    raw_passes, passes, times, kernel, failures = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        raw, normalised, samples, _, failed = run_pass(cli, work)
        elapsed = time.perf_counter() - t0
        raw_passes.append(sum(raw))
        passes.append(sum(normalised))
        times.extend(normalised)
        kernel.extend(samples)
        failures.extend(failed)
        if (time.perf_counter() - start + elapsed > seconds
                and len(times) >= work.min_calls):
            return raw_passes, passes, times, kernel, failures


def explain_counts(stderr_texts):
    from tracer import CHOSEN_METHODS, EXPLAIN_EVENTS

    counts = {f"explain.{e}": 0 for e in EXPLAIN_EVENTS}
    counts.update({f"explain.method.{m}": 0 for m in CHOSEN_METHODS})
    for text in stderr_texts:
        for line in text.splitlines():
            if not line.startswith("{"):
                continue
            event = json.loads(line)
            key = f"explain.{event['event']}"
            if event["event"] == "method":
                key = f"explain.method.{event['chosen']}"
            if key in counts:
                counts[key] += 1
    return counts


def environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def traced_metrics(cli, work, seconds):
    """Untraced and traced passes in turn, so both see the same machine.

    Returns the per-layer metrics (per traced pass), calls attempted and
    failures.
    """
    import tracer as tr

    t = tr.Tracer()
    plain, traced, stderr_texts, failures = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        _, normalised, _, _, failed = run_pass(cli, work)
        plain.append(sum(normalised))
        failures += failed
        t.install()
        try:
            _, normalised, _, texts, failed = run_pass(cli, work, explain=True, tracer=t)
        finally:
            t.uninstall()
        traced.append(sum(normalised))
        stderr_texts += texts
        failures += failed
        elapsed = time.perf_counter() - t0
        if time.perf_counter() - start + elapsed > seconds:
            break
    metrics = t.stats(passes=len(traced))
    metrics.update({k: v / len(traced) for k, v in explain_counts(stderr_texts).items()})
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    missing = [m for m in tr.required_nonzero(work.name) if not metrics[m]]
    if missing:
        raise SystemExit(f"perfbench: traced run of {work.name} recorded nothing for "
                         + ", ".join(missing))
    os.makedirs(".bench_out", exist_ok=True)
    t.save(os.path.join(".bench_out", f"spans-{work.name}.npz"))
    out = {name: {"value": metrics[name], "unit": tr.unit_of(name)}
           for name in tr.metric_names()}
    attempted = (len(plain) + len(traced)) * len(work.calls)
    return out, attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads

    if args.workload not in workloads.BUILDERS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)}")
    checkout_src()
    if args.setup_only:
        print(f"{setup_normalised(args)!r}")
        return 0

    setup_s = None if args.trace else setup_seconds(args)
    _, work = setup_once(args.workload, args.seed)
    import bbcharpoly.cli as cli
    import calibrate

    calibrate.warm_up()

    if args.trace:
        metrics, attempted, failures = traced_metrics(cli, work, args.seconds)
    else:
        raw_passes, passes, times, kernel, failures = measure(cli, work, args.seconds)
        attempted = len(times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tail_s, tail_pct = tail(times, work.min_calls)
        metrics = {
            "charpoly_s": {"value": statistics.median(passes), "unit": "s"},
            "call_p50_s": {"value": statistics.median(times), "unit": "s"},
            "call_tail_s": {"value": tail_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"call_tail_s is p{tail_pct:.1f} of {len(times)} calls; "
              f"{len(passes)} passes of {len(work.calls)} calls took "
              + " ".join(f"{w:.3f}" for w in raw_passes) + " s of wall time, "
              + " ".join(f"{w:.3f}" for w in passes) + " s normalised; "
              f"kernel median {statistics.median(kernel):.5f} s, reference "
              f"{calibrate.REFERENCE_S} s")
    print(f"fail_ratio {len(failures) / attempted!r} ({len(failures)} of {attempted})")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"workload": work.name, "inputs": work.info, "env": environment()}))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
