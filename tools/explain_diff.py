"""Compare the seeded CLI corpus of two source trees, event by event.

Runs every run of ``seeded_cli_digest.runs()`` under each tree, in one
subprocess per tree with ``PYTHONPATH`` set to that tree's ``src/``.  If any
run's exit code or stdout differs, it lists those runs and exits 1.
Otherwise it diffs each run's stderr (the ``--explain`` JSON lines, and any
error message) and prints how many runs moved, by command and method, and
the number of added and removed events, by event name; an event whose
fields changed counts as one removed and one added.

    python3 tools/explain_diff.py OLD_SRC NEW_SRC

for example ``python3 tools/explain_diff.py /path/to/parent/src src``.
"""

from __future__ import annotations

import difflib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path


def dump():
    """Child mode: one JSON line per run of the seeded corpus."""
    import seeded_cli_digest

    for label, argv, text in seeded_cli_digest.runs():
        code, stdout, stderr = seeded_cli_digest.run(argv, text)
        print(json.dumps([label, code, stdout, stderr]), flush=True)


def collect(src: str) -> dict[str, tuple[str, str, str]]:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    out = subprocess.run(
        [sys.executable, __file__, "--dump"],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return {label: tuple(rest) for label, *rest in map(json.loads, out.splitlines())}


def event_name(line: str) -> str:
    """The ``event`` of an ``--explain`` line; other stderr is a message."""
    try:
        return json.loads(line)["event"]
    except (ValueError, TypeError, KeyError):
        return "(message)"


def run_kind(label: str) -> str:
    """'command method' of a run label, or just the command for minpoly."""
    words = label.split()
    return " ".join(words[2:4]) if words[2] != "minpoly" else "minpoly"


def main(argv) -> int:
    if len(argv) == 2 and argv[1] == "--dump":
        dump()
        return 0
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = collect(argv[1]), collect(argv[2])
    if old.keys() != new.keys():
        print("the two trees ran different corpora")
        return 1
    answers_moved = [
        label for label in old if old[label][:2] != new[label][:2]
    ]
    for label in answers_moved:
        print(f"answer moved: {label}: exit {old[label][0]} -> {new[label][0]}")
    if answers_moved:
        return 1
    added, removed, moved = Counter(), Counter(), Counter()
    for label in old:
        a, b = old[label][2].splitlines(), new[label][2].splitlines()
        if a == b:
            continue
        moved[run_kind(label)] += 1
        matcher = difflib.SequenceMatcher(a=a, b=b, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag in ("replace", "delete"):
                removed.update(event_name(line) for line in a[i1:i2])
            if tag in ("replace", "insert"):
                added.update(event_name(line) for line in b[j1:j2])
    print(f"runs {len(old)}, answers identical, {sum(moved.values())} traces moved")
    for title, counts in (("moved runs", moved), ("added", added), ("removed", removed)):
        print(f"{title}: {sum(counts.values())}")
        for name, count in sorted(counts.items()):
            print(f"  {name} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
