"""Per-layer spans recorded from outside the program.

The traced run replaces each public function in ``LAYERS`` by a wrapper that
records one span (name, parent span, CLI call id, start, end).  Modules that
import a function by name hold their own reference to it, so every
``bbcharpoly.*`` module attribute that is the same function object is
replaced too.  Spans stay in memory; ``stats`` turns them into the per-layer
metrics and ``save`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

from workloads import CENSUS, NAMES, NONDEROG, ROOK

# (module, function, stats, workloads that must record calls).  The last
# column is the table of workloads each layer serves: a layer that records
# no call there means a rename dropped it, and the traced run fails.
LAYERS = (
    ("blackbox", "SparseOperator.apply", ("calls", "self_s"), (ROOK, NONDEROG)),
    ("blackbox", "PolyOfMatrix.apply", ("calls", "self_s"), (ROOK,)),
    ("blackbox", "ShiftedOperator.apply", ("calls", "self_s"), (CENSUS,)),
    ("blackbox", "LowRankPerturbation.apply", ("calls", "self_s"), (CENSUS,)),
    ("blackbox", "wiedemann_minpoly", ("calls", "self_s"), (ROOK, CENSUS)),
    ("blackbox", "BerlekampMassey.add", ("calls", "self_s"), (ROOK, CENSUS)),
    ("blackbox", "rank_blackbox", ("calls", "total_s"), (ROOK,)),
    ("blackbox", "det_blackbox", ("calls", "total_s"), (CENSUS,)),
    ("poly", "factor", ("calls", "total_s"), (NONDEROG, ROOK)),
    ("poly", "gcd_free_basis", ("total_s",), (ROOK,)),
    ("poly", "hensel_lift_basis", ("total_s",), (ROOK,)),
    ("poly", "crt_combine", ("calls",), (ROOK,)),
    ("poly", "squarefree_part", ("total_s",), (ROOK,)),
    ("multiplicity", "combinatorial_search", ("calls", "total_s"), (CENSUS,)),
    ("multiplicity", "index_calculus", ("calls", "total_s"), (CENSUS,)),
    ("multiplicity", "solve_mod_p", ("calls", "total_s"), (CENSUS,)),
    ("adaptive", "charpoly_with_details", ("calls", "total_s", "self_s"), (CENSUS,)),
    ("adaptive", "nullity_comb_search", ("calls", "total_s", "self_s"), (CENSUS, ROOK)),
    ("adaptive", "invariant_factor", ("calls", "total_s", "self_s"), (CENSUS,)),
    ("adaptive", "hybrid_multiplicities", ("calls", "total_s", "self_s"), (CENSUS,)),
    ("adaptive", "invfact_multiplicities", ("calls", "total_s", "self_s"), (CENSUS,)),
    ("ff", "DlogContext.dlog", ("calls", "self_s"), (CENSUS,)),
    # The census fields are picked during set-up, so inside the CLI calls only
    # the integer pipeline searches for an index-calculus field.
    ("ff", "find_index_calculus_field", ("total_s",), (ROOK,)),
    ("integer", "integer_minpoly", ("total_s",), (ROOK,)),
    ("integer", "integer_charpoly_with_details", ("self_s",), (ROOK,)),
    ("sms", "parse_sms", ("total_s",), NAMES),
    ("cli", "main", ("self_s",), NAMES),
)

# Ratios measured where the work happens, per call of the anchor layer:
# (metric, kind, anchor, counted layer, workloads).  "under" counts spans of
# the counted layer with the anchor anywhere above them; "child" counts those
# whose direct parent is an anchor span.
RATIOS = (
    ("blackbox.wiedemann_minpoly.applies_per_call", "under",
     "blackbox.wiedemann_minpoly", "blackbox.SparseOperator.apply", (ROOK, CENSUS)),
    ("blackbox.rank_blackbox.trials_per_call", "child",
     "blackbox.rank_blackbox", "blackbox.wiedemann_minpoly", (ROOK,)),
    ("integer.integer_minpoly.primes", "child",
     "integer.integer_minpoly", "blackbox.wiedemann_minpoly", (ROOK,)),
)

EXPLAIN_EVENTS = ("retry", "bad-prime", "fallback", "rank", "invfact", "ic-row", "search-det")
CHOSEN_METHODS = ("trivial", "nullity-comb", "index", "hybrid", "invfact")


class LayerMissing(RuntimeError):
    """A function listed in LAYERS is gone from the program."""


def layer_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def metric_names() -> list[str]:
    names = [f"{layer_name(m, q)}.{s}" for m, q, stats, _ in LAYERS for s in stats]
    names += [r[0] for r in RATIOS]
    names += [f"explain.{e}" for e in EXPLAIN_EVENTS]
    names += [f"explain.method.{m}" for m in CHOSEN_METHODS]
    names.append("trace.overhead_s")
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_call") or name.endswith(".primes"):
        return "ratio"
    return "count"


def required_nonzero(workload: str) -> list[str]:
    """Per-layer metrics the layer table maps to this workload."""
    out = [f"{layer_name(m, q)}.{s}" for m, q, stats, ws in LAYERS
           if workload in ws for s in stats]
    out += [r[0] for r in RATIOS if workload in r[4]]
    return out


class Tracer:
    def __init__(self):
        self.names = [layer_name(m, q) for m, q, _, _ in LAYERS]
        self.call_id = -1
        self.span_call = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # no enclosing span of the same name
        self._stack: list[int] = []
        self._active = [0] * len(self.names)
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def _wrap(self, idx: int, fn):
        clock = time.perf_counter
        stack, active = self._stack, self._active
        calls, names, parents = self.span_call, self.span_name, self.span_parent
        starts, ends, outer = self.span_start, self.span_end, self.span_outer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            calls.append(self.call_id)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            outer.append(active[idx] == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            active[idx] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                active[idx] -= 1
                stack.pop()

        return traced

    def install(self):
        """Wrap every listed function; raise LayerMissing for a lost one."""
        modules = [m for name, m in sys.modules.items()
                   if name == "bbcharpoly" or name.startswith("bbcharpoly.")]
        for idx, (module, qualname, _, _) in enumerate(LAYERS):
            mod = importlib.import_module(f"bbcharpoly.{module}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                raise LayerMissing(f"bbcharpoly.{module}.{qualname} no longer exists")
            wrapper = self._wrap(idx, original)
            self._patch(owner, attr, wrapper)
            if not owner_name:
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is original and other is not owner:
                            self._patch(other, name, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def stats(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per pass over the workload."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parent >= 0
        child_time = np.zeros(len(dur))
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names[outer], weights=dur[outer], minlength=k)
        self_s = np.bincount(names, weights=dur - child_time, minlength=k)
        values = {"calls": calls, "total_s": total, "self_s": self_s}
        out = {}
        for idx, (_, _, stats, _) in enumerate(LAYERS):
            for stat in stats:
                out[f"{self.names[idx]}.{stat}"] = float(values[stat][idx]) / passes
        for metric, kind, anchor, counted, _ in RATIOS:
            a, c = self.names.index(anchor), self.names.index(counted)
            if kind == "child":
                hits = has_parent & (names == c)
                hits[hits] = names[parent[hits]] == a
            else:
                hits = self._under(names, parent, a) & (names == c)
            out[metric] = int(hits.sum()) / int(calls[a]) if calls[a] else 0.0
        return out

    @staticmethod
    def _under(names, parent, anchor):
        """Spans with an ancestor named anchor, by pointer jumping."""
        found = np.zeros(len(names), dtype=bool)
        up = parent.copy()
        while (up >= 0).any():
            live = up >= 0
            found[live] |= names[up[live]] == anchor
            up[live] = parent[up[live]]
        return found

    def save(self, path: str):
        np.savez(
            path,
            layer=np.array(self.names),
            call=np.frombuffer(self.span_call, dtype=np.int32),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
