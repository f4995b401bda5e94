"""Adaptive drivers combining the multiplicity methods over a finite field.

Four method names are exposed:

* ``nullity-comb``: cheap kernel dimensions first (slots ordered by rising
  j*d), the last few unknowns resolved by combinatorial search (threshold T).
  Over GF(p) with p > n, a factor whose slots all fall among the last T
  gets no rank call while the search and the determinants that certify
  its census cost less than that call would;
* ``index``: invariant factors are peeled until at most ceil(sqrt(n)) factors
  remain unresolved, then one discrete-log system finishes the job;
* ``hybrid``: kernel dimensions for the degree-one multiplicity-one factors,
  an enumerated assignment block for the largest-degree factors, and the
  same discrete-log system as ``index``, its right-hand side swept over the
  assignments;
* ``invfact``: invariant factors all the way down.

``auto`` short-circuits to nullity-comb for small factor counts or fields
without a usable discrete-log subprime, and otherwise compares the predicted
rank-call load sum(j*d_i) against the index-calculus estimate k + 2*ceil(sqrt n).

Every driver takes ``(A, profiles, cfg, rng)``, ``profiles`` being the
``FactorProfile`` of each (irreducible, multiplicity) pair that
``poly.factor`` gives for the minimal polynomial, and works out the rest:
the invariant-factor peel multiplies the minimal polynomial back from the
profiles, and ``index_calculus`` finds its own subprime and builds its own
``DlogContext``, so an ``index`` run whose peel leaves nothing to solve
builds none.
Every nullity comes from one routine, ``_compute_nullity``; ``hybrid`` uses
it for its cheap factors too.  ``charpoly_with_details`` validates deg = n
and the trace identity (``degree_trace_residual``) before returning, and it
owns the retries: an internal failure anywhere, a driver's included, reruns
the whole pipeline once with fresh randomness.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from .blackbox import (
    BlackBoxOperator,
    LowRankPerturbation,
    PolyOfMatrix,
    _RANK_STREAK,
    preconditioner,
    random_vector,
    rank_blackbox,
    wiedemann_minpoly,
)
from .ff import check_modulus, index_calculus_subprime
from .multiplicity import (
    FactorProfile,
    InconsistentNullityError,
    NoCandidateError,
    SearchExplosionError,
    _EXPLOSION_CAP,
    combinatorial_search,
    degree_trace_residual,
    det_rounds,
    index_calculus,
)
from .poly import (
    ComputationError,
    FieldPoly,
    divide_out,
    factor,
    poly_gcd,
    product_of_powers,
)

METHODS = ("auto", "nullity-comb", "index", "hybrid", "invfact")


class AdaptiveError(ComputationError):
    """A driver could not produce a validated characteristic polynomial."""


class MethodUnavailableError(ValueError):
    """The requested method cannot run in this field."""


class TraceLog:
    """Structured JSON-lines record of driver decisions."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, event: str, **fields):
        entry = {"event": event}
        entry.update(fields)
        self.events.append(entry)

    def lines(self) -> list[str]:
        return [json.dumps(e, sort_keys=True, default=str) for e in self.events]


@dataclass
class AdaptiveConfig:
    threshold: int = 5
    method: str = "auto"
    seed: int | None = None
    trace_log: TraceLog | None = None

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")

    def _emit(self, event, **fields):
        if self.trace_log is not None:
            self.trace_log.emit(event, **fields)


@dataclass
class CharpolyResult:
    charpoly: FieldPoly
    minpoly: FieldPoly
    profiles: list[FactorProfile]
    multiplicities: list[int]
    method: str

    @property
    def factors(self) -> list[tuple[FieldPoly, int, int]]:
        """(P, e, m) for each irreducible factor P of the minimal polynomial:
        its exponent e there and its multiplicity m in the charpoly."""
        return [
            (pr.poly, pr.minpoly_mult, m)
            for pr, m in zip(self.profiles, self.multiplicities)
        ]


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _validate(A: BlackBoxOperator, profiles, mults) -> FieldPoly:
    """prod P_i^m_i, once its degree is n and it meets the trace identity."""
    n, p = A.dimension, A.p
    deg_gap, trace_gap = degree_trace_residual(mults, profiles, n, A.trace(), p)
    if deg_gap:
        raise AdaptiveError(f"charpoly degree {n - deg_gap} != {n}")
    if trace_gap:
        raise AdaptiveError("trace identity violated")
    pairs = ((prof.poly, m) for prof, m in zip(profiles, mults))
    return product_of_powers(pairs, FieldPoly.one(p))


def _compute_nullity(A, prof, j, rng, cfg, previous=None):
    """Nullity of f(A)^j for the factor f of ``prof``.

    f^e divides the certified minimal polynomial, which divides the true one,
    so some Jordan block of f has size at least e: the nullity is at least
    d * min(j, e), and rank n - d * min(j, e) is a proven ceiling.  (A ceiling
    taken from an estimated nullity would not be: those err high.)  So a
    smaller ``previous`` estimate of the same nullity is kept.
    """
    op = PolyOfMatrix(A, prof.poly, j)
    ceiling = A.dimension - prof.degree * min(j, prof.minpoly_mult)
    nu = A.dimension - rank_blackbox(op, rng, ceiling=ceiling)
    if previous is not None:
        nu = min(nu, previous)
    cfg._emit(
        "rank", factor=list(prof.poly.coeffs), power=j, nullity=nu, ceiling=ceiling
    )
    return nu


def nullity_comb_search(A: BlackBoxOperator, profiles, cfg: AdaptiveConfig, rng):
    """Kernel dimensions until at most T slots remain, then search.

    Slots (i, j), j <= e_i, are processed by increasing j*d_i.  A factor
    with a measured nullity gets one extra nullity beyond its computed
    prefix, which pins its residual block total and prunes the search.

    A factor with none, its slots all among the last T, is left to the
    search when p > n, where ``det_rounds`` determinants certify its
    census.  Measuring the factors left would take about
    2 * _RANK_STREAK * (n + 1) * d applies each.  A determinant round, one
    Wiedemann run of 2n terms, is priced like the rank call of a degree-one
    factor, _RANK_STREAK runs: a rank call that reaches its proven ceiling
    stops after one run, so the estimate above runs high, and the rounds
    must not spend what it overstates.  What the rounds leave of the rank
    calls' applies caps the degree-feasible censuses the search may visit,
    a census counted like an apply.  With no room left every factor left
    is measured; when the search overflows the cap the cheapest one (least
    d) is, and the search runs again.
    """
    profiles = list(profiles)
    n, p = A.dimension, A.p
    slots = [
        (prof.degree * j, i, j)
        for i, prof in enumerate(profiles)
        for j in range(1, prof.minpoly_mult + 1)
    ]
    slots.sort()
    nullities: list[dict[int, int]] = [{} for _ in profiles]
    for _, i, j in slots[: max(0, len(slots) - cfg.threshold)]:
        nullities[i][j] = _compute_nullity(A, profiles[i], j, rng, cfg)
    for i, prof in enumerate(profiles):
        # slots go by rising j*d and the extras sit at the frontier,
        # so a factor's measured powers are always 1..len
        ji = len(nullities[i])
        if 0 < ji < prof.minpoly_mult:
            nullities[i][ji + 1] = _compute_nullity(A, prof, ji + 1, rng, cfg)
    rounds = det_rounds(n, p)

    for attempt in range(2):
        try:
            left = sorted(
                (i for i in range(len(profiles)) if not nullities[i]),
                key=lambda i: profiles[i].degree,
            )
            while True:
                # measure the cheapest factor left while the rounds leave
                # the rank calls no room
                while left and (
                    rounds is None or sum(profiles[i].degree for i in left) <= rounds
                ):
                    i = left.pop(0)
                    nullities[i][1] = _compute_nullity(A, profiles[i], 1, rng, cfg)
                cap = _EXPLOSION_CAP
                if left:
                    spare = sum(profiles[i].degree for i in left) - rounds
                    cap = min(2 * _RANK_STREAK * (n + 1) * spare, cap)
                try:
                    census = combinatorial_search(
                        A,
                        profiles,
                        nullities,
                        rng,
                        trace_log=cfg.trace_log,
                        cap=cap,
                        certify=bool(left),
                    )
                    break
                except SearchExplosionError:
                    if not left:
                        raise
                    i = left.pop(0)
                    nullities[i][1] = _compute_nullity(A, profiles[i], 1, rng, cfg)
            # the search kept only censuses that meet the degree/trace
            # identity and, with a factor left unmeasured, det_rounds
            # determinants
            factors = [
                {
                    "poly": list(prof.poly.coeffs),
                    "degree": prof.degree,
                    "minpoly_mult": prof.minpoly_mult,
                    "nullities": {str(j): nu for j, nu in nullities[i].items()},
                    "occurrences": {
                        str(j): census[(i, j)]
                        for j in range(1, prof.minpoly_mult + 1)
                    },
                }
                for i, prof in enumerate(profiles)
            ]
            cfg._emit("census", table={"factors": factors})
            return [
                sum(j * census[(i, j)] for j in range(1, prof.minpoly_mult + 1))
                for i, prof in enumerate(profiles)
            ]
        except (InconsistentNullityError, NoCandidateError):
            if attempt == 1:
                raise
            # estimate every nullity once more, keep the smaller, and retry
            for i, prof in enumerate(profiles):
                for j, nu in nullities[i].items():
                    nullities[i][j] = _compute_nullity(
                        A, prof, j, rng, cfg, previous=nu
                    )


def invariant_factor(
    A: BlackBoxOperator,
    j: int,
    rng,
    *,
    minpoly: FieldPoly,
    previous: FieldPoly,
) -> FieldPoly:
    """j-th invariant factor via rank-(j-1) random additive perturbations.

    Intersects gcd(minpoly(A), minpoly(A + U V)) over two draws, or one when
    the first gcd is already 1; the result must divide the previous
    invariant factor, else fresh factors are drawn, up to three times.
    """
    if j < 1:
        raise ValueError("invariant factor index must be >= 1")
    if j == 1:
        return minpoly
    n, p = A.dimension, A.p
    r = j - 1
    for _ in range(3):
        acc = None
        for _ in range(2):
            U = random_vector(n * r, p, rng).reshape(n, r)
            V = random_vector(r * n, p, rng).reshape(r, n)
            perturbed = wiedemann_minpoly(LowRankPerturbation(A, U, V), rng)
            g = poly_gcd(minpoly, perturbed)
            acc = g if acc is None else poly_gcd(acc, g)
            if acc.degree == 0:
                break  # gcd(1, anything) = 1: a second draw changes nothing
        if (previous % acc).is_zero:
            return acc
    raise AdaptiveError(
        f"invariant factor {j} failed the divisibility chain check"
    )


def _peel_invariant_factors(A, profiles, cfg, rng, stop_size, max_iters):
    """Shared loop: accumulate multiplicities from f_2, f_3, ... until at
    most `stop_size` factors remain unresolved.  Returns (mults, live set).

    The minimal polynomial f_1 is the product of the P^e of ``profiles``."""
    mults = [prof.minpoly_mult for prof in profiles]
    minpoly = product_of_powers(
        ((prof.poly, prof.minpoly_mult) for prof in profiles), FieldPoly.one(A.p)
    )
    live = set(range(len(profiles)))
    previous = minpoly
    j = 2
    iters = 0
    while len(live) > stop_size:
        iters += 1
        if iters > max_iters:
            raise AdaptiveError(
                f"invariant-factor loop exceeded {max_iters} iterations"
            )
        fj = invariant_factor(A, j, rng, minpoly=minpoly, previous=previous)
        cfg._emit("invfact", index=j, degree=fj.degree)
        for i in sorted(live):
            alpha, _ = divide_out(fj, profiles[i].poly)
            if alpha == 0:
                live.discard(i)
            else:
                mults[i] += alpha
        previous = fj
        j += 1
        if fj.degree == 0:
            break
    return mults, live


def invfact_multiplicities(A, profiles, cfg, rng):
    """Resolve every factor by peeling invariant factors until none remain."""
    mults, live = _peel_invariant_factors(
        A, profiles, cfg, rng, stop_size=0, max_iters=A.dimension + 1
    )
    return mults


def _alg5_multiplicities(A, profiles, cfg, rng):
    """Invariant factors down to ceil(sqrt(n)) unknowns, then the log system."""
    n = A.dimension
    cap = _ceil_sqrt(n)
    mults, live = _peel_invariant_factors(
        A, profiles, cfg, rng, stop_size=cap, max_iters=cap
    )
    if live:
        known = {i: m for i, m in enumerate(mults) if i not in live}
        solved = index_calculus(
            A, profiles, sorted(live), known, rng, trace_log=cfg.trace_log
        )
        for i, m in solved.items():
            mults[i] = m
    return mults


def _enumerate_assignments(shapes, budget, cap):
    """All multiplicity tuples (m_1, ...) with m_i >= e_i and sum d_i m_i <=
    budget, for ``shapes`` = [(d_i, e_i), ...], in lexicographic order.

    The used degree of each partial tuple is kept beside it, in a second
    list.  None once the partial tuples of some length outnumber ``cap``.
    """
    out, used = [()], [0]
    for d, e in shapes:
        new, new_used = [], []
        for partial, u in zip(out, used):
            for m in range(e, (budget - u) // d + 1):
                new.append(partial + (m,))
                new_used.append(u + d * m)
                if len(new) > cap:
                    return None
        out, used = new, new_used
    return out


def hybrid_multiplicities(A, profiles, cfg, rng):
    """Kernel dimensions for cheap factors, enumeration for the big ones,
    the discrete-log finisher (``index_calculus``) for the rest.

    The split s over the largest-degree factors minimizes the cost estimate
    2*m*n*Omega + (2/3)m^3 + 4*m^2*tau_s where m is the residual system
    dimension and tau_s the number of enumerated assignments, all of which
    the finisher sweeps over its one elimination.
    """
    profiles = list(profiles)
    n = A.dimension
    mults: list[int | None] = [None] * len(profiles)
    cheap = [
        i
        for i, prof in enumerate(profiles)
        if prof.degree == 1 and prof.minpoly_mult == 1
    ]
    for i in cheap:
        # all blocks of a multiplicity-one factor have size 1: m = nullity
        mults[i] = _compute_nullity(A, profiles[i], 1, rng, cfg)
    rest = sorted(
        (i for i in range(len(profiles)) if mults[i] is None),
        key=lambda i: profiles[i].degree,
        reverse=True,
    )
    known_degree = sum(mults[i] * profiles[i].degree for i in cheap)

    floor_degree = {i: profiles[i].degree * profiles[i].minpoly_mult for i in rest}

    best = None
    omega = A.cost
    tau_cap = 10**4
    for s in range(0, min(8, len(rest)) + 1):
        m_dim = len(rest) - s
        budget = n - known_degree - sum(floor_degree[i] for i in rest[s:])
        assignments = _enumerate_assignments(
            [(profiles[i].degree, profiles[i].minpoly_mult) for i in rest[:s]],
            budget,
            tau_cap,
        )
        # budget_{s+1} = budget_s + floor_degree[rest[s]] >= budget_s, and
        # split s + 1 enumerates the shapes of split s first, so each of its
        # partial lists holds that of split s: once s overflows, so does
        # every larger s
        if assignments is None:
            break
        tau = max(1, len(assignments))
        cost = 2 * m_dim * n * omega + (2 * m_dim**3) / 3 + 4 * m_dim**2 * tau
        if best is None or cost < best[0]:
            best = (cost, s, assignments)
    if best is None:
        raise AdaptiveError("no feasible enumeration split")
    _, s, assignments = best
    cfg._emit("hybrid-split", s=s, assignments=len(assignments), system=len(rest) - s)
    if not assignments:
        raise AdaptiveError("enumeration produced no candidate assignments")
    solved = index_calculus(
        A,
        profiles,
        rest[s:],
        {i: mults[i] for i in cheap},
        rng,
        enumerated=rest[:s],
        assignments=assignments,
        trace_log=cfg.trace_log,
    )
    for i, m in solved.items():
        mults[i] = m
    return mults


def _choose_method(A, profiles, cfg) -> str:
    n, q = A.dimension, A.p
    subprime = index_calculus_subprime(q, n)
    if cfg.method != "auto":
        if cfg.method in ("index", "hybrid") and subprime is None:
            raise MethodUnavailableError(
                f"GF({q}) has no prime factor of q-1 exceeding n={n}; "
                f"the {cfg.method} method needs one"
            )
        return cfg.method
    k = len(profiles)
    if subprime is None or k <= cfg.threshold:
        return "nullity-comb"
    cost_nc = sum(
        prof.degree * j
        for prof in profiles
        for j in range(1, prof.minpoly_mult + 1)
    )
    cost_ic = k + 2 * _ceil_sqrt(n)
    return "nullity-comb" if cost_nc < cost_ic else "index"


def charpoly_with_details(A: BlackBoxOperator, cfg: AdaptiveConfig | None = None):
    """Run the adaptive pipeline; returns a CharpolyResult.

    Raises ValueError before any draw or apply unless A.p is an odd prime
    <= 2**31.
    """
    n = A.dimension
    check_modulus(A.p)
    if cfg is None:
        cfg = AdaptiveConfig()
    rng = random.Random(cfg.seed)
    last_error = None
    for attempt in range(2):
        try:
            minpoly = wiedemann_minpoly(A, rng)
            profiles = [FactorProfile(f, e) for f, e in factor(minpoly, rng)]
            if sum(pr.degree * pr.minpoly_mult for pr in profiles) == n:
                mults = [pr.minpoly_mult for pr in profiles]
                cfg._emit("method", chosen="trivial", reason="minpoly degree = n")
                cp = _validate(A, profiles, mults)
                return CharpolyResult(cp, minpoly, profiles, mults, "trivial")
            method = _choose_method(A, profiles, cfg)
            # every rank and determinant call wraps A in P^j(A) or lambda*I - A,
            # which keep A's symmetry, n and p, and so its preconditioner
            cfg._emit(
                "method",
                chosen=method,
                factors=len(profiles),
                preconditioner=preconditioner(A),
            )
            # looked up per call, so a wrapped module attribute is the one run
            driver = {
                "nullity-comb": nullity_comb_search,
                "index": _alg5_multiplicities,
                "hybrid": hybrid_multiplicities,
                "invfact": invfact_multiplicities,
            }[method]
            mults = driver(A, profiles, cfg, rng)
            cp = _validate(A, profiles, mults)
            return CharpolyResult(cp, minpoly, profiles, mults, method)
        except ComputationError as err:
            last_error = err
            cfg._emit("retry", error=str(err))
    raise AdaptiveError(f"adaptive driver failed twice: {last_error}")


def blackbox_charpoly_field(
    A: BlackBoxOperator, cfg: AdaptiveConfig | None = None
) -> FieldPoly:
    """Characteristic polynomial of a black-box operator over GF(p)."""
    return charpoly_with_details(A, cfg).charpoly
