"""Recovering characteristic-polynomial multiplicities of minpoly factors.

Three routes, combined by the adaptive drivers:

* kernel dimensions: the nullity of P^e(A) is m*d, and each step
  nu_j - nu_{j-1} of the nullities of the first powers P^j(A) is d times the
  number of blocks of size at least j, so occurrence counts of small blocks
  are integer differences of these block totals;
* combinatorial search: branch-and-bound over the unresolved block counts
  constrained by the total-degree and trace identities, with surviving
  candidates discriminated by determinants of shifted operators;
* discrete-log linear system: evaluating the factorization at random points
  and taking logs turns the unknown multiplicities into a linear system
  solved modulo a prime divisor p > n of q - 1 (``index_calculus``, the one
  finisher of the ``index`` and ``hybrid`` drivers).

Block counts n_{i,j} refer to the number of times the j-th power block of
factor i occurs in the primary form; the multiplicity is m_i = sum j*n_{i,j}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blackbox import BlackBoxOperator, ShiftedOperator, det_blackbox
from .ff import DlogContext
from .poly import Factorization, FieldPoly


# combinatorial_search gives up beyond this many candidate censuses
_EXPLOSION_CAP = 10**6


class InconsistentNullityError(ArithmeticError):
    """Nullity sequence cannot come from a valid block census."""


class SearchExplosionError(RuntimeError):
    """Combinatorial search exceeded the candidate cap."""


class NoCandidateError(ArithmeticError):
    """No block census satisfies the degree/trace constraints."""


class IndexCalculusFailure(RuntimeError):
    """Discrete-log system did not reach full rank or failed validation."""


@dataclass
class FactorProfile:
    """One irreducible factor of the minimal polynomial."""

    poly: FieldPoly
    degree: int
    minpoly_mult: int
    trace_coeff: int = 0

    @classmethod
    def from_poly(cls, poly: FieldPoly, minpoly_mult: int) -> "FactorProfile":
        return cls(
            poly=poly,
            degree=poly.degree,
            minpoly_mult=minpoly_mult,
            trace_coeff=poly.coefficient(poly.degree - 1),
        )


def profiles_from_factorization(fac: Factorization) -> list[FactorProfile]:
    return [FactorProfile.from_poly(poly, mult) for poly, mult in fac]


@dataclass
class OccurrenceTable:
    """Known nullities and solved block counts, per factor and power."""

    profiles: list[FactorProfile]
    nullities: list[dict[int, int]] = field(default_factory=list)
    occurrences: list[dict[int, int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.nullities:
            self.nullities = [{} for _ in self.profiles]
        if not self.occurrences:
            self.occurrences = [{} for _ in self.profiles]

    def frontier(self, i: int) -> int:
        """Largest j with a computed nullity (0 when none)."""
        j = 0
        while (j + 1) in self.nullities[i]:
            j += 1
        return j

    def to_json_dict(self) -> dict:
        return {
            "factors": [
                {
                    "poly": list(prof.poly.coeffs),
                    "degree": prof.degree,
                    "minpoly_mult": prof.minpoly_mult,
                    "nullities": {str(j): v for j, v in self.nullities[i].items()},
                    "occurrences": {
                        str(j): v for j, v in self.occurrences[i].items()
                    },
                }
                for i, prof in enumerate(self.profiles)
            ]
        }


def nullities_to_occurrences(
    nullities, degree: int, minpoly_mult: int | None = None
) -> list[int]:
    """Block counts n_1..n_t from consecutive nullities nu_1..nu_L.

    Each step nu_j - nu_{j-1} (nu_0 = 0) is d * b_j, where b_j is the number
    of blocks of size at least j, and n_j = b_j - b_{j+1}.  So L nullities
    give t = L-1 counts; when the multiplicity e in the minimal polynomial is
    supplied and e <= L, no block exceeds e (b_{e+1} = 0) and t = e.  Every
    step must be a nonnegative multiple of d and every count nonnegative,
    else the nullities were inconsistent (a rank estimate failed) and the
    caller must recompute.
    """
    nus = [int(v) for v in nullities]
    L = len(nus)
    d = degree
    if L == 0:
        raise ValueError("need at least one nullity")
    blocks = []  # b_1..b_L
    for j, (prev, nu) in enumerate(zip([0] + nus, nus), start=1):
        b, r = divmod(nu - prev, d)
        if r or b < 0:
            raise InconsistentNullityError(
                f"nullity step {nu - prev} at power {j} is not a nonnegative "
                f"multiple of {d}"
            )
        blocks.append(b)
    t = minpoly_mult if minpoly_mult is not None and minpoly_mult <= L else L - 1
    blocks.append(0)  # b_{L+1} is only read when t = e = L
    counts = [blocks[j] - blocks[j + 1] for j in range(t)]
    if any(c < 0 for c in counts):
        raise InconsistentNullityError(f"block counts {counts} are not all >= 0")
    return counts


def degree_trace_residual(multiplicities, profiles, n: int, trace_value: int, p: int):
    """(degree gap, trace gap); both zero iff the assignment is feasible."""
    deg_gap = n - sum(
        m * prof.degree for m, prof in zip(multiplicities, profiles)
    )
    trace_gap = (
        trace_value
        + sum(m * prof.trace_coeff for m, prof in zip(multiplicities, profiles))
    ) % p
    return deg_gap, trace_gap


def combinatorial_search(
    A: BlackBoxOperator,
    profiles,
    known: OccurrenceTable,
    rng,
    *,
    tail_counts: dict[int, int] | None = None,
    trace_log=None,
) -> dict:
    """Complete the block census by branch-and-bound plus det discrimination.

    Candidates satisfy the total-degree equation, the trace identity, the
    known counts in ``known``, optional per-factor residual block totals
    (``tail_counts``, met exactly at the factor's last unknown slot), and
    n_{i,e_i} >= 1; more than ``_EXPLOSION_CAP`` of them raise
    SearchExplosionError.  Surviving candidates are then discriminated by
    determinants of lambda*I - A at random lambda until all survivors agree
    on the multiplicity vector; distinct censuses with equal multiplicities
    describe the same characteristic polynomial.

    Returns {(i, j): count} covering every slot of every factor.
    """
    profiles = list(profiles)
    n, p = A.dimension, A.p
    trace_value = A.trace()
    known_slots = {
        (i, j): c
        for i in range(len(profiles))
        for j, c in known.occurrences[i].items()
    }
    unknown = [
        (i, j)
        for i, prof in enumerate(profiles)
        for j in range(1, prof.minpoly_mult + 1)
        if (i, j) not in known_slots
    ]
    # largest degree contribution first, for pruning
    unknown.sort(key=lambda s: (profiles[s[0]].degree * s[1]), reverse=True)
    known_degree = sum(
        profiles[i].degree * j * c for (i, j), c in known_slots.items()
    )
    residual_degree = n - known_degree
    if residual_degree < 0:
        raise NoCandidateError("known block counts already exceed the dimension")
    tails = dict(tail_counts or {})
    last_slot = {i: pos for pos, (i, _) in enumerate(unknown) if i in tails}

    candidates: list[tuple[int, ...]] = []
    values = [0] * len(unknown)

    def recurse(pos: int, rem: int):
        if len(candidates) > _EXPLOSION_CAP:
            raise SearchExplosionError(
                f"more than {_EXPLOSION_CAP} candidate censuses"
            )
        if pos == len(unknown):
            if rem == 0:
                candidates.append(tuple(values))
            return
        i, j = unknown[pos]
        weight = profiles[i].degree * j
        lo = 1 if (j == profiles[i].minpoly_mult and known.occurrences[i].get(j) is None) else 0
        hi = rem // weight
        if i in tails:
            hi = min(hi, tails[i])
            if pos == last_slot[i]:
                lo = max(lo, tails[i])
        for v in range(lo, hi + 1):
            values[pos] = v
            if i in tails:
                tails[i] -= v
            recurse(pos + 1, rem - v * weight)
            if i in tails:
                tails[i] += v
        values[pos] = 0

    recurse(0, residual_degree)

    def mult_vector(candidate) -> tuple[int, ...]:
        mults = [0] * len(profiles)
        for (i, j), c in known_slots.items():
            mults[i] += j * c
        for (i, j), v in zip(unknown, candidate):
            mults[i] += j * v
        return tuple(mults)

    # trace identity filter (Eq over the field)
    survivors = []
    for cand in candidates:
        mults = mult_vector(cand)
        if degree_trace_residual(mults, profiles, n, trace_value, p) == (0, 0):
            survivors.append(cand)
    if not survivors:
        raise NoCandidateError(
            "no block census satisfies the degree and trace constraints"
        )

    winner = _discriminate_by_det(
        A, profiles, dict.fromkeys(mult_vector(c) for c in survivors), rng, trace_log
    )
    chosen = min(c for c in survivors if mult_vector(c) == winner)
    out = dict(known_slots)
    for (i, j), v in zip(unknown, chosen):
        out[(i, j)] = v
    return out


def _discriminate_by_det(A: BlackBoxOperator, profiles, vectors, rng, trace_log=None):
    """The one multiplicity vector among distinct ``vectors`` that matches
    det(lambda*I - A) = prod P_i(lambda)^m_i at random lambda.

    Each round draws one lambda and takes one determinant; after 4n + 16
    rounds with several survivors, or once none is left, it raises.
    """
    n, p = A.dimension, A.p
    survivors = list(vectors)
    rounds = 0
    while len(survivors) > 1:
        if rounds >= 4 * n + 16:
            raise NoCandidateError(
                "determinant discrimination did not isolate a candidate"
            )
        rounds += 1
        lam = rng.randrange(p)
        delta = det_blackbox(ShiftedOperator(A, lam), rng)
        evals = [prof.poly(lam) for prof in profiles]
        kept = []
        for mults in survivors:
            value = 1
            for ev, m in zip(evals, mults):
                value = value * pow(ev, m, p) % p
            if value == delta:
                kept.append(mults)
        if trace_log is not None:
            trace_log.emit("search-det", lam=lam, det=delta, survivors=len(kept))
        survivors = kept
    if not survivors:
        raise NoCandidateError("determinant discrimination eliminated every candidate")
    return survivors[0]


@dataclass
class IndexCalculusResult:
    multiplicities: dict[int, int]
    rows_sampled: int


class _EchelonTracker:
    """Incremental row elimination mod p, keeping the first independent rows.

    Each reduced row is stored with the combination of accepted input rows
    that produced it, so ``solve_mod_p`` solves a system over the accepted
    rows by back-substitution, without a second elimination.
    """

    def __init__(self, width: int, p: int):
        self.p = p
        self.width = width
        self.rows: list[np.ndarray] = []  # reduced rows
        self.combos: list[np.ndarray] = []  # reduced row = combo . accepted rows
        self.pivots: list[int] = []

    def try_add(self, row) -> bool:
        p = self.p
        w = np.array(row, dtype=np.int64) % p
        combo = np.zeros(self.width, dtype=np.int64)
        combo[self.rank] = 1
        for vec, vec_combo, piv in zip(self.rows, self.combos, self.pivots):
            f = int(w[piv])
            if f:
                w = (w - f * vec) % p
                combo = (combo - f * vec_combo) % p
        nz = np.nonzero(w)[0]
        if len(nz) == 0:
            return False
        piv = int(nz[0])
        inv = pow(int(w[piv]), -1, p)
        self.rows.append(w * inv % p)
        self.combos.append(combo * inv % p)
        self.pivots.append(piv)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def solve_mod_p(tracker: _EchelonTracker, rhs) -> list[int]:
    """Solve (accepted rows of a full-rank tracker) x = rhs mod p.

    The reduced rows are unit upper triangular in pivot order, so carrying
    rhs through the recorded combinations and back-substituting costs O(k^2).
    """
    p, k = tracker.p, tracker.width
    if tracker.rank != k:
        raise IndexCalculusFailure("system matrix is singular mod p")
    b = np.array(rhs, dtype=np.int64) % p
    x = np.zeros(k, dtype=np.int64)
    for row, combo, piv in reversed(list(zip(tracker.rows, tracker.combos, tracker.pivots))):
        # x[piv] is still 0, and row is 0 at the earlier rows' unsolved pivots
        x[piv] = (np.sum(combo * b % p) - np.sum(row * x % p)) % p
    return [int(v) for v in x]


def index_calculus(
    A: BlackBoxOperator,
    profiles,
    unknown,
    known: dict[int, int],
    ctx: DlogContext,
    subprime: int,
    rng,
    *,
    enumerated=(),
    assignments=((),),
    trace_log=None,
) -> IndexCalculusResult:
    """Multiplicities of the ``unknown`` and ``enumerated`` factors from one
    discrete-log system mod ``subprime``, a prime p > n dividing q - 1.

    ``known`` maps each resolved factor to its multiplicity, K being the
    product of their powers.  Rows log P_j(lambda) mod p, j in ``unknown``,
    are stacked for random lambda (new, with K and every unknown or
    enumerated factor nonzero there) until they reach full rank; the
    determinants det(lambda*I - A) of the chosen rows then give right-hand
    sides log det - log K(lambda) mod (q-1) mod p.  Each assignment of
    multiplicities to the ``enumerated`` factors only shifts them by
    sum m_i log P_i(lambda), so one elimination solves every assignment.
    The full vectors that meet the total-degree identity are discriminated
    by determinants at random lambda (one survivor draws nothing).  Fails
    after n rows without full rank, or when no vector meets the identity.
    """
    profiles = list(profiles)
    unknown, enumerated = list(unknown), list(enumerated)
    n, q = A.dimension, A.p
    p = subprime
    if ctx.q != q:
        raise ValueError("dlog context field differs from the operator field")
    if (q - 1) % p != 0 or p <= n:
        raise ValueError("subprime must divide q-1 and exceed the dimension")

    def known_at(lam: int) -> int:
        value = 1
        for i, m in known.items():
            value = value * pow(profiles[i].poly(lam), m, q) % q
        return value

    k = len(unknown)
    guarded = [profiles[j].poly for j in (*unknown, *enumerated)]
    tracker = _EchelonTracker(k, p)
    lambdas: list[int] = []
    rows_sampled = 0
    used: set[int] = set()
    while tracker.rank < k:
        if rows_sampled >= n:
            raise IndexCalculusFailure(f"no full-rank system after {rows_sampled} rows")
        for _ in range(64 * (n + 4)):
            lam = rng.randrange(q)
            if lam not in used and known_at(lam) != 0 and all(f(lam) != 0 for f in guarded):
                break
        else:
            raise IndexCalculusFailure("could not sample an evaluation point")
        used.add(lam)
        rows_sampled += 1
        if tracker.try_add([ctx.dlog(profiles[j].poly(lam)) % p for j in unknown]):
            lambdas.append(lam)
        if trace_log is not None:
            trace_log.emit("ic-row", lam=lam, rank=tracker.rank, rows=rows_sampled)
    rhs, enum_logs = [], []
    for lam in lambdas:
        det = det_blackbox(ShiftedOperator(A, lam), rng)
        if det == 0:
            raise IndexCalculusFailure(
                "determinant vanished at a guarded evaluation point"
            )
        rhs.append((ctx.dlog(det) - ctx.dlog(known_at(lam))) % (q - 1) % p)
        enum_logs.append([ctx.dlog(profiles[i].poly(lam)) % p for i in enumerated])

    order = [*enumerated, *unknown, *known]
    candidates = []
    for assign in assignments:
        shifted = [
            (b - sum(a * lg for a, lg in zip(assign, logs))) % p
            for b, logs in zip(rhs, enum_logs)
        ]
        vector = (*assign, *solve_mod_p(tracker, shifted), *known.values())
        if sum(profiles[i].degree * m for i, m in zip(order, vector)) == n:
            candidates.append(vector)
    if not candidates:
        raise IndexCalculusFailure(f"degree check failed: no solution has degree {n}")
    winner = _discriminate_by_det(
        A, [profiles[i] for i in order], candidates, rng, trace_log
    )
    mults = dict(zip((*enumerated, *unknown), winner))  # known ones last
    if trace_log is not None:
        trace_log.emit("ic-solved", rows=rows_sampled, multiplicities=mults)
    return IndexCalculusResult(mults, rows_sampled)
