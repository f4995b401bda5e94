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

from dataclasses import dataclass

import numpy as np

from .blackbox import BlackBoxOperator, ShiftedOperator, det_blackbox
from .ff import DlogContext, index_calculus_subprime
from .poly import ComputationError, FieldPoly


# combinatorial_search gives up beyond this many candidate censuses
_EXPLOSION_CAP = 10**6


class InconsistentNullityError(ComputationError):
    """Nullity sequence cannot come from a valid block census."""


class SearchExplosionError(ComputationError):
    """Combinatorial search exceeded the candidate cap."""


class NoCandidateError(ComputationError):
    """No block census satisfies the degree/trace constraints."""


def det_rounds(n: int, p: int, candidates: int = 1) -> int | None:
    """Determinant rounds after which a wrong census is returned with chance
    at most 1/n^2, or None when p <= n.

    Every census meets the degree equation, so it stands for a monic
    polynomial of degree n; two distinct ones differ by a nonzero polynomial
    of degree below n, which vanishes at a random lambda in GF(p) with
    chance at most (n - 1)/p.  The least r with
    candidates * ((n - 1)/p)^r <= 1/n^2 bounds, by the union bound, the
    chance that any of ``candidates`` wrong censuses survives r rounds.
    When p <= n such a polynomial can vanish on all of GF(p), and no number
    of rounds helps.
    """
    if p <= n:
        return None
    r = 1
    while candidates * n * n * (n - 1) ** r > p**r:
        r += 1
    return r


class IndexCalculusFailure(ComputationError):
    """Discrete-log system did not reach full rank or failed validation."""


@dataclass
class FactorProfile:
    """One irreducible factor of the minimal polynomial."""

    poly: FieldPoly
    minpoly_mult: int

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def trace_coeff(self) -> int:
        return self.poly.coefficient(self.poly.degree - 1)


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


def _solved_blocks(nullities: dict[int, int], prof: FactorProfile):
    """(n_1..n_t, tail) from the prefix nu_1..nu_L of ``nullities``, a
    {j: nu_j} map: the solved block counts, and the blocks the unsolved
    slots t+1..e hold in all (None when t = e or there is no nu_1)."""
    nus = []
    while len(nus) + 1 in nullities:
        nus.append(nullities[len(nus) + 1])
    if not nus:
        return [], None
    d, e = prof.degree, prof.minpoly_mult
    counts = nullities_to_occurrences(nus, d, minpoly_mult=e)
    # nu_1 / d blocks in all; the unsolved slots hold the rest
    return counts, (nus[0] // d - sum(counts) if len(counts) < e else None)


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
    nullities,
    rng,
    *,
    trace_log=None,
    cap: int = _EXPLOSION_CAP,
    certify: bool = False,
) -> dict:
    """Complete the block census by branch-and-bound plus det discrimination.

    ``nullities`` holds one {j: nullity of P_i^j(A)} map per factor; its
    prefix nu_1..nu_L solves the counts of the first slots and fixes the
    blocks the others hold in all (``_solved_blocks``), a total met exactly
    at the factor's last unknown slot.  Candidates satisfy those, the
    total-degree equation, the trace identity and n_{i,e_i} >= 1; more than
    ``cap`` censuses that meet the degree equation raise
    SearchExplosionError.  The distinct multiplicity vectors
    of the candidates are then checked against det(lambda*I - A) at random
    lambda until a single one is left; with ``certify``, for factors that
    have no measured nullity and so are pinned down by the determinant
    alone, at least ``det_rounds`` times, which needs p > n.  Distinct
    censuses with equal multiplicities describe the same characteristic
    polynomial.

    Returns {(i, j): count} covering every slot of every factor.
    """
    profiles = list(profiles)
    n, p = A.dimension, A.p
    known_slots, tails, base = {}, {}, []
    for i, prof in enumerate(profiles):
        counts, tail = _solved_blocks(nullities[i], prof)
        known_slots.update(((i, j), c) for j, c in enumerate(counts, start=1))
        base.append(sum(j * c for j, c in enumerate(counts, start=1)))
        if tail is not None:
            tails[i] = tail
    unknown = [
        (i, j)
        for i, prof in enumerate(profiles)
        for j in range(1, prof.minpoly_mult + 1)
        if (i, j) not in known_slots
    ]
    # largest degree contribution first, for pruning
    unknown.sort(key=lambda s: (profiles[s[0]].degree * s[1]), reverse=True)
    residual_degree, residue = degree_trace_residual(
        base, profiles, n, A.trace(), p
    )
    if residual_degree < 0:
        raise NoCandidateError("known block counts already exceed the dimension")
    last_slot = {i: pos for pos, (i, _) in enumerate(unknown) if i in tails}
    slots = [
        (
            i,
            profiles[i].degree * j,
            j * profiles[i].trace_coeff % p,
            int(j == profiles[i].minpoly_mult),
            pos == last_slot.get(i),
        )
        for pos, (i, j) in enumerate(unknown)
    ]
    search = _CensusSearch(slots, tails, p, cap)
    search.run(0, residual_degree, residue)
    if not search.found:
        raise NoCandidateError(
            "no block census satisfies the degree and trace constraints"
        )

    def mult_vector(candidate) -> tuple[int, ...]:
        mults = list(base)
        for (i, j), v in zip(unknown, candidate):
            mults[i] += j * v
        return tuple(mults)

    vectors = dict.fromkeys(mult_vector(c) for c in search.found)
    min_rounds = 0
    if certify:
        min_rounds = det_rounds(n, p, len(vectors))
        if min_rounds is None:
            raise ValueError(f"GF({p}) is too small to certify a census of size {n}")
    winner = _discriminate_by_det(
        A, profiles, vectors, rng, trace_log, min_rounds=min_rounds
    )
    chosen = min(c for c in search.found if mult_vector(c) == winner)
    out = dict(known_slots)
    for (i, j), v in zip(unknown, chosen):
        out[(i, j)] = v
    return out


class _CensusSearch:
    """Depth-first enumeration of the block counts of the unknown slots.

    Each slot is (factor, degree weight, trace step, least count, whether
    it is the factor's last slot with a residual block total in ``tails``).
    ``run`` carries the degree still to place and the trace residue; the
    last slot takes whatever count the degree leaves.  Every leaf that meets
    the degree equation counts against ``cap``; only those that also meet
    the trace identity are kept in ``found``.
    """

    def __init__(self, slots, tails: dict[int, int], p: int, cap: int):
        self.slots = slots
        self.tails = tails
        self.p = p
        self.cap = cap
        self.values = [0] * len(slots)
        self.found: list[tuple[int, ...]] = []
        self.leaves = 0

    def run(self, pos: int, rem: int, residue: int):
        if pos == len(self.slots):  # no unknown slot at all
            if rem == 0:
                self._leaf(residue)
            return
        i, weight, step, lo, closes_tail = self.slots[pos]
        hi = rem // weight
        tail = self.tails.get(i)
        if tail is not None:
            hi = min(hi, tail)
            if closes_tail:
                lo = max(lo, tail)
        if pos == len(self.slots) - 1:
            v, r = divmod(rem, weight)
            if not r and lo <= v <= hi:
                self.values[pos] = v
                self._leaf((residue + v * step) % self.p)
            return
        for v in range(lo, hi + 1):
            self.values[pos] = v
            if tail is not None:
                self.tails[i] = tail - v
            self.run(pos + 1, rem - v * weight, (residue + v * step) % self.p)
        if tail is not None:
            self.tails[i] = tail

    def _leaf(self, residue: int):
        self.leaves += 1
        if self.leaves > self.cap:
            raise SearchExplosionError(f"more than {self.cap} candidate censuses")
        if residue == 0:
            self.found.append(tuple(self.values))


def _power_product(values, exponents, q: int) -> int:
    """prod values_i^exponents_i mod q."""
    out = 1
    for v, e in zip(values, exponents):
        out = out * pow(v, e, q) % q
    return out


def _discriminate_by_det(
    A: BlackBoxOperator, profiles, vectors, rng, trace_log=None, *, min_rounds=0
):
    """The one multiplicity vector among distinct ``vectors`` that matches
    det(lambda*I - A) = prod P_i(lambda)^m_i at random lambda.

    Each round draws one lambda and takes one determinant.  Rounds go on
    while several vectors survive, and at least ``min_rounds`` are taken
    even when one is left; after 4n + 16 rounds with several survivors, or
    once none is left, it raises.
    """
    n, p = A.dimension, A.p
    survivors = list(vectors)
    rounds = 0
    while survivors and (len(survivors) > 1 or rounds < min_rounds):
        if len(survivors) > 1 and rounds >= 4 * n + 16:
            raise NoCandidateError(
                "determinant discrimination did not isolate a candidate"
            )
        rounds += 1
        lam = rng.randrange(p)
        delta = det_blackbox(ShiftedOperator(A, lam), rng)
        evals = [prof.poly(lam) for prof in profiles]
        kept = [m for m in survivors if _power_product(evals, m, p) == delta]
        if trace_log is not None:
            trace_log.emit("search-det", lam=lam, det=delta, survivors=len(kept))
        survivors = kept
    if not survivors:
        raise NoCandidateError("determinant discrimination eliminated every candidate")
    return survivors[0]


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


def _solve_sweep(tracker: _EchelonTracker, rhs, columns, assignments) -> list:
    """For each assignment a, the solution of (accepted rows) x = rhs - sum_i
    a_i * columns[i] mod p.

    x is affine in a: x(a) = x(rhs) - sum_i a_i * x(columns[i]) mod p, so the
    sweep takes 1 + len(columns) solves, whatever the number of assignments.
    An assignment holds multiplicities at most n < p, so an entry of its
    combination sums len(columns) products below n * p.
    """
    base = np.array(solve_mod_p(tracker, rhs), dtype=np.int64)
    solved = np.array(
        [solve_mod_p(tracker, c) for c in columns], dtype=np.int64
    ).reshape(len(columns), tracker.width)
    a = np.array(assignments, dtype=np.int64).reshape(len(assignments), len(columns))
    return ((base - a @ solved) % tracker.p).tolist()


def index_calculus(
    A: BlackBoxOperator,
    profiles,
    unknown,
    known: dict[int, int],
    rng,
    *,
    enumerated=(),
    assignments=((),),
    trace_log=None,
) -> dict[int, int]:
    """Multiplicities of the ``unknown`` and ``enumerated`` factors from one
    discrete-log system mod p = ``index_calculus_subprime(q, n)``, the
    largest prime p > n dividing q - 1, with logs from a ``DlogContext``
    built here.  Raises ValueError when GF(q) has no such p.

    ``known`` maps each resolved factor to its multiplicity, K being the
    product of their powers.  Rows log P_j(lambda) mod p, j in ``unknown``,
    are stacked for random lambda (new, with K and every unknown or
    enumerated factor nonzero there) until they reach full rank; the
    determinants det(lambda*I - A) of the chosen rows then give right-hand
    sides log det - log K(lambda) mod (q-1) mod p.  Each assignment of
    multiplicities to the ``enumerated`` factors only shifts them by
    sum m_i log P_i(lambda), so one elimination and 1 + (enumerated
    factors) solves serve every assignment (``_solve_sweep``).
    The full vectors that meet the total-degree identity are discriminated
    by determinants at random lambda (one survivor draws nothing).  Fails
    after n rows without full rank, or when no vector meets the identity.
    """
    profiles = list(profiles)
    unknown, enumerated = list(unknown), list(enumerated)
    n, q = A.dimension, A.p
    p = index_calculus_subprime(q, n)
    if p is None:
        raise ValueError(f"GF({q}) has no prime factor of q-1 exceeding n={n}")
    ctx = DlogContext(q)

    def known_at(lam: int) -> int:
        return _power_product((profiles[i].poly(lam) for i in known), known.values(), q)

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
    columns = [[logs[i] for logs in enum_logs] for i in range(len(enumerated))]
    candidates = []
    for assign, x in zip(assignments, _solve_sweep(tracker, rhs, columns, assignments)):
        vector = (*assign, *x, *known.values())
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
    return mults
