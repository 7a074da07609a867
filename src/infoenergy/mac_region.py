"""Capacity-energy region of a two-sender channel with a received-energy floor.

The discrete solver searches time-sharing policies (p(q), {p(x1|q)},
{p(x2|q)}) by alternating coordinate ascent on simplex grids with shrinking
refinement passes and multiple restarts; the energy and cost constraints are
enforced by feasibility filtering, never by penalties.  The restarts of one
boundary point share their work: a candidate block's stat table depends only
on (stage, sender, centre pmf, partner pmf), so it is kept in a ring buffer
and read back when the same block comes up again, and a restart that enters
a stage in a state another restart already entered takes that restart's
result.  Both reuse exactly the bits a recomputation would give.  Stat
tables are stat-major (a row per stat, a column per candidate), and the
scorer skips the rows and zero-weight products that are exactly +-0.  The
ascent and a brute-force grid enumerator, the independent test oracle, scan
channel's simplex grids of pmfs.  A sweep's points are spread over the CPUs
of the affinity mask, with the same rows on any number.  The Gaussian
two-sender example's closed form lives in closedform and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._workers import fork_map
from .capacity import _budget_vertices
from .channel import CostFn, DmChannel, EnergyFn, Pmf, simplex_grid
from .closedform import (BUDGET_TOL, GaussianMacSolution, GaussianSweepRow, InfeasibleError,
                         gaussian_mac_sweep, gaussian_mac_timeshare as _timeshare,
                         gaussian_unconstrained_sum_rate)
from .metrics import (TimeSharingPolicy, _vary_first_input, entropy_bits,
                      mac_mutual_informations)

# Search resolution of the coordinate-ascent policy solver.
MAX_BLOCK_CANDIDATES = 3000
REFINE_FACTOR = 8
REFINE_PASSES = 2
RESTARTS = 8
MAX_SWEEPS = 50
RNG_SEED = 0

# Candidates (stat-table columns) per block of a product-pmf scan or of the
# oracle.  Below the largest ascent block (8,779 candidates, 3-symbol stage
# 1), so the scans raise peak memory no higher than the ascent does.  On top
# of that, each boundary point holds one _TableRing of _RING_ROWS columns.
_CHUNK_ROWS = 8192
# Columns of the ascent's stat-table ring: 1 MiB of (6, N) float64 tables,
# room for 28 binary stage-1 tables (772 columns) or 2 ternary ones (8,779).
_RING_ROWS = (1 << 20) // (6 * 8)


@dataclass(frozen=True)
class RateEnergyTriple:
    """An achievable (R1, R2, B) point: rates in bits/use, energy per use."""

    r1: float
    r2: float
    b: float

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0 or self.b < 0:
            raise ValueError("rates and energy must be nonnegative")


@dataclass(frozen=True, eq=False)
class MacProblem:
    """Two-sender channel with cost budgets and a received-energy target."""

    channel: DmChannel
    c1: CostFn
    c2: CostFn
    b: EnergyFn
    p1_budget: float
    p2_budget: float
    b_target: float = 0.0

    def __post_init__(self):
        if not self.channel.is_mac:
            raise ValueError("MacProblem needs a two-input channel")
        n1, n2, ny = self.channel.transition.shape
        if len(self.c1) != n1 or len(self.c2) != n2 or len(self.b) != ny:
            raise ValueError("cost/energy tables do not match the channel alphabets")
        if not all(0 <= v < np.inf for v in (self.p1_budget, self.p2_budget, self.b_target)):
            raise ValueError("budgets and energy target must be finite and nonnegative")

    def with_target(self, b_target: float) -> "MacProblem":
        return MacProblem(self.channel, self.c1, self.c2, self.b,
                          self.p1_budget, self.p2_budget, b_target)


@dataclass
class MacBoundaryResult:
    feasible: bool
    triple: RateEnergyTriple | None = None
    policy: TimeSharingPolicy | None = None
    weighted_rate: float = 0.0
    reason: str = ""


@dataclass
class MacSweepRow:
    b_target: float
    w1: float
    w2: float
    feasible: bool
    r1: float
    r2: float
    eb: float


def _ladder_candidates(grid: np.ndarray, center, stage: int, factor: int) -> np.ndarray:
    """The center plus its blends toward every grid point at refinement `stage`.

    Stage 0 blends at scale 1 (the grid itself), stage i at 4, 2 and 1 times
    factor**-i: a ladder keeps low-mass optima near the simplex boundary
    reachable, where a geometric shrink could only creep toward them.
    """
    if center is None:
        return grid
    scales = [1.0] if stage == 0 else [factor ** -stage * m for m in (4.0, 2.0, 1.0)]
    n = grid.shape[0]
    out = np.empty((1 + n * len(scales), grid.shape[1]))
    out[0] = center
    for k, s in enumerate(scales):
        s = min(s, 1.0)
        out[1 + k * n:1 + (k + 1) * n] = grid if s >= 1.0 else center * (1.0 - s) + grid * s
    return out


@lru_cache(maxsize=None)
def _steps_for(dim: int, budget: int) -> int:
    """Largest steps up to 257 whose simplex grid has at most `budget` rows, or 2."""
    steps = 2
    while steps < 257 and math.comb(steps - 1 + dim, dim - 1) <= budget:
        steps += 1
    return steps


def max_received_energy(prob: MacProblem):
    """Exact maximum of E[b(Y)] over the product input pmfs the budgets admit.

    The objective is bilinear in (p1, p2), so the maximum is attained at a
    pair of extreme points of the two cost polytopes, which are enumerated
    exhaustively.  Returns (value, p1, p2); raises InfeasibleError when a
    budget is below its sender's cheapest symbol cost.
    """
    W = prob.channel.transition
    m = np.einsum("ijy,y->ij", W, prob.b.values)
    v1 = _budget_vertices(prob.c1.values, prob.p1_budget)
    v2 = _budget_vertices(prob.c2.values, prob.p2_budget)
    vals = v1 @ m @ v2.T
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    return float(vals[i, j]), v1[i], v2[j]


# ---------------------------------------------------------------------------
# Policy evaluation
# ---------------------------------------------------------------------------

# Policies are scored by stat vectors [I1, I2, Isum, Eb, Ec1, Ec2]; every
# entry is a p(q)-weighted average of its per-q value, so blocks can be
# re-optimized with all other blocks folded into a constant.


class _Instance:
    """One boundary point's problem data and its scorer for weights (w1, w2).

    Costs and energies are nonnegative, so the violation skips the cost row of
    a sender whose costs are all 0 and the energy row when B = 0.
    """

    def __init__(self, prob: MacProblem, w1: float, w2: float):
        self.prob, self.w1, self.w2 = prob, w1, w2
        self.W = prob.channel.transition
        self.Wt = self.W.transpose(1, 0, 2)
        self.h_rows = entropy_bits(self.W)  # (n1, n2)
        self.b = prob.b.values
        self.c1 = prob.c1.values
        self.c2 = prob.c2.values
        self.n1, self.n2, self.ny = self.W.shape
        self.caps = [(r, cap) for r, c, cap in ((4, self.c1, prob.p1_budget),
                                                 (5, self.c2, prob.p2_budget)) if c.any()]
        self.floor = prob.b_target > 0
        self.rows = max([4 if self.floor else 3] + [r + 1 for r, _ in self.caps])  # rows read

    def violation(self, stats: np.ndarray):
        """Total constraint violation of each stat column; None if none can be."""
        terms = [np.maximum(stats[r] - cap, 0.0) for r, cap in self.caps]
        if self.floor:
            terms.append(np.maximum(self.prob.b_target - stats[3], 0.0))
        return sum(terms[1:], terms[0]) if terms else None

    def score(self, stats: np.ndarray):
        """Best column index and its (feasible, value) score for a stat table."""
        viol = self.violation(stats)
        feas = True if viol is None else viol <= BUDGET_TOL
        if not np.any(feas):
            idx = int(np.argmin(viol))
            return idx, (0, -float(viol[idx]))
        vals = _corner_rates(*stats[:3], self.w1, self.w2)
        idx = int(np.argmax(vals if viol is None else np.where(feas, vals, -np.inf)))
        return idx, (1, float(vals[idx]))


def _block_stats(inst: _Instance, which: int, V: np.ndarray, p_fixed: np.ndarray):
    """Stat table (6, N) for varying input `which` (0 or 1) at one q.

    Rows are I1, I2, Isum, Eb, Ec1, Ec2; columns are the candidates V.  A
    stack p_fixed of shape (J, n) gives (6, J, N), one table per pmf.
    """
    if which == 0:
        i1, i_sum, i2, pmfs = _vary_first_input(V, p_fixed, inst.W, inst.h_rows)
        ec1, ec2 = V @ inst.c1, p_fixed[..., None, :] @ inst.c2
    else:
        i2, i_sum, i1, pmfs = _vary_first_input(V, p_fixed, inst.Wt, inst.h_rows.T)
        ec1, ec2 = p_fixed[..., None, :] @ inst.c1, V @ inst.c2
    out = np.empty((6,) + i1.shape)
    out[0], out[1], out[2] = i1, i2, i_sum
    out[3] = pmfs @ inst.b
    out[4], out[5] = ec1, ec2
    return out


def _corner_rates(i1, i2, i_sum, w1: float, w2: float):
    """Best weighted rate over the pentagon {r1<=i1, r2<=i2, r1+r2<=i_sum}.

    A zero weight's products (+-0) are skipped: w*max(a, b) = max(w*a, w*b).
    """
    if w2 == 0:
        return w1 * np.maximum(np.minimum(i1, i_sum), np.maximum(i_sum - i2, 0.0))
    if w1 == 0:
        return w2 * np.maximum(np.maximum(i_sum - i1, 0.0), np.minimum(i2, i_sum))
    r2a = np.maximum(i_sum - i1, 0.0)
    r1b = np.maximum(i_sum - i2, 0.0)
    val_a = w1 * np.minimum(i1, i_sum) + w2 * r2a
    val_b = w1 * r1b + w2 * np.minimum(i2, i_sum)
    return np.maximum(val_a, val_b)


def _better(a, b) -> bool:
    if a[0] != b[0]:
        return a[0] > b[0]
    return a[1] > b[1] + 1e-12


class _TableRing:
    """FIFO cache of (6, N) stat tables in one buffer allocated up front.

    Tables are written one after another; the write position wraps to column
    0 when the next table would run past the end, and a put drops exactly the
    tables whose columns it overwrites: spans keeps them in the order the write
    position reaches them, so they are popped from its front.  An empty table
    or one longer than the buffer is not kept.  A get returns a view that the
    next put may overwrite.  One buffer keeps the heap from fragmenting.
    """

    def __init__(self, cols: int):
        self.buf = np.empty((6, cols))
        self.spans = {}  # key -> (first column, column count)
        self.pos = 0

    def get(self, key):
        span = self.spans.get(key)
        return None if span is None else self.buf[:, span[0]:span[0] + span[1]]

    def put(self, key, table: np.ndarray):
        n = table.shape[1]
        if not 0 < n <= self.buf.shape[1]:
            return
        self.spans.pop(key, None)
        if self.pos + n > self.buf.shape[1]:
            # Wrap: tables from pos on are now reached after those before it.
            for k in [k for k, (a, _) in self.spans.items() if a >= self.pos]:
                self.spans[k] = self.spans.pop(k)
            self.pos = 0
        hi = self.pos + n
        while self.spans and self.pos <= next(iter(self.spans.values()))[0] < hi:
            del self.spans[next(iter(self.spans))]
        self.buf[:, self.pos:hi] = table
        self.spans[key] = (self.pos, n)
        self.pos = hi


def _stage_key(stage: int, q, A1, A2, S):
    """The bytes an ascent stage starts from; the rest of the run follows."""
    return (stage, q.tobytes(), A1.tobytes(), A2.tobytes(), S.tobytes())


def _coordinate_ascent(inst: _Instance, q, A1, A2, ring: _TableRing, entered: dict):
    """Ascent from one restart; returns (q, A1, A2, final score).

    ring holds the boundary point's candidate stat tables, keyed on the
    bytes of (stage, sender, centre, partner).  entered maps every stage
    entry of earlier restarts to their results: a restart that enters a
    stage in one of those states returns that result.
    """
    k, r = q.size, inst.rows
    grids = {d: simplex_grid(d, _steps_for(d, MAX_BLOCK_CANDIDATES))
             for d in {k, inst.n1, inst.n2}}
    # One (6,) stat row per q; each row has the bits of its one-row call.
    S = np.ascontiguousarray(_block_stats(inst, 0, A1[:, None, :], A2)[..., 0].T)

    keys, result = [], None
    for stage in range(REFINE_PASSES + 1):
        key = _stage_key(stage, q, A1, A2, S)
        result = entered.get(key)
        if result is not None:
            break
        keys.append(key)
        Q = None  # the q ladder, kept until q changes
        for _ in range(MAX_SWEEPS):
            _, cur = inst.score((q @ S)[:, None])
            improved = False

            if Q is None:
                Q = _ladder_candidates(grids[k], q, stage, REFINE_FACTOR)
            idx, score = inst.score((Q @ S).T)
            if _better(score, cur):
                q, Q = Q[idx].copy(), None
                cur = score
                improved = True

            for qi in range(k):
                if q[qi] <= 0:
                    continue
                rest = q @ S - q[qi] * S[qi]
                for which in (0, 1):
                    block = A1 if which == 0 else A2
                    fixed = A2[qi] if which == 0 else A1[qi]
                    grid = grids[block.shape[1]]
                    table_key = (stage, which, block[qi].tobytes(), fixed.tobytes())
                    table, V = ring.get(table_key), None
                    if table is None:
                        V = _ladder_candidates(grid, block[qi], stage, REFINE_FACTOR)
                        table = _block_stats(inst, which, V, fixed)
                        ring.put(table_key, table)
                    stats = rest[:r, None] + q[qi] * table[:r]
                    idx, score = inst.score(stats)
                    if _better(score, cur):
                        if V is None:
                            V = _ladder_candidates(grid, block[qi], stage, REFINE_FACTOR)
                        block[qi] = V[idx]
                        S[qi] = _block_stats(inst, which, block[qi:qi + 1], fixed)[:, 0]
                        cur = score
                        improved = True
            if not improved:
                break
    if result is None:
        _, final = inst.score((q @ S)[:, None])
        result = (q, A1, A2, final)
    for key in keys:
        entered[key] = result
    return result


def _result_from_policy(prob, w1, w2, q, A1, A2) -> MacBoundaryResult:
    keep = q > 1e-12
    q = q[keep] / q[keep].sum()
    A1, A2 = A1[keep], A2[keep]
    pol = TimeSharingPolicy(
        Pmf(np.maximum(q, 0.0)),
        tuple((Pmf(np.maximum(a, 0.0)), Pmf(np.maximum(b_, 0.0)))
              for a, b_ in zip(A1, A2)),
    )
    i1, i2, i_sum, eb = mac_mutual_informations(pol, prob.channel, prob.b)
    r2a = max(i_sum - i1, 0.0)
    r1b = max(i_sum - i2, 0.0)
    val_a = w1 * i1 + w2 * r2a
    val_b = w1 * r1b + w2 * i2
    if val_a > val_b + 1e-15 or (abs(val_a - val_b) <= 1e-15 and w1 >= w2):
        r1, r2, val = i1, r2a, val_a
    else:
        r1, r2, val = r1b, i2, val_b
    triple = RateEnergyTriple(max(r1, 0.0), max(r2, 0.0), max(eb, 0.0))
    return MacBoundaryResult(True, triple, pol, val)


def _product_scan(inst: _Instance, mus, budget: int):
    """One pass over single product-pmf policies on the coarse grids.

    Returns (seed, tilted).  seed is the feasibility-first best pair
    (p1, p2).  tilted holds, per mu, the best (p1, p2, stats) for the
    energy-tilted objective rate + mu*E[b(Y)] with only the cost budgets
    enforced, or None when no pair meets them; mixtures of tilted optima for
    different mu trace the energy-constrained boundary.
    """
    g1 = simplex_grid(inst.n1, _steps_for(inst.n1, budget))
    g2 = simplex_grid(inst.n2, _steps_for(inst.n2, budget))
    seed = None
    seed_score = (-1, -np.inf)
    tilted = [None] * len(mus)
    tilted_val = [-np.inf] * len(mus)
    chunk = max(1, _CHUNK_ROWS // g1.shape[0])
    for j0 in range(0, g2.shape[0], chunk):
        # Each grid column is still scored as a block of its own (row-wise
        # argmax); the columns are then compared in order as scalars, so
        # ties resolve as in a column-by-column pass.
        stats = _block_stats(inst, 0, g1, g2[j0:j0 + chunk])  # (6, J, N)
        rates = _corner_rates(stats[0], stats[1], stats[2], inst.w1, inst.w2)
        viol = inst.violation(stats)
        viol = np.zeros(rates.shape) if viol is None else viol
        feas = viol <= BUDGET_TOL
        seed_idx = np.where(feas.any(axis=1),
                            np.argmax(np.where(feas, rates, -np.inf), axis=1),
                            np.argmin(viol, axis=1))
        ok = ((stats[4] <= inst.prob.p1_budget + BUDGET_TOL)
              & (stats[5] <= inst.prob.p2_budget + BUDGET_TOL))
        picks = []
        for mu in mus:
            vals = np.where(ok, rates + mu * stats[3], -np.inf)
            picks.append((vals.argmax(axis=1), vals.max(axis=1)))
        for c in range(stats.shape[1]):
            idx = seed_idx[c]
            score = ((1, float(rates[c, idx])) if feas[c, idx]
                     else (0, -float(viol[c, idx])))
            if _better(score, seed_score):
                seed_score = score
                seed = (g1[idx], g2[j0 + c])
            for m, (idx, best) in enumerate(picks):
                if best[c] > tilted_val[m]:
                    tilted_val[m] = float(best[c])
                    tilted[m] = (g1[idx[c]], g2[j0 + c], stats[:, c, idx[c]].copy())
    return seed, tilted


def _bracket_seed(inst: _Instance, k: int, p1e, p2e, lo, budget: int):
    """Two-component seed straddling the energy target, from a mu ladder.

    lo is the untilted (mu = 0) product-scan optimum.
    """
    if lo is None or lo[2][3] >= inst.prob.b_target:
        return None
    scale = max(_corner_rates(*lo[2][:3], inst.w1, inst.w2), 0.1) / max(
        inst.prob.b_target - lo[2][3], 1e-9)
    mults = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0)
    _, ladder = _product_scan(inst, [scale * m for m in mults], budget)
    hi = None
    for cand in ladder:
        if cand is None:
            break
        if cand[2][3] >= inst.prob.b_target:
            hi = cand
            break
        lo = cand
    if hi is None:
        emax_stats = _block_stats(inst, 0, p1e[None, :], p2e)[:, 0]
        hi = (p1e, p2e, emax_stats)
    span = hi[2][3] - lo[2][3]
    lam = min(max((hi[2][3] - inst.prob.b_target) / span, 0.0), 1.0) if span > 1e-12 else 0.0
    q = np.zeros(k)
    q[0], q[1] = lam, 1.0 - lam
    a1 = np.tile(hi[0], (k, 1))
    a2 = np.tile(hi[1], (k, 1))
    a1[0], a2[0] = lo[0], lo[1]
    return q, a1, a2


def _check_weights(w1: float, w2: float):
    if not (0 <= w1 < np.inf and 0 <= w2 < np.inf) or w1 == w2 == 0:
        raise ValueError("weights must be finite, nonnegative and not both zero")


def _check_point(w1: float, w2: float, q_size: int):
    if not 1 <= q_size <= 5:
        raise ValueError("q_size must be between 1 and 5")
    _check_weights(w1, w2)


def mac_boundary_point(prob: MacProblem, w1: float, w2: float,
                       q_size: int = 4) -> MacBoundaryResult:
    """Maximize w1*R1 + w2*R2 over time-sharing policies meeting all constraints.

    q_size up to 4 suffices for the region boundary; 5 is accepted so the
    cardinality-sufficiency property can itself be tested.  Returns an
    infeasibility result (never raises) when the energy target exceeds the
    best achievable E[b(Y)] under the cost budgets.
    """
    _check_point(w1, w2, q_size)

    try:
        e_max, p1e, p2e = max_received_energy(prob)
    except InfeasibleError as exc:
        return MacBoundaryResult(False, reason=str(exc))
    if prob.b_target > e_max + BUDGET_TOL:
        return MacBoundaryResult(
            False, reason=f"energy target {prob.b_target} exceeds max achievable {e_max:.6g}")

    inst = _Instance(prob, w1, w2)
    rng = np.random.default_rng(RNG_SEED)
    k, n1, n2 = q_size, inst.n1, inst.n2
    u1 = np.full(n1, 1.0 / n1)
    u2 = np.full(n2, 1.0 / n2)

    # Deterministic seeds: the energy-max vertex, the uniform policy, the
    # best single product policy, blends of it toward the energy-max vertex
    # (the boundary region where energy-constrained optima live), and a
    # split policy that time-shares the product seed against the vertex.
    seeds = [
        (np.full(k, 1.0 / k), np.tile(p1e, (k, 1)), np.tile(p2e, (k, 1))),
        (np.full(k, 1.0 / k), np.tile(u1, (k, 1)), np.tile(u2, (k, 1))),
    ]
    pair, (untilted,) = _product_scan(inst, [0.0], MAX_BLOCK_CANDIDATES)
    if pair is not None:
        s1, s2 = pair
        seeds.append((np.full(k, 1.0 / k), np.tile(s1, (k, 1)), np.tile(s2, (k, 1))))
        for theta in (0.25, 0.5, 0.75):
            seeds.append((np.full(k, 1.0 / k),
                          np.tile((1 - theta) * s1 + theta * p1e, (k, 1)),
                          np.tile((1 - theta) * s2 + theta * p2e, (k, 1))))
        if k >= 2:
            a1 = np.tile(s1, (k, 1))
            a2 = np.tile(s2, (k, 1))
            a1[-1], a2[-1] = p1e, p2e
            seeds.append((np.full(k, 1.0 / k), a1, a2))
    if k >= 2 and prob.b_target > 0:
        bracket = _bracket_seed(inst, k, p1e, p2e, untilted, MAX_BLOCK_CANDIDATES)
        if bracket is not None:
            seeds.append(bracket)
    for _ in range(RESTARTS):
        seeds.append((rng.dirichlet(np.ones(k)),
                      rng.dirichlet(np.ones(n1), size=k),
                      rng.dirichlet(np.ones(n2), size=k)))

    best = None
    best_score = (-1, -np.inf)
    ring, entered = _TableRing(_RING_ROWS), {}
    for q0, a1, a2 in seeds:
        q, A1, A2, score = _coordinate_ascent(
            inst, q0.copy(), a1.copy(), a2.copy(), ring, entered)
        if _better(score, best_score):
            best_score = score
            best = (q, A1, A2)

    if best_score[0] < 1:
        return MacBoundaryResult(False, reason="no feasible policy found")
    return _result_from_policy(prob, w1, w2, *best)


def mac_region_sweep(prob: MacProblem, b_grid, weights, q_size: int = 4):
    """Boundary points for each (B, weight) pair; infeasibility encoded per row.

    Every argument is checked, as a serial sweep would, before the fork map.
    """
    b_grid = list(b_grid)
    if sorted(b_grid) != b_grid:
        raise ValueError("B grid must be sorted ascending")
    points = []
    for bt in b_grid:
        for w1, w2 in weights:
            points.append((prob.with_target(bt), w1, w2))
            _check_point(w1, w2, q_size)

    def solve(i, out):
        res = mac_boundary_point(*points[i], q_size)
        t = res.triple if res.feasible else RateEnergyTriple(0.0, 0.0, 0.0)
        out[i] = res.feasible, t.r1, t.r2, t.b

    out = fork_map(solve, len(points), (len(points), 4))
    return [MacSweepRow(p.b_target, w1, w2, bool(f), float(r1), float(r2), float(eb))
            for (p, w1, w2), (f, r1, r2, eb) in zip(points, out)]


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_mac_oracle(prob: MacProblem, w1: float, w2: float,
                           q_size: int = 1, steps: int = 11) -> MacBoundaryResult:
    """Exhaustive enumeration over gridded policies; independent test oracle.

    Every p(q) and every conditional pmf ranges over a uniform simplex grid
    with `steps` points per dimension.  Deliberately ignorant of the ascent
    solver's search strategy; guarded to desk scale.
    """
    _check_weights(w1, w2)
    inst = _Instance(prob, w1, w2)
    if inst.n1 > 3 or inst.n2 > 3:
        raise ValueError("oracle restricted to input alphabets of size <= 3")
    if steps > 21:
        raise ValueError("oracle restricted to steps <= 21")
    if not 1 <= q_size <= 4:
        raise ValueError("q_size must be between 1 and 4")

    g1 = simplex_grid(inst.n1, steps)
    g2 = simplex_grid(inst.n2, steps)
    gq = simplex_grid(q_size, steps)
    n_pairs = g1.shape[0] * g2.shape[0]
    outer = gq.shape[0] * n_pairs ** max(q_size - 1, 0)
    if outer > 2_000_000:
        raise ValueError(f"enumeration of {outer} policies exceeds the size guard")

    # Stat table for every product pair, p1 grid index major.
    T = _block_stats(inst, 0, g1, g2).transpose(0, 2, 1).reshape(6, n_pairs)

    # Heads (the pairs of the first q_size-1 components) run in lexicographic
    # order, a chunk at a time; each head's best last pair is then accepted
    # in that order by the strict rule below.
    n_heads = n_pairs ** (q_size - 1)
    chunk = max(1, _CHUNK_ROWS // n_pairs)
    best_val = -np.inf
    best = None
    for wq in gq:
        last = wq[-1] * T
        for h0 in range(0, n_heads, chunk):
            flat = np.arange(h0, min(h0 + chunk, n_heads))
            heads = []
            partial = np.zeros((6, flat.size))
            for m in range(q_size - 1):
                heads.append(flat // n_pairs ** (q_size - 2 - m) % n_pairs)
                partial = partial + wq[m] * T[:, heads[m]]
            tot = partial[:, :, None] + last[:, None, :]
            feas = ((tot[4] <= prob.p1_budget + BUDGET_TOL)
                    & (tot[5] <= prob.p2_budget + BUDGET_TOL)
                    & (tot[3] >= prob.b_target - BUDGET_TOL))
            vals = _corner_rates(tot[0], tot[1], tot[2], w1, w2)
            vals = np.where(feas, vals, -np.inf)
            idx = np.argmax(vals, axis=1)
            top = vals[np.arange(flat.size), idx]
            # best_val only grows, so a head that cannot beat it now never will.
            for k in np.flatnonzero(top > best_val + 1e-15):
                if top[k] > best_val + 1e-15:
                    best_val = float(top[k])
                    best = (wq.copy(), tuple(int(h[k]) for h in heads) + (int(idx[k]),))

    if best is None:
        return MacBoundaryResult(False, reason="no feasible gridded policy")
    wq, assignment = best
    A1 = np.array([g1[i // g2.shape[0]] for i in assignment])
    A2 = np.array([g2[i % g2.shape[0]] for i in assignment])
    return _result_from_policy(prob, w1, w2, wq, A1, A2)


def gaussian_mac_timeshare(power: float, b_target: float) -> GaussianMacSolution:
    """closedform's, as a function of this module, which perfbench's tracer wraps."""
    return _timeshare(power, b_target)
