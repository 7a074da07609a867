"""Independent references the benchmark checks the program's outputs against.

Nothing here imports infoenergy: every quantity is recomputed from the raw
channel tables with plain numpy (and scipy's HiGHS LP for the MAC lower
bound), so a fault in the program cannot hide in its own check.  All rates
are in bits.

Sources: the single-link capacity-energy function follows Varshney,
"Transporting information and energy simultaneously" (ISIT 2008); the
capacity iteration it generalizes is Blahut (1972) / Arimoto (1972).  The
MAC rate-energy region, the Gaussian time-sharing curve and the relay
example follow the source paper.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

# ---------------------------------------------------------------------------
# Information measures
# ---------------------------------------------------------------------------


def entropy(p) -> np.ndarray:
    """Entropy in bits along the last axis, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return -(p * logs).sum(axis=-1)


def binary_entropy(p: float) -> float:
    return float(entropy([p, 1.0 - p]))


def p2p_information(p: np.ndarray, W: np.ndarray) -> float:
    """I(X;Y) for input pmf p and transition matrix W of shape (|X|, |Y|)."""
    p = np.asarray(p, dtype=float)
    return float(entropy(p @ W) - p @ entropy(W))


def mac_column_stats(P1: np.ndarray, P2: np.ndarray, W: np.ndarray,
                     energy: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Stats of every product pmf p1 x p2 for p1 in rows of P1, p2 in rows of P2.

    Returns an array (len(P1) * len(P2), 6) of [I1, I2, Isum, E[b(Y)], E[c1],
    E[c2]] with I1 = I(X1;Y|X2), I2 = I(X2;Y|X1), Isum = I(X1,X2;Y); rows
    are ordered p1-major.
    """
    h_rows = entropy(W)                                  # (n1, n2)
    out = np.einsum("ai,bj,ijy->aby", P1, P2, W)         # (A, B, ny)
    h_cond = np.einsum("ai,bj,ij->ab", P1, P2, h_rows)   # H(Y|X1,X2)
    # H(Y|X2) = sum_j p2(j) H(sum_i p1(i) W[i, j, :])
    y_given_x2 = np.einsum("ai,ijy->ajy", P1, W)         # (A, n2, ny)
    h_y_x2 = entropy(y_given_x2) @ P2.T                  # (A, B)
    y_given_x1 = np.einsum("bj,ijy->biy", P2, W)         # (B, n1, ny)
    h_y_x1 = (entropy(y_given_x1) @ P1.T).T              # (A, B)
    stats = np.stack([
        h_y_x2 - h_cond,
        h_y_x1 - h_cond,
        entropy(out) - h_cond,
        out @ energy,
        np.broadcast_to((P1 @ c1)[:, None], h_cond.shape),
        np.broadcast_to((P2 @ c2)[None, :], h_cond.shape),
    ], axis=-1)
    return np.maximum(stats, 0.0).reshape(-1, 6)


# ---------------------------------------------------------------------------
# Two-sender channel: Emax and the product-grid LP lower bound
# ---------------------------------------------------------------------------


def cost_polytope_vertices(cost: np.ndarray, budget: float) -> np.ndarray:
    """Extreme points of {p in the simplex : p @ cost <= budget}.

    A vertex has at most two nonzero entries: a single affordable symbol,
    or a two-symbol mix that spends the budget exactly.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.size
    verts = [np.eye(n)[i] for i in range(n) if cost[i] <= budget]
    for i, j in combinations(range(n), 2):
        lo, hi = sorted((i, j), key=lambda k: cost[k])
        if cost[lo] < budget < cost[hi]:
            v = np.zeros(n)
            v[lo] = (cost[hi] - budget) / (cost[hi] - cost[lo])
            v[hi] = 1.0 - v[lo]
            verts.append(v)
    return np.array(verts).reshape(-1, n)


def mac_emax(W, energy, c1, c2, p1_budget, p2_budget) -> float:
    """Largest E[b(Y)] over cost-feasible product inputs (and their mixtures).

    E[b(Y)] is bilinear in (p1, p2), so the maximum sits on a pair of cost
    polytope vertices; mixing over Q cannot exceed the best pair.
    """
    m = np.einsum("ijy,y->ij", W, energy)
    v1 = cost_polytope_vertices(c1, p1_budget)
    v2 = cost_polytope_vertices(c2, p2_budget)
    if v1.size == 0 or v2.size == 0:
        return -math.inf
    return float((v1 @ m @ v2.T).max())


def simplex_points(dim: int, steps: int) -> np.ndarray:
    """Every pmf on `dim` symbols with entries in multiples of 1/steps."""
    pts = [c for c in np.ndindex(*([steps + 1] * (dim - 1))) if sum(c) <= steps]
    grid = np.array([list(c) + [steps - sum(c)] for c in pts], dtype=float)
    return grid / steps


class MacLpReference:
    """LP over mixtures of gridded product pmfs: a lower bound on the boundary.

    For w1 >= w2 the best weighted rate of a time-sharing policy is
    (w1 - w2) * I1 + w2 * Isum averaged over Q, which is linear in the
    mixture weights, so the best mixture of table columns meeting the
    energy floor and both cost budgets is a linear program.  Any column
    mixture is an achievable policy, hence the optimum is a lower bound.
    """

    # Grid steps per input alphabet size: 51 columns for a binary input and
    # 231 for a ternary one keep an LP solve near 0.1 s.
    GRID_STEPS = {2: 50, 3: 20}

    def __init__(self, W, energy, c1, c2, p1_budget, p2_budget):
        self.W = np.asarray(W, dtype=float)
        self.energy = np.asarray(energy, dtype=float)
        self.c1 = np.asarray(c1, dtype=float)
        self.c2 = np.asarray(c2, dtype=float)
        self.p1_budget, self.p2_budget = float(p1_budget), float(p2_budget)
        n1, n2, _ = self.W.shape
        g1 = simplex_points(n1, self.GRID_STEPS[n1])
        g2 = simplex_points(n2, self.GRID_STEPS[n2])
        self.table = mac_column_stats(g1, g2, self.W, self.energy, self.c1, self.c2)
        self._memo: dict = {}

    def value(self, b_target: float, w1: float, w2: float) -> float | None:
        """Best weighted rate over column mixtures, or None if infeasible."""
        key = (float(b_target), float(w1), float(w2))
        if key not in self._memo:
            self._memo[key] = self._solve(*key)
        return self._memo[key]

    def _solve(self, b_target: float, w1: float, w2: float) -> float | None:
        from scipy.optimize import linprog

        T = self.table
        if w1 >= w2:
            gain = (w1 - w2) * np.minimum(T[:, 0], T[:, 2]) + w2 * T[:, 2]
        else:
            gain = (w2 - w1) * np.minimum(T[:, 1], T[:, 2]) + w1 * T[:, 2]
        A_ub = np.vstack([-T[:, 3], T[:, 4], T[:, 5]])
        b_ub = np.array([-b_target, self.p1_budget, self.p2_budget])
        res = linprog(-gain, A_ub=A_ub, b_ub=b_ub, A_eq=np.ones((1, T.shape[0])),
                      b_eq=[1.0], bounds=(0, None), method="highs")
        return float(-res.fun) if res.status == 0 else None


def adder_closed_form(b_target: float, w1: float, w2: float) -> float:
    """Noiseless binary adder, zero costs, b(y) = y: boundary in closed form.

    E[b(Y)] = E[X1] + E[X2].  A single user's rate is at most h(E[X1]) and
    the floor forces E[X1] >= B - 1, so it is 1 up to B = 1.5 and h(B - 1)
    beyond.  The sum rate H(Y) peaks at 1.5 with E[Y] = 1; above that the
    symmetric product input P(X=1) = B/2 is optimal.
    """
    if (w1, w2) in ((1.0, 0.0), (0.0, 1.0)):
        return 1.0 if b_target <= 1.5 else binary_entropy(b_target - 1.0)
    if (w1, w2) == (1.0, 1.0):
        if b_target <= 1.0:
            return 1.5
        p = b_target / 2.0
        return float(entropy([(1 - p) ** 2, 2 * p * (1 - p), p * p]))
    raise ValueError("closed form covers the weights (1,0), (1,1), (0,1)")


# ---------------------------------------------------------------------------
# Gaussian two-sender example and the harvesting-relay example
# ---------------------------------------------------------------------------


def gaussian_timeshare_rate(power: float, b_target: float) -> float:
    """Sup of the sum rate under the floor B: flat below 2P+1, then 0.5 log2(4P+2-B)."""
    if b_target <= 2.0 * power + 1.0:
        return 0.5 * math.log2(1.0 + 2.0 * power)
    if b_target <= 4.0 * power + 1.0:
        return 0.5 * math.log2(4.0 * power + 2.0 - b_target)
    return -math.inf


def four_level_entropy(p):
    """H of the pmf (p, 1/2 - p, 1/2 - p, p) on the levels {-2, -1, 1, 2}."""
    p = np.asarray(p, dtype=float)
    return entropy(np.stack([p, 0.5 - p, 0.5 - p, p], axis=-1))


def relay_example_rate(p, p2_budget: float, n0: float):
    """min(H4(p), 0.5 log2(1 + (P2 + 6p + 1) / N0)) for the relay example."""
    return np.minimum(four_level_entropy(p),
                      0.5 * np.log2(1.0 + (p2_budget + 6.0 * np.asarray(p) + 1.0) / n0))


def relay_example_capacity(p1_budget: float, p2_budget: float, n0: float) -> float:
    """Max over p in [0, min(1/2, (P1-1)/6)] of relay_example_rate, solved exactly.

    The max-min of two continuous functions sits at an end of the interval,
    at the peak p = 1/4 of H4, or where the two curves cross; crossings are
    bracketed on a dense grid and bisected to machine precision.
    """
    p_max = min(0.5, (p1_budget - 1.0) / 6.0)

    def gap(p):
        return four_level_entropy(p) - 0.5 * np.log2(1.0 + (p2_budget + 6.0 * p + 1.0) / n0)

    cands = [0.0, p_max] + ([0.25] if p_max >= 0.25 else [])
    grid = np.linspace(0.0, p_max, 4001)
    signs = np.sign(gap(grid))
    for k in np.flatnonzero(signs[:-1] * signs[1:] < 0):
        lo, hi = grid[k], grid[k + 1]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if np.sign(gap(mid)) == signs[k]:
                lo = mid
            else:
                hi = mid
        cands.append(0.5 * (lo + hi))
    return float(relay_example_rate(np.array(cands), p2_budget, n0).max())


# ---------------------------------------------------------------------------
# Monte Carlo laws
# ---------------------------------------------------------------------------


def coherent_energy_law(power: float, n: int, trials: int, n0: float = 1.0):
    """Mean and standard error of the block mean of Y^2, Y = 2 sqrt(P) + Z.

    Both senders send the constant sqrt(P), so the amplitudes add:
    E[Y^2] = 4P + n0 and Var[Y^2] = 16 P n0 + 2 n0^2 per use.
    """
    mean = 4.0 * power + n0
    var = 16.0 * power * n0 + 2.0 * n0 * n0
    return mean, math.sqrt(var / (n * trials))


def codeword_mean_law(values: np.ndarray, pmf: np.ndarray, n: int):
    """Mean and a conservative standard error of a per-use average over codewords.

    Trials reuse a handful of i.i.d. codewords, so the trial average is a
    mix of codeword averages; its spread is at most that of one codeword,
    sqrt(Var[v(X)] / n).
    """
    values = np.asarray(values, dtype=float)
    pmf = np.asarray(pmf, dtype=float)
    mean = float(pmf @ values)
    var = float(pmf @ (values - mean) ** 2)
    return mean, math.sqrt(var / n)


def ml_union_bound(W: np.ndarray, n: int, m1: int, m2: int) -> float:
    """Random-coding union-Bhattacharyya bound on the ML joint error rate.

    Codewords i.i.d. uniform on the inputs of a two-sender channel W.
    Summed over the three kinds of wrong pair (sender 1, sender 2, or both
    wrong), each competitor loses to the truth except with probability at
    most E[Z(x, x')]^n, Z the Bhattacharyya coefficient of the two inputs.
    """
    n1, n2, _ = W.shape
    rows = W.reshape(n1 * n2, -1)
    bhat = np.sqrt(rows[:, None, :] * rows[None, :, :]).sum(axis=-1).reshape(n1, n2, n1, n2)
    first = np.einsum("ijkj->", bhat) / (n1 * n2 * n1)
    second = np.einsum("ijil->", bhat) / (n1 * n2 * n2)
    both = bhat.mean()
    return float((m1 - 1) * first ** n + (m2 - 1) * second ** n
                 + (m1 - 1) * (m2 - 1) * both ** n)
