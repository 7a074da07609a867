"""Capacity of a two-hop channel whose relay harvests received energy.

The end-to-end rate is the smaller of the first-hop mutual information and
the second-hop capacity, where the relay's transmit budget is its own supply
plus the mean energy it harvests from the first hop.  The first-hop input
pmf is searched on a simplex grid of at most MHC_MAX_ROWS rows and then on
one scale ladder around the best point so far, keeping a single running
best.  One budget-ordered scan, pruned by that running best, serves both
kinds of second hop: only _second_hop_capacity tells the cost-constrained
discrete solver from the closed Gaussian form.  The four-level worked
example is solved exactly as a scalar max-min.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import awgn_capacity, dm_capacity_with_cost
from .channel import (AwgnSpec, CostFn, DmChannel, EnergyFn, InfeasibleError,
                      Pmf)
from .mac_region import _ladder_candidates, _steps_for, simplex_grid
from .metrics import entropy_bits

FEAS_TOL = 1e-9
MHC_STEPS = 65  # simplex grid for the first-hop input pmf
# Row cap on that grid: the 5-symbol, 65-step count.  Wider first hops get
# fewer steps instead of a grid that grows as steps**(symbols - 1).
MHC_MAX_ROWS = 814_385
MHC_REFINE_FACTOR = 8  # ladder scales shrink by this factor per pass
MHC_REFINE_PASSES = 1


@dataclass(frozen=True, eq=False)
class MhcProblem:
    """Two separated hops, a harvesting relay, and per-hop cost budgets."""

    hop1: DmChannel
    hop2: DmChannel | AwgnSpec
    c1: CostFn
    c2: CostFn | None
    b: EnergyFn
    p1_budget: float
    p2_budget: float

    def __post_init__(self):
        if self.hop1.is_mac:
            raise ValueError("hop 1 must be point to point")
        if len(self.c1) != len(self.hop1.input_alphabets[0]):
            raise ValueError("c1 does not match the hop-1 input alphabet")
        if len(self.b) != len(self.hop1.output_alphabet):
            raise ValueError("b does not match the hop-1 output alphabet")
        if isinstance(self.hop2, DmChannel):
            if self.hop2.is_mac:
                raise ValueError("hop 2 must be point to point")
            if self.c2 is not None and len(self.c2) != len(self.hop2.input_alphabets[0]):
                raise ValueError("c2 does not match the hop-2 input alphabet")
        if not (0 <= self.p1_budget < np.inf and 0 <= self.p2_budget < np.inf):
            raise ValueError("budgets must be finite and nonnegative")


@dataclass
class MhcSolution:
    capacity_bits: float
    input_pmf: Pmf
    harvested_budget: float
    relay_pmf: Pmf | None = None


def _second_hop_capacity(prob: MhcProblem, budget: float):
    """(bits, relay pmf or None) for a given relay budget."""
    if isinstance(prob.hop2, AwgnSpec):
        return awgn_capacity(budget, prob.hop2.n0), None
    try:
        res = dm_capacity_with_cost(prob.hop2, prob.c2, budget)
    except InfeasibleError:
        return 0.0, None
    return res.capacity_bits, res.input_pmf


def mhc_capacity(prob: MhcProblem) -> MhcSolution:
    """Best end-to-end rate over first-hop input pmfs within the cost budget.

    For each candidate p(x1) the value is min(I(X1;Y1), second-hop capacity
    at budget E[b(Y1)] + P2).  Candidates come from a MHC_STEPS simplex grid,
    with fewer steps where that grid would exceed MHC_MAX_ROWS rows, then
    from MHC_REFINE_PASSES scale ladders around the running best.  One scan
    serves a discrete and a Gaussian second hop alike: each stage takes its
    candidates in decreasing budget order and solves the second hop, once
    per distinct budget, where I(X1;Y1) beats every earlier candidate.  The
    second-hop capacity does not fall as the budget grows, so the scan stops
    at the first capacity that cannot beat the running best or that binds
    the min.
    """
    W1 = prob.hop1.transition
    c1 = prob.c1.values
    if c1.min() > prob.p1_budget + FEAS_TOL:
        raise InfeasibleError(
            f"budget {prob.p1_budget} is below the cheapest hop-1 symbol cost {c1.min()}")
    beta = W1 @ prob.b.values  # mean harvested energy per input symbol
    h_rows = entropy_bits(W1)
    n1 = W1.shape[0]
    grid = simplex_grid(n1, min(MHC_STEPS, _steps_for(n1, MHC_MAX_ROWS)))
    # The cheapest vertex is within budget, so every stage has a candidate.
    best_val, p1, record = -np.inf, None, None
    solved = {}  # relay budget -> (bits, relay pmf)
    for stage in range(MHC_REFINE_PASSES + 1):
        cands = _ladder_candidates(grid, p1, stage, MHC_REFINE_FACTOR)
        cands = cands[cands @ c1 <= prob.p1_budget + FEAS_TOL]
        i1 = entropy_bits(cands @ W1) - cands @ h_rows
        budgets = cands @ beta + prob.p2_budget
        order = np.argsort(-budgets)
        # The scan goes on only past a candidate whose i1 became best_val, so
        # only an i1 above every earlier one (and the last stage's best) can
        # raise best_val: the second hop is solved at those records alone.
        i1_sorted = i1[order]
        i1_seen = np.maximum.accumulate(np.concatenate(([best_val], i1_sorted[:-1])))
        for j in order[i1_sorted > i1_seen]:
            budget = float(budgets[j])
            # A ladder point can carry the same budget bits as a candidate of
            # an earlier stage; that budget's second hop is solved once.
            if budget not in solved:
                solved[budget] = _second_hop_capacity(prob, budget)
            g, relay_pmf = solved[budget]
            if g <= best_val:
                break  # budgets only shrink from here on
            # Both terms beat it; the record keeps its scored budget and solve.
            best_val, p1, record = min(float(i1[j]), g), cands[j], (budget, relay_pmf)
            if g <= i1[j]:
                break  # hop 2 binds, and no later budget buys more of it

    budget, relay_pmf = record
    return MhcSolution(max(best_val, 0.0), Pmf(np.maximum(p1, 0.0)), budget, relay_pmf)


def cutset_joint_oracle(prob: MhcProblem, steps: int = 21) -> float:
    """max over gridded (p(x1), p(x2)) of min(I(X1;Y1), I(X2;Y2)).

    Joint enumeration with the relay budget coupled through p(x1); the
    independent check that the nested solver attains the cut-set value.
    """
    n1 = prob.hop1.transition.shape[0]
    if n1 > 4 or (isinstance(prob.hop2, DmChannel)
                  and prob.hop2.transition.shape[0] > 4):
        raise ValueError("oracle restricted to hop alphabets of size <= 4")
    if steps > 21:
        raise ValueError("oracle restricted to steps <= 21")

    W1 = prob.hop1.transition
    g1 = simplex_grid(n1, steps)
    ec1 = g1 @ prob.c1.values
    g1 = g1[ec1 <= prob.p1_budget + FEAS_TOL]
    if g1.shape[0] == 0:
        raise InfeasibleError("no gridded input satisfies the hop-1 cost budget")
    i1 = entropy_bits(g1 @ W1) - g1 @ entropy_bits(W1)
    budgets = g1 @ (W1 @ prob.b.values) + prob.p2_budget

    if isinstance(prob.hop2, AwgnSpec):
        return float(np.max(np.minimum(i1, awgn_capacity(budgets, prob.hop2.n0))))

    W2 = prob.hop2.transition
    g2 = simplex_grid(W2.shape[0], steps)
    i2 = entropy_bits(g2 @ W2) - g2 @ entropy_bits(W2)
    ec2 = g2 @ (prob.c2.values if prob.c2 is not None else np.zeros(W2.shape[0]))
    order = np.argsort(ec2, kind="stable")
    ec2_sorted = ec2[order]
    best_i2_upto = np.maximum.accumulate(i2[order])

    # For each p1, the richest affordable p2 is a prefix maximum.
    pos = np.searchsorted(ec2_sorted, budgets + FEAS_TOL, side="right") - 1
    vals = np.where(pos >= 0, np.minimum(i1, best_i2_upto[np.maximum(pos, 0)]), -np.inf)
    return float(vals.max())


# ---------------------------------------------------------------------------
# Four-level first hop feeding a Gaussian second hop
# ---------------------------------------------------------------------------
#
# The worked example: a noiseless first hop on the levels {-2, -1, 1, 2} with
# quadratic cost and harvested energy, followed by an average-power-limited
# Gaussian hop.  By symmetry the input is (p, 1/2-p, 1/2-p, p), its mean
# squared level is 6p+1, and the trade-off reduces to a scalar search on p.

EXAMPLE_LEVELS = (-2.0, -1.0, 1.0, 2.0)


def symmetric_input_entropy(p) -> np.ndarray:
    """Entropy in bits of the pmf (p, 1/2-p, 1/2-p, p) on four levels."""
    p = np.asarray(p, dtype=float)
    q = 0.5 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(p > 0, -2.0 * p * np.log2(p), 0.0)
        t2 = np.where(q > 0, -(1.0 - 2.0 * p) * np.log2(q), 0.0)
    return t1 + t2


def mhc_example_capacity(p1_budget: float, p2_budget: float, n0: float):
    """Exact max-min over the symmetric parameter p in [0, 1/2].

    Maximizes min(entropy H4(p) of the four-level input, Gaussian hop
    capacity at power P2 + 6p + 1) subject to the hop-1 cost 6p+1 <= P1.
    H4 peaks at p = 1/4 and the capacity strictly increases, so the unique
    maximizer is the peak min(1/4, p_max) if the capacity there covers H4,
    else p_max if H4 there covers the capacity, else the crossing, found by
    bisection.  Returns (capacity bits, maximizing p).
    """
    if not 0 < n0 < np.inf:
        raise ValueError("noise variance must be positive and finite")
    if not (np.isfinite(p1_budget) and 0 <= p2_budget < np.inf):
        raise ValueError("budgets must be finite and P2 nonnegative")
    if p1_budget < 1.0 - 1e-12:
        raise InfeasibleError("hop-1 budget below the minimum mean cost 6p+1 >= 1")
    p_max = min(0.5, max(float(p1_budget) - 1.0, 0.0) / 6.0)

    def terms(ps):
        return symmetric_input_entropy(ps), awgn_capacity(p2_budget + 6.0 * ps + 1.0, n0)

    def gap(p):
        """H4(p) minus the hop capacity, on scalars strictly inside (0, 1/2)."""
        return (-2.0 * p * np.log2(p) - (1.0 - 2.0 * p) * np.log2(0.5 - p)
                - 0.5 * np.log2(1.0 + (p2_budget + 6.0 * p + 1.0) / n0))

    p_peak = min(0.25, p_max)
    h, g = terms(np.array([p_peak, p_max]))
    if g[0] >= h[0]:
        p_star = p_peak
    elif h[1] >= g[1]:
        p_star = p_max
    else:
        lo, hi = p_peak, p_max  # the gap falls strictly from > 0 to < 0
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
        p_star = lo
    h, g = terms(np.array([p_star]))
    return float(min(h[0], g[0])), p_star


@dataclass
class SnrSweepRow:
    snr: float
    n0: float
    capacity_bits: float
    p_star: float


def relay_snr_sweep(p1_budget: float, p2_budget: float, snr_grid,
                    snr_log10: bool = False):
    """Example capacity and optimal p across an SNR grid.

    SNR maps to noise power as N0 = 2**(-snr/10); pass snr_log10=True for the
    conventional decibel mapping N0 = 10**(-snr/10) instead.
    """
    snr_grid = list(snr_grid)
    if sorted(snr_grid) != snr_grid:
        raise ValueError("SNR grid must be sorted ascending")

    rows = []
    for snr in snr_grid:
        n0 = 10.0 ** (-snr / 10.0) if snr_log10 else 2.0 ** (-snr / 10.0)
        cap, p_star = mhc_example_capacity(p1_budget, p2_budget, n0)
        rows.append(SnrSweepRow(snr, n0, cap, p_star))
    return rows


def example_problem(p1_budget: float, p2_budget: float, n0: float,
                    energy_off: bool = False) -> MhcProblem:
    """The four-level noiseless hop + Gaussian hop instance as an MhcProblem."""
    from .channel import Alphabet

    levels = Alphabet(np.array(EXAMPLE_LEVELS))
    hop1 = DmChannel.noiseless(levels)
    squares = np.array(EXAMPLE_LEVELS) ** 2
    b = EnergyFn(np.zeros(4)) if energy_off else EnergyFn(squares)
    return MhcProblem(hop1, AwgnSpec(n0), CostFn(squares), None, b,
                      p1_budget, p2_budget)
