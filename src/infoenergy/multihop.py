"""Capacity of a two-hop channel whose relay harvests received energy.

The end-to-end rate is the smaller of the first-hop mutual information and
the second-hop capacity, where the relay's transmit budget is its own supply
plus the mean energy it harvests from the first hop.  That max-min is concave
in the first-hop pmf, and its optimum lies on the information-energy frontier
of the pmfs maximising I(X1;Y1) + mu*E[b(Y1)].  Each hop's solve is one
capacity._ba call; mhc_capacity brackets mu by Illinois steps from f(0) and
stops on its caps.  The cut-set oracle scans channel's simplex grids; nothing
here loads the MAC solver.  closedform's four-level example is re-exported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import BA_TOL_BITS, LN2, _ba, _budget_rule, _budget_vertices, awgn_capacity
from .channel import Alphabet, AwgnSpec, CostFn, DmChannel, EnergyFn, Pmf, simplex_grid
from .closedform import (BUDGET_TOL, EXAMPLE_LEVELS, InfeasibleError, SnrSweepRow,
                         mhc_example_capacity, relay_snr_sweep)
from .metrics import _information

_MU_STEPS = 200  # multiplier evaluations: doublings plus bracket steps
_SOLVE_TOL_BITS = BA_TOL_BITS / 4  # each solve's stop, so the caps close within BA_TOL_BITS


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
    relay_pmf: Pmf | None
    # Certified upper bound on the two-hop capacity minus capacity_bits,
    # counting the second-hop solves' own dual gaps.
    gap_bits: float


def _second_hop_capacity(prob: MhcProblem, budget: float):
    """(bits, relay pmf or None, dual gap of the bits) for a given relay budget."""
    if isinstance(prob.hop2, AwgnSpec):
        return awgn_capacity(budget, prob.hop2.n0), None, 0.0
    W2 = prob.hop2.transition
    cost, budget = ((np.zeros(W2.shape[0]), np.inf) if prob.c2 is None
                    else (prob.c2.values, budget))
    try:
        r, bits, _, _, gap = _ba(W2, cost, budget, tol=_SOLVE_TOL_BITS)
    except InfeasibleError:
        return 0.0, None, 0.0
    return bits, Pmf(r), gap


def mhc_capacity(prob: MhcProblem) -> MhcSolution:
    """Best end-to-end rate over first-hop input pmfs within the cost budget.

    A pmf p gets min(I(p), C2(beta.p + P2)): beta is the mean harvest per
    input symbol, C2 the second-hop capacity.  As mu grows, the pmf p_mu
    maximising I(p) + mu*beta.p within budget harvests more and carries less,
    so f(mu) = I(p_mu) - C2(beta.p_mu + P2) falls.  mu doubles from 1 until
    f <= 0, then Illinois steps (regula falsi halving the f of an end kept
    twice; the midpoint if it leaves the bracket) narrow [lo, hi] from lo = 0
    and f(0).  A pmf harvesting more than p_mu carries at most I(p_mu) + gap,
    one harvesting less gets at most C2(beta.p_mu + P2) + gap2 (gap: the
    kernel's, gap2: the C2 solve's), so I + gap + gap2 at lo and
    C2 + gap + gap2 at hi cap the optimum, as do I(p_0) + gap and C2 + gap2
    at the largest harvest.  Solves stop within BA_TOL_BITS/4, and the search
    once the least cap is within BA_TOL_BITS of the best rate, the best rate
    reaches the least value behind a cap, that cap less the gaps it counts
    (then only those gaps remain), or p_mu harvests all it can with f > 0.
    gap_bits, that cap minus the rate, exceeds BA_TOL_BITS only if a solve
    hit BA_MAX_ITER or the bracket ran out of floats.
    """
    W1 = prob.hop1.transition
    c1 = prob.c1.values
    beta = W1 @ prob.b.values  # mean harvested energy per input symbol
    shifted = LN2 * (beta - beta.max())  # <= 0: a large mu cannot swamp I

    def frontier(mu):
        """(I, C2, kernel gap, C2's gap, (rate, pmf, relay budget, relay pmf)) at p_mu."""
        r, i1, _, _, gap = _ba(W1, c1, prob.p1_budget, mu * shifted, _SOLVE_TOL_BITS)
        budget = float(r @ beta) + prob.p2_budget
        c2, relay_pmf, gap2 = _second_hop_capacity(prob, budget)
        return i1, c2, gap, gap2, (min(i1, c2), r, budget, relay_pmf)

    i1, c2, gap, gap2, best = frontier(0.0)
    upper_i, upper_c = i1 + gap, np.inf  # the hop-1 and hop-2 caps
    if i1 > c2:  # hop 2 binds at mu = 0 (else p_0 is optimal): buy harvest
        e_max = (_budget_vertices(c1, prob.p1_budget) @ beta).max()
        top = max(float(e_max) + prob.p2_budget, best[2])
        c_top, _, gap_top = (c2, None, gap2) if top == best[2] else _second_hop_capacity(prob, top)
        upper_c, least = c_top + gap_top, min(i1, c_top)  # least: the least cap less its gaps
        lo, hi, f_lo, f_hi, last, harvest = 0.0, None, i1 - c2, None, None, best[2]
        for _ in range(_MU_STEPS):  # no larger mu lowers upper_c once p_mu harvests e_max
            if (min(upper_i, upper_c) - best[0] < BA_TOL_BITS or best[0] >= least
                    or hi is None and harvest >= top - BUDGET_TOL):
                break
            mu = (2.0 * lo or 1.0) if hi is None else (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if hi is not None and not lo < mu < hi:
                mu = 0.5 * (lo + hi)
                if not lo < mu < hi:
                    break
            i1, c2, gap, gap2, point = frontier(mu)
            best, harvest = max(best, point, key=lambda b: b[0]), point[2]
            lower = i1 > c2
            least = min(least, i1 if lower else c2)
            if lower:
                lo, f_lo, upper_i = mu, i1 - c2, min(upper_i, i1 + gap + gap2)
            else:
                hi, f_hi, upper_c = mu, i1 - c2, min(upper_c, c2 + gap + gap2)
            if lower == last and hi is not None:  # an end kept twice: halve its f
                f_lo, f_hi = (f_lo, 0.5 * f_hi) if lower else (0.5 * f_lo, f_hi)
            last = lower

    value, pmf, budget, relay_pmf = best
    return MhcSolution(max(value, 0.0), Pmf(pmf), budget, relay_pmf,
                       max(float(min(upper_i, upper_c)) - value, 0.0))


def _affordable(grid: np.ndarray, cost: np.ndarray, budget: float) -> np.ndarray:
    """Mask of the gridded pmfs that capacity._budget_rule admits under budget."""
    allowed, budget = _budget_rule(cost, budget)
    return (grid[:, ~allowed] == 0).all(axis=1) & (grid @ cost <= budget)


def cutset_joint_oracle(prob: MhcProblem, steps: int = 21) -> float:
    """max over gridded (p(x1), p(x2)) of min(I(X1;Y1), I(X2;Y2)).

    Joint enumeration with the relay budget coupled through p(x1); the
    independent check that the nested solver attains the cut-set value.
    Both budgets admit exactly the pmfs that mhc_capacity's solves admit, so
    the value is a lower bound on the capacity.
    """
    n1 = prob.hop1.transition.shape[0]
    if n1 > 4 or (isinstance(prob.hop2, DmChannel)
                  and prob.hop2.transition.shape[0] > 4):
        raise ValueError("oracle restricted to hop alphabets of size <= 4")
    if steps > 21:
        raise ValueError("oracle restricted to steps <= 21")

    W1 = prob.hop1.transition
    g1 = simplex_grid(n1, steps)
    g1 = g1[_affordable(g1, prob.c1.values, prob.p1_budget)]
    i1 = _information(g1, W1)
    budgets = g1 @ (W1 @ prob.b.values) + prob.p2_budget

    if isinstance(prob.hop2, AwgnSpec):
        return float(np.max(np.minimum(i1, awgn_capacity(budgets, prob.hop2.n0))))

    W2 = prob.hop2.transition
    g2 = simplex_grid(W2.shape[0], steps)
    i2 = _information(g2, W2)
    c2 = prob.c2.values if prob.c2 is not None else np.zeros(W2.shape[0])
    ec2 = g2 @ c2
    order = np.argsort(ec2, kind="stable")
    best_i2_upto = np.maximum.accumulate(i2[order])

    # For each p1, the richest affordable p2 is a prefix maximum (0 bits if
    # none is); a budget within BUDGET_TOL of the cheapest cost is pinned.
    pos = np.searchsorted(ec2[order], budgets, side="right") - 1
    best_i2 = np.where(pos >= 0, best_i2_upto[np.maximum(pos, 0)], 0.0)
    best_i2[np.abs(budgets - c2.min()) <= BUDGET_TOL] = i2[_affordable(g2, c2, c2.min())].max()
    return float(np.minimum(i1, best_i2).max())


def symmetric_input_entropy(p) -> np.ndarray:
    """Entropy in bits of the pmf (p, 1/2-p, 1/2-p, p) on four levels."""
    p = np.asarray(p, dtype=float)
    q = 0.5 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(p > 0, -2.0 * p * np.log2(p), 0.0)
        t2 = np.where(q > 0, -(1.0 - 2.0 * p) * np.log2(q), 0.0)
    return t1 + t2


def example_problem(p1_budget: float, p2_budget: float, n0: float,
                    energy_off: bool = False) -> MhcProblem:
    """The four-level noiseless hop + Gaussian hop instance as an MhcProblem."""
    levels = Alphabet(np.array(EXAMPLE_LEVELS))
    hop1 = DmChannel.noiseless(levels)
    squares = np.array(EXAMPLE_LEVELS) ** 2
    b = EnergyFn(np.zeros(4)) if energy_off else EnergyFn(squares)
    return MhcProblem(hop1, AwgnSpec(n0), CostFn(squares), None, b,
                      p1_budget, p2_budget)
