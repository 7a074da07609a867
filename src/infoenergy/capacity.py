"""Point-to-point channel capacity under an input cost budget.

The discrete solver is one Blahut-Arimoto run whose every update is tilted
by exp(-s*c(X)) with the least multiplier s >= 0 that keeps it within budget,
so each iterate is feasible, and stops on Blahut's dual bound (gap_bits).
Every solver here and in multihop, and mac_region's largest received energy,
read a cost budget by _budget_rule, and its extreme pmfs by _budget_vertices.
Every budget, energy floor, largest harvest and relay spend in the package
counts as met within BUDGET_TOL = 1e-12 (absolute), defined in closedform with
the test of a budget below the cheapest cost.  With a gain per symbol
it also traces the relay's information-energy frontier.  The Gaussian case is
handled in closed form only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import CostFn, DmChannel, Pmf
from .closedform import BUDGET_TOL, AlphabetMismatchError, _check_budget_floor

LN2 = float(np.log(2.0))

BA_TOL_BITS = 1e-7
BA_MAX_ITER = 20000


@dataclass
class CapacityResult:
    capacity_bits: float
    input_pmf: Pmf
    expected_cost: float
    # Tilt s of input_pmf's last update: 0 when the budget does not bind,
    # inf when it pins the input to the cheapest symbols.
    multiplier: float
    # Blahut's dual upper bound at input_pmf minus capacity_bits.
    gap_bits: float
    # I(X;Y) in bits after each Blahut-Arimoto update.
    iterates: list = field(default_factory=list)


def awgn_capacity(power, n0: float):
    """Capacity 0.5*log2(1 + power/n0) of an average-power-limited AWGN link.

    A scalar power gives a float; an array of powers gives an array.
    """
    if not 0 < n0 < np.inf:
        raise ValueError("noise variance must be positive and finite")
    power = np.asarray(power, dtype=float)
    if not (np.isfinite(power) & (power >= 0)).all():
        raise ValueError("power must be finite and nonnegative")
    bits = 0.5 * np.log2(1.0 + power / n0)
    return float(bits) if bits.ndim == 0 else bits


def _divergence_rows(W: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(W_x || q) in nats for each row x; +inf where W_xy / q_y overflows."""
    return np.where(W > 0, W * np.log(W / q), 0.0).sum(axis=1)


def _divergences(W: np.ndarray, r: np.ndarray):
    """(r, D(W_x || rW) in nats per row x, I(r) in nats).

    D_x overflows only if r_x*W_xy <= (rW)_y < W_xy/DBL_MAX for some y, so
    r_x has underflowed (to 0, or to a subnormal) and adds nothing to I(r).
    Such an input gets r_x = 0 and D_x = 0, as r_x*D_x would be NaN or inf.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = _divergence_rows(W, r @ W)
        info = float(r @ d)
    if not math.isfinite(info):
        dead = d == np.inf
        r, d = np.where(dead, 0.0, r), np.where(dead, 0.0, d)
        info = float(r @ d)
    return r, d, info


def _budget_rule(cost: np.ndarray, budget: float):
    """(symbols allowed, budget on E[cost]): InfeasibleError more than BUDGET_TOL
    below the cheapest cost, within BUDGET_TOL of it the symbols that close to it
    and no budget, else every symbol and E[cost] <= budget."""
    floor = cost.min()
    _check_budget_floor(budget, floor)
    if budget <= floor + BUDGET_TOL:
        return cost <= floor + BUDGET_TOL, np.inf
    return np.ones(cost.size, dtype=bool), budget


def _budget_vertices(cost: np.ndarray, budget: float) -> np.ndarray:
    """Extreme points, one a row, of the pmfs that _budget_rule admits: each
    allowed symbol within the budget, then each two-symbol mixture meeting it."""
    allowed, budget = _budget_rule(cost, budget)
    eye = np.eye(cost.size)
    verts = list(eye[allowed & (cost <= budget)])
    for i, j in itertools.combinations(range(cost.size), 2):
        lo, hi = (i, j) if cost[i] < cost[j] else (j, i)
        if cost[lo] < budget < cost[hi]:
            a = (cost[hi] - budget) / (cost[hi] - cost[lo])
            verts.append(a * eye[lo] + (1.0 - a) * eye[hi])
    return np.array(verts)


def _tilt(log_w: np.ndarray, cost: np.ndarray, budget: float, s: float):
    """(r, s): r proportional to exp(log_w - s*cost) for the least s >= 0 with
    E_r[cost] <= budget.

    s = 0 when the untilted pmf fits.  Otherwise E_s[cost] falls in s with
    slope -Var_s[cost]; Newton steps start at the given s and stay inside the
    bracket they narrow (else it is bisected, or doubled while no s is known
    to fit) until its ends are adjacent floats or a fitting s stops moving;
    the fitting end is returned.  Raises RuntimeError when the doubling
    overflows, as then no tilt fits: every symbol that log_w keeps costs more
    than the budget.
    """
    def pmf(s):
        z = log_w - s * cost
        r = np.exp(z - z.max())
        return r / r.sum()

    r = pmf(0.0)
    if r @ cost <= budget:
        return r, 0.0
    lo, hi, r_hi = 0.0, np.inf, None
    while np.nextafter(lo, hi) < hi:
        if s == np.inf:
            raise RuntimeError("no finite tilt brings the update within the cost budget")
        r = pmf(s)
        mean = float(r @ cost)
        if mean > budget:
            lo = s
        else:
            hi, r_hi = s, r
        var = float(r @ (cost - mean) ** 2)
        step = s + (mean - budget) / var if var > 0 else np.nan
        if step == s:  # converged to rounding; an infeasible s takes one ulp more
            if s == hi:
                break
            step = np.nextafter(s, hi)
        s = step if lo < step < hi else 0.5 * (lo + hi) if hi < np.inf else 2.0 * s + 1.0
    return r_hi, float(hi)


def _ba(W: np.ndarray, cost: np.ndarray, budget: float, gain: np.ndarray | float = 0.0,
        tol: float = BA_TOL_BITS):
    """Maximize I(r) + r.gain/ln2 in bits over input pmfs r with E_r[cost] <= budget.

    Each Blahut-Arimoto update r <- r*exp(D + gain - s*cost), normalised,
    takes the least s >= 0 that keeps it within budget; that maximises the
    update's surrogate over the feasible pmfs (Csiszar-Tusnady), so every
    iterate is feasible and the objective never falls: the correctness
    certificate, checked per update (RuntimeError).  The run starts on the
    symbols that _budget_rule allows, under the budget it leaves (it raises
    InfeasibleError below the cheapest cost), and stops once Blahut's dual
    bound max_x(D_x + gain_x - s*cost_x) + s*budget over those symbols
    (D_x = 0 for an underflowed input) is within tol bits, or after
    BA_MAX_ITER updates.  Returns (r, I(r) in bits, the tilt s of r or inf
    if the rule dropped a symbol, the objective in bits after each update,
    the bound minus the objective).
    """
    allowed, budget = _budget_rule(cost, budget)
    iterates, prev, s = [], -np.inf, 0.0
    log_w = np.where(allowed, 0.0, -np.inf)
    for _ in range(BA_MAX_ITER):
        r, s = _tilt(log_w, cost, budget, s)
        r, d, info = _divergences(W, r)
        objective = (info + float((r * gain).sum())) / LN2
        if not objective >= prev - 1e-10:
            raise RuntimeError("Blahut-Arimoto objective decreased during iteration")
        iterates.append(objective)
        # s > 0 only under a finite budget, so 0*inf never enters the bound.
        bound = (d + gain - s * cost)[allowed].max() + (s * budget if s else 0.0)
        gap = bound / LN2 - objective
        if gap < tol:
            break
        prev = objective
        log_w = np.log(r, where=r > 0, out=np.full(r.size, -np.inf)) + d + gain
    return r, info / LN2, s if allowed.all() else np.inf, iterates, max(float(gap), 0.0)


def dm_capacity_with_cost(
    ch: DmChannel,
    c: CostFn | None = None,
    budget: float | None = None,
) -> CapacityResult:
    """Cost-constrained capacity max I(X;Y) s.t. E[c(X)] <= budget.

    Pass c=None (or budget=None or +inf) for the unconstrained capacity.
    Raises InfeasibleError when the budget is below the cheapest symbol and
    ValueError when it is NaN.
    """
    return _capacity(ch, c, budget, BA_TOL_BITS)


def _capacity(ch: DmChannel, c: CostFn | None, budget: float | None, tol: float):
    """dm_capacity_with_cost with its Blahut-Arimoto run stopped within tol bits."""
    if ch.is_mac:
        raise AlphabetMismatchError("expected a point-to-point channel")
    W = ch.transition
    if c is None or budget is None:
        cost = np.zeros(W.shape[0])
        budget_eff = np.inf
    else:
        if len(c) != W.shape[0]:
            raise AlphabetMismatchError("cost table does not match input alphabet")
        cost = c.values
        budget_eff = float(budget)
        if np.isnan(budget_eff):
            raise ValueError("cost budget is NaN")

    r, bits, s, iterates, gap = _ba(W, cost, budget_eff, tol=tol)
    return CapacityResult(bits, Pmf(np.maximum(r, 0.0)), float(r @ cost), s, gap, iterates)
