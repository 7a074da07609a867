"""Point-to-point channel capacity under an input cost budget.

The discrete solver is Blahut-Arimoto run on the Lagrangian I(X;Y) - s*E[c(X)]
with the multiplier s found by bisection, so the cost constraint ends up
active or the unconstrained optimum is already within budget.  The Gaussian
case is handled in closed form only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import AlphabetMismatchError, CostFn, DmChannel, InfeasibleError, Pmf

LN2 = float(np.log(2.0))

BA_TOL_BITS = 1e-7
BA_MAX_ITER = 20000
BISECT_STEPS = 32


@dataclass
class CapacityResult:
    capacity_bits: float
    input_pmf: Pmf
    expected_cost: float
    multiplier: float
    # Lagrangian objective after each Blahut-Arimoto update, in bits.
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


def _ba_lagrangian(W: np.ndarray, cost: np.ndarray, s: float):
    """Maximize I(r) - s*E_r[cost] over input pmfs r by alternating updates.

    Returns (r, mutual information in bits, E[cost], objective iterates in
    bits).  The objective sequence is non-decreasing; that is checked per
    iteration, raising RuntimeError, because it is the algorithm's correctness
    certificate.
    """
    m = W.shape[0]
    r = np.full(m, 1.0 / m)
    iterates = []
    prev = -np.inf
    for _ in range(BA_MAX_ITER):
        r, d, info = _divergences(W, r)
        objective = (info - s * float(r @ cost)) / LN2
        if not objective >= prev - 1e-10:
            raise RuntimeError("Blahut-Arimoto objective decreased during iteration")
        iterates.append(objective)
        if objective - prev < BA_TOL_BITS:
            prev = objective
            break
        prev = objective
        log_r = np.log(r, where=r > 0, out=np.full(m, -np.inf))
        log_w = log_r + d - s * cost
        log_w -= log_w.max()
        r = np.exp(log_w)
        r /= r.sum()
    r, _, info = _divergences(W, r)
    return r, info / LN2, float(r @ cost), iterates


def _restricted_capacity(W: np.ndarray, support: np.ndarray):
    """Unconstrained capacity over inputs restricted to a support set."""
    r_sub, info, _, iterates = _ba_lagrangian(
        W[support], np.zeros(support.size), 0.0
    )
    r = np.zeros(W.shape[0])
    r[support] = r_sub
    return r, info, iterates


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

    min_cost = float(cost.min())
    if budget_eff < min_cost - 1e-12:
        raise InfeasibleError(
            f"budget {budget_eff} is below the cheapest symbol cost {min_cost}"
        )

    # Unconstrained optimum; done if it already fits the budget.
    r0, info0, cost0, iterates = _ba_lagrangian(W, cost, 0.0)
    if cost0 <= budget_eff + 1e-12:
        return CapacityResult(info0, Pmf(np.maximum(r0, 0.0)), cost0, 0.0, iterates)

    # The budget pins the input to the cheapest symbols.
    if budget_eff <= min_cost + 1e-12:
        support = np.flatnonzero(cost <= min_cost + 1e-12)
        r, info, its = _restricted_capacity(W, support)
        return CapacityResult(info, Pmf(np.maximum(r, 0.0)), min_cost, np.inf, its)

    # Bracket a multiplier that drives E[cost] below the budget, then bisect.
    s_hi = 1.0
    for _ in range(60):
        r_hi, _, cost_hi, _ = _ba_lagrangian(W, cost, s_hi)
        if cost_hi <= budget_eff:
            break
        s_hi *= 2.0
    s_lo = 0.0
    r = r_hi
    s = s_hi
    for _ in range(BISECT_STEPS):
        s_mid = 0.5 * (s_lo + s_hi)
        r_mid, _, cost_mid, its_mid = _ba_lagrangian(W, cost, s_mid)
        iterates = its_mid
        if cost_mid > budget_eff:
            s_lo = s_mid
        else:
            s_hi = s_mid
            r, s = r_mid, s_mid
    cost_r = float(r @ cost)

    # The bisection endpoint can sit a hair over budget; mix toward the
    # cheapest-symbol optimum to make the constraint hold exactly.
    if cost_r > budget_eff:
        support = np.flatnonzero(cost <= min_cost + 1e-12)
        r_min, _, _ = _restricted_capacity(W, support)
        theta = (budget_eff - min_cost) / (cost_r - min_cost)
        r = theta * r + (1.0 - theta) * r_min
        cost_r = float(r @ cost)

    r, _, info = _divergences(W, r)
    return CapacityResult(info / LN2, Pmf(np.maximum(r, 0.0)), cost_r, s, iterates)
