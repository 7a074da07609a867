"""The numpy-free core: the package's exceptions, its one constraint
tolerance, and the two worked examples, solved in closed form with scalar
logs, so `gaussian-mac` and `mhc-example` run without numpy.  channel,
capacity, mac_region and multihop re-export what they used to define here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BUDGET_TOL = 1e-12  # a budget this close to the cheapest cost is pinned to it


class AlphabetMismatchError(ValueError):
    """Operands are aligned to alphabets of different sizes."""


class ChannelFormatError(ValueError):
    """A channel specification file is malformed."""


class InfeasibleError(RuntimeError):
    """The requested constraint set admits no solution."""


def _check_budget_floor(budget, floor) -> None:
    """InfeasibleError when budget is more than BUDGET_TOL below floor, the cheapest cost."""
    if budget < floor - BUDGET_TOL:
        raise InfeasibleError(f"budget {budget} is below the cheapest symbol cost {floor}")


@dataclass(frozen=True)
class GaussianMacSolution:
    """Optimal policy of the Gaussian two-sender example.

    Every symbol of both senders is sqrt(p_dprime) + N(0, p_prime), with the
    same DC sign at both, so the offsets combine coherently at the receiver.
    """

    r_sum: float
    p_prime: float
    p_dprime: float
    feasible: bool = True


def gaussian_unconstrained_sum_rate(power: float) -> float:
    """Max sum rate 0.5*log2(1 + 2P) with no energy floor."""
    if not 0 <= power < math.inf:
        raise ValueError("power must be finite and nonnegative")
    return 0.5 * math.log2(1.0 + 2.0 * power)


def gaussian_mac_timeshare(power: float, b_target: float) -> GaussianMacSolution:
    """Best sum rate under a received-energy floor, in closed form.

    With DC power a and Gaussian variance P-a at both senders, the receiver
    gets E[Y^2] = 4a + 2(P-a) + 1 = 2P+2a+1 and, knowing the offset, the sum
    rate 0.5*log2(1 + 2(P-a)).  The least a meeting B is (B-2P-1)/2, clipped
    to [0, P]: the rate is 0.5*log2(1+2P) up to B = 2P+1, then
    0.5*log2(4P+2-B), down to 0 at B = 4P+1; above that B is infeasible.

    No input law does better.  Given a time-sharing variable Q the senders
    are independent with means m_k and variances v_k, m_k^2 + v_k averaging
    at most P, so E[Y^2] - 1 = E[(m_1+m_2)^2 + v_1+v_2] <= 4P - E[v_1+v_2].
    The Gaussian maximum-entropy bound and Jensen's inequality then cap the
    sum rate at 0.5*log2(1 + E[v_1+v_2]) <= 0.5*log2(min(1+2P, 4P+2-B)).
    """
    if not (0 <= power < math.inf and 0 <= b_target < math.inf):
        raise ValueError("power and energy target must be finite and nonnegative")
    if b_target > 4.0 * power + 1.0 + BUDGET_TOL:
        return GaussianMacSolution(0.0, 0.0, 0.0, feasible=False)
    dc = min(max(0.5 * (b_target - 2.0 * power - 1.0), 0.0), power)
    return GaussianMacSolution(gaussian_unconstrained_sum_rate(power - dc), power - dc, dc)


@dataclass
class GaussianSweepRow:
    power: float
    b_target: float
    r_timeshare: float
    p_prime: float
    p_dprime: float
    r_no_ts: float
    feasible: bool


def gaussian_mac_sweep(powers, b_grid):
    """Sum rate vs energy floor, with and without a DC offset, per (P, B).

    The zero-mean baseline sends no DC offset and is reported as 0 where its
    own feasibility check (B <= 2P+1) fails.
    """
    powers, b_grid = list(powers), list(b_grid)
    if not powers or not b_grid:
        raise ValueError("powers and B grid must be nonempty")
    rows = []
    for p in powers:
        for bt in b_grid:
            sol = gaussian_mac_timeshare(p, bt)
            no_ts = gaussian_unconstrained_sum_rate(p) if bt <= 2.0 * p + 1.0 + BUDGET_TOL else 0.0
            rows.append(GaussianSweepRow(p, bt, sol.r_sum, sol.p_prime, sol.p_dprime,
                                         no_ts, sol.feasible))
    return rows


# The four-level example: a noiseless first hop on the levels {-2, -1, 1, 2}
# with quadratic cost and harvested energy, followed by an average-power-limited
# Gaussian hop.  By symmetry the input is (p, 1/2-p, 1/2-p, p), its mean
# squared level is 6p+1, and the trade-off reduces to a scalar search on p.

EXAMPLE_LEVELS = (-2.0, -1.0, 1.0, 2.0)


def mhc_example_capacity(p1_budget: float, p2_budget: float, n0: float):
    """Exact max-min over the symmetric parameter p in [0, 1/2].

    Maximizes min(entropy H4(p) of the four-level input, Gaussian hop
    capacity at power P2 + 6p + 1) subject to the hop-1 cost 6p+1 <= P1.
    H4 peaks at p = 1/4 and the capacity strictly increases, so the unique
    maximizer is the peak min(1/4, p_max) if the capacity there covers H4,
    else p_max if H4 there covers the capacity, else the crossing, found by
    bisection.  Returns (capacity bits, maximizing p).
    """
    if not 0 < n0 < math.inf:
        raise ValueError("noise variance must be positive and finite")
    if not (math.isfinite(p1_budget) and 0 <= p2_budget < math.inf):
        raise ValueError("budgets must be finite and P2 nonnegative")
    _check_budget_floor(p1_budget, min(x * x for x in EXAMPLE_LEVELS))  # 6p+1 >= 1
    p_max = min(0.5, max(float(p1_budget) - 1.0, 0.0) / 6.0)

    def h4(p):  # 0*log2(0) = 0 at p = 0 and p = 1/2
        return ((-2.0 * p * math.log2(p) if p > 0 else 0.0)
                - ((1.0 - 2.0 * p) * math.log2(0.5 - p) if p < 0.5 else 0.0))

    def hop2(p):  # the Gaussian hop's capacity at relay power P2 + 6p + 1
        return 0.5 * math.log2(1.0 + (p2_budget + 6.0 * p + 1.0) / n0)

    p_peak = min(0.25, p_max)
    if hop2(p_peak) >= h4(p_peak):
        p_star = p_peak
    elif h4(p_max) >= hop2(p_max):
        p_star = p_max
    else:
        lo, hi = p_peak, p_max  # H4 - hop2 falls strictly from > 0 to < 0
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if h4(mid) - hop2(mid) > 0 else (lo, mid)
        p_star = lo
    return min(h4(p_star), hop2(p_star)), p_star


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
        try:
            n0 = 10.0 ** (-snr / 10.0) if snr_log10 else 2.0 ** (-snr / 10.0)
        except OverflowError:  # as numpy's inf: mhc_example_capacity rejects it
            n0 = math.inf
        cap, p_star = mhc_example_capacity(p1_budget, p2_budget, n0)
        rows.append(SnrSweepRow(snr, n0, cap, p_star))
    return rows
