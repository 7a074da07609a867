"""Property tests of the Gaussian two-sender solver and the cost-constrained capacity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import infoenergy as ie

FEW = settings(max_examples=40, deadline=None, derandomize=True)
ROUNDING = 1e-12


@st.composite
def gaussian_cases(draw):
    """(P, B_lo, B_hi) with 0 <= B_lo <= B_hi <= 4P+1."""
    power = draw(st.floats(0.0, 10.0))
    floors = sorted(draw(st.floats(0.0, 4.0 * power + 1.0)) for _ in range(2))
    return power, *floors


@FEW
@given(gaussian_cases())
def test_gaussian_solver_attains_the_closed_form(case):
    power, b_lo, b_hi = case
    sols = [ie.gaussian_mac_timeshare(power, b) for b in (b_lo, b_hi)]
    for b_target, sol in zip((b_lo, b_hi), sols):
        assert sol.feasible
        want = 0.5 * np.log2(min(1.0 + 2.0 * power, 4.0 * power + 2.0 - b_target))
        assert sol.r_sum == pytest.approx(want, abs=1e-12)
        assert sol.p_prime + sol.p_dprime == pytest.approx(power, abs=1e-12)
        assert 2.0 * sol.p_prime + 4.0 * sol.p_dprime + 1.0 >= b_target - 1e-12
    assert sols[1].r_sum <= sols[0].r_sum


@st.composite
def costed_channels(draw):
    """(channel, cost table, budget, larger budget).

    Transition entries are integer weights over their row sum, none below
    1/31: subnormal entries make the solver raise (see the FOUND lines of
    CHANGES.md).
    """
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        weights = np.array(draw(st.lists(st.integers(0, 10), min_size=m, max_size=m)), float)
        rows.append(weights / weights.sum() if weights.sum() > 0 else np.full(m, 1.0 / m))
    ch = ie.DmChannel.point_to_point(ie.Alphabet(np.arange(n, dtype=float)),
                                     ie.Alphabet(np.arange(m, dtype=float)), np.array(rows))
    cost = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    budget = cost.min() + draw(st.floats(0.0, 1.0)) * (cost.max() - cost.min() + 1.0)
    return ch, ie.CostFn(cost), budget, budget + draw(st.floats(0.0, 2.0))


@FEW
@given(costed_channels())
def test_capacity_with_cost_bounds(case):
    # ROUNDING covers sums of p*log terms that should cancel: a one-output
    # channel reads about +-3e-16 bits.
    ch, cost, budget, larger = case
    n, m = ch.transition.shape
    res = ie.dm_capacity_with_cost(ch, cost, budget)
    assert -ROUNDING <= res.capacity_bits <= np.log2(min(n, m)) + ROUNDING
    more = ie.dm_capacity_with_cost(ch, cost, larger)
    assert more.capacity_bits >= res.capacity_bits - more.gap_bits - ROUNDING
