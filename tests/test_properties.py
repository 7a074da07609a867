"""Property tests of the Gaussian two-sender solver, the cost-constrained capacity
and the harvesting-relay capacity."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import infoenergy as ie

FEW = settings(max_examples=40, deadline=None, derandomize=True)
FEWER = settings(FEW, max_examples=10)  # each example solves two relay problems
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


def draw_channel(draw, n, m):
    """An n-input, m-output channel.

    Transition entries are integer weights over their row sum, none below
    1/31: subnormal entries make the solver raise (see the FOUND lines of
    CHANGES.md).
    """
    rows = []
    for _ in range(n):
        weights = np.array(draw(st.lists(st.integers(0, 10), min_size=m, max_size=m)), float)
        rows.append(weights / weights.sum() if weights.sum() > 0 else np.full(m, 1.0 / m))
    return ie.DmChannel.point_to_point(ie.Alphabet(np.arange(n, dtype=float)),
                                       ie.Alphabet(np.arange(m, dtype=float)), np.array(rows))


@st.composite
def costed_channels(draw):
    """(channel, cost table, budget, larger budget)."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ch = draw_channel(draw, n, m)
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


@st.composite
def relay_problems(draw):
    """(relay problem, larger relay supply) on two discrete hops of 2-3 symbols.

    Costs and energies lie in [0, 2], P1 between the cheapest hop-1 cost and
    one above the dearest, and P2 in [0, 0.5].
    """
    sizes = [draw(st.integers(2, 3)) for _ in range(3)]  # hop-1 in, relay in, relay out
    hops = [draw_channel(draw, n, m) for n, m in zip(sizes, sizes[1:])]
    c1, c2 = (np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
              for n in sizes[:2])
    b = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=sizes[1], max_size=sizes[1])))
    p1 = c1.min() + draw(st.floats(0.0, 1.0)) * (c1.max() - c1.min() + 1.0)
    p2 = draw(st.floats(0.0, 0.5))
    prob = ie.MhcProblem(*hops, ie.CostFn(c1), ie.CostFn(c2), ie.EnergyFn(b), p1, p2)
    return prob, p2 + draw(st.floats(0.0, 1.0))


def relay_problem(hop1, hop2, c1, c2, b, p1, p2):
    """MhcProblem on two discrete hops given as transition matrices and tables."""
    hops = [ie.DmChannel.point_to_point(ie.Alphabet(np.arange(float(len(w)))),
                                        ie.Alphabet(np.arange(float(len(w[0])))), w)
            for w in (hop1, hop2)]
    return ie.MhcProblem(*hops, ie.CostFn(c1), ie.CostFn(c2), ie.EnergyFn(b), p1, p2)


def largest_harvest(prob):
    """max beta.p over hop-1 pmfs within budget: a symbol, or two mixed to spend it.

    As in the solver, a budget within 1e-12 of the cheapest cost admits
    every symbol that is that close to the cheapest.
    """
    beta = prob.hop1.transition @ prob.b.values
    c = prob.c1.values
    budget = max(prob.p1_budget, c.min() + 1e-12)
    best = beta[c <= budget].max()
    for i, j in itertools.product(np.flatnonzero(c <= budget), np.flatnonzero(c > budget)):
        t = (budget - c[i]) / (c[j] - c[i])  # the mass on the dear symbol j
        best = max(best, (1.0 - t) * beta[i] + t * beta[j])
    return best


@FEW
@given(relay_problems())
def test_relay_capacity_within_the_hop_capacities(case):
    # capacity_bits is the rate of a feasible pair of pmfs, so it needs no
    # gap_bits slack, only ROUNDING (about 3e-16 bits in a 1,500-example run).
    prob, _ = case
    sol = ie.mhc_capacity(prob)
    hop1 = ie.dm_capacity_with_cost(prob.hop1, prob.c1, prob.p1_budget)
    try:
        hop2 = ie.dm_capacity_with_cost(prob.hop2, prob.c2,
                                        largest_harvest(prob) + prob.p2_budget)
        hop2_cap = hop2.capacity_bits + hop2.gap_bits
    except ie.InfeasibleError:  # the relay cannot afford any hop-2 symbol
        hop2_cap = 0.0
    cap = min(hop1.capacity_bits + hop1.gap_bits, hop2_cap)
    assert sol.capacity_bits <= cap + ROUNDING


@FEWER
@given(relay_problems())
# A hop-2 cost 1e-9 above a zero relay budget is out of the solver's reach.
@example((relay_problem([[0.5, 0.5], [0, 1]], [[0.5, 0.5], [0, 1]], [0, 0], [0, 1e-9],
                        [0, 0], 0.0, 0.0), 0.0))
def test_relay_capacity_at_least_the_cutset_grid(case):
    # The grid's pmfs are feasible for the solver, so capacity_bits + gap_bits
    # caps their value; ROUNDING covers a grid cost rounded onto the budget.
    prob, _ = case
    sol = ie.mhc_capacity(prob)
    assert sol.capacity_bits + sol.gap_bits >= (
        ie.cutset_joint_oracle(prob, steps=11) - ROUNDING)


@FEW
@given(relay_problems())
def test_relay_capacity_nondecreasing_in_the_relay_supply(case):
    prob, larger = case
    sol = ie.mhc_capacity(prob)
    more = ie.mhc_capacity(ie.MhcProblem(prob.hop1, prob.hop2, prob.c1, prob.c2, prob.b,
                                         prob.p1_budget, larger))
    assert more.capacity_bits >= sol.capacity_bits - more.gap_bits - ROUNDING


@FEWER
@given(relay_problems(), st.floats(0.0, 1.0))
def test_relay_capacity_nondecreasing_in_the_hop1_budget(case, more):
    prob, _ = case
    sol = ie.mhc_capacity(prob)
    larger = ie.mhc_capacity(ie.MhcProblem(prob.hop1, prob.hop2, prob.c1, prob.c2, prob.b,
                                           prob.p1_budget + more, prob.p2_budget))
    assert larger.capacity_bits >= sol.capacity_bits - larger.gap_bits - ROUNDING


@FEWER
@given(relay_problems(), st.floats(0.0, 1.0))
def test_relay_capacity_nondecreasing_in_a_scaled_harvest(case, more):
    prob, _ = case
    sol = ie.mhc_capacity(prob)
    larger = ie.mhc_capacity(ie.MhcProblem(prob.hop1, prob.hop2, prob.c1, prob.c2,
                                           ie.EnergyFn((1.0 + more) * prob.b.values),
                                           prob.p1_budget, prob.p2_budget))
    assert larger.capacity_bits >= sol.capacity_bits - larger.gap_bits - ROUNDING
