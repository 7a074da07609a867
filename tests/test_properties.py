"""Property tests of the Gaussian two-sender solver, the cost-constrained capacity,
the harvesting-relay capacity, the two-sender energy simulator and the CLI's
sweep grid."""

import itertools
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import infoenergy as ie
from conftest import report_bytes
from infoenergy.capacity import BUDGET_TOL, _budget_rule
from infoenergy.cli import _sweep_grid

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
    1/31.  Subnormal entries, which the channel sets to 0, are @examples of
    test_capacity_with_cost_bounds.
    """
    rows = []
    for _ in range(n):
        weights = np.array(draw(st.lists(st.integers(0, 10), min_size=m, max_size=m)), float)
        rows.append(weights / weights.sum() if weights.sum() > 0 else np.full(m, 1.0 / m))
    return matrix_channel(np.array(rows))


def matrix_channel(w):
    """Point-to-point channel on the symbols 0, 1, ... from a transition matrix."""
    return ie.DmChannel.point_to_point(ie.Alphabet(np.arange(float(len(w)))),
                                       ie.Alphabet(np.arange(float(len(w[0])))), w)


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
@example((matrix_channel([[0, 0, 1], [1, 5e-324, 0]]), ie.CostFn([0, 0]), 0.0, 1.0))
@example((matrix_channel([[0, 0, 1], [0, 5e-324, 1]]), ie.CostFn([0, 0]), 0.0, 1.0))
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
def admitted_pmfs(draw):
    """(channel, cost table, budget, an input pmf that the budget admits).

    A third of the budgets lie within 5e-13 of the cheapest cost.  The pmf
    puts integer weights on the symbols the budget rule allows, then mixes
    in just enough of a cheapest symbol to meet the budget it leaves.
    """
    ch, cost, budget, _ = draw(costed_channels())
    c = cost.values
    if draw(st.integers(0, 2)) == 0:
        budget = c.min() + draw(st.floats(-5e-13, 5e-13))
    allowed, cap = _budget_rule(c, budget)
    weights = np.array(draw(st.lists(st.integers(0, 10), min_size=c.size,
                                     max_size=c.size)), float) * allowed
    cheapest = np.eye(c.size)[np.argmin(c)]
    p = weights / weights.sum() if weights.sum() > 0 else cheapest
    if p @ c > cap:
        t = (p @ c - cap) / (p @ c - c.min())
        p = (1.0 - t) * p + t * cheapest
    return ch, cost, budget, p


@FEW
@given(admitted_pmfs())
def test_capacity_with_cost_at_least_any_admitted_pmf(case):
    ch, cost, budget, p = case
    res = ie.dm_capacity_with_cost(ch, cost, budget)
    assert res.capacity_bits + res.gap_bits >= (
        ie.mutual_information(ie.Pmf(p), ch) - ROUNDING)


@FEW
@given(admitted_pmfs(), st.randoms(use_true_random=False))
def test_capacity_with_cost_invariant_under_relabelling(case, rand):
    ch, cost, budget, _ = case
    rows, cols = (rand.sample(range(k), k) for k in ch.transition.shape)
    moved = ie.dm_capacity_with_cost(matrix_channel(ch.transition[rows][:, cols]),
                                     ie.CostFn(cost.values[rows]), budget)
    want = ie.dm_capacity_with_cost(ch, cost, budget).capacity_bits
    assert moved.capacity_bits == pytest.approx(want, rel=0, abs=1e-12)


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
    return ie.MhcProblem(matrix_channel(hop1), matrix_channel(hop2), ie.CostFn(c1),
                         ie.CostFn(c2), ie.EnergyFn(b), p1, p2)


def largest_harvest(prob):
    """max beta.p over hop-1 pmfs within budget: a symbol, or two mixed to spend it.

    As in the solver, a budget within BUDGET_TOL of the cheapest cost admits
    every symbol that is that close to the cheapest.
    """
    beta = prob.hop1.transition @ prob.b.values
    c = prob.c1.values
    budget = max(prob.p1_budget, c.min() + BUDGET_TOL)
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


@st.composite
def costed_macs(draw):
    """A two-sender problem on 1-3 symbols per alphabet, costs and energies in [0, 2].

    Each budget lies between the sender's cheapest cost and one above its
    dearest, or, for a third of them, within 5e-13 of the cheapest cost.
    """
    n1, n2, m = (draw(st.integers(1, 3)) for _ in range(3))
    W = np.array([draw_channel(draw, n2, m).transition for _ in range(n1)])
    ch = ie.DmChannel.mac(*(ie.Alphabet(np.arange(float(k))) for k in (n1, n2, m)), W)
    costs, budgets = [], []
    for n in (n1, n2):
        c = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
        budget = c.min() + draw(st.floats(0.0, 1.0)) * (c.max() - c.min() + 1.0)
        if draw(st.integers(0, 2)) == 0:
            budget = max(c.min() + draw(st.floats(-5e-13, 5e-13)), 0.0)
        costs.append(ie.CostFn(c))
        budgets.append(budget)
    b = ie.EnergyFn(draw(st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m)))
    return ie.MacProblem(ch, *costs, b, *budgets)


@FEW
@given(costed_macs())
def test_max_received_energy_over_the_admitted_pmfs(prob):
    # The pair lies in what the budget rule admits, and no admitted pair of an
    # 11-step grid receives more energy.
    val, p1, p2 = ie.max_received_energy(prob)
    m = prob.channel.transition @ prob.b.values
    assert val == pytest.approx(p1 @ m @ p2, rel=0, abs=ROUNDING)
    grids = []
    for p, cost, budget in ((p1, prob.c1.values, prob.p1_budget),
                            (p2, prob.c2.values, prob.p2_budget)):
        allowed, cap = _budget_rule(cost, budget)
        assert (p[~allowed] == 0).all()
        assert p @ cost <= cap + ROUNDING
        grid = ie.simplex_grid(cost.size, 11)
        grids.append(grid[(grid[:, ~allowed] == 0).all(axis=1) & (grid @ cost <= cap)])
    assert val >= (grids[0] @ m @ grids[1].T).max() - ROUNDING


@st.composite
def mac_links(draw):
    """(two-sender channel on 2-3 symbols per alphabet, energy table, codebook pair)."""
    n1, n2, m = (draw(st.integers(2, 3)) for _ in range(3))
    W = np.array([draw_channel(draw, n2, m).transition for _ in range(n1)])
    symbols = [ie.Alphabet(np.arange(float(k))) for k in (n1, n2, m)]
    ch = ie.DmChannel.mac(*symbols, W)
    b = ie.EnergyFn(draw(st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m)))
    n = draw(st.integers(4, 16))
    books = [ie.generate_codebook(ie.Pmf.uniform(k), n, draw(st.integers(0, 3)) / n,
                                  alphabet=symbols[i], seed=draw(st.integers(0, 999)))
             for i, k in enumerate((n1, n2))]
    return ch, b, books


@FEW
@given(mac_links(), st.integers(0, 999))
def test_simulated_mac_energy_within_five_standard_errors(link, seed):
    # The exact mean block energy averages (W b)[x1, x2] over the message
    # pairs and the positions, as the simulator draws each message uniformly.
    ch, b, (cb1, cb2) = link
    wb = ch.transition @ b.values
    exact = wb[cb1.words[:, None, :], cb2.words[None, :, :]].mean()
    rep = ie.simulate_mac_energy(cb1, cb2, ie.DmMacSampler(ch), b, 0.0, 0.0, 300, seed)
    assert abs(rep.mean_bn - exact) <= 5.0 * rep.mean_bn_se + ROUNDING


@FEWER
@given(mac_links(), st.integers(1, 12), st.integers(0, 999))
def test_simulated_mac_energy_same_on_one_and_two_cpus(link, trials, seed):
    # Blocks of 3 trials, so more than 3 trials fork a second worker on 2 CPUs.
    ch, b, (cb1, cb2) = link
    reports, forks = [], []
    for cpus in ({0}, {0, 1}):
        with mock.patch.object(os, "sched_getaffinity", return_value=cpus), \
                mock.patch.object(ie.linksim, "_BLOCK_VALUES", 3 * cb1.words.shape[1]), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            rep = ie.simulate_mac_energy(cb1, cb2, ie.DmMacSampler(ch), b, 0.5, 0.1, trials, seed)
        reports.append(report_bytes(rep))
        forks.append(fork.call_count)
    assert reports[0] == reports[1]
    assert forks == [0, int(trials > 3)]
    with pytest.raises(ChildProcessError):  # no child left
        os.waitpid(-1, os.WNOHANG)


@FEW
@given(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2), st.integers(2, 500))
@example([-1e300, 1e300], 500)
@example([-2.5, -2.5], 2)
@example([0.0, 5e-324], 4)  # step 0: linspace scales i/(steps-1) by the range
@example([-1e-310, 2e-310], 7)
@example([-0.0, 0.0], 4)
def test_sweep_grid_is_linspace_bit_for_bit(ends, steps):
    lo, hi = sorted(ends)
    assert np.array(_sweep_grid(lo, hi, steps)).tobytes() == np.linspace(lo, hi, steps).tobytes()
