"""Harvesting-relay capacity, cut-set oracle, and the four-level example."""

import itertools

import numpy as np
import pytest

import infoenergy as ie
from conftest import make_bsc
from infoenergy import capacity
from infoenergy.capacity import BA_TOL_BITS
from infoenergy.metrics import entropy_bits

LOG2_9_HALF = 0.5 * np.log2(9.0)


def random_relay_pairs(seed: int = 77, count: int = 40):
    """3-symbol discrete hop pairs: Dirichlet(0.7) rows, costs and energies
    U[0, 2], P1 uniform between the cheapest and dearest hop-1 cost, and
    P2 ~ U[0, 0.5]."""
    rng = np.random.default_rng(seed)
    levels = ie.Alphabet(np.arange(3.0))
    for _ in range(count):
        W1, W2 = rng.dirichlet(0.7 * np.ones(3), size=(2, 3))
        c1, c2, b = rng.uniform(0.0, 2.0, size=(3, 3))
        p1 = rng.uniform(c1.min(), c1.max())
        p2 = rng.uniform(0.0, 0.5)
        yield ie.MhcProblem(ie.DmChannel.point_to_point(levels, levels, W1),
                            ie.DmChannel.point_to_point(levels, levels, W2),
                            ie.CostFn(c1), ie.CostFn(c2), ie.EnergyFn(b), p1, p2)


def make_dm_dm_instance(kind: str) -> ie.MhcProblem:
    """Small two-hop instances whose optima sit on both search lattices."""
    bsc1 = make_bsc(0.05)
    bsc2 = make_bsc(0.11)
    free = ie.CostFn([0.0, 0.0])
    if kind == "no-harvest":
        return ie.MhcProblem(bsc1, bsc2, free, free, ie.EnergyFn([0.0, 0.0]), 1.0, 1.0)
    if kind == "constant-harvest":
        return ie.MhcProblem(bsc1, bsc2, free, free, ie.EnergyFn([0.7, 0.7]), 1.0, 1.0)
    if kind == "first-hop-bottleneck":
        # Second hop is clean; min always hits the first hop at uniform.
        clean = make_bsc(1e-3)
        return ie.MhcProblem(make_bsc(0.2), clean, free, free,
                             ie.EnergyFn([0.5, 0.5]), 1.0, 1.0)
    if kind == "second-hop-bottleneck":
        # First hop noiseless, so the value is set by the harvested budget;
        # the budget-maximizing input is a vertex of the grid.
        noiseless = ie.DmChannel.noiseless(ie.Alphabet([0.0, 1.0]))
        return ie.MhcProblem(noiseless, make_bsc(0.4), free, free,
                             ie.EnergyFn([0.0, 1.0]), 1.0, 0.0)
    if kind == "cost-tight":
        # Hop-1 budget 0.5 on cost (0, 1): optimum at the tight (1/2, 1/2).
        noiseless = ie.DmChannel.noiseless(ie.Alphabet([0.0, 1.0]))
        return ie.MhcProblem(noiseless, make_bsc(0.11), ie.CostFn([0.0, 1.0]),
                             free, ie.EnergyFn([0.0, 1.0]), 0.5, 0.5)
    raise ValueError(kind)


def count_solves(monkeypatch):
    """Count mhc_capacity's hop-1 Blahut-Arimoto runs and its hop-2 solves.

    Both hops call multihop._ba; a call counts as hop 1 only while no
    _second_hop_capacity call is running.  counts["log"] lists each solve in
    the order it returned: ("hop1", gain, I in bits) or ("hop2", budget, C2)."""
    from infoenergy import multihop

    counts = {"hop1": 0, "hop2": 0, "log": []}
    in_hop2 = False
    real_ba, real_hop2 = multihop._ba, multihop._second_hop_capacity

    def ba(W, cost, budget, gain=0.0, *args, **kwargs):
        hop1 = not in_hop2
        counts["hop1"] += hop1
        out = real_ba(W, cost, budget, gain, *args, **kwargs)
        if hop1:
            counts["log"].append(("hop1", gain, out[1]))
        return out

    def hop2(prob, budget):
        nonlocal in_hop2
        counts["hop2"] += 1
        in_hop2 = True
        try:
            out = real_hop2(prob, budget)
        finally:
            in_hop2 = False
        counts["log"].append(("hop2", budget, out[0]))
        return out

    monkeypatch.setattr(multihop, "_ba", ba)
    monkeypatch.setattr(multihop, "_second_hop_capacity", hop2)
    return counts


def trickle_pair() -> ie.MhcProblem:
    """A clean first hop that harvests little, so the relay budget sets the rate."""
    levels = ie.Alphabet(np.arange(3.0))
    eye = np.eye(3)
    hop1 = ie.DmChannel.point_to_point(levels, levels, 0.94 * eye + 0.02)
    hop2 = ie.DmChannel.point_to_point(levels, levels, 0.9 * eye + 1 / 30)
    return ie.MhcProblem(hop1, hop2, ie.CostFn([0.0, 0.5, 1.0]), ie.CostFn([0.0, 1.0, 2.0]),
                         ie.EnergyFn([0.0, 0.2, 0.5]), 0.8, 0.1)


def stalled_relay(hop1, c1, c2, b, p1) -> ie.MhcProblem:
    """hop1 in front of a hop 2 whose Blahut-Arimoto run stalls at
    BA_MAX_ITER with a 1.1e-6 gap (C = 0.46978135 with no cost), P2 = 0."""
    levels = ie.Alphabet(np.arange(3.0))
    W2 = np.array([[1 / 3, 1 / 3, 1 / 3], [0.0, 0.0, 1.0], [0.0, 1e-7, 1 - 1e-7]])
    return ie.MhcProblem(hop1, ie.DmChannel.point_to_point(levels, levels, W2),
                         ie.CostFn(c1), None if c2 is None else ie.CostFn(c2),
                         ie.EnergyFn(b), p1, 0.0)


DM_DM_KINDS = ["no-harvest", "constant-harvest", "first-hop-bottleneck",
               "second-hop-bottleneck", "cost-tight"]


class TestMhcCapacity:
    def test_no_harvest_baseline(self):
        prob = ie.example_problem(4.0, 8.0, 1.0, energy_off=True)
        sol = ie.mhc_capacity(prob)
        assert sol.capacity_bits == pytest.approx(min(2.0, LOG2_9_HALF), abs=1e-9)
        assert sol.harvested_budget == pytest.approx(8.0)

    def test_first_hop_bottleneck(self):
        # Huge clean second hop: capacity equals the hop-1 constrained value.
        hop1 = make_bsc(0.11)
        hop2 = ie.DmChannel.noiseless(ie.Alphabet(list(range(8))))
        prob = ie.MhcProblem(hop1, hop2, ie.CostFn([0.0, 0.0]),
                             ie.CostFn(np.zeros(8)), ie.EnergyFn([1.0, 1.0]),
                             1.0, 0.0)
        sol = ie.mhc_capacity(prob)
        want = ie.dm_capacity_with_cost(hop1, ie.CostFn([0.0, 0.0]), 1.0)
        assert sol.capacity_bits == pytest.approx(want.capacity_bits, abs=1e-9)

    def test_dead_second_hop(self):
        hop1 = make_bsc(0.05)
        dead = ie.DmChannel.point_to_point(
            ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0]), [[1, 0], [1, 0]])
        prob = ie.MhcProblem(hop1, dead, ie.CostFn([0, 0]), ie.CostFn([0, 0]),
                             ie.EnergyFn([1.0, 1.0]), 1.0, 5.0)
        sol = ie.mhc_capacity(prob)
        assert sol.capacity_bits == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_first_hop_budget(self):
        hop1 = ie.DmChannel.noiseless(ie.Alphabet([-2.0, -1.0, 1.0, 2.0]))
        prob = ie.MhcProblem(hop1, ie.AwgnSpec(1.0), ie.CostFn([4, 1, 1, 4]),
                             None, ie.EnergyFn([4, 1, 1, 4]), 0.5, 0.0)
        with pytest.raises(ie.InfeasibleError):
            ie.mhc_capacity(prob)

    @pytest.mark.parametrize("p1, feasible", [(1.0 - 5e-10, False), (1.0 - 2e-12, False),
                                              (1.0 - 5e-13, True)])
    def test_one_budget_rule_for_solver_search_and_oracle(self, p1, feasible):
        """The capacity solver, the relay search and the cut-set oracle read a
        hop-1 budget alike: infeasible more than 1e-12 below the cheapest cost,
        pinned to the cheapest symbol within it."""
        hop1 = ie.DmChannel.point_to_point(ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0]),
                                           [[0.9, 0.1], [0.2, 0.8]])
        c1 = ie.CostFn([1.0, 2.0])
        prob = ie.MhcProblem(hop1, make_bsc(0.11), c1, ie.CostFn([0.0, 0.0]),
                             ie.EnergyFn([0.0, 1.0]), p1, 0.5)
        solves = (lambda: ie.dm_capacity_with_cost(hop1, c1, p1).capacity_bits,
                  lambda: ie.mhc_capacity(prob).capacity_bits,
                  lambda: ie.cutset_joint_oracle(prob, steps=11))
        for solve in solves:
            if feasible:
                assert solve() == pytest.approx(0.0, abs=1e-12)
            else:
                with pytest.raises(ie.InfeasibleError, match="below the cheapest symbol cost"):
                    solve()

    def test_rejects_non_finite_budgets(self):
        prob = make_dm_dm_instance("no-harvest")
        for p1, p2 in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                ie.MhcProblem(prob.hop1, prob.hop2, prob.c1, prob.c2, prob.b, p1, p2)

    @pytest.mark.parametrize("symbols, p1", [(6, 1.0), (6, 5.0), (12, 11.0)])
    def test_wide_first_hop_bounded_memory(self, symbols, p1):
        """Wide first hops take little memory, also under budgets that admit
        every symbol: a simplex grid over them needed hundreds of MiB."""
        import tracemalloc

        levels = ie.Alphabet(np.arange(float(symbols)))
        hop1 = ie.DmChannel.point_to_point(
            levels, levels, 0.9 * np.eye(symbols) + 0.1 / symbols)
        prob = ie.MhcProblem(hop1, ie.AwgnSpec(1.0), ie.CostFn(np.arange(float(symbols))),
                             None, ie.EnergyFn(np.arange(float(symbols))), p1, 0.5)
        tracemalloc.start()
        try:
            sol = ie.mhc_capacity(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert sol.input_pmf.probs @ np.arange(float(symbols)) <= p1 + 1e-9
        assert 0.0 < sol.capacity_bits <= ie.dm_capacity_with_cost(
            hop1, prob.c1, p1).capacity_bits + 1e-9
        assert sol.gap_bits <= BA_TOL_BITS

    @pytest.mark.parametrize("eps1, eps2, c1, c2, energy, p1, p2", [
        (0.85, 0.7, [0.0, 1.0, 4.0], [0.0, 1.0, 4.0], [0.0, 1.0, 4.0], 1.5, 0.2),
        (0.94, 0.9, [0.0, 0.5, 1.0], [0.0, 1.0, 2.0], [0.0, 0.2, 0.5], 0.8, 0.1),
    ])
    def test_each_relay_budget_solved_once(self, monkeypatch, eps1, eps2, c1, c2,
                                           energy, p1, p2):
        """Noisy 3-symbol identity hops on which a later stage meets an
        earlier stage's budget again (hop 2 binds on the first)."""
        from infoenergy import multihop

        budgets = []
        real = multihop._second_hop_capacity

        def recording(prob, budget):
            budgets.append(budget)
            return real(prob, budget)

        monkeypatch.setattr(multihop, "_second_hop_capacity", recording)
        levels = ie.Alphabet(np.arange(3.0))
        eye = np.eye(3)
        hop1 = ie.DmChannel.point_to_point(levels, levels, eps1 * eye + (1 - eps1) / 3)
        hop2 = ie.DmChannel.point_to_point(levels, levels, eps2 * eye + (1 - eps2) / 3)
        prob = ie.MhcProblem(hop1, hop2, ie.CostFn(c1), ie.CostFn(c2),
                             ie.EnergyFn(energy), p1, p2)
        sol = ie.mhc_capacity(prob)
        assert len(budgets) == len(set(budgets)), budgets
        assert sol.harvested_budget in budgets
        cap, relay, _ = real(prob, sol.harvested_budget)
        assert np.array_equal(relay.probs, sol.relay_pmf.probs)
        assert sol.capacity_bits <= cap

    def test_matches_scalar_example_solver(self):
        for n0 in (0.1, 1.0, 4.0, 16.0):
            sol = ie.mhc_capacity(ie.example_problem(4.0, 0.0, n0))
            want, _ = ie.mhc_example_capacity(4.0, 0.0, n0)
            assert sol.capacity_bits == pytest.approx(want, abs=2e-3)

    def test_monotone_in_budgets_and_energy(self):
        """More first-hop power, relay supply, or harvest never hurts.

        Each solve is certified only to within its gap_bits, but here the
        harvest is proportional to the hop-1 cost, so the cost tilt absorbs
        every multiplier and every comparison holds to 1e-12.
        """
        base = ie.example_problem(2.0, 0.5, 1.0)
        cap = ie.mhc_capacity(base).capacity_bits
        more_p1 = ie.example_problem(3.0, 0.5, 1.0)
        more_p2 = ie.example_problem(2.0, 1.5, 1.0)
        assert ie.mhc_capacity(more_p1).capacity_bits >= cap - 1e-12
        assert ie.mhc_capacity(more_p2).capacity_bits >= cap - 1e-12
        boosted = ie.MhcProblem(base.hop1, base.hop2, base.c1, None,
                                ie.EnergyFn(base.b.values * 2.0),
                                base.p1_budget, base.p2_budget)
        assert ie.mhc_capacity(boosted).capacity_bits >= cap - 1e-12

    def test_sandwich_bounds(self):
        prob = make_dm_dm_instance("constant-harvest")
        sol = ie.mhc_capacity(prob)
        hop1_cap = ie.dm_capacity_with_cost(prob.hop1, prob.c1, prob.p1_budget)
        assert sol.capacity_bits <= hop1_cap.capacity_bits + 1e-9
        hop2_cap = ie.dm_capacity_with_cost(
            prob.hop2, prob.c2, prob.p2_budget + float(prob.b.values.max()))
        assert sol.capacity_bits <= hop2_cap.capacity_bits + 1e-9

    def test_trickle_pair_reaches_the_frontier_crossing(self, monkeypatch):
        """A clean first hop that harvests little, so the relay budget sets
        the rate; a 65-step grid with one ladder stopped 1.7e-4 bits short,
        and the bisection of mu took 21 hop-1 solves."""
        prob = trickle_pair()
        hop1, hop2 = prob.hop1, prob.hop2
        counts = count_solves(monkeypatch)
        sol = ie.mhc_capacity(prob)
        assert counts["hop1"] <= 12
        assert sol.capacity_bits >= 0.9185394 - BA_TOL_BITS
        assert sol.gap_bits <= BA_TOL_BITS
        i1 = ie.mutual_information(sol.input_pmf, hop1)
        i2 = ie.mutual_information(sol.relay_pmf, hop2)
        assert sol.capacity_bits == pytest.approx(min(i1, i2), abs=1e-12)
        assert sol.relay_pmf.probs @ [0.0, 1.0, 2.0] <= sol.harvested_budget + 1e-12

    @staticmethod
    def widen_hop2_gaps(monkeypatch, widen):
        from infoenergy import multihop

        real = multihop._second_hop_capacity

        def widened(prob, budget):
            bits, relay_pmf, gap = real(prob, budget)
            return bits, relay_pmf, gap + widen

        monkeypatch.setattr(multihop, "_second_hop_capacity", widened)

    def test_gap_counts_the_second_hop_solves_gaps(self, monkeypatch):
        """On this pair a hop-2 cap is the least cap, so widening every hop-2
        solve's dual gap widens gap_bits as much and leaves the search as it was."""
        prob = next(random_relay_pairs())
        sol = ie.mhc_capacity(prob)
        widen = 5e-8
        self.widen_hop2_gaps(monkeypatch, widen)
        loose = ie.mhc_capacity(prob)
        assert (loose.capacity_bits, loose.harvested_budget) == (
            sol.capacity_bits, sol.harvested_budget)
        assert np.array_equal(loose.input_pmf.probs, sol.input_pmf.probs)
        assert loose.gap_bits == pytest.approx(sol.gap_bits + widen, rel=0, abs=1e-15)

    def test_widened_second_hop_gaps_keep_the_search_running(self, monkeypatch):
        """Hop-2 gaps 5e-8 wider than the solves' own keep every cap above
        the best rate for longer.  With solves stopped at BA_TOL_BITS rather
        than a quarter of it, pair 20 ends its doubling at the largest
        harvest with gap_bits 1.46e-7; without that stop too, pairs 20, 27
        and 36 doubled mu to 2**17-2**54, where Blahut-Arimoto raised
        "objective decreased"."""
        self.widen_hop2_gaps(monkeypatch, 5e-8)
        for prob in random_relay_pairs():
            assert ie.mhc_capacity(prob).gap_bits <= BA_TOL_BITS

    @pytest.mark.parametrize("n, b, solves", [(2, [0.0, 0.0], (1, 1)),
                                              (3, [0.0, 64.0, 64.0], (1, 2)),
                                              (2, [0.0, 1.0], (1, 2))])
    def test_stalled_second_hop_ends_the_search(self, monkeypatch, n, b, solves):
        """Blahut-Arimoto stops this hop 2 at BA_MAX_ITER with a 1.1e-6 gap,
        so no C2 cap closes, and hop 2 binds at every harvest.  With no
        harvest to buy the search ends at once.  Otherwise hop 2 costs
        nothing, so C2 at the largest harvest is the rate p_0 already
        reaches and only that solve's gap is left.  The search stops there:
        on b = (0, 1) the Illinois steps used to run until lo and hi met in
        floats, 12 hop-1 and 13 hop-2 solves for the rate and gap_bits of
        the first 1 and 2.  With neither the value stop nor the harvest stop
        mu doubled 200 times, each time with a 20,000-update hop-2 solve."""
        monkeypatch.setattr(capacity, "BA_MAX_ITER", 2000)  # stalls as at 20,000
        prob = stalled_relay(ie.DmChannel.noiseless(ie.Alphabet(np.arange(float(n)))),
                             np.zeros(n), None, b, 1.0)
        counts = count_solves(monkeypatch)
        sol = ie.mhc_capacity(prob)
        assert (counts["hop1"], counts["hop2"]) == solves
        assert sol.capacity_bits == pytest.approx(0.46978135, abs=1e-8)
        assert 10 * BA_TOL_BITS < sol.gap_bits < 2e-6

    def test_stalled_second_hop_stops_at_a_mixed_largest_harvest(self, monkeypatch):
        """The largest harvest within c1 = (0, 1, 4), P1 = 1.5 mixes symbols
        0 and 2 (0.375*64 = 24).  Hop 2 now costs (0, 100, 100), so C2 rises
        with the harvest and the rate reaches no cap's value; the doubling
        ends once p_mu harvests all it can.  Without that stop mu doubled
        48 times and Blahut-Arimoto raised "objective decreased"."""
        monkeypatch.setattr(capacity, "BA_MAX_ITER", 2000)  # stalls as at 20,000
        prob = stalled_relay(ie.DmChannel.noiseless(ie.Alphabet(np.arange(3.0))),
                             [0.0, 1.0, 4.0], [0.0, 100.0, 100.0], [0.0, 1.0, 64.0], 1.5)
        counts = count_solves(monkeypatch)
        sol = ie.mhc_capacity(prob)
        assert counts["hop2"] <= 5
        assert sol.harvested_budget == pytest.approx(24.0, abs=1e-9)
        assert 10 * BA_TOL_BITS < sol.gap_bits < 2e-6

    def test_at_least_the_cutset_grid_on_random_pairs(self, monkeypatch):
        """The grid scan fell 3.0e-5 bits below the joint grid on one of these;
        the bisection of mu took 191 hop-1 and 213 hop-2 solves."""
        counts = count_solves(monkeypatch)
        for prob in random_relay_pairs():
            sol = ie.mhc_capacity(prob)
            assert sol.capacity_bits >= ie.cutset_joint_oracle(prob, steps=21)
            assert sol.gap_bits <= BA_TOL_BITS
            assert sol.input_pmf.probs @ prob.c1.values <= prob.p1_budget
            harvest = sol.input_pmf.probs @ (prob.hop1.transition @ prob.b.values)
            assert harvest + prob.p2_budget == sol.harvested_budget
        assert counts["hop1"] <= 110 and counts["hop2"] <= 140

    def test_bracket_starts_from_f_at_zero(self, monkeypatch):
        """On pair 5 hop 2 binds at mu = 0 (I = 0.4214, C2 = 0) and the solve
        at the largest harvest gives C2 = 0.5739.  The search used to start
        its bracket from I(p_0) minus that C2, of the wrong sign, so its step
        after mu = 1 fell back to the midpoint 0.5; regula falsi from f(0)
        and f(1) gives 0.5253."""
        prob = list(random_relay_pairs())[5]
        counts = count_solves(monkeypatch)
        ie.mhc_capacity(prob)
        log = counts["log"]
        shifted = capacity.LN2 * (prob.hop1.transition @ prob.b.values)
        shifted -= shifted.max()
        k = np.argmin(shifted)
        # Each hop-1 solve (gain mu*shifted) is followed by the hop-2 solve
        # at its harvest.
        steps = [(gain[k] / shifted[k], bits - log[i + 1][2])
                 for i, (hop, gain, bits) in enumerate(log) if hop == "hop1"]
        (mu0, f0), (mu1, f1), (mu2, _) = steps[:3]
        assert (mu0, mu1) == (0.0, 1.0)
        assert f0 == pytest.approx(0.42141, abs=1e-5) and f1 < 0
        assert mu2 == pytest.approx((mu0 * f1 - mu1 * f0) / (f1 - f0), rel=1e-12)
        assert mu2 == pytest.approx(0.5253, abs=1e-4)

    def test_relabelling_first_hop_inputs(self):
        """Permuting hop 1's input symbols, with their costs, moves nothing
        but rounding."""
        for prob in random_relay_pairs(count=15):
            want = ie.mhc_capacity(prob).capacity_bits
            for order in itertools.islice(itertools.permutations(range(3)), 1, None):
                order = list(order)  # the five orders besides the identity
                hop1 = ie.DmChannel.point_to_point(
                    prob.hop1.input_alphabets[0], prob.hop1.output_alphabet,
                    prob.hop1.transition[order])
                relabelled = ie.MhcProblem(hop1, prob.hop2, ie.CostFn(prob.c1.values[order]),
                                           prob.c2, prob.b, prob.p1_budget, prob.p2_budget)
                got = ie.mhc_capacity(relabelled).capacity_bits
                assert got == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("p1, n0", [(0.3, 1.0), (1.0, 4.0), (0.6, 2.0), (1.0, 30.0),
                                        (0.5, 8.0)])
    def test_certified_bound_covers_a_dense_scan(self, p1, n0):
        """A binary first hop and a Gaussian second hop: the max-min over
        200,001 first-hop pmfs is at most capacity_bits + gap_bits.  Hop 1
        binds at (0.3, 1.0), hop 2 at the largest harvest at (0.5, 8.0), and
        the others balance the hops inside the cost budget."""
        hop1 = ie.DmChannel.point_to_point(
            ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0]), [[0.9, 0.1], [0.25, 0.75]])
        beta = hop1.transition @ np.array([0.2, 2.0])
        prob = ie.MhcProblem(hop1, ie.AwgnSpec(n0), ie.CostFn([0.0, 1.0]), None,
                             ie.EnergyFn([0.2, 2.0]), p1, 0.1)
        sol = ie.mhc_capacity(prob)
        t = np.linspace(0.0, min(p1, 1.0), 200_001)  # the mass on the dear symbol
        pmfs = np.stack([1.0 - t, t], axis=1)
        i1 = entropy_bits(pmfs @ hop1.transition) - pmfs @ entropy_bits(hop1.transition)
        scan = np.minimum(i1, ie.awgn_capacity(pmfs @ beta + 0.1, n0)).max()
        assert scan <= sol.capacity_bits + sol.gap_bits + 1e-12
        assert sol.capacity_bits >= scan - 1e-6
        assert sol.gap_bits <= BA_TOL_BITS


class TestCutsetOracle:
    @pytest.mark.parametrize("kind", DM_DM_KINDS)
    def test_nested_solver_attains_cutset(self, kind):
        prob = make_dm_dm_instance(kind)
        nested = ie.mhc_capacity(prob).capacity_bits
        cutset = ie.cutset_joint_oracle(prob, steps=21)
        assert nested == pytest.approx(cutset, abs=1e-3)

    def test_example_instance_within_grid_tolerance(self):
        prob = ie.example_problem(4.0, 0.0, 4.0)
        nested = ie.mhc_capacity(prob).capacity_bits
        cutset = ie.cutset_joint_oracle(prob, steps=21)
        assert nested == pytest.approx(cutset, abs=0.05)

    @pytest.mark.parametrize("n1", [2, 3])
    @pytest.mark.parametrize("n0", [0.05, 1.0, 10.0])
    def test_gaussian_hop_behind_noisy_first_hop(self, n1, n0):
        """The nested solver reaches the coarser joint grid's value, and its
        reported pmf, budget and capacity are consistent with one another."""
        levels = ie.Alphabet(np.arange(float(n1)))
        W1 = 0.8 * np.eye(n1) + 0.2 / n1
        squares = np.arange(float(n1)) ** 2
        prob = ie.MhcProblem(ie.DmChannel.point_to_point(levels, levels, W1),
                             ie.AwgnSpec(n0), ie.CostFn(squares), None,
                             ie.EnergyFn(squares), 1.5, 0.2)
        sol = ie.mhc_capacity(prob)
        cutset = ie.cutset_joint_oracle(prob, steps=21)
        assert cutset - 1e-9 <= sol.capacity_bits <= cutset + 1e-2
        p = sol.input_pmf.probs
        assert p @ squares <= 1.5 + 1e-9
        assert sol.harvested_budget == pytest.approx(p @ W1 @ squares + 0.2, abs=1e-12)
        i1 = ie.mutual_information(sol.input_pmf, prob.hop1)
        want = min(i1, ie.awgn_capacity(sol.harvested_budget, n0))
        assert sol.capacity_bits == pytest.approx(want, abs=1e-12)
        assert sol.relay_pmf is None

    def test_decoupled_equals_separate_maxima(self):
        prob = make_dm_dm_instance("no-harvest")
        got = ie.cutset_joint_oracle(prob, steps=21)
        m1 = ie.dm_capacity_with_cost(prob.hop1).capacity_bits
        m2 = ie.dm_capacity_with_cost(prob.hop2).capacity_bits
        assert got == pytest.approx(min(m1, m2), abs=1e-3)

    def test_zero_capacity_second_hop(self):
        dead = ie.DmChannel.point_to_point(
            ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0]), [[1, 0], [1, 0]])
        prob = ie.MhcProblem(make_bsc(0.05), dead, ie.CostFn([0, 0]),
                             ie.CostFn([0, 0]), ie.EnergyFn([1, 1]), 1.0, 1.0)
        assert ie.cutset_joint_oracle(prob, steps=11) == pytest.approx(0.0, abs=1e-12)

    def test_relay_budget_below_every_second_hop_cost(self):
        # The relay can afford no hop-2 symbol, so it carries 0 bits.
        hop = make_bsc(0.1)
        prob = ie.MhcProblem(hop, hop, ie.CostFn([0, 0]), ie.CostFn([1, 2]),
                             ie.EnergyFn([0, 0]), 0.0, 0.5)
        assert ie.mhc_capacity(prob).capacity_bits == 0.0
        assert ie.cutset_joint_oracle(prob, steps=11) == 0.0

    def test_size_guard(self):
        prob = make_dm_dm_instance("no-harvest")
        with pytest.raises(ValueError):
            ie.cutset_joint_oracle(prob, steps=22)


class TestExampleCapacity:
    def test_high_snr_information_transfer(self):
        cap, p_star = ie.mhc_example_capacity(4.0, 0.0, 0.001)
        assert cap == pytest.approx(2.0, abs=1e-3)
        assert p_star == pytest.approx(0.25, abs=1e-3)

    def test_low_snr_energy_transfer(self):
        cap, p_star = ie.mhc_example_capacity(4.0, 0.0, 100.0)
        assert p_star == pytest.approx(0.5, abs=1e-3)
        assert cap == pytest.approx(0.5 * np.log2(1 + 4.0 / 100.0), abs=1e-4)

    def test_first_term_dominates_at_quarter(self):
        # Second hop good enough that the entropy term is the binding one.
        cap, p_star = ie.mhc_example_capacity(4.0, 0.0, 0.01)
        second = ie.awgn_capacity(0.25 * 6 + 1, 0.01)
        assert second > 2.0
        assert cap == pytest.approx(2.0, abs=1e-3)

    def test_budget_restricts_p(self):
        # P1 = 2.5 caps p at (P1-1)/6 = 0.25, where the hop capacity binds.
        _, p_star = ie.mhc_example_capacity(2.5, 0.0, 100.0)
        assert p_star == pytest.approx(0.25, abs=1e-4)
        assert p_star <= 0.25

    def test_infeasible_budget(self):
        with pytest.raises(ie.InfeasibleError):
            ie.mhc_example_capacity(0.5, 0.0, 1.0)

    def test_rejects_non_finite_parameters(self):
        for args in ((np.nan, 0.0, 1.0), (np.inf, 0.0, 1.0), (4.0, np.nan, 1.0),
                     (4.0, np.inf, 1.0), (4.0, 0.0, np.nan), (4.0, 0.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                ie.mhc_example_capacity(*args)

    def test_interior_crossing_balances_both_terms(self):
        # At N0 = 0.5 the hop capacity at p = 1/4 falls short of H4 = 2 and
        # exceeds H4 at p = 1/2, so the optimum is the crossing in between.
        cap, p_star = ie.mhc_example_capacity(4.0, 0.0, 0.5)
        first = float(ie.symmetric_input_entropy(p_star))
        second = ie.awgn_capacity(6 * p_star + 1, 0.5)
        assert 0.25 < p_star < 0.5
        assert first == pytest.approx(second, abs=1e-9)
        assert cap == pytest.approx(min(first, second), abs=1e-12)

    def test_matches_scalar_scan_oracle(self):
        """Plain dense scan (no refinement, no tie logic) as reference."""
        for n0 in (0.05, 0.5, 2.0, 20.0):
            ps = np.linspace(0.0, 0.5, 20001)
            first = ie.symmetric_input_entropy(ps)
            second = 0.5 * np.log2(1 + (6 * ps + 1) / n0)
            want = float(np.minimum(first, second).max())
            got, _ = ie.mhc_example_capacity(4.0, 0.0, n0)
            assert got == pytest.approx(want, abs=1e-4)

    def test_harvesting_beats_no_harvest_baseline(self):
        """Free energy at the relay can only raise the rate."""
        for p2 in (0.0, 1.0, 4.0):
            for n0 in (0.1, 1.0, 10.0):
                cap, _ = ie.mhc_example_capacity(4.0, p2, n0)
                baseline = min(2.0, ie.awgn_capacity(p2, n0))
                assert cap >= baseline - 2e-6


class TestSnrSweep:
    def test_endpoints_and_monotone_p(self):
        rows = ie.relay_snr_sweep(4.0, 0.0, np.linspace(-20, 60, 81))
        ps = [r.p_star for r in rows]
        assert ps[0] == pytest.approx(0.5, abs=1e-9)
        assert ps[-1] == pytest.approx(0.25, abs=1e-3)
        assert rows[-1].capacity_bits == pytest.approx(2.0, abs=1e-3)
        assert all(b <= a + 1e-12 for a, b in zip(ps, ps[1:]))

    def test_snr_to_noise_mapping(self):
        rows = ie.relay_snr_sweep(4.0, 0.0, [0.0, 10.0])
        assert rows[0].n0 == pytest.approx(1.0)
        assert rows[1].n0 == pytest.approx(0.5)
        rows10 = ie.relay_snr_sweep(4.0, 0.0, [10.0], snr_log10=True)
        assert rows10[0].n0 == pytest.approx(0.1)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            ie.relay_snr_sweep(4.0, 0.0, [10.0, 0.0])
