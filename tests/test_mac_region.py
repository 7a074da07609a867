"""Two-sender region boundary solver, grid oracle, and Gaussian example."""

import dataclasses
import os
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest

import infoenergy as ie
from conftest import (cooperative_ceiling, make_adder_problem, make_random_mac_instance,
                      q2_oracle_rate)
from infoenergy import mac_region as mr
from infoenergy.capacity import BUDGET_TOL
from infoenergy.metrics import entropy_bits

EQ6_P1 = 0.5 * np.log2(3.0)  # unconstrained sum rate at P = 1
ACCEPTANCE_SEEDS = (2024, 2025, 2026, 2027, 2028)


def itertools_simplex_grid(dim, steps):
    """The stars-and-bars construction: one row per placement of dim-1 bars."""
    if dim == 1:
        return np.ones((1, 1))
    t = steps - 1
    bars = np.array(list(combinations(range(t + dim - 1), dim - 1)), dtype=float)
    padded = np.hstack([np.full((len(bars), 1), -1.0), bars,
                        np.full((len(bars), 1), float(t + dim - 1))])
    return (np.diff(padded, axis=1) - 1.0) / t


class TestSimplexGrid:
    def test_bytes_match_itertools_construction(self):
        cases = [(dim, steps) for dim in range(1, 6) for steps in range(2, 16)]
        cases += [(2, 257), (3, 76), (3, 65), (4, 25), (5, 21), (6, 9)]
        for dim, steps in cases:
            got, want = ie.simplex_grid(dim, steps), itertools_simplex_grid(dim, steps)
            assert got.shape == want.shape and got.dtype == want.dtype, (dim, steps)
            assert got.tobytes() == want.tobytes(), (dim, steps)

    def test_cached_read_only(self):
        grid = ie.simplex_grid(3, 5)
        assert grid is ie.simplex_grid(3, 5)
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            ie.simplex_grid(0, 5)
        with pytest.raises(ValueError):
            ie.simplex_grid(2, 1)


class TestMaxReceivedEnergy:
    def test_adder(self):
        val, p1, p2 = ie.max_received_energy(make_adder_problem())
        assert val == pytest.approx(2.0)
        np.testing.assert_allclose(p1, [0, 1])
        np.testing.assert_allclose(p2, [0, 1])

    def test_cost_budget_vertices(self):
        # Budget 0.5 on cost (0, 1): mixtures up to weight 1/2 on symbol 1.
        prob = make_adder_problem()
        prob = ie.MacProblem(prob.channel, ie.CostFn([0.0, 1.0]),
                             ie.CostFn([0.0, 1.0]), prob.b, 0.5, 0.5, 0.0)
        val, p1, p2 = ie.max_received_energy(prob)
        assert val == pytest.approx(1.0)
        np.testing.assert_allclose(sorted(p1), [0.5, 0.5])

    @staticmethod
    def costly_adder(p1_budget):
        """The adder with c1 = (1, 2), c2 = 0 and b(y) = y."""
        prob = make_adder_problem()
        return ie.MacProblem(prob.channel, ie.CostFn([1.0, 2.0]), prob.c2, prob.b,
                             p1_budget, 0.0)

    def test_budget_read_by_the_capacity_rule(self):
        """Within 1e-12 above the cheapest cost the budget pins sender 1 to
        its cheap symbol, as dm_capacity_with_cost does; above that it buys
        mass on the dear one."""
        at_floor = ie.max_received_energy(self.costly_adder(1.0))
        pinned = ie.max_received_energy(self.costly_adder(1.0 + 5e-13))
        assert pinned[0] == at_floor[0] == 1.0
        assert np.array_equal(pinned[1], [1.0, 0.0])
        val, p1, _ = ie.max_received_energy(self.costly_adder(1.0 + 1e-9))
        assert val == pytest.approx(1.000000001, rel=0, abs=1e-15)
        assert p1 @ [1.0, 2.0] == pytest.approx(1.0 + 1e-9, rel=0, abs=1e-15)

    def test_budget_below_the_cheapest_cost(self):
        prob = self.costly_adder(1.0 - 5e-10)
        with pytest.raises(ie.InfeasibleError, match="below the cheapest symbol cost"):
            ie.max_received_energy(prob)
        res = ie.mac_boundary_point(prob, 1.0, 1.0)
        assert not res.feasible
        assert res.reason == "budget 0.9999999995 is below the cheapest symbol cost 1.0"

    def test_matches_dense_grid(self):
        for seed in (1, 2, 3):
            prob = make_random_mac_instance(seed)
            val, _, _ = ie.max_received_energy(prob)
            grid = ie.simplex_grid(2, 101)
            m = np.einsum("ijy,y->ij", prob.channel.transition, prob.b.values)
            dense = float((grid @ m @ grid.T).max())
            assert val >= dense - 1e-9
            assert val <= dense + 0.02  # binary grid pitch bound


class TestMacBoundaryPoint:
    def test_adder_unconstrained_sum_rate(self):
        res = ie.mac_boundary_point(make_adder_problem(0.0), 1.0, 1.0, q_size=1)
        assert res.feasible
        assert res.weighted_rate == pytest.approx(1.5, abs=1e-6)
        t = res.triple
        assert t.r1 + t.r2 == pytest.approx(1.5, abs=1e-6)

    def test_adder_full_energy_point(self):
        res = ie.mac_boundary_point(make_adder_problem(2.0), 1.0, 1.0, q_size=2)
        assert res.feasible
        assert res.triple.r1 == pytest.approx(0.0, abs=1e-9)
        assert res.triple.r2 == pytest.approx(0.0, abs=1e-9)
        assert res.triple.b == pytest.approx(2.0)

    def test_infeasible_target(self):
        """Past Emax by more than BUDGET_TOL: the adder at 2.5, and each
        acceptance instance at Emax + 5e-10."""
        probs = [make_adder_problem(2.5)]
        for seed in ACCEPTANCE_SEEDS:
            prob = make_random_mac_instance(seed)
            probs.append(prob.with_target(ie.max_received_energy(prob)[0] + 5e-10))
        for prob in probs:
            res = ie.mac_boundary_point(prob, 1.0, 1.0)
            assert not res.feasible, prob.b_target
            assert "exceeds" in res.reason

    def test_returned_triple_feasible_for_policy(self):
        """The policy attains the triple and meets the floor within BUDGET_TOL:
        seed 5 at 0.8 Emax, and each acceptance instance just below Emax."""
        cases = [(5, 0.8, (1.0, 1.0))]
        cases += [(seed, 0.999999, w) for seed in ACCEPTANCE_SEEDS for w in SWEEP_WEIGHTS]
        for seed, frac, w in cases:
            prob = make_random_mac_instance(seed)
            b_target = frac * ie.max_received_energy(prob)[0]
            res = ie.mac_boundary_point(prob.with_target(b_target), *w)
            assert res.feasible
            i1, i2, i_sum, eby = ie.mac_mutual_informations(
                res.policy, prob.channel, prob.b)
            assert res.triple.r1 <= i1 + 1e-9
            assert res.triple.r2 <= i2 + 1e-9
            assert res.triple.r1 + res.triple.r2 <= i_sum + 1e-9
            assert eby >= b_target - BUDGET_TOL, (seed, w)

    def test_monotone_in_energy_target(self):
        prob = make_random_mac_instance(6)
        emax, _, _ = ie.max_received_energy(prob)
        vals = []
        for frac in np.linspace(0, 1, 6):
            res = ie.mac_boundary_point(prob.with_target(frac * emax), 1.0, 1.0,
                                        q_size=2)
            assert res.feasible
            vals.append(res.weighted_rate)
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-6

    def test_region_convexity_via_time_sharing(self):
        """Midpoints of boundary triples stay inside the region."""
        prob = make_adder_problem()
        ra = ie.mac_boundary_point(prob.with_target(1.0), 1.0, 1.0, q_size=2)
        rb = ie.mac_boundary_point(prob.with_target(1.8), 1.0, 1.0, q_size=2)
        pa, pb = ra.policy, rb.policy
        mixed = ie.TimeSharingPolicy(
            ie.Pmf(np.concatenate([0.5 * pa.q_pmf.probs, 0.5 * pb.q_pmf.probs])),
            pa.inputs + pb.inputs)
        i1, i2, i_sum, eby = ie.mac_mutual_informations(mixed, prob.channel, prob.b)
        mid = (0.5 * (ra.triple.r1 + rb.triple.r1),
               0.5 * (ra.triple.r2 + rb.triple.r2),
               0.5 * (ra.triple.b + rb.triple.b))
        assert mid[0] <= i1 + 1e-9
        assert mid[1] <= i2 + 1e-9
        assert mid[0] + mid[1] <= i_sum + 1e-9
        assert mid[2] <= eby + 1e-9

    def test_rejects_bad_arguments(self):
        prob = make_adder_problem()
        with pytest.raises(ValueError):
            ie.mac_boundary_point(prob, 0.0, 0.0)
        with pytest.raises(ValueError):
            ie.mac_boundary_point(prob, 1.0, 1.0, q_size=6)
        for w in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, -np.inf)):
            with pytest.raises(ValueError, match="finite"):
                ie.mac_boundary_point(prob, *w)
            with pytest.raises(ValueError, match="finite"):
                ie.mac_region_sweep(prob, [0.0], [w])
        for w in ((np.nan, 1.0), (np.inf, 1.0), (-1.0, 1.0), (0.0, 0.0)):
            with pytest.raises(ValueError, match="weights"):
                ie.brute_force_mac_oracle(prob, *w, q_size=1, steps=3)
        for field in ("p1_budget", "p2_budget", "b_target"):
            for bad in (np.nan, np.inf):
                args = {"p1_budget": 0.0, "p2_budget": 0.0, "b_target": 0.0, field: bad}
                with pytest.raises(ValueError, match="finite"):
                    ie.MacProblem(prob.channel, prob.c1, prob.c2, prob.b, **args)


class TestMacRegionSweep:
    def test_adder_sum_rates(self):
        prob = make_adder_problem()
        rows = ie.mac_region_sweep(prob, [0.0, 1.0, 2.0], [(1.0, 1.0)], q_size=2)
        got = [r.r1 + r.r2 for r in rows]
        assert got[0] == pytest.approx(1.5, abs=1e-6)
        assert got[1] == pytest.approx(1.5, abs=1e-6)
        assert got[2] == pytest.approx(0.0, abs=1e-9)

    def test_empty_grid(self):
        assert ie.mac_region_sweep(make_adder_problem(), [], [(1, 1)]) == []
        assert ie.mac_region_sweep(make_adder_problem(), [0.0, 1.0], []) == []

    def test_b_zero_matches_energy_free_problem(self):
        prob = make_random_mac_instance(8)
        free = ie.MacProblem(prob.channel, prob.c1, prob.c2,
                             ie.EnergyFn(np.zeros(3)), 0.0, 0.0, 0.0)
        r0 = ie.mac_boundary_point(prob.with_target(0.0), 1.0, 1.0, q_size=2)
        rf = ie.mac_boundary_point(free, 1.0, 1.0, q_size=2)
        assert r0.weighted_rate == pytest.approx(rf.weighted_rate, abs=1e-9)


SINGLE_USER = ((1.0, 0.0), (0.0, 1.0))
EXACT_TOL_BITS = 2e-7


def zero_cost_problem(W, b) -> ie.MacProblem:
    n1, n2, ny = W.shape
    ch = ie.DmChannel.mac(ie.Alphabet(np.arange(n1) * 1.0), ie.Alphabet(np.arange(n2) * 1.0),
                          ie.Alphabet(np.arange(ny) * 1.0), W)
    return ie.MacProblem(ch, ie.CostFn(np.zeros(n1)), ie.CostFn(np.zeros(n2)),
                         ie.EnergyFn(b), 0.0, 0.0)


def assert_certified(res, prob):
    """An exact single-user result: certified, at most two pairs, on the floor."""
    assert res.feasible and res.gap_bits is not None
    assert 0.0 <= res.gap_bits <= EXACT_TOL_BITS
    assert len(res.policy.inputs) <= 2
    eby = ie.mac_mutual_informations(res.policy, prob.channel, prob.b)[3]
    assert eby == res.triple.b >= prob.b_target - BUDGET_TOL


@pytest.fixture(scope="module")
def single_user_points():
    """(label, problem, w, exact result, q=2 oracle value, cooperative ceiling)
    on the adder and the acceptance instances at B in {0, 0.5, 0.9, 0.99}*Emax."""
    rows = []
    cases = [("adder", make_adder_problem())]
    cases += [(seed, make_random_mac_instance(seed)) for seed in ACCEPTANCE_SEEDS]
    for label, prob in cases:
        emax = ie.max_received_energy(prob)[0]
        for frac in (0.0, 0.5, 0.9, 0.99):
            p = prob.with_target(frac * emax)
            ceiling = cooperative_ceiling(p, p.b_target)
            for w in SINGLE_USER:
                rows.append((label, p, w, ie.mac_boundary_point(p, *w),
                             q2_oracle_rate(label, p.b_target, *w), ceiling))
    return rows


class TestExactSingleUser:
    """Single-user points with slack budgets: an energy-multiplier search
    over capacity._ba, certified within 2e-7 bits."""

    def test_between_the_oracle_and_the_cooperative_ceiling(self, single_user_points):
        for label, p, w, res, oracle, ceiling in single_user_points:
            assert_certified(res, p)
            assert oracle <= res.weighted_rate <= ceiling + 1e-12, (label, p.b_target, w)

    def test_mixture_beats_the_ascent_at_seed_2025(self, single_user_points):
        """At 0.9*Emax and w = (0,1) the optimum mixes two partner symbols'
        pairs; the coordinate ascent reaches 0.0875642 there."""
        res = next(res for label, p, w, res, *_ in single_user_points
                   if label == 2025 and w == (0.0, 1.0)
                   and p.b_target == 0.9 * ie.max_received_energy(p)[0])
        assert res.weighted_rate >= 0.0901424 - 1e-7
        assert len(res.policy.inputs) == 2

    def test_relabelled_inputs_give_the_same_rows(self):
        """The coordinate ascent's rows of this instance move by up to 2.4e-4
        bits under the same relabelling."""
        rng = np.random.default_rng(3)
        W, b = rng.dirichlet(np.ones(3), size=(3, 2)), rng.uniform(0.0, 2.0, size=3)
        prob = zero_cost_problem(W, b)
        emax = ie.max_received_energy(prob)[0]
        moved = zero_cost_problem(W[[2, 0, 1]][:, [1, 0]], b)
        for frac in (0.0, 0.5, 0.9, 0.99, 1.0):
            for w in SINGLE_USER:
                a = ie.mac_boundary_point(prob.with_target(frac * emax), *w)
                c = ie.mac_boundary_point(moved.with_target(frac * emax), *w)
                assert abs(a.weighted_rate - c.weighted_rate) <= 1e-9, (frac, w)

    def test_at_and_just_below_the_largest_energy(self):
        """The adder with b = (0, 1, 1): Emax = 1 leaves one sender free to
        carry a bit while the other sends 1, at B = Emax and at Emax - 1e-13,
        which the budget rule pins to the symbols of largest energy."""
        prob = zero_cost_problem(make_adder_problem().channel.transition, [0.0, 1.0, 1.0])
        assert ie.max_received_energy(prob)[0] == 1.0
        for b_target in (1.0, 1.0 - 1e-13):
            for w in SINGLE_USER:
                p = prob.with_target(b_target)
                res = ie.mac_boundary_point(p, *w)
                assert_certified(res, p)
                assert res.weighted_rate == pytest.approx(1.0, rel=0, abs=1e-12)
        rand = make_random_mac_instance(2026)
        emax = ie.max_received_energy(rand)[0]
        for b_target in (emax, emax - 1e-13):
            for w in SINGLE_USER:
                p = rand.with_target(b_target)
                res = ie.mac_boundary_point(p, *w)
                assert_certified(res, p)
                assert res.weighted_rate == pytest.approx(0.0, rel=0, abs=1e-12)

    def test_q_size_1_keeps_the_ascent(self):
        prob = make_random_mac_instance(2025)
        prob = prob.with_target(0.9 * ie.max_received_energy(prob)[0])
        res = ie.mac_boundary_point(prob, 0.0, 1.0, q_size=1)
        # The ascent's value at q_size=1, bit for bit as without the exact path.
        assert res.weighted_rate == float.fromhex("0x1.1d03abfaa2ebap-4")
        assert res.gap_bits is None
        assert ie.mac_boundary_point(prob, 1.0, 1.0).gap_bits is None

    def test_a_stalled_solve_stops_the_search(self, monkeypatch):
        """Given x2 = 0, sender 1 sees two nearly equal rows: every _ba run on
        that channel stops at BA_MAX_ITER with a dual gap near 8.85e-6 bits,
        so the certified bound never closes to 2e-7.  The search stops once
        its value reaches the least bound less the solves' gaps, and the
        distance it reports stays honest."""
        W = np.array([[[0.9901810875520852, 0.00981891244791467],
                       [0.3059451177998426, 0.6940548822001574]],
                      [[0.988750112472445, 0.01124988752755487],
                       [0.00104457168523213, 0.9989554283147678]]])
        b = np.array([1.6232461637516906, 0.21571048053284025])
        prob = zero_cost_problem(W, b)
        emax = ie.max_received_energy(prob)[0]
        # The points (I, E) of sender 1's binary pmfs on a grid, per x2.
        p = np.linspace(0.0, 1.0, 1001)[:, None] * [-1.0, 1.0] + [1.0, 0.0]
        info = np.concatenate([entropy_bits(p @ W[:, k]) - p @ entropy_bits(W[:, k])
                               for k in (0, 1)])
        energy = np.concatenate([p @ W[:, k] @ b for k in (0, 1)])
        runs, real_ba = [], mr._ba
        monkeypatch.setattr(mr, "_ba", lambda *a, **kw: runs.append(1) or real_ba(*a, **kw))
        for frac in (0.5, 0.9):
            runs.clear()
            res = ie.mac_boundary_point(prob.with_target(frac * emax), 1.0, 0.0)
            assert len(runs) <= 15, frac
            assert res.feasible and len(res.policy.inputs) <= 2
            assert EXACT_TOL_BITS < res.gap_bits < 1e-5, frac
            # The best mixture of two grid points meeting the floor, a lower
            # bound on the optimum, lies within the certified gap.
            lo, hi = energy < frac * emax, energy >= frac * emax
            lam = (frac * emax - energy[lo][:, None]) / (energy[hi] - energy[lo][:, None])
            grid = (info[lo][:, None] + lam * (info[hi] - info[lo][:, None])).max()
            assert res.weighted_rate - 1e-5 <= grid <= res.weighted_rate + res.gap_bits, frac

    def test_only_slack_budgets_take_the_exact_path(self):
        prob = make_random_mac_instance(2024)
        prob = prob.with_target(0.9 * ie.max_received_energy(prob)[0])
        free = ie.mac_boundary_point(prob, 1.0, 0.0)
        slack = problem_with(prob, [0.0, 1.0], [0.5, 0.2], 1.0, 0.5, prob.b_target)
        res = ie.mac_boundary_point(slack, 1.0, 0.0)
        assert res.gap_bits is not None and res.weighted_rate == free.weighted_rate
        binding = problem_with(prob, [0.0, 1.0], [0.5, 0.2], 0.5, 0.5, 0.0)
        binding = binding.with_target(0.5 * ie.max_received_energy(binding)[0])
        res = ie.mac_boundary_point(binding, 1.0, 0.0)
        assert res.feasible and res.gap_bits is None


SWEEP_WEIGHTS = ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def sweep_case(name):
    """(problem, B grid): the adder, and an acceptance instance with one infeasible B."""
    if name == "adder":
        return make_adder_problem(), [0.0, 1.0, 2.0]
    prob = make_random_mac_instance(2024)
    e_max = mr.max_received_energy(prob)[0]
    return prob, [0.0, 0.9 * e_max, e_max + 0.1]


def serial_sweep(prob, b_grid, weights, q_size):
    """Reference mac_region_sweep: a frozen copy of its one-point-at-a-time loop."""
    rows = []
    for bt in b_grid:
        for w1, w2 in weights:
            res = ie.mac_boundary_point(prob.with_target(bt), w1, w2, q_size)
            t = res.triple if res.feasible else mr.RateEnergyTriple(0.0, 0.0, 0.0)
            rows.append(mr.MacSweepRow(bt, w1, w2, res.feasible, t.r1, t.r2, t.b))
    return rows


@lru_cache(maxsize=None)
def serial_rows(name):
    return sweep_bytes(serial_sweep(*sweep_case(name), SWEEP_WEIGHTS, 2))


def sweep_bytes(rows) -> list:
    """Bytes of every field of every row, so -0.0 and NaN compare exactly."""
    return [[np.asarray(getattr(row, f.name)).tobytes() for f in dataclasses.fields(row)]
            for row in rows]


class TestSweepWorkers:
    """The sweep's points spread over 1-3 CPUs give the serial rows bit for bit
    and leave no child; every argument is checked before any fork."""

    @staticmethod
    def _workers(monkeypatch, count):
        """Show ``count`` CPUs; return the pids of the forks made."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        pids, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        return pids

    @staticmethod
    def _no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("name", ["adder", "acceptance"])
    def test_rows_match_the_serial_loop(self, name, count, monkeypatch):
        pids = self._workers(monkeypatch, count)
        prob, b_grid = sweep_case(name)
        rows = ie.mac_region_sweep(prob, b_grid, SWEEP_WEIGHTS, q_size=2)
        assert sweep_bytes(rows) == serial_rows(name)
        assert all(type(row.feasible) is bool for row in rows)
        assert len(pids) == count - 1
        self._no_child_left()

    def test_a_failed_fork_runs_its_share_in_process(self, monkeypatch):
        self._workers(monkeypatch, 3)

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        prob, b_grid = sweep_case("adder")
        rows = ie.mac_region_sweep(prob, b_grid, SWEEP_WEIGHTS, q_size=2)
        assert sweep_bytes(rows) == serial_rows("adder")

    @pytest.mark.parametrize("b_grid, weights, q_size", [
        ([0.0, 1.0], [(1.0, 1.0), (-1.0, 0.0)], 2),
        ([0.0, 1.0], [(1.0, 1.0), (1.0, np.nan)], 2),
        ([0.0, 1.0], [(0.0, 0.0)], 2),
        ([0.0, 1.0], [(1.0, 1.0)], 0),
        ([-1.0, 0.0], [(1.0, 1.0)], 2),
        ([0.0, np.inf], [(1.0, 1.0), (np.inf, 1.0)], 2),
    ])
    def test_bad_arguments_fork_no_worker(self, b_grid, weights, q_size, monkeypatch):
        """Each raises the ValueError of the serial loop, and before any point is solved."""
        prob = make_adder_problem()
        with pytest.raises(ValueError) as serial:
            serial_sweep(prob, b_grid, weights, q_size)
        pids = self._workers(monkeypatch, 3)
        monkeypatch.setattr(mr, "mac_boundary_point", None)  # calling it would raise TypeError
        with pytest.raises(ValueError) as swept:
            ie.mac_region_sweep(prob, b_grid, weights, q_size)
        assert str(swept.value) == str(serial.value)
        assert pids == []
        self._no_child_left()

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("refused", [(1,), (2,), (4, 5), (5, 7)])
    def test_a_failed_point_raises_the_serial_error(self, count, refused, monkeypatch):
        """Points 0-8 of the adder sweep; worker w of W solves points w, w + W, ..."""
        prob, b_grid = sweep_case("adder")
        points = [(bt, w) for bt in b_grid for w in SWEEP_WEIGHTS]
        solve = mr.mac_boundary_point

        def refusing(target, w1, w2, q_size):
            k = points.index((target.b_target, (w1, w2)))
            if k in refused:
                raise RuntimeError(f"point {k} refused")
            return solve(target, w1, w2, q_size)

        monkeypatch.setattr(mr, "mac_boundary_point", refusing)
        pids = self._workers(monkeypatch, count)
        with pytest.raises(RuntimeError, match=f"^point {refused[0]} refused$"):
            ie.mac_region_sweep(prob, b_grid, SWEEP_WEIGHTS, q_size=2)
        assert len(pids) == count - 1
        self._no_child_left()


class TestBruteForceOracle:
    def test_degenerate_channel(self):
        # Output ignores the inputs: no information, energy is fixed.
        W = np.tile([0.2, 0.5, 0.3], (2, 2, 1))
        ch = ie.DmChannel.mac(ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0]),
                              ie.Alphabet([0.0, 1.0, 2.0]), W)
        prob = ie.MacProblem(ch, ie.CostFn([0, 0]), ie.CostFn([0, 0]),
                             ie.EnergyFn([0.0, 1.0, 2.0]), 0.0, 0.0, 0.0)
        res = ie.brute_force_mac_oracle(prob, 1.0, 1.0, q_size=1, steps=11)
        assert res.weighted_rate == pytest.approx(0.0, abs=1e-9)
        assert res.triple.b == pytest.approx(1.1)

    def test_q1_equals_q4_on_convex_instance(self):
        # Unconstrained optimum already meets the energy target, so extra
        # time-sharing points cannot help.
        prob = make_adder_problem(1.0)
        v1 = ie.brute_force_mac_oracle(prob, 1.0, 1.0, q_size=1, steps=5)
        v4 = ie.brute_force_mac_oracle(prob, 1.0, 1.0, q_size=4, steps=5)
        assert v4.weighted_rate >= v1.weighted_rate - 1e-12
        assert v4.weighted_rate - v1.weighted_rate < 1e-9

    @pytest.mark.parametrize("q_size,steps", [(1, 11), (2, 6), (3, 4)])
    def test_matches_head_by_head_enumeration(self, q_size, steps):
        # Reference: every head on its own, in itertools order, accepted by
        # the same strict rule; the chunked oracle must pick the same policy.
        prob = make_ternary_cost_problem(1.2)
        inst = mr._Instance(prob, 1.0, 0.5)
        g1, g2 = mr.simplex_grid(3, steps), mr.simplex_grid(2, steps)
        T = np.stack([column_stats(inst, g1, p2) for p2 in g2], axis=2).reshape(6, -1)
        best_val, best = -np.inf, None
        for wq in mr.simplex_grid(q_size, steps):
            for head in product(range(T.shape[1]), repeat=q_size - 1):
                partial = np.zeros(6)
                for m, idx in enumerate(head):
                    partial = partial + wq[m] * T[:, idx]
                tot = partial[:, None] + wq[-1] * T
                feas = ((tot[4] <= prob.p1_budget + BUDGET_TOL)
                        & (tot[5] <= prob.p2_budget + BUDGET_TOL)
                        & (tot[3] >= prob.b_target - BUDGET_TOL))
                vals = np.where(feas, ref_corner_rates(*tot[:3], 1.0, 0.5), -np.inf)
                idx = int(np.argmax(vals))
                if vals[idx] > best_val + 1e-15:
                    best_val, best = float(vals[idx]), (wq, head + (idx,))
        wq, assignment = best
        want = mr._result_from_policy(prob, 1.0, 0.5, wq,
                                      g1[[i // len(g2) for i in assignment]],
                                      g2[[i % len(g2) for i in assignment]])
        got = ie.brute_force_mac_oracle(prob, 1.0, 0.5, q_size=q_size, steps=steps)
        assert got.weighted_rate == want.weighted_rate
        assert np.array_equal(got.policy.q_pmf.probs, want.policy.q_pmf.probs)
        for (a1, a2), (b1, b2) in zip(got.policy.inputs, want.policy.inputs):
            assert np.array_equal(a1.probs, b1.probs) and np.array_equal(a2.probs, b2.probs)

    def test_size_guard(self):
        prob = make_adder_problem()
        with pytest.raises(ValueError):
            ie.brute_force_mac_oracle(prob, 1.0, 1.0, q_size=1, steps=22)
        with pytest.raises(ValueError):
            ie.brute_force_mac_oracle(prob, 1.0, 1.0, q_size=4, steps=21)


def make_ternary_cost_problem(b_target: float) -> ie.MacProblem:
    """3-symbol X1, binary X2, noisy adder; both cost budgets bind.

    Y = X1 + X2 w.p. 0.8, else uniform on {0..3}; c1 = x1^2 (P1 = 1),
    c2 = x2 (P2 = 0.3), b(y) = y.  Emax is 1.34 under the budgets.
    """
    W = np.full((3, 2, 4), 0.05)
    for i in range(3):
        for j in range(2):
            W[i, j, i + j] += 0.8
    ch = ie.DmChannel.mac(ie.Alphabet([0.0, 1.0, 2.0]), ie.Alphabet([0.0, 1.0]),
                          ie.Alphabet([0.0, 1.0, 2.0, 3.0]), W)
    return ie.MacProblem(ch, ie.CostFn([0.0, 1.0, 4.0]), ie.CostFn([0.0, 1.0]),
                         ie.EnergyFn([0.0, 1.0, 2.0, 3.0]), 1.0, 0.3, b_target)


def column_stats(inst, V, p):
    """Stat table (6, N) of one grid column: one BLAS call and one
    entropy_bits call per term, one column at a time."""
    hv = inst.h_rows @ p
    wbar = np.einsum("j,ijy->iy", p, inst.W)
    out = V @ wbar
    h_cond = V @ hv
    i1 = -h_cond.copy()
    for j, pj in enumerate(p):
        if pj > 0:
            i1 += pj * entropy_bits(V @ inst.W[:, j, :])
    stats = np.empty((6, V.shape[0]))
    stats[0] = i1
    stats[1] = V @ (entropy_bits(wbar) - hv)
    stats[2] = entropy_bits(out) - h_cond
    stats[3] = out @ inst.b
    stats[4] = V @ inst.c1
    stats[5] = p @ inst.c2
    return stats


# The scorer as it was on row-major (N, 6) tables, every term evaluated:
# the reference for the pruned stat-major scorer of mr._Instance.
def ref_corner_rates(i1, i2, i_sum, w1, w2):
    r2a = np.maximum(i_sum - i1, 0.0)
    r1b = np.maximum(i_sum - i2, 0.0)
    val_a = w1 * np.minimum(i1, i_sum) + w2 * r2a
    val_b = w1 * r1b + w2 * np.minimum(i2, i_sum)
    return np.maximum(val_a, val_b)


def ref_violation(stats, prob):
    return (np.maximum(stats[..., 4] - prob.p1_budget, 0.0)
            + np.maximum(stats[..., 5] - prob.p2_budget, 0.0)
            + np.maximum(prob.b_target - stats[..., 3], 0.0))


def ref_score_block(stats, prob, w1, w2):
    viol = ref_violation(stats, prob)
    feas = viol <= BUDGET_TOL
    if feas.any():
        vals = ref_corner_rates(stats[:, 0], stats[:, 1], stats[:, 2], w1, w2)
        vals = np.where(feas, vals, -np.inf)
        idx = int(np.argmax(vals))
        return idx, (1, float(vals[idx]))
    idx = int(np.argmin(viol))
    return idx, (0, -float(viol[idx]))


def per_column_scan(inst, prob, w1, w2, mus, budget):
    """Reference for mr._product_scan: every g2 column scored on its own."""
    g1 = mr.simplex_grid(inst.n1, mr._steps_for(inst.n1, budget))
    g2 = mr.simplex_grid(inst.n2, mr._steps_for(inst.n2, budget))
    seed, seed_score = None, (-1, -np.inf)
    tilted, tilted_val = [None] * len(mus), [-np.inf] * len(mus)
    for j in range(g2.shape[0]):
        stats = column_stats(inst, g1, g2[j])
        idx, score = ref_score_block(stats.T, prob, w1, w2)
        if mr._better(score, seed_score):
            seed_score, seed = score, (g1[idx], g2[j])
        ok = ((stats[4] <= prob.p1_budget + BUDGET_TOL)
              & (stats[5] <= prob.p2_budget + BUDGET_TOL))
        rates = ref_corner_rates(stats[0], stats[1], stats[2], w1, w2)
        for m, mu in enumerate(mus):
            vals = np.where(ok, rates + mu * stats[3], -np.inf)
            idx = int(np.argmax(vals))
            if vals[idx] > tilted_val[m]:
                tilted_val[m] = float(vals[idx])
                tilted[m] = (g1[idx], g2[j], stats[:, idx].copy())
    return seed, tilted


def problem_with(prob, c1, c2, p1, p2, b_target):
    """prob's channel and energy table with other costs, budgets and target."""
    return ie.MacProblem(prob.channel, ie.CostFn(c1), ie.CostFn(c2), prob.b,
                         p1, p2, b_target)


class TestScorer:
    """The pruned stat-major scorer picks the index and score of the full one."""

    WEIGHTS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 2.0)]

    @staticmethod
    def problems():
        base = make_ternary_cost_problem(0.0)  # 3-symbol X1, binary X2
        for c1, c2 in (([0, 0, 0], [0, 0]), ([0, 1, 4], [0, 0]),
                       ([0, 0, 0], [0, 1]), ([0, 1, 4], [0, 1])):
            for p1, p2, bt in ((1.0, 0.3, 0.0), (1.0, 0.3, 1.2), (0.0, 0.0, 0.5)):
                yield problem_with(base, c1, c2, p1, p2, bt)

    @staticmethod
    def random_table(rng, prob, n, coarse):
        """Stats as the ascent forms them: informations near [0, 2] with a
        little rounding below 0, Eb >= 0, and Ec = V @ c (0 for zero costs).
        coarse values on a 1/4 grid give many exact ties."""
        V = rng.dirichlet(np.ones(3), size=n)
        t = np.empty((6, n))
        t[:3] = rng.uniform(-1e-17, 2.0, size=(3, n))
        t[3] = rng.uniform(0.0, 2.0, size=n)
        t[4] = V @ prob.c1.values
        t[5] = rng.uniform(0.0, 1.0, size=n) * prob.c2.values.max()
        if coarse:
            t[:4] = np.round(t[:4] * 4) / 4
            t[4:] = np.round(t[4:] * 4) / 4
        return t

    def test_matches_full_row_major_scorer(self):
        rng = np.random.default_rng(15)
        checked = {"infeasible": 0, "ties": 0}
        for prob in self.problems():
            for w in self.WEIGHTS:
                inst = mr._Instance(prob, *w)
                for trial in range(40):
                    t = self.random_table(rng, prob, int(rng.integers(1, 60)), trial % 2 == 0)
                    if trial % 8 == 0:  # nothing meets the energy floor
                        t[3] = np.minimum(t[3], max(prob.b_target - 0.25, 0.0))
                    want = ref_score_block(t.T, prob, *w)
                    got = inst.score(np.ascontiguousarray(t[:inst.rows]))
                    assert got == want, (prob.c1.values, prob.c2.values, prob.b_target, w)
                    assert mr._Instance(prob, *w).score(t.T.copy().T) == want  # strided rows
                    checked["infeasible"] += want[1][0] == 0
                    if want[1][0] == 1:
                        vals = np.where(ref_violation(t.T, prob) <= BUDGET_TOL,
                                        ref_corner_rates(*t[:3], *w), -np.inf)
                        checked["ties"] += np.count_nonzero(vals == vals.max()) > 1
        assert checked["infeasible"] > 50 and checked["ties"] > 50

    def test_rows_read(self):
        base = make_ternary_cost_problem(0.0)
        for c1, c2, bt, rows in (([0, 0, 0], [0, 0], 0.0, 3), ([0, 0, 0], [0, 0], 0.5, 4),
                                 ([0, 1, 4], [0, 0], 0.0, 5), ([0, 0, 0], [0, 1], 0.0, 6),
                                 ([0, 1, 4], [0, 1], 1.2, 6)):
            inst = mr._Instance(problem_with(base, c1, c2, 1.0, 0.3, bt), 1.0, 1.0)
            assert inst.rows == rows

    def test_corner_rates_match_every_weight(self):
        rng = np.random.default_rng(16)
        i1, i2, i_sum = rng.uniform(-1e-17, 2.0, size=(3, 500))
        i1[::7], i_sum[::11] = 0.0, -0.0
        for w in self.WEIGHTS + [(2.5, 0.0), (0.0, 0.7)]:
            assert np.array_equal(mr._corner_rates(i1, i2, i_sum, *w),
                                  ref_corner_rates(i1, i2, i_sum, *w))


class TestResultFromPolicy:
    def test_the_corner_is_a_best_pentagon_corner(self):
        """The heavier sender's corner of {R1 <= I1, R2 <= I2, R1 + R2 <= Isum}
        scores at least every corner, as I1 + I2 - Isum = I(X1;X2|Y,Q) >= 0."""
        rng = np.random.default_rng(17)

        def pmfs(n, rows):
            a = rng.dirichlet(np.ones(n), size=rows)
            a[rng.random(a.shape) < 0.3] = 0.0  # some symbols unused, some inputs fixed
            a[a.sum(axis=1) == 0, 0] = 1.0
            return a / a.sum(axis=1, keepdims=True)

        for trial in range(60):
            n1, n2, ny = rng.integers(2, 5, size=3)
            W = rng.dirichlet(np.full(ny, 0.5), size=(n1, n2))
            prob = zero_cost_problem(W, rng.uniform(0.0, 2.0, size=ny))
            k = int(rng.integers(1, 5))
            q, A1, A2 = rng.dirichlet(np.ones(k)), pmfs(n1, k), pmfs(n2, k)
            for w1, w2 in TestScorer.WEIGHTS:
                res = mr._result_from_policy(prob, w1, w2, q, A1.copy(), A2.copy())
                i1, i2, i_sum, _ = ie.mac_mutual_informations(res.policy, prob.channel, prob.b)
                i1, i2 = min(i1, i_sum), min(i2, i_sum)
                corners = [(0.0, 0.0), (i1, 0.0), (i1, i_sum - i1), (i_sum - i2, i2), (0.0, i2)]
                r1, r2 = res.triple.r1, res.triple.r2
                assert any(abs(r1 - a) <= 1e-12 and abs(r2 - b) <= 1e-12
                           for a, b in corners[2:4]), (trial, w1, w2)
                assert res.weighted_rate == pytest.approx(w1 * r1 + w2 * r2, rel=0, abs=1e-12)
                best = max(w1 * a + w2 * b for a, b in corners)
                assert res.weighted_rate >= best - 1e-12, (trial, w1, w2)


class TestProductScan:
    MUS8 = [0.3 * m for m in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0)]

    @pytest.mark.parametrize("label,prob", [
        ("r2025", make_random_mac_instance(2025)),
        ("r2025 binding B", make_random_mac_instance(2025).with_target(1.394)),  # 0.9 Emax
        ("ternary", make_ternary_cost_problem(0.8)),
        ("ternary binding B", make_ternary_cost_problem(1.3)),
        ("adder binding B", make_adder_problem(1.2)),  # symmetric: exact ties
    ])
    @pytest.mark.parametrize("mus", [[0.0], MUS8])
    @pytest.mark.parametrize("w", [(1.0, 1.0), (0.0, 1.0)])
    def test_chunked_scan_matches_per_column_scan(self, label, prob, mus, w):
        inst = mr._Instance(prob, *w)
        got = mr._product_scan(inst, mus, mr.MAX_BLOCK_CANDIDATES)
        want = per_column_scan(inst, prob, *w, mus, mr.MAX_BLOCK_CANDIDATES)
        assert np.array_equal(got[0][0], want[0][0])
        assert np.array_equal(got[0][1], want[0][1])
        assert len(got[1]) == len(want[1]) == len(mus)
        for a, b in zip(got[1], want[1]):
            assert (a is None) == (b is None)
            if a is not None:
                assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestTableRing:
    def test_a_put_past_the_end_empties_the_ring(self):
        ring, last = mr._TableRing(10), {}
        for i, (key, cols, kept) in enumerate([("a", 4, "a"), ("b", 4, "ab"),
                                               ("c", 4, "c"),  # past column 9: a and b go
                                               ("d", 3, "cd"),  # columns 4-6
                                               ("c", 3, "cd"),  # c again, at columns 7-9
                                               ("e", 1, "e")]):  # past column 9 again
            ring.put(key, np.full((6, cols), float(i)))
            last[key] = (i, cols)
            assert {k for k in "abcde" if ring.get(k) is not None} == set(kept), i
            for k in kept:
                assert ring.get(k).shape == (6, last[k][1]) and (ring.get(k) == last[k][0]).all()

    def test_table_longer_than_the_ring_is_not_kept(self):
        ring = mr._TableRing(10)
        ring.put("a", np.zeros((6, 4)))
        ring.put("big", np.ones((6, 11)))
        assert ring.get("big") is None and ring.get("a") is not None
        empty = mr._TableRing(0)
        empty.put("a", np.zeros((6, 1)))
        assert empty.get("a") is None

    def test_hit_returns_the_bytes_put(self):
        table = np.random.default_rng(5).standard_normal((6, 7)) * 1e-300
        ring = mr._TableRing(mr._RING_ROWS)
        ring.put(("k", b"\x00"), table)
        want = table.tobytes()
        table[:] = 0.0  # the ring holds a copy
        assert ring.get(("k", b"\x00")).tobytes() == want
        assert ring.get(("k", b"\x01")) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_random_puts_keep_exactly_the_tables_not_overwritten(self, seed):
        # Reference rule: a put of n columns writes [pos, pos + n); when that
        # would run past the end, every kept table is dropped first and pos
        # is 0.  A put never overwrites a kept table, so each keeps its bytes.
        rng = np.random.default_rng(seed)
        cols = int(rng.integers(1, 40))
        ring, kept, pos, tables = mr._TableRing(cols), set(), 0, {}
        wraps = too_long = 0
        for i in range(400):
            key = int(rng.integers(0, 60)) if rng.random() < 0.2 else ("t", i)
            n = int(rng.integers(1, cols + 3))
            table = rng.standard_normal((6, n))
            ring.put(key, table)
            if n <= cols:
                if pos + n > cols:
                    kept, pos = set(), 0
                    wraps += 1
                kept.add(key)
                pos, tables[key] = pos + n, table
            else:
                too_long += 1
            assert set(ring.spans) == kept, i
            for k in kept:
                assert ring.get(k).tobytes() == tables[k].tobytes(), (i, k)
        assert wraps > 10 and too_long > 0


class TestAscentReuse:
    """The table ring and the stage-entry memo change no bit of a result."""

    @staticmethod
    def cases():
        for seed in (2024, 2026):
            prob = make_random_mac_instance(seed)
            emax, _, _ = ie.max_received_energy(prob)
            for b_target, w in ((0.0, (1.0, 1.0)), (0.9 * emax, (0.0, 1.0))):
                yield prob.with_target(b_target), *w, 4
        yield make_ternary_cost_problem(1.2), 1.0, 0.0, 4
        prob = make_random_mac_instance(2025)
        yield prob.with_target(0.9 * ie.max_received_energy(prob)[0]), 1.0, 1.0, 5

    def test_results_match_a_run_without_reuse(self, monkeypatch):
        keys, hits = [], []
        real_key, real_get = mr._stage_key, mr._TableRing.get

        def stage_key(*state):
            keys.append(real_key(*state))
            return keys[-1]

        def get(ring, key):
            hits.append(real_get(ring, key) is not None)
            return real_get(ring, key)

        monkeypatch.setattr(mr, "_stage_key", stage_key)
        monkeypatch.setattr(mr._TableRing, "get", get)
        fast = [ie.mac_boundary_point(*case) for case in self.cases()]
        assert len(set(keys)) < len(keys) and any(hits)  # both kinds of reuse ran
        monkeypatch.setattr(mr, "_RING_ROWS", 0)
        monkeypatch.setattr(mr, "_stage_key", lambda *state: object())
        slow = [ie.mac_boundary_point(*case) for case in self.cases()]
        for a, b in zip(fast, slow):
            assert a.feasible and b.feasible
            assert a.triple == b.triple and a.weighted_rate == b.weighted_rate
            assert np.array_equal(a.policy.q_pmf.probs, b.policy.q_pmf.probs)
            assert len(a.policy.inputs) == len(b.policy.inputs)
            for (a1, a2), (b1, b2) in zip(a.policy.inputs, b.policy.inputs):
                assert np.array_equal(a1.probs, b1.probs) and np.array_equal(a2.probs, b2.probs)


class TestAscentStart:
    def test_stacked_stat_rows_match_one_row_calls(self):
        # A restart's S comes from one stacked call; each of its rows must
        # have the bits of the one-row call that recomputes it later.
        rng = np.random.default_rng(8)
        W = rng.dirichlet(np.ones(4), size=(3, 3))
        ch = ie.DmChannel.mac(ie.Alphabet([0.0, 1.0, 2.0]), ie.Alphabet([0.0, 1.0, 2.0]),
                              ie.Alphabet([0.0, 1.0, 2.0, 3.0]), W)
        ternary = ie.MacProblem(ch, ie.CostFn([0, 1, 2]), ie.CostFn([1, 0, 3]),
                                ie.EnergyFn([0.0, 0.5, 1.0, 2.0]), 1.0, 1.0, 0.5)
        for prob in (make_random_mac_instance(2024), make_ternary_cost_problem(1.2), ternary):
            inst = mr._Instance(prob, 1.0, 1.0)
            for k in (1, 2, 4, 5):
                for trial in range(10):
                    A1 = rng.dirichlet(np.ones(inst.n1), size=k)
                    A2 = rng.dirichlet(np.ones(inst.n2), size=k)
                    if trial % 2:  # vertices and zero entries, as the grids give
                        A1[0], A2[-1] = np.eye(inst.n1)[-1], np.eye(inst.n2)[0]
                    stacked = mr._block_stats(inst, 0, A1[:, None, :], A2)[..., 0]
                    assert stacked.shape == (6, k)
                    for qi in range(k):
                        one = mr._block_stats(inst, 0, A1[qi:qi + 1], A2[qi])[:, 0]
                        assert stacked[:, qi].tobytes() == one.tobytes(), (k, trial, qi)

    def test_q_ladder_is_built_again_only_after_q_changes(self, monkeypatch):
        builds = []
        real_ladder, real_ascent = mr._ladder_candidates, mr._coordinate_ascent

        def ladder(grid, center, stage, factor):
            if grid.shape[1] == 4:  # the q simplex; both inputs are binary
                builds.append((stage, center.tobytes()))
            return real_ladder(grid, center, stage, factor)

        def ascent(*args):
            builds.append(None)  # a new restart may start from a q seen before
            return real_ascent(*args)

        monkeypatch.setattr(mr, "_ladder_candidates", ladder)
        monkeypatch.setattr(mr, "_coordinate_ascent", ascent)
        prob = make_random_mac_instance(2026)
        for b_target in (0.0, 0.9 * ie.max_received_energy(prob)[0]):
            ie.mac_boundary_point(prob.with_target(b_target), 1.0, 1.0, 4)
        pairs = [(a, b) for a, b in zip(builds, builds[1:]) if a and b]
        assert len(pairs) > 20 and all(a != b for a, b in pairs)


def dense_gaussian_oracle(power, b_target, points=1025):
    """Single-pass dense grid over the time-share family.

    Independent of the solver's coarse-to-fine refinement; shares only the
    problem statement: rate (lam/2)log2(1+2 P'), power split s = lam*P', the
    constant phase spending the residual budget, energy 4P+1-2s for lam<1.
    """
    lams = np.linspace(0.0, 1.0, points)
    shares = np.linspace(0.0, power, points)
    L, S = np.meshgrid(lams, shares, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(L > 0, 0.5 * L * np.log2(1 + 2 * S / np.where(L > 0, L, 1)), 0.0)
    energy = np.where(L >= 1.0, 2 * S + 1, 4 * power + 1 - 2 * S)
    rate = np.where(energy >= b_target - 1e-12, rate, -np.inf)
    return float(rate.max())


class TestGaussianMac:
    def test_unconstrained_values(self):
        assert ie.gaussian_unconstrained_sum_rate(1.0) == pytest.approx(
            0.79248125, abs=1e-8)
        assert ie.gaussian_unconstrained_sum_rate(0.0) == 0.0
        assert ie.gaussian_unconstrained_sum_rate(1.5) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ie.gaussian_unconstrained_sum_rate(-1.0)

    def test_below_threshold_no_time_sharing(self):
        sol = ie.gaussian_mac_timeshare(1.0, 3.0)
        assert sol.feasible
        assert (sol.p_prime, sol.p_dprime) == (1.0, 0.0)
        assert sol.r_sum == pytest.approx(EQ6_P1, abs=1e-12)

    def test_threshold_continuity_exact(self):
        for p in (0.5, 1.0, 2.0):
            sol = ie.gaussian_mac_timeshare(p, 2 * p + 1)
            assert sol.r_sum == ie.gaussian_unconstrained_sum_rate(p)

    def test_all_energy_point(self):
        sol = ie.gaussian_mac_timeshare(1.0, 5.0)
        assert sol.feasible
        assert sol.r_sum == pytest.approx(0.0, abs=1e-9)
        assert sol.p_prime == 0.0
        assert sol.p_dprime == pytest.approx(1.0)
        assert 2 * sol.p_prime + 4 * sol.p_dprime + 1 == pytest.approx(5.0, abs=1e-12)

    def test_rejects_non_finite_arguments(self):
        for power, b_target in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                ie.gaussian_mac_timeshare(power, b_target)
        with pytest.raises(ValueError, match="finite"):
            ie.gaussian_unconstrained_sum_rate(np.nan)

    def test_infeasible_beyond_max_energy(self):
        """At P = 1, B is feasible up to 4P + 1 = 5 plus BUDGET_TOL."""
        for b_target, feasible in ((5.1, False), (5.0 + 5e-10, False), (5.0 + 5e-13, True)):
            assert ie.gaussian_mac_timeshare(1.0, b_target).feasible == feasible, b_target

    def test_midrange_matches_dense_oracle(self):
        for b_target in (3.5, 4.0, 4.5):
            sol = ie.gaussian_mac_timeshare(1.0, b_target)
            want = dense_gaussian_oracle(1.0, b_target)
            assert 0.0 < sol.r_sum < EQ6_P1
            assert sol.r_sum == pytest.approx(want, abs=1e-3)

    def test_policy_attains_floor_within_stated_gap(self):
        """The returned policy meets B and P exactly and attains the closed
        form 0.5*log2(4P+2-B): the gap is zero."""
        for power in (0.5, 1.0, 2.0):
            for b_target in (2 * power + 1.2, 3 * power + 1, 4 * power + 0.9):
                sol = ie.gaussian_mac_timeshare(power, b_target)
                energy = 2 * sol.p_prime + 4 * sol.p_dprime + 1
                assert energy == pytest.approx(b_target, abs=1e-12)
                assert sol.p_prime + sol.p_dprime == pytest.approx(power, abs=1e-12)
                closed = 0.5 * np.log2(4 * power + 2 - b_target)
                assert sol.r_sum == pytest.approx(closed, abs=1e-12)

    def test_solution_respects_power_budget(self):
        for b_target in (3.2, 4.4, 4.9):
            sol = ie.gaussian_mac_timeshare(1.0, b_target)
            spend = sol.p_prime + sol.p_dprime
            assert spend <= 1.0 + 1e-12
            assert sol.p_prime >= 0 and sol.p_dprime >= 0

    def test_sweep_shapes(self):
        rows = ie.gaussian_mac_sweep([1.0], np.linspace(0, 5, 11))
        flat = [r for r in rows if r.b_target <= 3.0]
        assert all(r.r_timeshare == pytest.approx(EQ6_P1, abs=1e-9) for r in flat)
        assert all(r.r_no_ts == pytest.approx(EQ6_P1, abs=1e-9) for r in flat)
        above = [r for r in rows if 3.0 < r.b_target < 5.0]
        assert all(r.r_timeshare > 0 for r in above)
        assert all(r.r_no_ts == 0.0 for r in above)
        assert rows[0].r_timeshare == rows[0].r_no_ts

    def test_sweep_rejects_empty(self):
        with pytest.raises(ValueError):
            ie.gaussian_mac_sweep([], [0.0])

    def test_mac_region_name_returns_the_closed_form(self):
        """perfbench's tracer wraps mac_region.gaussian_mac_timeshare by name."""
        from infoenergy import closedform
        assert mr.gaussian_mac_timeshare.__module__ == "infoenergy.mac_region"
        for power in (0.0, 0.5, 1.0, 2.0):
            for b_target in (0.0, 2 * power + 1, 3 * power + 1, 4 * power + 1, 4 * power + 1.5):
                want = closedform.gaussian_mac_timeshare(power, b_target)
                assert mr.gaussian_mac_timeshare(power, b_target) == want, (power, b_target)
                assert want.feasible == (b_target <= 4 * power + 1)
