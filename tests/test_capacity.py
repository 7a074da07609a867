"""Cost-constrained point-to-point capacity."""

import numpy as np
import pytest

import infoenergy as ie
from conftest import binary_entropy, make_bsc
from infoenergy.capacity import BA_TOL_BITS


def dual_bound_bits(W, cost, budget, r):
    """Blahut's upper bound min over s >= 0 of max_x(D(W_x || rW) - s*cost_x)
    + s*budget at the input pmf r, in bits.  It is convex and piecewise linear
    in s, so its minimum is at s = 0 or where two of the lines cross."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(W > 0, W * np.log2(W / (r @ W)), 0.0).sum(axis=1)
        cross = (d[:, None] - d[None, :]) / (cost[:, None] - cost[None, :])
    s = np.concatenate(([0.0], cross[np.isfinite(cross) & (cross > 0)]))
    return float(((d - s[:, None] * cost).max(axis=1) + s * budget).min())


def make_z_channel(flip: float) -> ie.DmChannel:
    """Input 0 is received clean; input 1 flips to 0 with probability flip."""
    bits = ie.Alphabet([0.0, 1.0])
    return ie.DmChannel.point_to_point(bits, bits, [[1.0, 0.0], [flip, 1.0 - flip]])


class TestAwgnCapacity:
    def test_values(self):
        assert ie.awgn_capacity(4.0, 1.0) == pytest.approx(0.5 * np.log2(5), abs=1e-12)
        assert ie.awgn_capacity(4.0, 1.0) == pytest.approx(1.1610, abs=5e-5)
        assert ie.awgn_capacity(0.0, 1.0) == 0.0
        assert ie.awgn_capacity(3.0, 1.0) == pytest.approx(1.0)
        np.testing.assert_array_equal(
            ie.awgn_capacity(np.array([4.0, 0.0, 3.0]), 1.0),
            [ie.awgn_capacity(4.0, 1.0), 0.0, ie.awgn_capacity(3.0, 1.0)])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ie.awgn_capacity(1.0, 0.0)
        with pytest.raises(ValueError):
            ie.awgn_capacity(-0.1, 1.0)
        for power, n0 in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf),
                          (np.array([1.0, np.nan]), 1.0)):
            with pytest.raises(ValueError, match="finite"):
                ie.awgn_capacity(power, n0)


class TestDmCapacityWithCost:
    def test_noiseless_binary_free(self):
        ch = ie.DmChannel.noiseless(ie.Alphabet([0.0, 1.0]))
        res = ie.dm_capacity_with_cost(ch, ie.CostFn([0.0, 0.0]), 5.0)
        assert res.capacity_bits == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(res.input_pmf.probs, [0.5, 0.5], atol=1e-6)

    def test_bsc_unconstrained(self):
        res = ie.dm_capacity_with_cost(make_bsc(0.11))
        assert res.capacity_bits == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-9)

    def test_budget_pins_cheapest_symbols(self):
        # Only pmfs supported on {-1, 1} satisfy E[X^2] <= 1 on these levels.
        ch = ie.DmChannel.noiseless(ie.Alphabet([-2.0, -1.0, 1.0, 2.0]))
        c = ie.CostFn([4.0, 1.0, 1.0, 4.0])
        res = ie.dm_capacity_with_cost(ch, c, 1.0)
        assert res.capacity_bits == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(res.input_pmf.probs, [0.0, 0.5, 0.5, 0.0], atol=1e-9)
        assert res.expected_cost <= 1.0 + 1e-9

    def test_budget_exhaustive_cross_check(self):
        """Grid oracle over the input simplex confirms the solver value."""
        ch = ie.DmChannel.noiseless(ie.Alphabet([-2.0, -1.0, 1.0, 2.0]))
        c = ie.CostFn([4.0, 1.0, 1.0, 4.0])
        budget = 2.0
        grid = ie.simplex_grid(4, 41)
        ok = grid @ c.values <= budget + 1e-12
        best = max(ie.mutual_information(ie.Pmf(row), ch) for row in grid[ok])
        res = ie.dm_capacity_with_cost(ch, c, budget)
        assert res.capacity_bits >= best - 1e-9
        assert res.expected_cost <= budget + 1e-9

    def test_infeasible_budget(self):
        ch = ie.DmChannel.noiseless(ie.Alphabet([-2.0, -1.0, 1.0, 2.0]))
        c = ie.CostFn([4.0, 1.0, 1.0, 4.0])
        with pytest.raises(ie.InfeasibleError):
            ie.dm_capacity_with_cost(ch, c, 0.5)

    def test_nan_budget_raises(self):
        bits = ie.Alphabet([0.0, 1.0])
        ch = ie.DmChannel.point_to_point(bits, bits, [[0.9, 0.1], [0.2, 0.8]])
        c = ie.CostFn([0.0, 1.0])
        with pytest.raises(ValueError, match="NaN"):
            ie.dm_capacity_with_cost(ch, c, np.nan)
        free = ie.dm_capacity_with_cost(ch)
        for budget in (None, np.inf):
            res = ie.dm_capacity_with_cost(ch, c, budget)
            assert res.capacity_bits == free.capacity_bits
        with pytest.raises(ie.InfeasibleError):
            ie.dm_capacity_with_cost(ch, ie.CostFn([0.5, 1.0]), 0.25)

    def test_iterates_non_decreasing(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            W = rng.dirichlet(np.ones(3), size=4)
            ch = ie.DmChannel.point_to_point(
                ie.Alphabet([0.0, 1.0, 2.0, 3.0]), ie.Alphabet([0.0, 1.0, 2.0]), W)
            c = ie.CostFn(rng.uniform(0, 2, size=4))
            res = ie.dm_capacity_with_cost(ch, c, float(c.values.mean()))
            its = res.iterates
            assert all(b >= a - 1e-10 for a, b in zip(its, its[1:]))

    def test_decreasing_iterate_raises(self, monkeypatch):
        # The monotonicity certificate is an explicit check, not an assert,
        # so it also holds under python -O.  A Z-channel needs several
        # iterates (a BSC is optimal at its uniform start), so the shifted
        # divergences are compared.
        from infoenergy import capacity

        shift = iter(range(10_000))
        real = capacity._divergence_rows
        monkeypatch.setattr(capacity, "_divergence_rows",
                            lambda W, q: real(W, q) - next(shift))
        with pytest.raises(RuntimeError, match="decreased"):
            ie.dm_capacity_with_cost(make_z_channel(0.3))

    def test_within_tolerance_of_the_dual_bound(self):
        """150 random constrained channels (the seed-4242 law): each result is
        within BA_TOL_BITS of Blahut's dual bound at its own pmf, so of the
        capacity, and its gap_bits covers that bound.  Under a 1e-7-bit
        increment stop the bound exceeded 126 of the 150 results, by up to
        4.6e-4 bits."""
        rng = np.random.default_rng(4242)
        for _ in range(150):
            n, m = rng.integers(2, 6, size=2)
            W = rng.dirichlet(0.7 * np.ones(m), size=n)
            c = rng.uniform(0.0, 2.0, size=n)
            budget = float(rng.uniform(c.min(), c.max()))
            ch = ie.DmChannel.point_to_point(
                ie.Alphabet(np.arange(n, dtype=float)), ie.Alphabet(np.arange(m, dtype=float)), W)
            res = ie.dm_capacity_with_cost(ch, ie.CostFn(c), budget)
            bound = dual_bound_bits(W, c, budget, res.input_pmf.probs)
            assert bound - res.capacity_bits <= BA_TOL_BITS
            assert bound - res.capacity_bits <= res.gap_bits + 1e-12
            assert res.gap_bits <= BA_TOL_BITS
            assert res.capacity_bits == pytest.approx(
                ie.mutual_information(res.input_pmf, ch), abs=1e-12)
            assert res.expected_cost <= budget

    def test_iteration_cap_shows_in_the_gap(self, monkeypatch):
        """A run cut off at BA_MAX_ITER reports a gap above BA_TOL_BITS."""
        from infoenergy import capacity

        full = ie.dm_capacity_with_cost(make_z_channel(0.3))
        assert len(full.iterates) > 3 and full.gap_bits <= BA_TOL_BITS
        monkeypatch.setattr(capacity, "BA_MAX_ITER", 3)
        cut = ie.dm_capacity_with_cost(make_z_channel(0.3))
        assert len(cut.iterates) == 3
        assert cut.gap_bits > BA_TOL_BITS
        assert cut.capacity_bits + cut.gap_bits >= full.capacity_bits

    def test_underflowed_input_reaching_its_own_output(self):
        # The 1000-cost symbol's mass underflows to 0 while it alone reaches
        # its output, so its divergence is infinite and 0*inf = NaN.
        ch = ie.DmChannel.noiseless(ie.Alphabet([0.0, 1.0, 2.0]))
        res = ie.dm_capacity_with_cost(ch, ie.CostFn([0.0, 1.0, 1000.0]), 0.5)
        assert res.capacity_bits == pytest.approx(1.00003, abs=1e-5)
        assert res.expected_cost <= 0.5 + 1e-9
        assert np.isfinite(res.iterates).all()

    @pytest.mark.parametrize("W, bits", [([[0, 0, 1], [1, 5e-324, 0]], 1.0),
                                         ([[0, 0, 1], [0, 5e-324, 1]], 0.0)])
    def test_subnormal_transition_entries(self, W, bits):
        # The channel sets the 5e-324 entry to 0: the product of a mass of
        # 0.5 and it underflows, so its divergence would overflow.
        ch = ie.DmChannel.point_to_point(
            ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0, 2.0]), W)
        assert ch.transition[1, 1] == 0.0
        res = ie.dm_capacity_with_cost(ch, ie.CostFn([0.0, 0.0]), 0.0)
        assert res.capacity_bits == pytest.approx(bits, abs=1e-12)
        assert res.gap_bits <= BA_TOL_BITS

    def test_sparse_channel_fuzz_never_raises(self):
        """Exclusive outputs and budgets just above the cheapest cost need
        large multipliers, which drive input masses below the float range,
        down to subnormals whose products underflow."""
        rng = np.random.default_rng(1210)
        large = 0
        for _ in range(300):
            n, m = rng.integers(2, 5, size=2)
            W = rng.uniform(size=(n, m)) * (rng.uniform(size=(n, m)) < 0.3)
            W[np.arange(n), rng.integers(m, size=n)] = 1.0
            W /= W.sum(axis=1, keepdims=True)
            ch = ie.DmChannel.point_to_point(
                ie.Alphabet(np.arange(n, dtype=float)),
                ie.Alphabet(np.arange(m, dtype=float)), W)
            c = rng.uniform(size=n)
            budget = float(c.min() + 10.0 ** -rng.uniform(1, 12) * (c.max() - c.min()))
            res = ie.dm_capacity_with_cost(ch, ie.CostFn(c), budget)
            r = res.input_pmf.probs
            assert r.min() >= 0 and r.sum() == pytest.approx(1.0)
            assert np.isfinite([res.capacity_bits, *res.iterates]).all()
            assert res.expected_cost <= budget
            large += res.multiplier >= 10
        assert large >= 100

    def test_constraint_active_or_interior(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            W = rng.dirichlet(np.ones(3), size=3)
            ch = ie.DmChannel.point_to_point(
                ie.Alphabet([0.0, 1.0, 2.0]), ie.Alphabet([0.0, 1.0, 2.0]), W)
            c = ie.CostFn(rng.uniform(0.1, 2, size=3))
            budget = float(rng.uniform(c.values.min(), c.values.max()))
            res = ie.dm_capacity_with_cost(ch, c, budget)
            assert res.expected_cost <= budget + 1e-9
            if res.multiplier > 0:
                assert budget - res.expected_cost <= 1e-12

    @pytest.mark.parametrize("costs, budget", [([0.0, 0.0], -1e-13),
                                               ([1.0, 1.0], 1.0 - 1e-13)])
    def test_equal_costs_with_budget_a_hair_under(self, costs, budget):
        # Every symbol is among the cheapest, so no tilt can lower E[cost]:
        # the solve is the unconstrained one.
        ch = make_bsc(0.11)
        res = ie.dm_capacity_with_cost(ch, ie.CostFn(costs), budget)
        free = ie.dm_capacity_with_cost(ch)
        assert res.capacity_bits == free.capacity_bits
        assert res.iterates == free.iterates
        assert res.multiplier == 0.0
        assert res.expected_cost <= budget + 1e-12

    def test_tilt_with_no_fitting_multiplier_raises(self):
        from infoenergy import capacity

        with pytest.raises(RuntimeError, match="no finite tilt"):
            capacity._tilt(np.zeros(2), np.ones(2), 1.0 - 1e-13, 0.0)

    def test_one_divergence_pass_per_iterate(self, monkeypatch):
        """The multiplier is re-solved inside each update, not by whole runs:
        a solve evaluates divergences once per iterate."""
        from infoenergy import capacity

        calls = [0]
        real = capacity._divergence_rows

        def counting(W, q):
            calls[0] += 1
            return real(W, q)

        monkeypatch.setattr(capacity, "_divergence_rows", counting)
        rng = np.random.default_rng(31)  # the criterion-08 law
        for _ in range(5):
            W = rng.dirichlet(np.ones(3), size=3)
            ch = ie.DmChannel.point_to_point(
                ie.Alphabet([0.0, 1.0, 2.0]), ie.Alphabet([0.0, 1.0, 2.0]), W)
            c = ie.CostFn(rng.uniform(0.0, 2.0, size=3))
            calls[0] = 0
            res = ie.dm_capacity_with_cost(ch, c, float(np.median(c.values)))
            assert calls[0] <= len(res.iterates)
