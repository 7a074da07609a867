"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [criterion NN] PASS line (run with -s to stream them).
Shared heavy computations are cached in module-scope fixtures.
"""

import time

import numpy as np
import pytest

import infoenergy as ie
from infoenergy.cli import run
from conftest import (binary_entropy, cooperative_ceiling, make_random_mac_instance,
                      q2_oracle_rate)
from test_multihop import DM_DM_KINDS, make_dm_dm_instance

WEIGHTS = [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
INSTANCE_SEEDS = [2024, 2025, 2026, 2027, 2028]


def _announce(num, detail):
    print(f"[criterion {num:02d}] PASS - {detail}")


@pytest.fixture(scope="module")
def oracle_matrix():
    """Solver (q=4, q=5) and oracle values for the shared random instances.

    The enumeration oracle runs with q_size=2: with zero costs only the
    energy floor binds, so two mixture components support the optimum.
    """
    t0 = time.time()
    rows = []
    for seed in INSTANCE_SEEDS:
        prob = make_random_mac_instance(seed)
        emax, _, _ = ie.max_received_energy(prob)
        for b_target in (0.0, 0.9 * emax):
            for w1, w2 in WEIGHTS:
                p = prob.with_target(b_target)
                v4 = ie.mac_boundary_point(p, w1, w2, q_size=4).weighted_rate
                v5 = ie.mac_boundary_point(p, w1, w2, q_size=5).weighted_rate
                vo = q2_oracle_rate(seed, b_target, w1, w2)
                rows.append((seed, b_target, w1, w2, v4, v5, vo))
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def energy_reports():
    """Violation-trend reports across 20 seeds and three blocklengths."""
    t0 = time.time()
    policy = ie.GaussianPhasePolicy(0.0, 1.0)
    reports = {}
    for seed in range(20):
        for n in (100, 1000, 10000):
            cb1, cb2 = ie.generate_mac_codebooks(policy, n, 0.0, 0.0, seed=seed)
            reports[(seed, n)] = ie.simulate_mac_energy(
                cb1, cb2, ie.GaussianMacSampler(1.0), np.square,
                4.5, 0.1, 100, seed=seed)
    return reports, time.time() - t0


def test_criterion_01_gaussian_threshold_regime(tmp_path):
    t0 = time.time()
    for power in (0.5, 1.0, 2.0):
        want = 0.5 * np.log2(1 + 2 * power)
        b_grid = np.linspace(0.0, 2 * power + 1, 9)
        for b_target in b_grid:
            sol = ie.gaussian_mac_timeshare(power, float(b_target))
            assert abs(sol.r_sum - want) <= 1e-6
        # The CSV carries the same values at its 6-significant-digit format.
        out = tmp_path / f"g{power}.csv"
        assert run(["gaussian-mac", "--P", str(power), "--b-min", "0",
                    "--b-max", str(2 * power + 1), "--steps", "9",
                    "--out", str(out)]) == 0
        for line in out.read_text().strip().split("\n")[1:]:
            assert line.split(",")[2] == format(want, ".6g")
    assert abs(0.5 * np.log2(3) - 0.792481) <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _announce(1, f"flat at 1/2 log2(1+2P) below threshold ({elapsed:.2f}s)")


def test_criterion_02_gaussian_feasibility_boundary():
    t0 = time.time()
    for power in (0.5, 1.0, 2.0):
        edge = ie.gaussian_mac_timeshare(power, 4 * power + 1)
        assert edge.feasible
        assert abs(edge.r_sum) <= 1e-3
        beyond = ie.gaussian_mac_timeshare(power, 4 * power + 1 + 0.25)
        assert not beyond.feasible
        rows = ie.gaussian_mac_sweep([power], np.linspace(0, 4 * power + 1, 51))
        rates = [r.r_timeshare for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _announce(2, f"R(4P+1)=0, beyond infeasible, non-increasing ({elapsed:.2f}s)")


def test_criterion_03_oracle_equivalence(oracle_matrix):
    rows, elapsed = oracle_matrix
    worst = max(abs(v4 - vo) for *_, v4, _, vo in rows)
    for seed, b_target, w1, w2, v4, _, vo in rows:
        assert abs(v4 - vo) <= 0.02, (seed, b_target, w1, w2, v4, vo)
    assert elapsed < 300.0
    _announce(3, f"solver vs enumeration worst gap {worst:.4f} bits over "
                 f"{len(rows)} cases ({elapsed:.1f}s)")


def test_criterion_04_cardinality_sufficiency(oracle_matrix):
    rows, elapsed = oracle_matrix
    worst = max(v5 - v4 for *_, v4, v5, _ in rows)
    for seed, b_target, w1, w2, v4, v5, _ in rows:
        assert v5 - v4 < 1e-3, (seed, b_target, w1, w2, v4, v5)
    assert elapsed < 600.0
    _announce(4, f"q=5 improves on q=4 by at most {worst:.2e} bits")


def test_criterion_05_relay_example_endpoints():
    t0 = time.time()
    rows = ie.relay_snr_sweep(4.0, 0.0, np.linspace(-20.0, 60.0, 81))
    ps = [r.p_star for r in rows]
    assert ps[0] == pytest.approx(0.5, abs=1e-6)
    assert ps[-1] == pytest.approx(0.25, abs=1e-3)
    assert rows[-1].capacity_bits == pytest.approx(2.0, abs=1e-3)
    assert all(b <= a + 1e-12 for a, b in zip(ps, ps[1:]))
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _announce(5, f"p* 0.5 -> 0.25 monotone, cap(hi)="
                 f"{rows[-1].capacity_bits:.6f} ({elapsed:.2f}s)")


def test_criterion_06_no_harvest_baseline():
    t0 = time.time()
    prob = ie.example_problem(4.0, 8.0, 1.0, energy_off=True)
    sol = ie.mhc_capacity(prob)
    want = min(2.0, 0.5 * np.log2(9.0))
    assert sol.capacity_bits == pytest.approx(want, abs=1e-6)
    assert want == pytest.approx(1.58496, abs=1e-5)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _announce(6, f"zero-harvest capacity {sol.capacity_bits:.6f} ({elapsed:.2f}s)")


def test_criterion_07_nested_equals_cutset():
    t0 = time.time()
    worst = 0.0
    for kind in DM_DM_KINDS:
        prob = make_dm_dm_instance(kind)
        nested = ie.mhc_capacity(prob).capacity_bits
        cutset = ie.cutset_joint_oracle(prob, steps=21)
        worst = max(worst, abs(nested - cutset))
        assert abs(nested - cutset) <= 1e-3, (kind, nested, cutset)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _announce(7, f"nested vs cut-set worst gap {worst:.2e} bits over "
                 f"{len(DM_DM_KINDS)} instances ({elapsed:.1f}s)")


def test_criterion_08_ba_monotone_and_bsc_value():
    t0 = time.time()
    ch = ie.DmChannel.point_to_point(
        ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0]),
        [[0.89, 0.11], [0.11, 0.89]])
    res = ie.dm_capacity_with_cost(ch)
    assert all(b >= a - 1e-10 for a, b in zip(res.iterates, res.iterates[1:]))
    want = 1.0 - binary_entropy(0.11)
    assert res.capacity_bits == pytest.approx(want, abs=1e-5)
    rng = np.random.default_rng(31)
    for _ in range(5):
        W = rng.dirichlet(np.ones(3), size=3)
        chr_ = ie.DmChannel.point_to_point(
            ie.Alphabet([0.0, 1.0, 2.0]), ie.Alphabet([0.0, 1.0, 2.0]), W)
        c = ie.CostFn(rng.uniform(0.0, 2.0, size=3))
        r = ie.dm_capacity_with_cost(chr_, c, float(np.median(c.values)))
        assert all(b >= a - 1e-10 for a, b in zip(r.iterates, r.iterates[1:]))
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _announce(8, f"iterates non-decreasing, BSC(0.11) cap "
                 f"{res.capacity_bits:.6f} ({elapsed:.2f}s)")


def test_criterion_09_simulator_energy_law(energy_reports):
    reports, elapsed = energy_reports
    policy = ie.GaussianPhasePolicy(0.0, 1.0)
    cb1, cb2 = ie.generate_mac_codebooks(policy, 10000, 0.0, 0.0, seed=0)
    big = ie.simulate_mac_energy(cb1, cb2, ie.GaussianMacSampler(1.0),
                                 np.square, 4.5, 0.1, 200, seed=0)
    assert big.mean_bn == pytest.approx(5.0, abs=0.1)
    monotone = sum(
        1 for seed in range(20)
        if reports[(seed, 100)].viol_freq >= reports[(seed, 1000)].viol_freq
        >= reports[(seed, 10000)].viol_freq)
    assert monotone > 10
    assert elapsed < 120.0
    _announce(9, f"mean block energy {big.mean_bn:.4f}, monotone trend on "
                 f"{monotone}/20 seeds ({elapsed:.1f}s)")


def test_criterion_10_energy_markov_bound(energy_reports):
    reports, _ = energy_reports
    for rep in reports.values():
        assert ie.check_energy_markov_bound(rep, 4.5, 0.1)
    _announce(10, f"mean-vs-tail inequality held on all {len(reports)} reports")


def test_criterion_11_harvesting_budget():
    t0 = time.time()
    levels = ie.Alphabet([-2.0, -1.0, 1.0, 2.0])
    hop1 = ie.DmChannel.noiseless(levels)
    squares = np.array([4.0, 1.0, 1.0, 4.0])
    cb = ie.generate_codebook(ie.Pmf.uniform(4), 2048, 4.0 / 2048,
                              alphabet=levels, cost=ie.CostFn(squares),
                              budget=4.0, seed=3)
    rep = ie.simulate_mhc_harvest(cb, ie.DmPointToPointSampler(hop1),
                                  ie.ScalingGaussianRelay(),
                                  ie.EnergyFn(squares), 0.0, 10000, seed=3)
    assert rep.relay_viol_freq == 0.0
    assert rep.mean_bn == pytest.approx(2.5, abs=0.05)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _announce(11, f"0 budget violations in 10^4 trials, harvested mean "
                  f"{rep.mean_bn:.4f} ({elapsed:.1f}s)")


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.time()
    invocations = [
        ["gaussian-mac", "--P", "1", "--b-min", "0", "--b-max", "5",
         "--steps", "51"],
        ["mhc-example", "--P1", "4", "--P2", "0", "--snr-min", "-20",
         "--snr-max", "60", "--steps", "41"],
        ["simulate-mac", "--P", "1", "--n", "1000", "--trials", "50",
         "--seed", "11", "--b-min", "4.5", "--eps", "0.1"],
        ["simulate-mhc", "--P1", "4", "--P2", "0", "--n", "512",
         "--trials", "200", "--seed", "12"],
    ]
    for k, argv in enumerate(invocations):
        a = tmp_path / f"run{k}a.csv"
        b = tmp_path / f"run{k}b.csv"
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), argv
    elapsed = time.time() - t0
    _announce(12, f"byte-identical reruns for {len(invocations)} "
                  f"subcommands ({elapsed:.1f}s)")


def test_criterion_13_cooperative_ceiling(oracle_matrix):
    """No sum rate beats the senders' joint-input optimum under the same
    floor: one Blahut-Arimoto run on the channel from the input pair, with
    E[b(Y)] >= B read as the budget E[-b] <= -B (the costs are zero)."""
    rows, _ = oracle_matrix
    t0 = time.time()
    sum_rows = [row for row in rows if row[2:4] == (1.0, 1.0)]
    for seed, b_target, _, _, v4, v5, vo in sum_rows:
        ceiling = cooperative_ceiling(make_random_mac_instance(seed), b_target)
        for value in (v4, v5, vo):
            assert value <= ceiling + 1e-12, (seed, b_target, value, ceiling)
    elapsed = time.time() - t0
    _announce(13, f"{3 * len(sum_rows)} sum rates at most their cooperative "
                  f"ceiling ({elapsed:.2f}s)")
