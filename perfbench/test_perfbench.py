"""Tests of the benchmark itself: references against hand values, the
tracer's span arithmetic, and one short pass of every workload with its
checks, so the harness cannot rot without notice.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import math
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_adder_output_entropy_is_1_5_bits():
    W = workloads.adder_law()
    half = np.array([[0.5, 0.5]])
    i1, i2, i_sum, eb, _, _ = ref.mac_column_stats(half, half, W, np.arange(3.0),
                                                   np.zeros(2), np.zeros(2))[0]
    assert i_sum == pytest.approx(1.5, abs=1e-12)
    assert (i1, i2, eb) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    assert ref.adder_closed_form(0.5, 1.0, 1.0) == 1.5


def test_bsc_capacity_is_one_minus_h():
    eps = 0.11
    W = np.array([[1 - eps, eps], [eps, 1 - eps]])
    want = 1.0 - (-eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps))
    assert ref.p2p_information([0.5, 0.5], W) == pytest.approx(want, abs=1e-12)


def test_gaussian_rate_is_half_log2_3_at_p1():
    assert ref.gaussian_timeshare_rate(1.0, 0.0) == pytest.approx(0.5 * math.log2(3), abs=1e-15)
    assert ref.gaussian_timeshare_rate(1.0, 3.0) == pytest.approx(0.5 * math.log2(3), abs=1e-15)
    assert ref.gaussian_timeshare_rate(1.0, 5.0) == 0.0
    assert ref.gaussian_timeshare_rate(1.0, 5.5) == -math.inf


def test_emax_enumerates_cost_polytope_vertices():
    verts = ref.cost_polytope_vertices(np.array([0.0, 1.0, 4.0]), 1.0)
    assert sorted(map(tuple, verts)) == [(0.0, 1.0, 0.0), (0.75, 0.0, 0.25), (1.0, 0.0, 0.0)]
    inst = workloads._ternary_instance()
    assert ref.mac_emax(inst.W, inst.energy, inst.c1, inst.c2, 1.0, 0.3) == pytest.approx(1.34)
    zero = np.zeros(2)
    assert ref.mac_emax(workloads.adder_law(), np.arange(3.0), zero, zero, 0, 0) == 2.0


def test_lp_reference_meets_adder_closed_form():
    zero = np.zeros(2)
    lp = ref.MacLpReference(workloads.adder_law(), np.arange(3.0), zero, zero, 0, 0)
    for b in np.linspace(0.0, 2.0, 9):
        for w in workloads.REGION_WEIGHTS:
            cf = ref.adder_closed_form(b, *w)
            assert cf - 1e-3 <= lp.value(b, *w) <= cf + 1e-9
    assert lp.value(2.5, 1.0, 1.0) is None


def test_relay_example_endpoints():
    # N0 = 4 (snr -20): p = 1/2 gives H4 = 1 and hop 2 gives 0.5 log2(2).
    assert ref.relay_example_capacity(4.0, 0.0, 4.0) == pytest.approx(0.5, abs=1e-12)
    # Clean second hop: the uniform four-level input, 2 bits.
    assert ref.relay_example_capacity(4.0, 0.0, 1e-9) == pytest.approx(2.0, abs=1e-12)


def test_monte_carlo_laws():
    mean, se = ref.coherent_energy_law(1.0, 100, 2)
    assert mean == 5.0 and se == pytest.approx(math.sqrt(18.0 / 200))
    mean, se = ref.codeword_mean_law([4.0, 1.0, 1.0, 4.0], np.full(4, 0.25), 9)
    assert mean == 2.5 and se == pytest.approx(0.5)
    noisy = 0.9 * workloads.adder_law() + 0.1 / 3
    assert ref.ml_union_bound(noisy, 200, 64, 64) < 1e-20
    useless = np.full((2, 2, 3), 1.0 / 3.0)
    assert ref.ml_union_bound(useless, 200, 64, 64) >= 1.0


def test_tracer_self_time_excludes_children_across_threads():
    mod = types.ModuleType("fake_pkg.layer")
    exec(
        "import time\n"
        "def leaf():\n    time.sleep(0.02)\n"
        "def mid():\n    leaf(); leaf()\n"
        "def top(pool):\n    list(pool.map(lambda _: mid(), range(4)))\n",
        mod.__dict__)
    tracer = Tracer()
    tracer.install([mod])
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            t0 = time.perf_counter()
            mod.top(pool)
            wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    stats = tracer.summary()
    assert stats["layer.leaf"]["calls"] == 8 and stats["layer.mid"]["calls"] == 4
    assert stats["layer.mid"]["self_ms"] < 5.0
    # Pool spans hang under `top`: its self time is what the children do not cover.
    assert 0.0 <= stats["layer.top"]["self_ms"] < 0.5 * wall * 1e3
    assert mod.leaf.__name__ == "leaf" and not hasattr(mod.leaf, "__wrapped__")


def test_checks_flag_wrong_outputs(tmp_path):
    csv = tmp_path / "g.csv"
    csv.write_text("P,B,R_timeshare,lambda,P_prime,P_dprime,R_no_ts,feasible\n"
                   "1,0,0.792481,1,1,0,0.792481,1\n"
                   "1,4,0.5001,1,1,0,0,1\n")
    ops, _ = workloads._check_gaussian(1.0, [0.0, 4.0], csv)
    assert ops[0][1] == {} and set(ops[1][1]) == {"closed_form"}

    inst = workloads._random_acceptance_instance(2025)
    out = tmp_path / "r.csv"
    out.write_text("B,w1,w2,R1,R2,EbY,feasible\n"
                   "0,1,0,0.404064,0,1.03177,1\n0,1,1,0.404064,0,1.03177,1\n"
                   "0,0,1,0,0.332575,0.912091,1\n"
                   f"{workloads.g6(inst.b_max)},1,0,0.3,0,1.2,1\n"
                   f"{workloads.g6(inst.b_max)},1,1,0.205763,0,1.39397,1\n"
                   f"{workloads.g6(inst.b_max)},0,1,0,0.0875642,1.39397,1\n")
    lp = ref.MacLpReference(inst.W, inst.energy, inst.c1, inst.c2, 0, 0)
    ops, _ = workloads._check_region(inst, lp, out)
    assert [set(p) for _, p in ops] == [set(), set(), set(), {"energy"}, {"dominance"}, set()]


def _short_pass(name, tmp_path, trace=False):
    wl = workloads.WORKLOADS[name](7, tmp_path, quick=True)
    runner = run.Runner(wl, ROOT, seconds=1e-3)
    if trace:
        result = runner.run_traced(tmp_path / "trace.npz")
    else:
        runner.measure(runner.subprocess_pass)
        result = runner.result({})
    assert result["attempted"] == runner.ops_per_pass()
    return runner, result


def test_region_short_pass_keeps_the_known_fault(tmp_path):
    _, result = _short_pass("region", tmp_path)
    assert result["correct"] and result["failed"] == 1


@pytest.mark.parametrize("name", ["figures", "montecarlo"])
def test_short_pass_is_correct(name, tmp_path):
    _, result = _short_pass(name, tmp_path)
    assert result["correct"] and result["failed"] == 0


def test_traced_short_pass_reports_every_layer_metric(tmp_path):
    runner, result = _short_pass("montecarlo", tmp_path, trace=True)
    assert result["correct"] and set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["linksim.generate_codebook.calls"]["value"] == 8
    assert (tmp_path / "trace.npz").is_file()


def test_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "figures", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
