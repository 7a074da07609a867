"""The three workloads: their generated inputs, invocations and output checks.

Every check compares an output with an independent reference from
`reference.py` or with a property the method must have; none compares with
a stored copy of an earlier output.  One checked CSV row, one JSON document
or one simulation call is one operation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Known program faults kept in a workload: operation key -> the one check it
# fails.  Anything else that fails makes the run incorrect.
KNOWN_FAULTS = {
    # mac_boundary_point returns a dominated sum-rate point here: R1+R2 =
    # 0.143661 while the R2-only row at the same B reaches 0.143783.
    "region/r2024/B=0.889613/w=1,1": "dominance",
}

REGION_WEIGHTS = ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
ACCEPTANCE_SEEDS = (2024, 2025, 2026, 2027, 2028)
LP_SLACK_BITS = 0.02
GAP_BITS = 1e-4  # allowed shortfall below a closed form or an exact solve
MC_SIGMAS = 5.0
TOL = 1e-9


@dataclass
class Invocation:
    """One closed-loop request: a CLI subcommand or a library child call."""

    label: str
    argv: list
    check: Callable  # (outdir) -> (list of (op key, {check: detail}), rate bits)
    ops: int
    kind: str = "cli"  # "cli": infoenergy argv; "child": mc_child.py argv


@dataclass
class Workload:
    workdir: Path  # generated inputs
    invocations: list = field(default_factory=list)
    lp_tables: list = field(default_factory=list)  # MacLpReference per MAC instance

    @property
    def outdir(self) -> Path:
        """Where the invocations write; emptied before every pass."""
        return self.workdir / "out"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    rate_bits: float = 0.0

    def add(self, key: str, problems: dict):
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if set(problems) != {KNOWN_FAULTS.get(key)}:
            detail = "; ".join(f"{k}: {v}" for k, v in problems.items())
            self.unexpected.append(f"{key}: {detail}")


def check_invocation(inv: Invocation, outdir: Path, exit_code: int, stderr: str, tally: Tally):
    """Run an invocation's checks and tally exactly inv.ops operations."""
    if exit_code != 0:
        for k in range(inv.ops):
            tally.add(f"{inv.label}/op{k}", {"exit": f"code {exit_code}: {stderr.strip()[-200:]}"})
        return
    try:
        ops, bits = inv.check(outdir)
        if len(ops) != inv.ops:
            raise ValueError(f"{len(ops)} operations in the output, expected {inv.ops}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        for k in range(inv.ops):
            tally.add(f"{inv.label}/op{k}", {"parse": repr(exc)})
        return
    for key, problems in ops:
        tally.add(key, problems)
    tally.rate_bits += bits


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def g6(x: float) -> str:
    """The program's print format: 6 significant digits."""
    return format(float(x), ".6g")


def ptol(x: float) -> float:
    """Half a unit in the 6th significant digit of x: the print rounding."""
    x = abs(float(x))
    return 0.5 * 10.0 ** (math.floor(math.log10(x)) - 5) + 1e-12 if x > 0 else 1e-12


def read_csv(path: Path, header: str):
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[:1]!r} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def write_channel(path: Path, W, costs, energy, rng=None):
    """Write a channel file: W of shape (n1, n2, ny) or (n1, ny).

    With an rng the alphabet symbols are random distinct values.  The solvers
    treat symbols as labels only (costs and energies come from their own
    tables), so every seed poses the same problem in a different file.
    """
    W = np.asarray(W, dtype=float)
    if rng is None:
        alphabets = [np.arange(float(n)) for n in W.shape]
    else:
        alphabets = [rng.choice(np.arange(-100, 101) / 4.0, n, replace=False) for n in W.shape]
    doc = {
        "input_alphabets": [a.tolist() for a in alphabets[:-1]],
        "output_alphabet": alphabets[-1].tolist(),
        "transition": W.reshape(-1, W.shape[-1]).tolist(),
        "cost": [list(map(float, c)) for c in costs],
        "energy": list(map(float, energy)),
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def adder_law(n1: int = 2, n2: int = 2) -> np.ndarray:
    """Noiseless adder Y = X1 + X2 on {0..n1-1} x {0..n2-1}."""
    W = np.zeros((n1, n2, n1 + n2 - 1))
    for i in range(n1):
        for j in range(n2):
            W[i, j, i + j] = 1.0
    return W


# ---------------------------------------------------------------------------
# region: mac-region sweeps
# ---------------------------------------------------------------------------


@dataclass
class MacInstance:
    label: str
    W: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    energy: np.ndarray
    p1: float
    p2: float
    b_min: float
    b_max: float
    steps: int
    closed_form: Callable | None = None


def _random_acceptance_instance(seed: int) -> MacInstance:
    """The acceptance suite's make_random_mac_instance law at one seed."""
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(3), size=(2, 2))
    energy = rng.uniform(0.0, 2.0, size=3)
    zero = np.zeros(2)
    emax = ref.mac_emax(W, energy, zero, zero, 0.0, 0.0)
    return MacInstance(f"r{seed}", W, zero, zero, energy, 0.0, 0.0, 0.0, 0.9 * emax, 2)


def _ternary_instance() -> MacInstance:
    """3-symbol X1, binary X2, noisy adder; both cost budgets bind.

    Y = X1 + X2 is delivered with probability 0.8, else uniform on {0..3};
    c1 = x1^2 with P1 = 1, c2 = x2 with P2 = 0.3, b(y) = y.  The budgets cap
    Emax at 1.34 (2.7 without them), so B = 1.6 is infeasible because of
    the costs; at B = 0.8 the floor is slack and the budgets bind.
    """
    x1, x2 = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0])
    return MacInstance("ternary", 0.8 * adder_law(3, 2) + 0.05, x1 ** 2, x2, np.arange(4.0),
                       1.0, 0.3, 0.8, 1.6, 2)


def _check_region(inst: MacInstance, lp: ref.MacLpReference, path: Path):
    rows = read_csv(path, "B,w1,w2,R1,R2,EbY,feasible")
    b_grid = np.linspace(inst.b_min, inst.b_max, inst.steps)
    expect = [(b, w) for b in b_grid for w in REGION_WEIGHTS]
    if len(rows) != len(expect):
        raise ValueError(f"{len(rows)} rows, expected {len(expect)}")
    n1, n2, ny = inst.W.shape
    emax = ref.mac_emax(inst.W, inst.energy, inst.c1, inst.c2, inst.p1, inst.p2)
    keys, problems, value = [], [], {}  # value[(b, w)] = (w.R, its print tolerance)
    for (b, (w1, w2)), row in zip(expect, rows):
        keys.append(f"region/{inst.label}/B={g6(b)}/w={w1:g},{w2:g}")
        bad = {}
        problems.append(bad)
        if row[:3] != [g6(b), g6(w1), g6(w2)]:
            bad["layout"] = f"row {row[:3]} for B={g6(b)} w=({w1:g},{w2:g})"
        r1, r2, eby = (float(v) for v in row[3:6])
        feasible = row[6] == "1"
        if feasible != (b <= emax + TOL):
            bad["feasibility"] = f"feasible={row[6]} with Emax={emax:.6g}"
        if not feasible:
            continue
        v, tol = w1 * r1 + w2 * r2, w1 * ptol(r1) + w2 * ptol(r2)
        value[(b, (w1, w2))] = (v, tol)
        if eby < b - ptol(eby):
            bad["energy"] = f"EbY={row[5]} < B"
        if (min(r1, r2) < 0 or r1 > math.log2(n1) + ptol(r1) or r2 > math.log2(n2) + ptol(r2)
                or r1 + r2 > math.log2(ny) + ptol(r1) + ptol(r2)):
            bad["range"] = f"R=({row[3]},{row[4]}) outside log2 of the alphabet sizes"
        lp_value = lp.value(b, w1, w2)
        if lp_value is not None and v < lp_value - LP_SLACK_BITS:
            bad["lp"] = f"{v:.6g} < LP reference {lp_value:.6g} - {LP_SLACK_BITS}"
        if inst.closed_form is not None:
            cf = inst.closed_form(b, w1, w2)
            if not cf - GAP_BITS - tol <= v <= cf + tol:
                bad["closed_form"] = f"{v:.6g} vs closed form {cf:.6g}"

    for k, (b, w) in enumerate(expect):
        here = value.get((b, w))
        if here is None:
            continue
        lower = value.get((b_grid[k // 3 - 1], w)) if k >= 3 else None
        if lower is not None and here[0] > lower[0] + here[1] + lower[1]:
            problems[k]["monotone"] = f"{here[0]:.6g} above {lower[0]:.6g} at the lower B"
        if w == (1.0, 1.0):
            best = max(value.get((b, single), (0.0,))[0] for single in ((1.0, 0.0), (0.0, 1.0)))
            if here[0] < best - here[1] - ptol(best):
                problems[k]["dominance"] = f"R1+R2={here[0]:.6g} < single-user {best:.6g}"
    return list(zip(keys, problems)), sum(v[0] for v in value.values())


def _region_invocations(instances, workdir: Path, rng):
    invs, tables = [], []
    for inst in instances:
        path = workdir / f"{inst.label}.json"
        write_channel(path, inst.W, [inst.c1, inst.c2], inst.energy, rng)
        table = ref.MacLpReference(inst.W, inst.energy, inst.c1, inst.c2, inst.p1, inst.p2)
        tables.append(table)
        out = workdir / "out" / f"{inst.label}.csv"
        argv = ["mac-region", "--channel", str(path), "--P1", repr(inst.p1), "--P2", repr(inst.p2),
                "--b-min", repr(inst.b_min), "--b-max", repr(inst.b_max),
                "--steps", str(inst.steps), "--out", str(out)]
        invs.append(Invocation(
            f"region/{inst.label}", argv,
            lambda _wd, inst=inst, table=table, out=out: _check_region(inst, table, out),
            ops=3 * inst.steps))
    return invs, tables


def build_region(seed: int, workdir: Path, quick: bool = False) -> Workload:
    zero = np.zeros(2)
    adder = MacInstance("adder", adder_law(), zero, zero, np.arange(3.0), 0.0, 0.0,
                        0.0, 2.0, 9, closed_form=ref.adder_closed_form)
    instances = [_random_acceptance_instance(s) for s in ACCEPTANCE_SEEDS]
    if not quick:
        instances = [adder] + instances + [_ternary_instance()]
    else:
        instances = instances[:1]
    rng = np.random.default_rng([seed, 1])
    return Workload(workdir, *_region_invocations(instances, workdir, rng))


# ---------------------------------------------------------------------------
# figures: gaussian-mac, mhc-example and mhc
# ---------------------------------------------------------------------------


def _check_gaussian(power: float, b_grid, path: Path):
    rows = read_csv(path, "P,B,R_timeshare,lambda,P_prime,P_dprime,R_no_ts,feasible")
    if len(rows) != len(b_grid):
        raise ValueError(f"{len(rows)} rows, expected {len(b_grid)}")
    flat = 0.5 * math.log2(1.0 + 2.0 * power)
    ops, bits = [], 0.0
    for b, row in zip(b_grid, rows):
        problems = {}
        if row[:2] != [g6(power), g6(b)]:
            problems["layout"] = f"row {row[:2]} for P={g6(power)} B={g6(b)}"
        rate, no_ts = float(row[2]), float(row[6])
        cf = ref.gaussian_timeshare_rate(power, b)
        if row[7] != "1":
            problems["feasibility"] = f"feasible={row[7]} with B <= 4P+1"
        elif b <= 2.0 * power + 1.0:
            if abs(rate - cf) > ptol(cf):
                problems["closed_form"] = f"{row[2]} != {g6(cf)}"
        elif not cf - GAP_BITS - ptol(rate) <= rate <= cf + ptol(rate):
            problems["closed_form"] = f"{row[2]} outside [{cf - GAP_BITS:.6g}, {cf:.6g}]"
        want_no_ts = flat if b <= 2.0 * power + 1.0 + 1e-12 else 0.0
        if abs(no_ts - want_no_ts) > ptol(want_no_ts):
            problems["no_ts"] = f"R_no_ts={row[6]} != {g6(want_no_ts)}"
        bits += rate
        ops.append((f"figures/gaussian/P={g6(power)}/B={g6(b)}", problems))
    return ops, bits


def _check_relay_example(p1: float, p2: float, snr_grid, path: Path):
    rows = read_csv(path, "snr,N0,capacity_bits,p_star")
    if len(rows) != len(snr_grid):
        raise ValueError(f"{len(rows)} rows, expected {len(snr_grid)}")
    p_max = min(0.5, (p1 - 1.0) / 6.0)
    ops, bits = [], 0.0
    for snr, row in zip(snr_grid, rows):
        problems = {}
        n0_true = 2.0 ** (-snr / 10.0)
        n0, cap, p_star = float(row[1]), float(row[2]), float(row[3])
        if row[0] != g6(snr) or abs(n0 - n0_true) > ptol(n0_true):
            problems["layout"] = f"row {row[:2]} for snr={g6(snr)}"
        if not -ptol(p_star) <= p_star <= p_max + ptol(p_star):
            problems["p_star"] = f"p*={row[3]} outside [0, {p_max:.6g}]"
        # Recompute from the printed p* and N0, over their rounding intervals.
        corners = [float(ref.relay_example_rate(min(max(p, 0.0), 0.5), p2, max(n, 1e-300)))
                   for p in (p_star - ptol(p_star), p_star, p_star + ptol(p_star))
                   for n in (n0 - ptol(n0), n0 + ptol(n0))]
        if not min(corners) - ptol(cap) <= cap <= max(corners) + ptol(cap):
            problems["recompute"] = f"{row[2]} outside [{min(corners):.6g}, {max(corners):.6g}]"
        best = ref.relay_example_capacity(p1, p2, n0_true)
        if not best - GAP_BITS - ptol(cap) <= cap <= best + ptol(cap):
            problems["optimum"] = f"{row[2]} vs exact max-min {best:.6g}"
        bits += cap
        ops.append((f"figures/mhc-example/snr={g6(snr)}", problems))
    return ops, bits


@dataclass
class HopPair:
    """Two discrete hops with costs and a harvesting relay (for `mhc`)."""

    label: str
    W1: np.ndarray
    W2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    energy: np.ndarray
    p1: float
    p2: float


def _hop_pairs():
    """Two 3-symbol hop pairs.

    "harvest": noisy identity hops, quadratic costs with a binding hop-1
    budget, energy y^2 harvested at the relay.  "trickle": a cleaner first
    hop harvesting little energy, so the relay budget sets the rate.
    """
    eye = np.eye(3)
    return [
        HopPair("harvest", 0.85 * eye + 0.05, 0.7 * eye + 0.1, np.array([0.0, 1.0, 4.0]),
                np.array([0.0, 1.0, 4.0]), np.array([0.0, 1.0, 4.0]), 1.5, 0.2),
        HopPair("trickle", 0.94 * eye + 0.02, 0.9 * eye + 1 / 30,
                np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 2.0]),
                np.array([0.0, 0.2, 0.5]), 0.8, 0.1),
    ]


def _check_mhc(hp: HopPair, path: Path):
    doc = json.loads(path.read_text())
    problems = {}
    if set(doc) != {"capacity_bits", "harvested_budget", "input_pmf", "relay_pmf"}:
        problems["layout"] = f"keys {sorted(doc)}"
    cap = float(doc["capacity_bits"])
    p = np.array(doc["input_pmf"], dtype=float)
    r = np.array(doc["relay_pmf"] if doc["relay_pmf"] is not None else [], dtype=float)
    for name, v in (("input_pmf", p), ("relay_pmf", r)):
        if v.shape != (3,) or v.min() < 0 or abs(v.sum() - 1.0) > TOL:
            problems["pmf"] = f"{name}={v.tolist()} is not a pmf on 3 symbols"
    if "pmf" not in problems:
        harvested = float(p @ (hp.W1 @ hp.energy)) + hp.p2
        i1 = ref.p2p_information(p, hp.W1)
        i2 = ref.p2p_information(r, hp.W2)
        if abs(cap - min(i1, i2)) > 1e-8:
            problems["recompute"] = f"capacity {cap!r} != min(I1, I2) = {min(i1, i2)!r}"
        if abs(float(doc["harvested_budget"]) - harvested) > 1e-8:
            problems["harvest"] = f"budget {doc['harvested_budget']!r} != {harvested!r}"
        if p @ hp.c1 > hp.p1 + TOL:
            problems["hop1_cost"] = f"E[c1]={p @ hp.c1!r} > P1={hp.p1}"
        if r @ hp.c2 > harvested + TOL:
            problems["hop2_cost"] = f"E[c2]={r @ hp.c2!r} > harvested budget {harvested!r}"
    return [(f"figures/mhc/{hp.label}", problems)], cap


def build_figures(seed: int, workdir: Path, quick: bool = False) -> Workload:
    invs = []
    gauss = [(1.0, ["--b-min", "0", "--b-max", "5", "--steps", "51"], np.linspace(0.0, 5.0, 51)),
             (0.5, ["--b-min", "0", "--steps", "51"], np.linspace(0.0, 3.0, 51)),
             (2.0, ["--b-min", "0", "--steps", "51"], np.linspace(0.0, 9.0, 51))]
    for power, flags, grid in gauss[:1] if quick else gauss:
        out = workdir / "out" / f"gaussian-{power:g}.csv"
        invs.append(Invocation(
            f"figures/gaussian/P={power:g}",
            ["gaussian-mac", "--P", repr(power), *flags, "--out", str(out)],
            lambda _wd, power=power, grid=grid, out=out: _check_gaussian(power, grid, out),
            ops=len(grid)))
    snr = np.linspace(-20.0, 60.0, 81)
    out = workdir / "out" / "relay.csv"
    invs.append(Invocation(
        "figures/mhc-example",
        ["mhc-example", "--P1", "4", "--P2", "0", "--snr-min", "-20", "--snr-max", "60",
         "--steps", "81", "--out", str(out)],
        lambda _wd, out=out: _check_relay_example(4.0, 0.0, snr, out), ops=len(snr)))
    rng = np.random.default_rng([seed, 2])
    for hp in _hop_pairs():
        hop1, hop2 = workdir / f"{hp.label}-hop1.json", workdir / f"{hp.label}-hop2.json"
        write_channel(hop1, hp.W1, [hp.c1], hp.energy, rng)
        write_channel(hop2, hp.W2, [hp.c2], np.zeros(3), rng)
        out = workdir / "out" / f"{hp.label}.json"
        invs.append(Invocation(
            f"figures/mhc/{hp.label}",
            ["mhc", "--channel", str(hop1), "--channel", str(hop2), "--P1", repr(hp.p1),
             "--P2", repr(hp.p2), "--out", str(out)],
            lambda _wd, hp=hp, out=out: _check_mhc(hp, out), ops=1))
    return Workload(workdir, invs)


# ---------------------------------------------------------------------------
# montecarlo: simulate-mac, simulate-mhc and the library-only simulators
# ---------------------------------------------------------------------------


def _sim_report(path: Path):
    rows = read_csv(path, "n,trials,seed,mean_bn,viol_freq,err_rate,relay_viol_freq")
    if len(rows) != 1:
        raise ValueError(f"{len(rows)} report rows, expected 1")
    return rows[0]


def _check_law(key, row, n, trials, seed, mean, se, extra=None):
    problems = {}
    if row[:3] != [str(n), str(trials), str(seed)]:
        problems["layout"] = f"row {row[:3]} for n={n} trials={trials} seed={seed}"
    got = float(row[3])
    if abs(got - mean) > MC_SIGMAS * se + ptol(got):
        problems["mean"] = f"mean {row[3]} is {abs(got - mean) / se:.1f} SE from {mean:.6g}"
    problems.update(extra or {})
    return [(key, problems)]


def _check_coherent(path, n, trials, seed, power, b_target, eps):
    row = _sim_report(path)
    mean, se = ref.coherent_energy_law(power, n, trials)
    got, viol = float(row[3]), float(row[4])
    extra = {}
    if not 0.0 <= viol <= 1.0 or got < (b_target - eps) * (1.0 - viol) - ptol(got):
        extra["markov"] = f"mean {row[3]} < (B-eps) Pr[no shortfall] with viol_freq {row[4]}"
    return _check_law("montecarlo/simulate-mac/gaussian", row, n, trials, seed, mean, se, extra), 0.0


def _check_adder_sim(path, n, trials, seed):
    row = _sim_report(path)
    # b(y) = y = x1 + x2 on uniform binary inputs: per-use mean 1, variance 1/2.
    mean, se = ref.codeword_mean_law([0.0, 1.0, 1.0, 2.0], np.full(4, 0.25), n)
    return _check_law("montecarlo/simulate-mac/adder", row, n, trials, seed, mean, se), 0.0


def _check_relay_sim(path, n, trials, seed):
    row = _sim_report(path)
    mean, se = ref.codeword_mean_law([4.0, 1.0, 1.0, 4.0], np.full(4, 0.25), n)
    extra = {} if row[6] == "0" else {"relay": f"scaling relay violations {row[6]} != 0"}
    return _check_law("montecarlo/simulate-mhc", row, n, trials, seed, mean, se, extra), 0.0


def _check_child(outdir: Path, spec: dict):
    ops = []
    words = np.load(outdir / "codebook.npy")
    problems = {}
    if words.shape != (2 ** spec["codebook_bits"], spec["codebook_n"]):
        problems["shape"] = f"codebook shape {words.shape}"
    if not np.isin(words, spec["levels"]).all():
        problems["alphabet"] = "codeword symbols outside the alphabet"
    cost = (words.astype(float) ** 2).mean(axis=1)
    if cost.max() > spec["budget"] + TOL:
        problems["budget"] = f"{int((cost > spec['budget'] + TOL).sum())} codewords over budget, max {cost.max():.6g}"
    ops.append(("montecarlo/generate_codebook", problems))

    doc = json.loads((outdir / "decode.json").read_text())
    problems = {}
    m = 2 ** spec["decode_bits"]
    bound = ref.ml_union_bound(0.9 * adder_law() + 0.1 / 3, spec["decode_n"], m, m)
    errors = doc["err"] * spec["decode_trials"]
    # Markov on the ensemble bound: more than this many errors has odds < 1e-6.
    allowed = math.floor(1e6 * spec["decode_trials"] * bound)
    if abs(errors - round(errors)) > 1e-9 or errors > allowed:
        problems["decode"] = f"err {doc['err']} over {spec['decode_trials']} trials, bound {bound:.3g}"
    ops.append(("montecarlo/simulate_decode", problems))
    return ops, (1.0 - doc["err"]) * 2 * spec["decode_bits"]


def child_spec(seed: int, quick: bool = False) -> dict:
    return {
        "seed": seed,
        "levels": [-2, -1, 1, 2],
        "budget": 2.5,
        "codebook_n": 256,
        "codebook_bits": 10 if quick else 13,
        "decode_n": 200,
        "decode_bits": 6,
        "decode_trials": 20 if quick else 100,
    }


def build_montecarlo(seed: int, workdir: Path, quick: bool = False) -> Workload:
    invs = []
    n, trials = (1000, 50) if quick else (10000, 200)
    out = workdir / "out" / "sim-gaussian.csv"
    invs.append(Invocation(
        "montecarlo/simulate-mac/gaussian",
        ["simulate-mac", "--P", "1", "--n", str(n), "--trials", str(trials), "--seed", str(seed),
         "--b-min", "4.5", "--eps", "0.1", "--out", str(out)],
        lambda _wd, out=out: _check_coherent(out, n, trials, seed, 1.0, 4.5, 0.1), ops=1))
    adder = workdir / "adder.json"
    write_channel(adder, adder_law(), [np.zeros(2), np.zeros(2)], np.arange(3.0))
    out = workdir / "out" / "sim-adder.csv"
    invs.append(Invocation(
        "montecarlo/simulate-mac/adder",
        ["simulate-mac", "--channel", str(adder), "--n", str(n), "--trials", str(trials),
         "--seed", str(seed), "--b-min", "1", "--out", str(out)],
        lambda _wd, out=out: _check_adder_sim(out, n, trials, seed), ops=1))
    n_relay, t_relay = (2048, 1000) if quick else (2048, 10000)
    out = workdir / "out" / "sim-relay.csv"
    invs.append(Invocation(
        "montecarlo/simulate-mhc",
        ["simulate-mhc", "--P1", "4", "--P2", "0", "--n", str(n_relay), "--trials", str(t_relay),
         "--seed", str(seed), "--out", str(out)],
        lambda _wd, out=out: _check_relay_sim(out, n_relay, t_relay, seed), ops=1))
    spec = child_spec(seed, quick)
    invs.append(Invocation(
        "montecarlo/library", ["--spec", json.dumps(spec), "--out", str(workdir / "out")],
        lambda outdir, spec=spec: _check_child(outdir, spec), ops=2, kind="child"))
    return Workload(workdir, invs)


WORKLOADS = {"region": build_region, "figures": build_figures, "montecarlo": build_montecarlo}
