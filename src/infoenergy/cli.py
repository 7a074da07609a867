"""Command-line front end.

One subcommand per reproduction artifact, each a pure function of its flags,
input file, and seed: rerunning an invocation writes byte-identical output.
Exit codes: 0 success, 2 invalid arguments, 3 infeasible problem, 4 malformed
channel file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .channel import ChannelFormatError, InfeasibleError, Pmf, load_channel_file
from .linksim import (GaussianMacSampler, GaussianPhasePolicy, DmMacSampler,
                      DmPointToPointSampler, ScalingGaussianRelay,
                      generate_codebook, generate_mac_codebooks,
                      simulate_mac_energy, simulate_mhc_harvest)
from .mac_region import (MacProblem, gaussian_mac_sweep, mac_region_sweep)
from .multihop import MhcProblem, mhc_capacity, relay_snr_sweep

REGION_WEIGHTS = ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
# Largest --steps a sweep accepts; the README's sweeps use at most 81.
MAX_STEPS = 10_000


@dataclass
class RunConfig:
    """Validated sweep range shared by the sweep subcommands."""

    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"range minimum {self.lo} exceeds maximum {self.hi}")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ValueError(f"sweeps need 2 <= --steps <= {MAX_STEPS}, got {self.steps}")

    def grid(self):
        return np.linspace(self.lo, self.hi, self.steps)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".6g")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoenergy",
        description="Capacity-energy trade-offs for multi-user channels "
                    "with received-energy constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *names):
        if "P" in names:
            p.add_argument("--P", type=_finite, default=1.0, help="per-sender power budget")
        if "P1" in names:
            p.add_argument("--P1", type=_finite, default=4.0, help="first cost budget")
        if "P2" in names:
            p.add_argument("--P2", type=_finite, default=0.0, help="second cost budget")
        if "b" in names:
            p.add_argument("--b-min", type=_finite, default=0.0, help="energy target range start")
            p.add_argument("--b-max", type=_finite, default=None, help="energy target range end")
        if "snr" in names:
            p.add_argument("--snr-min", type=_finite, default=-20.0)
            p.add_argument("--snr-max", type=_finite, default=60.0)
        if "steps" in names:
            p.add_argument("--steps", type=int, default=51,
                           help=f"grid points in the sweep (2 to {MAX_STEPS})")
        if "q" in names:
            p.add_argument("--q-size", type=int, default=4, choices=range(1, 6),
                           help="time-sharing alphabet size")
        if "sim" in names:
            p.add_argument("--n", type=_positive, default=1000, help="blocklength")
            p.add_argument("--trials", type=_positive, default=200)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--eps", type=_finite, default=None,
                           help="energy slack (default 0.05*B)")
        if "channel" in names:
            p.add_argument("--channel", action="append", default=None,
                           help="channel specification file (repeat for two hops)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("gaussian-mac", help="sum rate vs energy floor, Gaussian two-sender")
    common(p, "P", "b", "steps")

    p = sub.add_parser("mac-region", help="discrete two-sender region boundary sweep")
    common(p, "P1", "P2", "b", "steps", "q", "channel")

    p = sub.add_parser("mhc", help="two-hop capacity with a harvesting relay")
    common(p, "P1", "P2", "channel")

    p = sub.add_parser("mhc-example", help="four-level relay example across SNR")
    common(p, "P1", "P2", "snr", "steps")
    p.add_argument("--snr-log10", action="store_true",
                   help="map SNR to N0 with base-10 instead of base-2 logs")

    p = sub.add_parser("simulate-mac", help="Monte Carlo received-energy check")
    common(p, "P", "b", "sim", "channel")

    p = sub.add_parser("simulate-mhc", help="Monte Carlo relay budget check")
    common(p, "P1", "P2", "sim", "channel")
    return parser


def _load_single_mac(paths):
    if not paths or len(paths) != 1:
        raise ValueError("this command needs exactly one --channel file")
    ch, costs, energy = load_channel_file(paths[0])
    if not ch.is_mac:
        raise ChannelFormatError(f"{paths[0]}: expected a two-input channel")
    return ch, costs, energy


def _cmd_gaussian_mac(args):
    b_max = args.b_max if args.b_max is not None else 4.0 * args.P + 1.0
    cfg = RunConfig(args.b_min, b_max, args.steps)
    rows = gaussian_mac_sweep([args.P], cfg.grid())
    lines = ["P,B,R_timeshare,lambda,P_prime,P_dprime,R_no_ts,feasible"]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in (
            r.power, r.b_target, r.r_timeshare, r.lam, r.p_prime,
            r.p_dprime, r.r_no_ts, r.feasible)))
    _emit(lines, args.out)
    return 0


def _cmd_mac_region(args):
    ch, costs, energy = _load_single_mac(args.channel)
    b_max = args.b_max if args.b_max is not None else 0.0
    cfg = RunConfig(args.b_min, b_max, args.steps)
    prob = MacProblem(ch, costs[0], costs[1], energy, args.P1, args.P2)
    rows = mac_region_sweep(prob, cfg.grid(), REGION_WEIGHTS, q_size=args.q_size)
    lines = ["B,w1,w2,R1,R2,EbY,feasible"]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in (
            r.b_target, r.w1, r.w2, r.r1, r.r2, r.eb, r.feasible)))
    _emit(lines, args.out)
    return 0


def _cmd_mhc(args):
    if not args.channel or len(args.channel) != 2:
        raise ValueError("mhc needs --channel twice: first hop, then second hop")
    hop1, costs1, energy = load_channel_file(args.channel[0])
    hop2, costs2, _ = load_channel_file(args.channel[1])
    if hop1.is_mac or hop2.is_mac:
        raise ChannelFormatError("mhc hops must be point-to-point channels")
    prob = MhcProblem(hop1, hop2, costs1[0], costs2[0], energy, args.P1, args.P2)
    sol = mhc_capacity(prob)
    doc = {
        "capacity_bits": float(sol.capacity_bits),
        "harvested_budget": float(sol.harvested_budget),
        "input_pmf": [float(v) for v in sol.input_pmf.probs],
        "relay_pmf": ([float(v) for v in sol.relay_pmf.probs]
                      if sol.relay_pmf is not None else None),
    }
    _emit([json.dumps(doc, indent=2)], args.out)
    return 0


def _cmd_mhc_example(args):
    cfg = RunConfig(args.snr_min, args.snr_max, args.steps)
    rows = relay_snr_sweep(args.P1, args.P2, cfg.grid(), snr_log10=args.snr_log10)
    lines = ["snr,N0,capacity_bits,p_star"]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in (r.snr, r.n0, r.capacity_bits, r.p_star)))
    _emit(lines, args.out)
    return 0


def _report_lines(report):
    lines = ["n,trials,seed,mean_bn,viol_freq,err_rate,relay_viol_freq"]
    lines.append(",".join(_fmt(v) for v in (
        report.n, report.trials, report.seed, report.mean_bn,
        report.viol_freq, report.err_rate, report.relay_viol_freq)))
    return lines


def _cmd_simulate_mac(args):
    b_target = args.b_min
    eps = args.eps if args.eps is not None else 0.05 * b_target
    if args.channel:
        ch, _, energy = _load_single_mac(args.channel)
        pol1 = Pmf.uniform(len(ch.input_alphabets[0]))
        pol2 = Pmf.uniform(len(ch.input_alphabets[1]))
        rate = 4.0 / args.n
        cb1 = generate_codebook(pol1, args.n, rate, alphabet=ch.input_alphabets[0],
                                seed=args.seed)
        cb2 = generate_codebook(pol2, args.n, rate, alphabet=ch.input_alphabets[1],
                                seed=args.seed + 1)
        sampler, b = DmMacSampler(ch), energy
    else:
        policy = GaussianPhasePolicy(0.0, 0.0, args.P)
        cb1, cb2 = generate_mac_codebooks(policy, args.n, 0.0, 0.0, seed=args.seed)
        sampler, b = GaussianMacSampler(1.0), np.square
    report = simulate_mac_energy(cb1, cb2, sampler, b, b_target, eps,
                                 args.trials, args.seed)
    _emit(_report_lines(report), args.out)
    return 0


def _cmd_simulate_mhc(args):
    if args.channel:
        if len(args.channel) != 1:
            raise ValueError("simulate-mhc takes at most one --channel (the first hop)")
        hop1, costs, energy = load_channel_file(args.channel[0])
        if hop1.is_mac:
            raise ChannelFormatError("the first hop must be point to point")
        cost1 = costs[0]
    else:
        from .multihop import example_problem
        prob = example_problem(args.P1, args.P2, 1.0)
        hop1, cost1, energy = prob.hop1, prob.c1, prob.b
    pmf = Pmf.uniform(len(hop1.input_alphabets[0]))
    # 16 codewords so the harvested average is not pinned to one draw
    cb1 = generate_codebook(pmf, args.n, 4.0 / args.n,
                            alphabet=hop1.input_alphabets[0],
                            cost=cost1, budget=args.P1, seed=args.seed)
    report = simulate_mhc_harvest(cb1, DmPointToPointSampler(hop1),
                                  ScalingGaussianRelay(), energy, args.P2,
                                  args.trials, args.seed)
    _emit(_report_lines(report), args.out)
    return 0


_COMMANDS = {
    "gaussian-mac": _cmd_gaussian_mac,
    "mac-region": _cmd_mac_region,
    "mhc": _cmd_mhc,
    "mhc-example": _cmd_mhc_example,
    "simulate-mac": _cmd_simulate_mac,
    "simulate-mhc": _cmd_simulate_mhc,
}


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ChannelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
