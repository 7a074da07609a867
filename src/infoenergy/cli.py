"""Command-line front end.

One subcommand per reproduction artifact, each a pure function of its flags,
input file, and seed: rerunning an invocation writes byte-identical output.
Each subcommand loads its channel files, solves, and returns its output text;
`run` writes that text to --out or stdout.
Exit codes: 0 success, 2 invalid arguments or an unwritable --out, 3
infeasible problem, 4 malformed channel file.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _sweep_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    """The checked sweep range as `steps` evenly spaced points."""
    if lo > hi:
        raise ValueError(f"range minimum {lo} exceeds maximum {hi}")
    if not 2 <= steps <= MAX_STEPS:
        raise ValueError(f"sweeps need 2 <= --steps <= {MAX_STEPS}, got {steps}")
    return np.linspace(lo, hi, steps)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):  # bools too, as 0 and 1
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


def _at_least(low: int):
    """An argparse type: integers of at least `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _table(header: str, rows) -> str:
    """CSV text: the header line, then one line of formatted values per row."""
    return "\n".join([header] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"


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
            p.add_argument("--n", type=_at_least(1), default=1000, help="blocklength")
            p.add_argument("--trials", type=_at_least(1), default=200)
            p.add_argument("--seed", type=_at_least(0), default=0)
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


def _channels(paths, count: int, mac: bool):
    """(channel, costs, energy) from exactly `count` --channel files of one kind."""
    if len(paths or ()) != count:
        raise ValueError(f"this command needs --channel exactly {count} time(s), "
                         f"got {len(paths or ())}")
    loaded = [load_channel_file(path) for path in paths]
    for path, (ch, _, _) in zip(paths, loaded):
        if ch.is_mac != mac:
            kind = "a two-input" if mac else "a point-to-point"
            raise ChannelFormatError(f"{path}: expected {kind} channel")
    return loaded


def _cmd_gaussian_mac(args):
    b_max = args.b_max if args.b_max is not None else 4.0 * args.P + 1.0
    rows = gaussian_mac_sweep([args.P], _sweep_grid(args.b_min, b_max, args.steps))
    return _table("P,B,R_timeshare,lambda,P_prime,P_dprime,R_no_ts,feasible", [
        (r.power, r.b_target, r.r_timeshare, r.feasible, r.p_prime, r.p_dprime, r.r_no_ts,
         r.feasible) for r in rows])


def _cmd_mac_region(args):
    [(ch, costs, energy)] = _channels(args.channel, 1, mac=True)
    b_max = args.b_max if args.b_max is not None else 0.0
    grid = _sweep_grid(args.b_min, b_max, args.steps)
    prob = MacProblem(ch, costs[0], costs[1], energy, args.P1, args.P2)
    rows = mac_region_sweep(prob, grid, REGION_WEIGHTS, q_size=args.q_size)
    return _table("B,w1,w2,R1,R2,EbY,feasible", [
        (r.b_target, r.w1, r.w2, r.r1, r.r2, r.eb, r.feasible) for r in rows])


def _cmd_mhc(args):
    (hop1, costs1, energy), (hop2, costs2, _) = _channels(args.channel, 2, mac=False)
    sol = mhc_capacity(MhcProblem(hop1, hop2, costs1[0], costs2[0], energy, args.P1, args.P2))
    return json.dumps({
        "capacity_bits": float(sol.capacity_bits),
        "harvested_budget": float(sol.harvested_budget),
        "input_pmf": sol.input_pmf.probs.tolist(),
        "relay_pmf": sol.relay_pmf.probs.tolist() if sol.relay_pmf is not None else None,
    }, indent=2) + "\n"


def _cmd_mhc_example(args):
    grid = _sweep_grid(args.snr_min, args.snr_max, args.steps)
    rows = relay_snr_sweep(args.P1, args.P2, grid, snr_log10=args.snr_log10)
    return _table("snr,N0,capacity_bits,p_star",
                  [(r.snr, r.n0, r.capacity_bits, r.p_star) for r in rows])


def _cmd_simulate_mac(args):
    b_target = args.b_min
    eps = args.eps if args.eps is not None else 0.05 * b_target
    if args.channel:
        [(ch, _, energy)] = _channels(args.channel, 1, mac=True)
        cb1, cb2 = (generate_codebook(Pmf.uniform(len(alphabet)), args.n, 4.0 / args.n,
                                      alphabet=alphabet, seed=args.seed + k)
                    for k, alphabet in enumerate(ch.input_alphabets))
        sampler, b = DmMacSampler(ch), energy
    else:
        policy = GaussianPhasePolicy(0.0, args.P)
        cb1, cb2 = generate_mac_codebooks(policy, args.n, 0.0, 0.0, seed=args.seed)
        sampler, b = GaussianMacSampler(1.0), np.square
    r = simulate_mac_energy(cb1, cb2, sampler, b, b_target, eps, args.trials, args.seed)
    return _table("n,trials,seed,mean_bn,viol_freq,err_rate,relay_viol_freq", [
        (r.n, r.trials, r.seed, r.mean_bn, r.viol_freq, r.err_rate, r.relay_viol_freq)])


def _cmd_simulate_mhc(args):
    if args.channel:
        [(hop1, costs, energy)] = _channels(args.channel, 1, mac=False)
        cost1 = costs[0]
    else:
        from .multihop import example_problem
        prob = example_problem(args.P1, args.P2, 1.0)
        hop1, cost1, energy = prob.hop1, prob.c1, prob.b
    # 16 codewords so the harvested average is not pinned to one draw
    cb1 = generate_codebook(Pmf.uniform(len(hop1.input_alphabets[0])), args.n,
                            4.0 / args.n, alphabet=hop1.input_alphabets[0],
                            cost=cost1, budget=args.P1, seed=args.seed)
    r = simulate_mhc_harvest(cb1, DmPointToPointSampler(hop1), ScalingGaussianRelay(),
                             energy, args.P2, args.trials, args.seed)
    return _table("n,trials,seed,mean_bn,viol_freq,err_rate,relay_viol_freq", [
        (r.n, r.trials, r.seed, r.mean_bn, r.viol_freq, r.err_rate, r.relay_viol_freq)])


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
        text = _COMMANDS[args.command](args)
    except ChannelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
