"""Command-line front end.

One subcommand per reproduction artifact, each a pure function of its flags,
input file, and seed: rerunning an invocation writes byte-identical output.
Each subcommand loads its channel files, solves, and returns its output text;
`run` writes that text to --out or stdout.  `_COMMANDS` declares each
subcommand once: its help, the flags it reads and its function.
Exit codes: 0 success, 2 invalid arguments or an unwritable --out, 3
infeasible problem, 4 malformed channel file.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys

from .closedform import ChannelFormatError, InfeasibleError, gaussian_mac_sweep, relay_snr_sweep

REGION_WEIGHTS = ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
# Largest --steps a sweep accepts; the README's sweeps use at most 81.
MAX_STEPS = 10_000


def _sweep_grid(lo: float, hi: float, steps: int) -> list:
    """The checked sweep range as the `steps` floats of numpy.linspace(lo, hi, steps)."""
    div, delta = steps - 1, hi - lo
    if not 0 <= delta < math.inf:  # descending, or wider than the largest float
        raise ValueError(f"range {lo} to {hi} must ascend, with a width a float can hold")
    if not 2 <= steps <= MAX_STEPS:
        raise ValueError(f"sweeps need 2 <= --steps <= {MAX_STEPS}, got {steps}")
    step = delta / div  # 0 for a zero or subnormal delta: then linspace scales i/div
    return [(i / div * delta if step == 0 else i * step) + lo for i in range(div)] + [hi]


def _fmt(x) -> str:
    if isinstance(x, numbers.Integral):  # numpy integers and bools too, as 0 and 1
        return str(int(x))
    return format(float(x), ".6g")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
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


def _sim_table(r) -> str:
    """The CSV of a linksim.SimReport: its header, then its one row."""
    return _table("n,trials,seed,mean_bn,viol_freq,err_rate,relay_viol_freq", [
        (r.n, r.trials, r.seed, r.mean_bn, r.viol_freq, r.err_rate, r.relay_viol_freq)])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoenergy",
        description="Capacity-energy trade-offs for multi-user channels "
                    "with received-energy constraints.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {  # add_argument keywords by dest; the option string is --dest, "_" as "-"
        "P": dict(type=_finite, default=1.0, help="per-sender power budget"),
        "P1": dict(type=_finite, default=4.0, help="first cost budget"),
        "P2": dict(type=_finite, default=0.0, help="second cost budget"),
        "b_min": dict(type=_finite, default=0.0, help="energy target range start"),
        "b_max": dict(type=_finite, default=None, help="energy target range end"),
        "snr_min": dict(type=_finite, default=-20.0),
        "snr_max": dict(type=_finite, default=60.0),
        "steps": dict(type=int, default=51, help=f"grid points in the sweep (2 to {MAX_STEPS})"),
        "q_size": dict(type=int, default=4, choices=range(1, 6),
                       help="time-sharing alphabet size"),
        "n": dict(type=_at_least(1), default=1000, help="blocklength"),
        "trials": dict(type=_at_least(1), default=200),
        "seed": dict(type=_at_least(0), default=0),
        "eps": dict(type=_finite, default=None, help="energy slack (default 0.05*B)"),
        "channel": dict(action="append", default=None,
                        help="channel specification file (repeat for two hops)"),
        "snr_log10": dict(action="store_true",
                          help="map SNR to N0 with base-10 instead of base-2 logs"),
        "out": dict(default=None, help="output path (default stdout)"),
    }
    for name, (help_text, dests, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in dests:
            p.add_argument("--" + dest.replace("_", "-"), **flags[dest])
    return parser


def _channels(paths, count: int, mac: bool):
    """(channel, costs, energy) from exactly `count` --channel files of one kind."""
    from .channel import load_channel_file
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
    from .mac_region import MacProblem, mac_region_sweep, max_received_energy
    [(ch, costs, energy)] = _channels(args.channel, 1, mac=True)
    grid = None if args.b_max is None else _sweep_grid(args.b_min, args.b_max, args.steps)
    prob = MacProblem(ch, costs[0], costs[1], energy, args.P1, args.P2)
    if grid is None:  # up to the largest received energy the budgets admit
        grid = _sweep_grid(args.b_min, max_received_energy(prob)[0], args.steps)
    rows = mac_region_sweep(prob, grid, REGION_WEIGHTS, q_size=args.q_size)
    return _table("B,w1,w2,R1,R2,EbY,feasible", [
        (r.b_target, r.w1, r.w2, r.r1, r.r2, r.eb, r.feasible) for r in rows])


def _cmd_mhc(args):
    from .multihop import MhcProblem, mhc_capacity
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
    import numpy as np
    from .channel import Pmf
    from .linksim import (GaussianMacSampler, GaussianPhasePolicy, DmMacSampler,
                          generate_codebook, generate_mac_codebooks, simulate_mac_energy)
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
    return _sim_table(simulate_mac_energy(cb1, cb2, sampler, b, b_target, eps, args.trials,
                                          args.seed))


def _cmd_simulate_mhc(args):
    from .channel import Pmf
    from .linksim import (DmPointToPointSampler, ScalingGaussianRelay, generate_codebook,
                          simulate_mhc_harvest)
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
    return _sim_table(simulate_mhc_harvest(cb1, DmPointToPointSampler(hop1),
                                           ScalingGaussianRelay(), energy, args.P2,
                                           args.trials, args.seed))


# Each subcommand: (help, the flags it reads in --help order, its function).
_COMMANDS = {
    "gaussian-mac": ("sum rate vs energy floor, Gaussian two-sender",
                     ("P", "b_min", "b_max", "steps", "out"), _cmd_gaussian_mac),
    "mac-region": ("discrete two-sender region boundary sweep",
                   ("P1", "P2", "b_min", "b_max", "steps", "q_size", "channel", "out"),
                   _cmd_mac_region),
    "mhc": ("two-hop capacity with a harvesting relay", ("P1", "P2", "channel", "out"), _cmd_mhc),
    "mhc-example": ("four-level relay example across SNR",
                    ("P1", "P2", "snr_min", "snr_max", "steps", "out", "snr_log10"),
                    _cmd_mhc_example),
    "simulate-mac": ("Monte Carlo received-energy check",
                     ("P", "b_min", "n", "trials", "seed", "eps", "channel", "out"),
                     _cmd_simulate_mac),
    "simulate-mhc": ("Monte Carlo relay budget check",
                     ("P1", "P2", "n", "trials", "seed", "channel", "out"), _cmd_simulate_mhc),
}


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = _COMMANDS[args.command][2](args)
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
