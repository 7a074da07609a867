#!/usr/bin/env python3
"""Benchmark of infoenergy: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload region --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is imported from
./src, nothing is installed.  One client runs the workload's invocations
one after another, each waiting for the last, and repeats the whole pass
while the next pass still fits in --seconds (at least one pass).  Inputs
are generated from --seed into .perfbench_out/ and every output is checked
against the independent references in reference.py.

--trace 0 runs each invocation as its own process and reports the
end-to-end metrics.  --trace 1 runs the same invocations in this process
through infoenergy.cli.run with every public function of the program
wrapped in a span (tracer.py) and reports the per-layer metrics; its span
table is written to .perfbench_out/trace-<workload>-seed<seed>.npz.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"

# Each child runs through this trampoline, which reports the child's own
# peak RSS (VmHWM) on stderr at exit.  ru_maxrss cannot be used: Linux folds
# the parent's RSS at exec time into it, and this process holds the
# references (scipy, LP tables).
PEAK_TAG = "perfbench-vmhwm-kib"
TRAMPOLINE = f"""
import atexit, runpy, sys
def report():
    with open('/proc/self/status') as fh:
        kib = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))
    sys.stderr.write('\\n{PEAK_TAG} ' + kib + '\\n')
atexit.register(report)
target = sys.argv[0] = sys.argv.pop(1)
if target.endswith('.py'):
    runpy.run_path(target, run_name='__main__')
else:
    runpy.run_module(target, run_name='__main__', alter_sys=True)
"""

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ops_per_s": "1/s",
    "rate_bits": "bits",
}

# Layer -> stats reported for it.  calls and self_ms come from the spans,
# p50_ms is the median inclusive span; the rest come from hooks below.
LAYERS = {
    "mac_region.mac_boundary_point": ("calls", "self_ms", "p50_ms", "shortfall_bits"),
    "mac_region.mac_region_sweep": ("self_ms",),
    "mac_region.max_received_energy": ("calls", "self_ms"),
    "metrics.entropy_bits": ("calls", "self_ms"),
    "metrics.mac_mutual_informations": ("calls", "self_ms"),
    "mac_region.gaussian_mac_timeshare": ("calls", "self_ms", "gap_bits"),
    "multihop.mhc_example_capacity": ("calls", "self_ms"),
    "multihop.relay_snr_sweep": ("self_ms",),
    "multihop.mhc_capacity": ("calls", "self_ms"),
    "capacity.dm_capacity_with_cost": ("calls", "self_ms", "iterations"),
    "linksim.generate_codebook": ("calls", "self_ms"),
    "linksim.simulate_mac_energy": ("self_ms",),
    "linksim.simulate_mhc_harvest": ("self_ms",),
    "linksim.simulate_decode": ("self_ms",),
    "cli.run": ("self_ms",),
    "channel.load_channel_file": ("calls", "self_ms"),
}
STAT_UNITS = {"calls": "count", "self_ms": "ms", "p50_ms": "ms", "shortfall_bits": "bits",
              "gap_bits": "bits", "iterations": "count"}
PER_LAYER = {f"{layer}.{stat}": STAT_UNITS[stat]
             for layer, stats in LAYERS.items() for stat in stats}
PER_LAYER["trace.wall_s"] = "s"  # traced pass time; minus wall_s it is the tracing overhead


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Runner:
    """Runs passes of one workload and checks each pass's outputs."""

    def __init__(self, wl: workloads.Workload, root: Path, seconds: float):
        self.wl = wl
        self.src = root / "src"
        self.seconds = seconds
        self.out = wl.outdir
        self.tallies: list[workloads.Tally] = []
        self.pass_s: list[float] = []
        self.inv_s: dict[str, list] = {}  # invocation label -> seconds per pass
        self.peak_kib = 0  # largest VmHWM among the workload's child processes

    def measure(self, run_pass):
        """Repeat run_pass while another pass still fits in the run length."""
        start = time.perf_counter()
        while True:
            lap = time.perf_counter()
            shutil.rmtree(self.out, ignore_errors=True)
            self.out.mkdir()
            outcomes = run_pass()
            tally = workloads.Tally()
            for inv, secs, code, err in outcomes:
                workloads.check_invocation(inv, self.out, code, err, tally)
                self.inv_s.setdefault(inv.label, []).append(secs)
            self.tallies.append(tally)
            self.pass_s.append(sum(o[1] for o in outcomes))
            now = time.perf_counter()
            if now - start + (now - lap) > self.seconds:
                return

    def result(self, metrics: dict) -> dict:
        unexpected = sorted({msg for t in self.tallies for msg in t.unexpected})
        for msg in unexpected[:20]:
            print(f"CHECK FAILED {msg}", file=sys.stderr)
        return {
            "correct": not unexpected,
            "attempted": sum(t.attempted for t in self.tallies),
            "failed": sum(t.failed for t in self.tallies),
            "metrics": metrics,
        }

    def ops_per_pass(self) -> int:
        return sum(inv.ops for inv in self.wl.invocations)

    # -- untraced: one process per invocation --------------------------------

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        return env

    def setup_seconds(self) -> float:
        """A fresh interpreter until `import infoenergy.cli` returns."""
        code = ("import time, infoenergy.cli as c; "
                "print(time.clock_gettime(time.CLOCK_MONOTONIC), c.__file__)")
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        res = subprocess.run([sys.executable, "-c", code], env=self.child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        stamp, path = res.stdout.split()
        if not Path(path).resolve().is_relative_to(self.src.resolve()):
            raise RuntimeError(f"infoenergy imported from {path}, not from {self.src}")
        return float(stamp) - start

    def subprocess_pass(self):
        env = self.child_env()
        outcomes = []
        for inv in self.wl.invocations:
            target = "infoenergy" if inv.kind == "cli" else str(HERE / "mc_child.py")
            cmd = [sys.executable, "-c", TRAMPOLINE, target, *inv.argv]
            t0 = time.perf_counter()
            try:
                res = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
                code, err = res.returncode, res.stderr
            except subprocess.TimeoutExpired:
                code, err = -1, f"no exit within {CHILD_TIMEOUT_S} s"
            outcomes.append((inv, time.perf_counter() - t0, code, err))
            for line in err.splitlines():
                if line.startswith(PEAK_TAG):
                    self.peak_kib = max(self.peak_kib, int(line.split()[1]))
        return outcomes

    def run_untraced(self) -> dict:
        setup = statistics.median(self.setup_seconds() for _ in range(SETUP_REPEATS))
        self.measure(self.subprocess_pass)
        ops = self.ops_per_pass()
        values = {
            "wall_s": statistics.median(self.pass_s),
            "setup_s": setup,
            "peak_rss_mib": self.peak_kib / 1024.0,
            "ops_per_s": statistics.median(ops / s for s in self.pass_s),
            "rate_bits": statistics.median(t.rate_bits for t in self.tallies),
        }
        return self.result({k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()})

    # -- traced: in process, every public function wrapped -------------------

    def run_traced(self, trace_path: Path) -> dict:
        from tracer import Tracer

        sys.path.insert(0, str(self.src))
        import infoenergy
        from infoenergy import capacity, channel, cli, linksim, mac_region, metrics, multihop
        import mc_child

        modules = [channel, metrics, capacity, mac_region, multihop, linksim, cli]
        for mod in modules:
            if not Path(mod.__file__).resolve().is_relative_to(self.src.resolve()):
                raise RuntimeError(f"{mod.__name__} imported from {mod.__file__}")
        hooks = {
            "mac_region.mac_boundary_point": lambda a, r: (
                a["prob"], a["w1"], a["w2"], r.weighted_rate if r.feasible else None),
            "mac_region.gaussian_mac_timeshare": lambda a, r: (
                a["power"], a["b_target"], r.r_sum, r.feasible),
            "capacity.dm_capacity_with_cost": lambda a, r: len(r.iterates),
        }
        tracer = Tracer({name: _bound(hook, name, modules) for name, hook in hooks.items()})
        tracer.install(modules, caller_modules=[infoenergy, mc_child])
        per_pass = []

        def traced_pass():
            tracer.clear()
            outcomes = []
            for inv in self.wl.invocations:
                t0 = time.perf_counter()
                try:
                    code = cli.run(inv.argv) if inv.kind == "cli" else mc_child.main(inv.argv)
                    err = ""
                except Exception as exc:  # a crash in the program is a failed invocation
                    code, err = -1, repr(exc)
                outcomes.append((inv, time.perf_counter() - t0, code, err))
            per_pass.append(self.layer_metrics(tracer, sum(o[1] for o in outcomes)))
            return outcomes

        try:
            self.measure(traced_pass)
        finally:
            tracer.uninstall()
        tracer.save(trace_path)
        metrics = {name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        return self.result(metrics)

    def layer_metrics(self, tracer, pass_s: float) -> dict:
        spans = tracer.summary()
        out = {"trace.wall_s": pass_s}
        for layer, stats in LAYERS.items():
            for stat in stats:
                if stat in ("calls", "self_ms", "p50_ms"):
                    out[f"{layer}.{stat}"] = spans.get(layer, {}).get(stat, 0.0)
        obs = tracer.observations
        out["mac_region.mac_boundary_point.shortfall_bits"] = max(
            [self.shortfall(*o) for o in obs["mac_region.mac_boundary_point"]], default=0.0)
        gaps = [ref.gaussian_timeshare_rate(p, b) - r
                for p, b, r, feasible in obs["mac_region.gaussian_mac_timeshare"]
                if feasible and b <= 4 * p + 1]
        out["mac_region.gaussian_mac_timeshare.gap_bits"] = max([0.0] + gaps)
        out["capacity.dm_capacity_with_cost.iterations"] = sum(
            obs["capacity.dm_capacity_with_cost"])
        return out

    def shortfall(self, prob, w1, w2, value) -> float:
        """How far one boundary point falls below the LP reference, in bits."""
        W = prob.channel.transition
        table = next(t for t in self.wl.lp_tables
                     if t.W.shape == W.shape and np.allclose(t.W, W, rtol=0, atol=1e-12)
                     and np.array_equal(t.energy, prob.b.values)
                     and np.array_equal(t.c1, prob.c1.values)
                     and np.array_equal(t.c2, prob.c2.values)
                     and (t.p1_budget, t.p2_budget) == (prob.p1_budget, prob.p2_budget))
        lp = table.value(prob.b_target, w1, w2)
        if lp is None:
            return 0.0
        return max(lp - (value if value is not None else 0.0), 0.0)


def _bound(hook, name: str, modules):
    """Adapt hook(arguments by name, result) to the tracer's (args, kwargs, result)."""
    short, func_name = name.split(".")
    mod = next(m for m in modules if m.__name__.endswith("." + short))
    sig = inspect.signature(getattr(mod, func_name))
    return lambda args, kwargs, result: hook(sig.bind(*args, **kwargs).arguments, result)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    if not (root / "src" / "infoenergy" / "cli.py").is_file():
        print(f"error: {root} is not an infoenergy checkout (no src/infoenergy/cli.py); "
              "run from the repository root", file=sys.stderr)
        return 2
    out_root = root / OUT_DIR
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root, prefix=f"{args.workload}-") as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        runner = Runner(wl, root, args.seconds)
        if args.trace:
            result = runner.run_traced(out_root / f"trace-{args.workload}-seed{args.seed}.npz")
        else:
            result = runner.run_untraced()
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(runner.pass_s)} passes, "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for label, secs in runner.inv_s.items():
        print(f"  {label:<48} {statistics.median(secs):>14.6g} s (median of {len(secs)})")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
