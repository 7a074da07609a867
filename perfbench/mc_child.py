"""Library-only Monte Carlo calls that the CLI cannot reach.

Draws a large codebook with per-codeword cost screening and ML-decodes a
codeword pair over the noisy binary adder, as demos/link_verification.py
does.  Writes codebook.npy (the screened codewords) and decode.json (the
error rate) into --out; the benchmark process checks them.

    PYTHONPATH=src python3 perfbench/mc_child.py --spec '{...}' --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from infoenergy import (Alphabet, CostFn, DmChannel, DmMacSampler, Pmf,
                        generate_codebook, simulate_decode)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", required=True, help="JSON from workloads.child_spec")
    parser.add_argument("--out", required=True, help="directory for the outputs")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)
    out = Path(args.out)
    seed = spec["seed"]

    levels = Alphabet(spec["levels"])
    n = spec["codebook_n"]
    cb = generate_codebook(Pmf.uniform(len(levels)), n, spec["codebook_bits"] / n,
                           alphabet=levels, cost=CostFn(np.square(spec["levels"])),
                           budget=spec["budget"], seed=seed)
    np.save(out / "codebook.npy", cb.codewords.astype(np.int8))

    x = Alphabet([0.0, 1.0])
    law = np.zeros((2, 2, 3))
    for i in range(2):
        for j in range(2):
            law[i, j, i + j] = 1.0
    noisy = DmChannel.mac(x, x, Alphabet([0.0, 1.0, 2.0]), 0.9 * law + 0.1 / 3)
    n = spec["decode_n"]
    rate = spec["decode_bits"] / n
    d1 = generate_codebook(Pmf.uniform(2), n, rate, alphabet=x, seed=seed + 1)
    d2 = generate_codebook(Pmf.uniform(2), n, rate, alphabet=x, seed=seed + 2)
    err = simulate_decode(d1, d2, DmMacSampler(noisy), trials=spec["decode_trials"],
                          seed=seed + 3)
    (out / "decode.json").write_text(json.dumps({"err": err}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
