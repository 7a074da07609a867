#!/usr/bin/env python3
"""Monte Carlo sanity checks of the operational coding definitions.

Random codebooks are drawn from the policies the solvers output, pushed
through channel samplers, and the block statistics are compared with the
single-letter quantities the capacity results promise.
"""

import numpy as np

from infoenergy import (Alphabet, CostFn, DmChannel, DmMacSampler,
                        DmPointToPointSampler, EnergyFn,
                        FixedPowerGaussianRelay, GaussianMacSampler,
                        GaussianPhasePolicy, Pmf, ScalingGaussianRelay,
                        check_energy_markov_bound, generate_codebook,
                        generate_mac_codebooks, simulate_decode,
                        simulate_mac_energy, simulate_mhc_harvest)

# -- coherent energy beaming --------------------------------------------------
# Both senders transmit the constant sqrt(P): amplitudes add before the
# power law, so E[Y^2] = 4P + 1 rather than 2P + 1.
P = 1.0
policy = GaussianPhasePolicy(0.0, P)
cb1, cb2 = generate_mac_codebooks(policy, 10_000, 0.0, 0.0, seed=1)
rep = simulate_mac_energy(cb1, cb2, GaussianMacSampler(1.0), np.square,
                          b_target=4.5, eps=0.1, trials=200, seed=1)
print(f"constant-input Gaussian pair, P={P}: mean block energy "
      f"{rep.mean_bn:.4f} (theory {4*P+1}), shortfall freq {rep.viol_freq}")
print(f"mean >= (B-eps) Pr[no shortfall] check: "
      f"{check_energy_markov_bound(rep, 4.5, 0.1)}")

# -- law of large numbers on the shortfall event ------------------------------
print("\nshortfall frequency vs blocklength (target 4.5, slack 0.1):")
for n in (100, 1000, 10_000):
    c1, c2 = generate_mac_codebooks(policy, n, 0.0, 0.0, seed=2)
    r = simulate_mac_energy(c1, c2, GaussianMacSampler(1.0), np.square,
                            4.5, 0.1, trials=200, seed=2)
    print(f"  n={n:>6}: {r.viol_freq:.3f}")

# -- relay spending rule -------------------------------------------------------
levels = Alphabet([-2.0, -1.0, 1.0, 2.0])
hop1 = DmPointToPointSampler(DmChannel.noiseless(levels))
squares = np.array([4.0, 1.0, 1.0, 4.0])
cb = generate_codebook(Pmf.uniform(4), 2048, 4 / 2048, alphabet=levels,
                       cost=CostFn(squares), budget=4.0, seed=3)
scaled = simulate_mhc_harvest(cb, hop1, ScalingGaussianRelay(),
                              EnergyFn(squares), 0.0, trials=5000, seed=3)
fixed = simulate_mhc_harvest(cb, hop1, FixedPowerGaussianRelay(2.5),
                             EnergyFn(squares), 0.0, trials=5000, seed=3)
print(f"\nrelay harvest, uniform four-level input (mean 6*0.25+1 = 2.5):")
print(f"  harvested mean {scaled.mean_bn:.4f}")
print(f"  budget violations: scaling relay {scaled.relay_viol_freq:.3f}, "
      f"fixed-power relay {fixed.relay_viol_freq:.3f} (~1/2 by symmetry)")

# -- maximum-likelihood decoding smoke test ------------------------------------
x = Alphabet([0.0, 1.0])
law = np.zeros((2, 2, 3))
for i in range(2):
    for j in range(2):
        law[i, j, i + j] = 1.0
noisy = DmChannel.mac(x, x, Alphabet([0.0, 1.0, 2.0]), 0.9 * law + 0.1 / 3)
d1 = generate_codebook(Pmf.uniform(2), 200, 6 / 200, alphabet=x, seed=8)
d2 = generate_codebook(Pmf.uniform(2), 200, 6 / 200, alphabet=x, seed=9)
err = simulate_decode(d1, d2, DmMacSampler(noisy), trials=100, seed=10)
print(f"\nnoisy adder at sum rate 0.06 << 1.5 bits: ML error rate {err}")
