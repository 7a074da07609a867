#!/usr/bin/env python3
"""Two-hop link whose relay is powered by what it harvests.

First hop: noiseless four-level signalling on {-2,-1,1,2} with quadratic
cost and harvested energy.  Second hop: Gaussian with noise N0.  The
encoder picks Pr[X = +/-2] = p; more mass on the outer levels feeds the
relay (mean harvest 6p+1) but costs input entropy beyond p = 1/4.

At low second-hop SNR the relay is power-starved, so the encoder beams
energy (p -> 1/2); at high SNR it reverts to the entropy maximizer
(p -> 1/4).  The encoder's codebook therefore depends on the quality of a
link it never touches.
"""

import numpy as np

from infoenergy import (example_problem, mhc_capacity, mhc_example_capacity,
                        relay_snr_sweep)

P1, P2 = 4.0, 0.0

rows = relay_snr_sweep(P1, P2, np.linspace(-20.0, 60.0, 17))
print(f"four-level relay example, P1={P1}, P2={P2} (SNR in 10*log2(1/N0)):")
print(f"  {'SNR':>6}  {'N0':>10}  {'capacity':>9}  {'p*':>7}")
for r in rows:
    print(f"  {r.snr:>6.1f}  {r.n0:>10.5f}  {r.capacity_bits:>9.5f}  {r.p_star:>7.4f}")

# The scalar search exploits the example's symmetry; the generic solver
# knows nothing of it, optimises over all first-hop input pmfs, and should
# land on the same value.
print("\ncross-check against the generic solver:")
for n0 in (4.0, 1.0, 0.25):
    scalar, p_star = mhc_example_capacity(P1, P2, n0)
    generic = mhc_capacity(example_problem(P1, P2, n0))
    print(f"  N0={n0:<5} scalar {scalar:.6f} (p*={p_star:.4f})   "
          f"generic {generic.capacity_bits:.6f}   "
          f"gap {abs(scalar - generic.capacity_bits):.2e}")

baseline = mhc_capacity(example_problem(P1, 8.0, 1.0, energy_off=True))
print(f"\nno-harvest baseline (b=0, P2=8, N0=1): "
      f"{baseline.capacity_bits:.6f} bits = min(2, 1/2 log2 9)")
