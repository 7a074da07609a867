#!/usr/bin/env python3
"""Sum rate versus received-energy floor on the Gaussian two-sender channel.

Both senders share a power budget P; the receiver wants average received
energy of at least B per channel use.  Up to B = 2P+1 zero-mean Gaussian
codebooks already deliver enough energy.  Beyond that the encoders must
coordinate: each moves power P'' = (B-2P-1)/2 into a DC offset of the same
sign, which combines coherently at the receiver (quadrupling its received
power), and keeps the rest, P' = P - P'', as Gaussian variance.  The sum
rate 0.5*log2(1 + 2P') falls to zero at B = 4P+1, where P'' = P.
"""

import numpy as np

from infoenergy import gaussian_mac_sweep, gaussian_unconstrained_sum_rate

POWERS = [0.5, 1.0, 2.0]

for power in POWERS:
    b_grid = np.linspace(0.0, 4.0 * power + 1.0, 13)
    rows = gaussian_mac_sweep([power], b_grid)
    print(f"\nP = {power}   (thresholds: 2P+1 = {2*power+1}, 4P+1 = {4*power+1})")
    print(f"  unconstrained sum rate: {gaussian_unconstrained_sum_rate(power):.6f} bits/use")
    print(f"  {'B':>6}  {'R_dc':>9}  {'P_prime':>8}  {'P_dprime':>8}  {'R_no_ts':>9}")
    for r in rows:
        print(f"  {r.b_target:>6.3f}  {r.r_timeshare:>9.6f}  {r.p_prime:>8.4f}  "
              f"{r.p_dprime:>8.4f}  {r.r_no_ts:>9.6f}")

print("""
Reading the table: R_no_ts keeps zero-mean inputs and collapses to 0 as
soon as B exceeds 2P+1, while the DC-offset curve degrades gracefully --
coordinated energy beaming buys a strictly better trade-off.""")
