"""Capacity-energy trade-offs for multi-user channels.

Library for computing achievable rate/energy regions of two-sender channels
under a received-energy floor, the capacity of two-hop links with an
energy-harvesting relay, and Monte Carlo verification of the operational
coding definitions behind both.
"""

from .capacity import CapacityResult, awgn_capacity, dm_capacity_with_cost
from .channel import (Alphabet, AlphabetMismatchError, AwgnSpec,
                      ChannelFormatError, CostFn, DmChannel, EnergyFn,
                      InfeasibleError, Pmf, expected_cost,
                      expected_received_energy, load_channel_file,
                      mac_output_pmf, save_channel_file)
from .linksim import (Codebook, FixedPowerGaussianRelay, GaussianMacSampler,
                      GaussianPhasePolicy, DmMacSampler,
                      DmPointToPointSampler, ScalingGaussianRelay, SimReport,
                      check_energy_markov_bound, generate_codebook,
                      generate_mac_codebooks, simulate_decode,
                      simulate_mac_energy, simulate_mhc_harvest)
from .mac_region import (GaussianMacSolution, MacBoundaryResult, MacProblem,
                         RateEnergyTriple, brute_force_mac_oracle,
                         gaussian_mac_sweep, gaussian_mac_timeshare,
                         gaussian_unconstrained_sum_rate, mac_boundary_point,
                         mac_region_sweep, max_received_energy, simplex_grid)
from .metrics import (TimeSharingPolicy, entropy, mac_mutual_informations,
                      mutual_information)
from .multihop import (MhcProblem, MhcSolution, cutset_joint_oracle,
                       example_problem, mhc_capacity, mhc_example_capacity,
                       relay_snr_sweep, symmetric_input_entropy)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
