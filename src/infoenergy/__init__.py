"""Capacity-energy trade-offs for multi-user channels.

Library for computing achievable rate/energy regions of two-sender channels
under a received-energy floor, the capacity of two-hop links with an
energy-harvesting relay, and Monte Carlo verification of the operational
coding definitions behind both.

Submodules and the names below load on first access (PEP 562), so numpy
loads only with the first name that needs it.
"""

import importlib

_HOMES = {
    "capacity": "CapacityResult awgn_capacity dm_capacity_with_cost",
    "channel": "Alphabet AwgnSpec CostFn DmChannel EnergyFn Pmf expected_cost "
               "expected_received_energy load_channel_file mac_output_pmf save_channel_file "
               "simplex_grid",
    "closedform": "AlphabetMismatchError ChannelFormatError InfeasibleError "
                  "GaussianMacSolution gaussian_mac_sweep gaussian_mac_timeshare "
                  "gaussian_unconstrained_sum_rate mhc_example_capacity relay_snr_sweep",
    "linksim": "Codebook FixedPowerGaussianRelay GaussianMacSampler GaussianPhasePolicy "
               "DmMacSampler DmPointToPointSampler ScalingGaussianRelay SimReport "
               "check_energy_markov_bound generate_codebook generate_mac_codebooks "
               "simulate_decode simulate_mac_energy simulate_mhc_harvest",
    "mac_region": "MacBoundaryResult MacProblem RateEnergyTriple brute_force_mac_oracle "
                  "mac_boundary_point mac_region_sweep max_received_energy",
    "metrics": "TimeSharingPolicy entropy mac_mutual_informations mutual_information",
    "multihop": "MhcProblem MhcSolution cutset_joint_oracle example_problem mhc_capacity "
                "symmetric_input_entropy",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
_SUBMODULES = ("capacity", "channel", "linksim", "mac_region", "metrics", "multihop")

__version__ = "0.1.0"

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
