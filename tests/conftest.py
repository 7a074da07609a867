"""Shared builders for the test suite."""

import dataclasses
import json
from functools import lru_cache

import numpy as np
import pytest

import infoenergy as ie
from infoenergy.capacity import _ba


def make_binary_adder():
    """Noiseless adder Y = X1 + X2 on {0,1} inputs."""
    x = ie.Alphabet([0.0, 1.0])
    y = ie.Alphabet([0.0, 1.0, 2.0])
    W = np.zeros((2, 2, 3))
    for i in range(2):
        for j in range(2):
            W[i, j, i + j] = 1.0
    return ie.DmChannel.mac(x, x, y, W)


def make_adder_problem(b_target: float = 0.0) -> ie.MacProblem:
    """Adder channel, zero costs, energy b(y)=y."""
    ch = make_binary_adder()
    zero = ie.CostFn([0.0, 0.0])
    b = ie.EnergyFn([0.0, 1.0, 2.0])
    return ie.MacProblem(ch, zero, zero, b, 0.0, 0.0, b_target)


def make_random_mac_instance(seed: int) -> ie.MacProblem:
    """Binary-input ternary-output channel with random law and energies."""
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(3), size=(2, 2))
    ch = ie.DmChannel.mac(ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0]),
                          ie.Alphabet([0.0, 1.0, 2.0]), W)
    b = ie.EnergyFn(rng.uniform(0.0, 2.0, size=3))
    zero = ie.CostFn([0.0, 0.0])
    return ie.MacProblem(ch, zero, zero, b, 0.0, 0.0)


@lru_cache(maxsize=None)
def q2_oracle_rate(instance, b_target: float, w1: float, w2: float) -> float:
    """brute_force_mac_oracle's weighted rate at q_size=2, steps=21 (its size
    guard) on the adder (instance "adder") or the acceptance instance of that
    seed; cached, as the acceptance and solver suites ask for the same points."""
    prob = make_adder_problem() if instance == "adder" else make_random_mac_instance(instance)
    res = ie.brute_force_mac_oracle(prob.with_target(b_target), w1, w2, q_size=2, steps=21)
    return res.weighted_rate


def cooperative_ceiling(prob: ie.MacProblem, b_target: float) -> float:
    """The senders' joint-input optimum under the floor B, plus its dual gap.

    One Blahut-Arimoto run on the channel from the input pair, with
    E[b(Y)] >= B read as the budget E[-b] <= -B (the costs must be zero).
    No time-sharing of product pmfs beats it at weights of at most 1.
    """
    V = prob.channel.transition.reshape(-1, len(prob.b))
    _, bits, _, _, gap = _ba(V, -(V @ prob.b.values), -b_target)
    return bits + gap


def make_bsc(crossover: float) -> ie.DmChannel:
    return ie.DmChannel.point_to_point(
        ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0]),
        [[1.0 - crossover, crossover], [crossover, 1.0 - crossover]])


def binary_entropy(p: float) -> float:
    terms = [v * np.log2(v) for v in (p, 1.0 - p) if v > 0]
    return -float(sum(terms))


def negative_entry_doc(doc, field):
    """The channel document with one negative entry in transition row 2,
    cost table 1 or the energy table (the transition row still sums to 1)."""
    if field == "transition":
        doc["transition"][2] = [0.5, 1.0, -0.5]
    elif field == "cost":
        doc["cost"][1] = [0.0, -1.0]
    else:
        doc["energy"][1] = -1.0
    return doc


# A valid point-to-point channel document: the binary symmetric channel.
BSC_DOC = {
    "input_alphabets": [[0.0, 1.0]],
    "output_alphabet": [0.0, 1.0],
    "transition": [[0.9, 0.1], [0.1, 0.9]],
    "cost": [[0.0, 0.0]],
    "energy": [0.0, 1.0],
}


def _bsc_text(**fields) -> str:
    return json.dumps({**BSC_DOC, **fields})


# Malformed channel files: case -> (file bytes, a fragment of the load error).
MALFORMED_CHANNEL_FILES = {
    "scalar cost": (_bsc_text(cost=5).encode(), "cost must hold one table per input alphabet"),
    "bool cost": (_bsc_text(cost=True).encode(), "cost must hold one table per input alphabet"),
    "huge scalar cost": (_bsc_text(cost=1e308).encode(),
                         "cost must hold one table per input alphabet"),
    "integer beyond the float range": (
        _bsc_text(energy=[0.0, 10**400]).encode(), "energy holds a non-finite number"),
    "integer of 5,000 digits": (
        _bsc_text(energy=[0.0, "N"]).replace('"N"', "1" * 5000).encode(),
        "energy holds a non-finite number"),
    "byte that is not UTF-8": (b"\xff" + _bsc_text().encode(), "cannot read ("),
    "100,000 nested lists": (b"[" * 100_000, "nested too deeply"),
    "row sum beyond the float range": (_bsc_text(transition=[[1e308, 1e308], [0.1, 0.9]]).encode(),
                                       "transition row 0 sums to inf, not 1"),
}


@pytest.fixture
def adder_problem():
    return make_adder_problem()


@pytest.fixture
def four_levels():
    return ie.Alphabet([-2.0, -1.0, 1.0, 2.0])


def report_bytes(report: ie.SimReport) -> list:
    """Type and bytes of every field, so NaNs and -0.0 compare exactly."""
    return [(type(getattr(report, f.name)), np.asarray(getattr(report, f.name)).tobytes())
            for f in dataclasses.fields(ie.SimReport)]
