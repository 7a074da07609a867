"""Shared builders for the test suite."""

import dataclasses

import numpy as np
import pytest

import infoenergy as ie


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
