"""Entropy, mutual information, and time-sharing averages."""

import numpy as np
import pytest

import infoenergy as ie
from conftest import binary_entropy, make_binary_adder, make_bsc
from infoenergy.metrics import entropy_bits


class TestEntropy:
    def test_uniform_four(self):
        assert ie.entropy(ie.Pmf.uniform(4)) == pytest.approx(2.0)

    def test_degenerate(self):
        assert ie.entropy(ie.Pmf.degenerate(5, 2)) == 0.0

    def test_binary_entropy_value(self):
        # exact: 0.4999160 bits
        assert ie.entropy(ie.Pmf([0.11, 0.89])) == pytest.approx(
            binary_entropy(0.11), abs=1e-12)
        assert binary_entropy(0.11) == pytest.approx(0.49993, abs=5e-5)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(2, 6)
            h = ie.entropy(ie.Pmf(rng.dirichlet(np.ones(n))))
            assert -1e-12 <= h <= np.log2(n) + 1e-12

    def test_concavity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            lam = rng.random()
            mix = ie.Pmf(lam * p + (1 - lam) * q)
            bound = lam * ie.entropy(ie.Pmf(p)) + (1 - lam) * ie.entropy(ie.Pmf(q))
            assert ie.entropy(mix) >= bound - 1e-12

    def test_bits_match_masked_log_sum(self):
        # Short rows are added column by column, long rows by numpy's sum;
        # either way the bits are those of the plain masked reduction.
        rng = np.random.default_rng(5)
        for n in range(2, 13):
            for shape in ((n,), (40, n), (3, 4, n)):
                p = rng.dirichlet(np.ones(n), size=shape[:-1] or None)
                p[rng.random(p.shape) < 0.3] = 0.0
                with np.errstate(divide="ignore", invalid="ignore"):
                    want = -np.where(p > 0, p * np.log2(p), 0).sum(-1)
                assert np.array_equal(entropy_bits(p), want), (n, shape)


class TestMutualInformation:
    def test_noiseless_four_level(self):
        ch = ie.DmChannel.noiseless(ie.Alphabet([-2.0, -1.0, 1.0, 2.0]))
        pmf = ie.Pmf([0.25, 0.25, 0.25, 0.25])
        assert ie.mutual_information(pmf, ch) == pytest.approx(2.0)

    def test_constant_output_channel(self):
        ch = ie.DmChannel.point_to_point(
            ie.Alphabet([0.0, 1.0, 2.0]), ie.Alphabet([0.0, 1.0]),
            [[1.0, 0.0]] * 3)
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = ie.Pmf(rng.dirichlet(np.ones(3)))
            assert ie.mutual_information(p, ch) == pytest.approx(0.0, abs=1e-12)

    def test_bsc_uniform(self):
        # exact: 0.5000840 bits
        ch = make_bsc(0.11)
        got = ie.mutual_information(ie.Pmf.uniform(2), ch)
        assert got == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-12)
        assert got == pytest.approx(0.50007, abs=5e-5)


def direct_conditional_mi(p1, p2, W):
    """I(X1;Y|X2) etc. from the joint law, summed term by term.

    Independent reference path for the vectorized implementation: builds
    p(x1,x2,y) explicitly and evaluates each conditional mutual information
    as a triple sum.
    """
    n1, n2, ny = W.shape
    joint = p1[:, None, None] * p2[None, :, None] * W

    def h(arr):
        arr = arr[arr > 0]
        return -float(np.sum(arr * np.log2(arr)))

    i1 = 0.0
    i2 = 0.0
    for j in range(n2):
        pj = joint[:, j, :].sum()
        if pj > 0:
            cond = joint[:, j, :] / pj
            i1 += pj * (h(cond.sum(axis=0)) + h(cond.sum(axis=1)) - h(cond.ravel()))
    for i in range(n1):
        pi = joint[i, :, :].sum()
        if pi > 0:
            cond = joint[i, :, :] / pi
            i2 += pi * (h(cond.sum(axis=0)) + h(cond.sum(axis=1)) - h(cond.ravel()))
    i_sum = h(joint.sum(axis=(0, 1))) + h(joint.sum(axis=2).ravel()) - h(joint.ravel())
    return i1, i2, i_sum


class TestMacMutualInformations:
    def test_adder_uniform_single_q(self):
        ch = make_binary_adder()
        pol = ie.TimeSharingPolicy.single(ie.Pmf.uniform(2), ie.Pmf.uniform(2))
        b = ie.EnergyFn([0.0, 1.0, 2.0])
        i1, i2, i_sum, eby = ie.mac_mutual_informations(pol, ch, b)
        assert (i1, i2) == (pytest.approx(1.0), pytest.approx(1.0))
        assert i_sum == pytest.approx(1.5)  # H(1/4, 1/2, 1/4)
        assert eby == pytest.approx(1.0)

    def test_degenerate_inputs(self):
        ch = make_binary_adder()
        pol = ie.TimeSharingPolicy.single(ie.Pmf.degenerate(2, 1),
                                          ie.Pmf.degenerate(2, 1))
        b = ie.EnergyFn([0.0, 1.0, 2.0])
        i1, i2, i_sum, eby = ie.mac_mutual_informations(pol, ch, b)
        assert (i1, i2, i_sum) == (0.0, 0.0, 0.0)
        assert eby == pytest.approx(2.0)

    def test_vacuous_time_sharing(self):
        ch = make_binary_adder()
        b = ie.EnergyFn([0.0, 1.0, 2.0])
        p1 = ie.Pmf([0.3, 0.7])
        p2 = ie.Pmf([0.6, 0.4])
        single = ie.mac_mutual_informations(
            ie.TimeSharingPolicy.single(p1, p2), ch, b)
        doubled = ie.mac_mutual_informations(
            ie.TimeSharingPolicy(ie.Pmf([0.5, 0.5]), ((p1, p2), (p1, p2))), ch, b)
        np.testing.assert_allclose(doubled, single, atol=1e-12)

    def test_against_joint_law_reference(self):
        rng = np.random.default_rng(9)
        ch = make_binary_adder()
        b = ie.EnergyFn([0.0, 1.0, 2.0])
        for _ in range(20):
            p1 = rng.dirichlet(np.ones(2))
            p2 = rng.dirichlet(np.ones(2))
            pol = ie.TimeSharingPolicy.single(ie.Pmf(p1), ie.Pmf(p2))
            got = ie.mac_mutual_informations(pol, ch, b)[:3]
            want = direct_conditional_mi(p1, p2, ch.transition)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_information_bounds(self):
        rng = np.random.default_rng(10)
        W = rng.dirichlet(np.ones(3), size=(2, 2))
        ch = ie.DmChannel.mac(ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0]),
                              ie.Alphabet([0.0, 1.0, 2.0]), W)
        b = ie.EnergyFn([0.1, 0.2, 0.3])
        for _ in range(50):
            k = int(rng.integers(1, 4))
            pol = ie.TimeSharingPolicy(
                ie.Pmf(rng.dirichlet(np.ones(k))),
                tuple((ie.Pmf(rng.dirichlet(np.ones(2))),
                       ie.Pmf(rng.dirichlet(np.ones(2)))) for _ in range(k)))
            i1, i2, i_sum, _ = ie.mac_mutual_informations(pol, ch, b)
            assert 0 <= i1 <= i_sum + 1e-12
            assert 0 <= i2 <= i_sum + 1e-12
            assert i_sum <= i1 + i2 + 1e-12
            assert i_sum <= np.log2(3) + 1e-12
            assert i1 <= min(np.log2(2), np.log2(3)) + 1e-12
