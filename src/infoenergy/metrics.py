"""Entropy and mutual-information evaluations on finite alphabets.

All logarithms are base 2 and all rates are bits per channel use, with the
convention 0*log(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import AlphabetMismatchError, DmChannel, EnergyFn, Pmf


def _probs(p) -> np.ndarray:
    return p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=float)


def entropy_bits(probs: np.ndarray) -> np.ndarray:
    """Row-wise entropy of an array whose last axis holds probabilities."""
    p = np.asarray(probs, dtype=float)
    terms = p * np.log2(np.where(p > 0, p, 1.0))
    if not 0 < terms.shape[-1] < 8:
        return -terms.sum(axis=-1)
    # Below 8 entries numpy's sum adds left to right: the same bits, cheaper.
    acc = terms[..., 0]
    for k in range(1, terms.shape[-1]):
        acc = acc + terms[..., k]
    return -acc


def entropy(p) -> float:
    """Shannon entropy H(p) in bits."""
    return float(entropy_bits(_probs(p)))


def conditional_output_entropy(p_in, W: np.ndarray) -> float:
    """H(Y|X) for input pmf p_in and transition matrix W of shape (|X|, |Y|)."""
    return float(_probs(p_in) @ entropy_bits(W))


def mutual_information(p_in, ch: DmChannel) -> float:
    """I(X;Y) in bits for a point-to-point channel."""
    if ch.is_mac:
        raise AlphabetMismatchError("expected a point-to-point channel")
    p = _probs(p_in)
    W = ch.transition
    if p.size != W.shape[0]:
        raise AlphabetMismatchError(
            f"input pmf length {p.size} != input alphabet size {W.shape[0]}"
        )
    out = p @ W
    return max(float(entropy_bits(out)) - conditional_output_entropy(p, W), 0.0)


@dataclass(frozen=True, eq=False)
class TimeSharingPolicy:
    """Coordination variable Q with per-q input pmfs for the two senders.

    The encoders agree on a shared Q sequence and switch codebooks with it;
    mixing over Q convexifies the achievable region.
    """

    q_pmf: Pmf
    inputs: tuple  # tuple of (Pmf, Pmf) pairs, one per q

    def __post_init__(self):
        pairs = tuple(tuple(pair) for pair in self.inputs)
        if len(pairs) != len(self.q_pmf):
            raise ValueError("one input pair is required per q")
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError("each q needs a (p(x1|q), p(x2|q)) pair")
        n1 = len(pairs[0][0])
        n2 = len(pairs[0][1])
        if any(len(p1) != n1 or len(p2) != n2 for p1, p2 in pairs):
            raise AlphabetMismatchError("per-q pmfs must share alphabets")
        object.__setattr__(self, "inputs", pairs)

    def __len__(self) -> int:
        return len(self.q_pmf)

    @classmethod
    def single(cls, p1: Pmf, p2: Pmf) -> "TimeSharingPolicy":
        return cls(Pmf([1.0]), ((p1, p2),))


def _vary_first_input(V: np.ndarray, p_other: np.ndarray, W: np.ndarray,
                      h_rows: np.ndarray):
    """Per-q informations for candidate pmfs V on axis 0 of W, the other input fixed.

    p_other is one pmf or a stack (J, n_other); a stack adds a leading J axis
    to every result.  Returns (i_self, i_sum, i_other, out): length-N arrays,
    where i_self conditions on the fixed sender and i_other vice versa, and
    the (N, ny) output pmfs.  Each stack entry gets the bits of a call with
    that pmf alone: the matmuls make one BLAS call per entry.
    """
    hv = np.matmul(h_rows, p_other[..., None])[..., 0]  # mean row entropy per self symbol
    wbar = np.einsum("...j,ijy->...iy", p_other, W)  # (..., n_self, ny)
    out = V @ wbar  # (..., N, ny)
    h_cond = (V @ hv[..., None])[..., 0]  # (..., N)

    i_self = -h_cond
    for j in range(p_other.shape[-1]):
        pj = p_other[..., j, None]
        live = pj > 0
        if live.any():
            np.add(i_self, pj * entropy_bits(V @ W[:, j, :]), out=i_self, where=live)
    i_sum = entropy_bits(out) - h_cond
    i_other = (V @ (entropy_bits(wbar) - hv)[..., None])[..., 0]
    return i_self, i_sum, i_other, out


def mac_mutual_informations(pol: TimeSharingPolicy, ch: DmChannel, b: EnergyFn):
    """Rate-region bounds and received energy for a time-sharing policy.

    Returns (I1, I2, Isum, EbY) where I1 = I(X1;Y|X2,Q), I2 = I(X2;Y|X1,Q),
    Isum = I(X1,X2;Y|Q) as p(q)-weighted averages, and EbY = E[b(Y)] under
    the Q-mixture output pmf.
    """
    if not ch.is_mac:
        raise AlphabetMismatchError("expected a two-sender channel")
    n1, n2, ny = ch.transition.shape
    if len(pol.inputs[0][0]) != n1 or len(pol.inputs[0][1]) != n2:
        raise AlphabetMismatchError("policy pmfs do not match channel inputs")
    if len(b) != ny:
        raise AlphabetMismatchError("energy table does not match output alphabet")

    W = ch.transition
    h_rows = entropy_bits(W)
    i1 = i2 = i_sum = 0.0
    out_mix = np.zeros(ny)
    for pq, (p1, p2) in zip(pol.q_pmf.probs, pol.inputs):
        c1, cs, c2, out = _vary_first_input(p1.probs[None, :], p2.probs, W, h_rows)
        i1 += pq * max(float(c1[0]), 0.0)
        i2 += pq * max(float(c2[0]), 0.0)
        i_sum += pq * max(float(cs[0]), 0.0)
        out_mix += pq * out[0]
    eby = float(out_mix @ b.values)
    return float(i1), float(i2), float(i_sum), eby
