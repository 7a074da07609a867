"""Monte Carlo verification of the operational coding definitions.

Codebooks are drawn i.i.d. from a generation policy, with per-codeword cost
screening by rejection so the blockwise budget holds exactly.  Trials derive
their random streams from (seed, trial index), so reports are bit-identical
across runs and across serial/parallel execution.

The relay budget check uses the per-block reading of the harvesting
constraint: the relay observes a whole received block, then spends at most
the realized harvested energy plus its own supply.  A per-symbol causal
battery is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Alphabet, CostFn, DmChannel, EnergyFn, Pmf
from .metrics import TimeSharingPolicy

COST_SLACK = 1e-9
MAX_REJECTIONS = 1000


@dataclass(frozen=True)
class GaussianPhasePolicy:
    """Two-phase generator: Gaussian codewords when Q=1, constants when Q=0."""

    lam: float
    p_prime: float
    p_dprime: float

    def __post_init__(self):
        if not 0 <= self.lam <= 1 or self.p_prime < 0 or self.p_dprime < 0:
            raise ValueError("invalid phase policy parameters")


@dataclass(frozen=True, eq=False)
class Codebook:
    """Fixed random codebook: one length-n real codeword per message."""

    n: int
    codewords: np.ndarray  # (messages, n) symbol values
    message_count: int
    q_seq: np.ndarray | None = None  # shared coordination sequence, if any
    codeword_indices: np.ndarray | None = None  # alphabet positions (discrete)

    def __post_init__(self):
        cw = np.array(self.codewords, dtype=float)
        cw.setflags(write=False)
        object.__setattr__(self, "codewords", cw)
        if cw.shape != (self.message_count, self.n):
            raise ValueError("codeword array shape mismatch")


@dataclass(frozen=True)
class SimReport:
    """Empirical statistics from a batch of independent trials."""

    n: int
    trials: int
    seed: int
    mean_bn: float
    viol_freq: float
    err_rate: float
    relay_viol_freq: float
    mean_bn_se: float = 0.0

    def __post_init__(self):
        for freq in (self.viol_freq, self.relay_viol_freq):
            if not np.isnan(freq) and not 0.0 <= freq <= 1.0:
                raise ValueError("frequencies must lie in [0, 1]")
        if self.mean_bn < 0:
            raise ValueError("mean energy must be nonnegative")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(trial)])


def _message_count(n: int, rate: float) -> int:
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    bits = n * rate
    if bits > 20 + 1e-9:
        raise ValueError("codebook too large: need n*rate <= 20")
    return max(1, int(round(2.0 ** bits)))


def _block_cost(values: np.ndarray, cost, indices: np.ndarray | None) -> float:
    if cost is None:
        return 0.0
    if isinstance(cost, CostFn):
        if indices is None:
            raise ValueError("table costs need a discrete alphabet")
        return float(cost.values[indices].mean())
    return float(np.mean(cost(values)))


def _draw_discrete_block(policy, rng, n, alphabet, input_index, q_seq):
    if isinstance(policy, Pmf):
        idx = rng.choice(len(policy), size=n, p=policy.probs)
    else:
        idx = np.empty(n, dtype=int)
        for qv in np.unique(q_seq):
            where = q_seq == qv
            table = policy.inputs[qv][input_index]
            idx[where] = rng.choice(len(table), size=int(where.sum()), p=table.probs)
    return alphabet.symbols[idx], idx


def _draw_gaussian_block(policy: GaussianPhasePolicy, rng, n, q_seq):
    vals = np.where(q_seq == 1,
                    rng.normal(0.0, np.sqrt(policy.p_prime) if policy.p_prime > 0 else 0.0, n),
                    np.sqrt(policy.p_dprime))
    return vals, None


def generate_codebook(policy, n: int, rate: float, *, alphabet: Alphabet | None = None,
                      cost=None, budget: float | None = None, seed: int = 0,
                      q_seq: np.ndarray | None = None, input_index: int = 0) -> Codebook:
    """Draw a codebook i.i.d. from the policy, rescreening over-budget words.

    Discrete policies (Pmf or TimeSharingPolicy) need the symbol alphabet;
    time-sharing and two-phase policies draw a shared Q sequence first (or
    reuse the one given) and condition every codeword on it.
    """
    messages = _message_count(n, rate)
    rng = _trial_rng(seed, 0x600D)

    needs_q = isinstance(policy, (TimeSharingPolicy, GaussianPhasePolicy))
    if needs_q and q_seq is None:
        if isinstance(policy, TimeSharingPolicy):
            q_seq = rng.choice(len(policy), size=n, p=policy.q_pmf.probs)
        else:
            q_seq = (rng.random(n) < policy.lam).astype(int)
    if isinstance(policy, (Pmf, TimeSharingPolicy)) and alphabet is None:
        raise ValueError("discrete policies need an alphabet")

    words = np.empty((messages, n))
    indices = np.empty((messages, n), dtype=int) if alphabet is not None else None
    for m in range(messages):
        for attempt in range(MAX_REJECTIONS + 1):
            if isinstance(policy, GaussianPhasePolicy):
                vals, idx = _draw_gaussian_block(policy, rng, n, q_seq)
            else:
                vals, idx = _draw_discrete_block(policy, rng, n, alphabet,
                                                 input_index, q_seq)
            if budget is None or _block_cost(vals, cost, idx) <= budget + COST_SLACK:
                break
        else:
            raise RuntimeError(
                f"codeword {m}: cost budget {budget} incompatible with the policy "
                f"after {MAX_REJECTIONS} attempts")
        words[m] = vals
        if indices is not None:
            indices[m] = idx

    if budget is not None:
        for m in range(messages):
            got = _block_cost(words[m], cost,
                              indices[m] if indices is not None else None)
            if not got <= budget + COST_SLACK:
                raise RuntimeError(f"codeword {m}: cost screening failed")
    return Codebook(n, words, messages, q_seq, indices)


def generate_mac_codebooks(policy, n: int, rate1: float, rate2: float, *,
                           alphabets=(None, None), costs=(None, None),
                           budgets=(None, None), seed: int = 0):
    """Codebook pair sharing one coordination sequence Q^n.

    Time sharing requires the encoders to agree on Q^n, so it is drawn once
    and both codebooks condition on it.
    """
    rng = _trial_rng(seed, 0xC0DE)
    if isinstance(policy, TimeSharingPolicy):
        q_seq = rng.choice(len(policy), size=n, p=policy.q_pmf.probs)
    elif isinstance(policy, GaussianPhasePolicy):
        q_seq = (rng.random(n) < policy.lam).astype(int)
    else:
        q_seq = None
    cb1 = generate_codebook(policy, n, rate1, alphabet=alphabets[0], cost=costs[0],
                            budget=budgets[0], seed=seed + 1, q_seq=q_seq, input_index=0)
    cb2 = generate_codebook(policy, n, rate2, alphabet=alphabets[1], cost=costs[1],
                            budget=budgets[1], seed=seed + 2, q_seq=q_seq, input_index=1)
    return cb1, cb2


# ---------------------------------------------------------------------------
# Channel samplers
# ---------------------------------------------------------------------------


class DmMacSampler:
    """Samples a discrete two-sender channel on symbol indices."""

    discrete = True

    def __init__(self, ch: DmChannel):
        if not ch.is_mac:
            raise ValueError("expected a two-sender channel")
        self.channel = ch
        self._cdf = np.cumsum(ch.transition, axis=-1)

    def sample(self, x1_idx, x2_idx, rng) -> np.ndarray:
        cdf = self._cdf[x1_idx, x2_idx]
        u = rng.random(cdf.shape[0])
        return np.minimum((u[:, None] > cdf).sum(axis=1), cdf.shape[1] - 1)


class DmPointToPointSampler:
    discrete = True

    def __init__(self, ch: DmChannel):
        if ch.is_mac:
            raise ValueError("expected a point-to-point channel")
        self.channel = ch
        self._cdf = np.cumsum(ch.transition, axis=-1)

    def sample(self, x_idx, rng) -> np.ndarray:
        cdf = self._cdf[x_idx]
        u = rng.random(cdf.shape[0])
        return np.minimum((u[:, None] > cdf).sum(axis=1), cdf.shape[1] - 1)


class GaussianMacSampler:
    """Y = X1 + X2 + Z with Z drawn N(0, n0); operates on symbol values."""

    discrete = False

    def __init__(self, n0: float = 1.0):
        if n0 <= 0:
            raise ValueError("noise variance must be positive")
        self.n0 = n0

    def sample(self, x1_vals, x2_vals, rng) -> np.ndarray:
        return x1_vals + x2_vals + rng.normal(0.0, np.sqrt(self.n0), x1_vals.shape[0])


def _energy_per_symbol(y, b, sampler) -> np.ndarray:
    if sampler.discrete:
        if not isinstance(b, EnergyFn):
            raise ValueError("discrete channels need an EnergyFn table")
        return b.values[y]
    return b(y)


# ---------------------------------------------------------------------------
# Simulations
# ---------------------------------------------------------------------------


def simulate_mac_energy(cb1: Codebook, cb2: Codebook, sampler, b, b_target: float,
                        eps: float, trials: int, seed: int = 0) -> SimReport:
    """Transmit random message pairs; track block energy and shortfalls.

    Per trial the pair is uniform, the channel is sampled symbol by symbol,
    and the block average of b is compared against b_target - eps.
    """
    if cb1.n != cb2.n:
        raise ValueError("codebooks must share a blocklength")
    if cb1.q_seq is not None and cb2.q_seq is not None:
        if not np.array_equal(cb1.q_seq, cb2.q_seq):
            raise ValueError("codebooks were built on different Q sequences")

    bn = np.empty(trials)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        m1 = int(rng.integers(cb1.message_count))
        m2 = int(rng.integers(cb2.message_count))
        if sampler.discrete:
            y = sampler.sample(cb1.codeword_indices[m1], cb2.codeword_indices[m2], rng)
        else:
            y = sampler.sample(cb1.codewords[m1], cb2.codewords[m2], rng)
        bn[t] = _energy_per_symbol(y, b, sampler).mean()

    se = float(bn.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return SimReport(cb1.n, trials, seed, float(bn.mean()),
                     float((bn < b_target - eps).mean()), float("nan"),
                     float("nan"), se)


def check_energy_markov_bound(report: SimReport, b_target: float, eps: float) -> bool:
    """Empirical form of E[b_block] >= (B - eps) * Pr[b_block >= B - eps].

    Holds pathwise because b is nonnegative; the three-standard-error slack
    only guards display rounding of externally supplied reports.
    """
    floor = (b_target - eps) * (1.0 - report.viol_freq)
    return bool(report.mean_bn >= floor - 3.0 * report.mean_bn_se)


class ScalingGaussianRelay:
    """Gaussian block rescaled to spend exactly the realized budget."""

    def transmit(self, budget: float, n: int, rng) -> np.ndarray:
        z = rng.normal(0.0, 1.0, n)
        ss = float(z @ z)
        if budget <= 0 or ss == 0:
            return np.zeros(n)
        return z * np.sqrt(budget * n / ss)


class FixedPowerGaussianRelay:
    """Gaussian block at nominal power; block cost fluctuates around it."""

    def __init__(self, power: float):
        if power < 0:
            raise ValueError("power must be nonnegative")
        self.power = power

    def transmit(self, budget: float, n: int, rng) -> np.ndarray:
        return rng.normal(0.0, np.sqrt(self.power) if self.power > 0 else 0.0, n)


def simulate_mhc_harvest(cb1: Codebook, sampler, relay, b, p2_budget: float,
                         trials: int, seed: int = 0, c2=None) -> SimReport:
    """Check the relay spending rule block by block.

    Per trial: transmit a random first-hop codeword, harvest the block energy,
    let the relay emit its block, and flag trials where the relay's block cost
    exceeds harvested energy plus its own supply.
    """
    c2 = c2 if c2 is not None else np.square
    harvested = np.empty(trials)
    violations = 0
    for t in range(trials):
        rng = _trial_rng(seed, t)
        m = int(rng.integers(cb1.message_count))
        if sampler.discrete:
            y1 = sampler.sample(cb1.codeword_indices[m], rng)
        else:
            y1 = sampler.sample(cb1.codewords[m], rng)
        harvested[t] = _energy_per_symbol(y1, b, sampler).mean()
        x2 = relay.transmit(harvested[t] + p2_budget, cb1.n, rng)
        if float(np.mean(c2(x2))) > harvested[t] + p2_budget + COST_SLACK:
            violations += 1

    se = float(harvested.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return SimReport(cb1.n, trials, seed, float(harvested.mean()), float("nan"),
                     float("nan"), violations / trials, se)


def simulate_decode(cb1: Codebook, cb2: Codebook, sampler, trials: int,
                    seed: int = 0) -> float:
    """Empirical joint-message error rate under exhaustive ML decoding."""
    m1_count, m2_count = cb1.message_count, cb2.message_count
    if m1_count * m2_count > 1 << 20:
        raise ValueError("codebook pair too large for exhaustive decoding")
    if cb1.n != cb2.n:
        raise ValueError("codebooks must share a blocklength")
    n = cb1.n

    if sampler.discrete:
        with np.errstate(divide="ignore"):
            log_w = np.log(sampler.channel.transition)
        idx1, idx2 = cb1.codeword_indices, cb2.codeword_indices

    errors = 0
    for t in range(trials):
        rng = _trial_rng(seed, t)
        m1 = int(rng.integers(m1_count))
        m2 = int(rng.integers(m2_count))
        if sampler.discrete:
            y = sampler.sample(idx1[m1], idx2[m2], rng)
            ll = np.zeros((m1_count, m2_count))
            for i in range(n):
                ll += log_w[idx1[:, i][:, None], idx2[:, i][None, :], y[i]]
        else:
            y = sampler.sample(cb1.codewords[m1], cb2.codewords[m2], rng)
            ll = np.empty((m1_count, m2_count))
            for a in range(m1_count):
                diff = y[None, :] - cb1.codewords[a][None, :] - cb2.codewords
                ll[a] = -(diff * diff).sum(axis=1)
        flat = int(np.argmax(ll))
        if (flat // m2_count, flat % m2_count) != (m1, m2):
            errors += 1
    return errors / trials
