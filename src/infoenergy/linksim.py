"""Monte Carlo verification of the operational coding definitions.

Codebooks are drawn i.i.d. from a generation policy, with per-codeword cost
screening by rejection so every word meets the blockwise budget.  Each codebook
reads one random stream derived from its seed and each trial one derived from
(seed, trial index), so reruns give bit-identical reports.  A trial draws
its messages, then the channel output, then the relay's block.  All three
simulators reject codeword symbols outside the channel's input alphabets and
run their trials through one block map, ``_map_trials``, which draws a block
of trials, hands it to the simulator's per-block function and splits the
blocks across every CPU in the process's affinity mask with
``_workers.fork_map``; as each trial reads only its own stream, no result
depends on the block size or the CPU count.

The relay budget check uses the per-block reading of the harvesting
constraint: the relay observes a whole received block, then spends at most
the realized harvested energy plus its own supply.  A per-symbol causal
battery is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._workers import fork_map
from .channel import Alphabet, CostFn, DmChannel, EnergyFn, Pmf
from .closedform import BUDGET_TOL, InfeasibleError
from .metrics import TimeSharingPolicy

MAX_REJECTIONS = 1000
# At most this many codeword symbols per drawn or screened block, and pair scores
# per decoded block.
_BLOCK_VALUES = 1 << 14


@dataclass(frozen=True)
class GaussianPhasePolicy:
    """Real-valued generator: every symbol is sqrt(p_dprime) + N(0, p_prime)."""

    p_prime: float
    p_dprime: float

    def __post_init__(self):
        if not (0 <= self.p_prime < np.inf and 0 <= self.p_dprime < np.inf):
            raise ValueError("invalid phase policy parameters")


@dataclass(frozen=True, eq=False)
class Codebook:
    """Fixed random codebook: one length-n codeword per message, stored once.

    ``words`` holds alphabet positions in the smallest unsigned dtype that
    fits when ``alphabet`` is set, and real signal values otherwise.
    """

    words: np.ndarray  # (messages, n)
    q_seq: np.ndarray | None = None  # shared coordination sequence, if any
    alphabet: Alphabet | None = None

    def __post_init__(self):
        words = np.asarray(self.words, dtype=float if self.alphabet is None else None)
        if self.alphabet is not None:
            if words.dtype.kind not in "iu" or words.size and not (
                    words.min() >= 0 and words.max() < len(self.alphabet)):
                raise ValueError("discrete codewords must be alphabet positions")
            words = words.astype(np.min_scalar_type(len(self.alphabet) - 1), copy=False)
        words = words.view()
        words.setflags(write=False)
        object.__setattr__(self, "words", words)

    @property
    def n(self) -> int:
        return self.words.shape[1]

    @property
    def message_count(self) -> int:
        return self.words.shape[0]

    @property
    def codewords(self) -> np.ndarray:
        """Symbol values, (messages, n); derived anew on each access if discrete."""
        return self.words if self.alphabet is None else self.alphabet.symbols[self.words]


@dataclass(frozen=True)
class SimReport:
    """Empirical statistics from a batch of independent trials.

    Unmeasured fields read NaN: ``err_rate`` always, ``relay_viol_freq`` in
    ``simulate_mac_energy`` and ``viol_freq`` in ``simulate_mhc_harvest``.
    """

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
    if not 0 <= rate < np.inf:
        raise ValueError("rate must be finite and nonnegative")
    bits = n * rate
    if bits > 20 + 1e-9:
        raise ValueError("codebook too large: need n*rate <= 20")
    return max(1, int(round(2.0 ** bits)))


def _block_cost(block: np.ndarray, cost, alphabet: Alphabet | None) -> np.ndarray:
    if isinstance(cost, CostFn):
        if alphabet is None:
            raise ValueError("table costs need a discrete alphabet")
        return cost.values[block].mean(axis=1)
    return np.mean(cost(block if alphabet is None else alphabet.symbols[block]), axis=1)


def _draw_q(policy, rng, n):
    """Shared coordination sequence for time-sharing policies."""
    if isinstance(policy, TimeSharingPolicy):
        return rng.choice(len(policy), size=n, p=policy.q_pmf.probs)
    return None


def _draw_block(policy, rng, rows: int, n: int, q_seq, input_index: int) -> np.ndarray:
    """``rows`` codewords, the same numbers as ``rows`` one-word draws from ``rng``."""
    if isinstance(policy, GaussianPhasePolicy):
        return rng.normal(np.sqrt(policy.p_dprime), np.sqrt(policy.p_prime), (rows, n))
    # Per word, one rng.choice(k, size, p=) per q-group in np.unique order; choice
    # maps one uniform per symbol through (cdf / cdf[-1]).searchsorted(u, "right").
    groups = [(np.arange(n), policy)] if isinstance(policy, Pmf) else [
        (np.flatnonzero(q_seq == qv), policy.inputs[qv][input_index]) for qv in np.unique(q_seq)]
    u, block, start = rng.random((rows, n)), np.empty((rows, n), dtype=np.intp), 0
    for where, pmf in groups:
        cdf = pmf.probs.cumsum()
        block[:, where] = (cdf / cdf[-1]).searchsorted(u[:, start:start + len(where)], "right")
        start += len(where)
    return block


def generate_codebook(policy, n: int, rate: float, *, alphabet: Alphabet | None = None,
                      cost=None, budget: float | None = None, seed: int = 0,
                      q_seq: np.ndarray | None = None, input_index: int = 0) -> Codebook:
    """Draw a codebook i.i.d. from the policy, rescreening over-budget words.

    Discrete policies (Pmf or TimeSharingPolicy) need the symbol alphabet and
    store alphabet positions; Gaussian policies take no alphabet and store
    values.  Time-sharing policies draw a shared Q sequence first (or reuse
    the one given) and condition every codeword on it.  A cost is a CostFn
    table or a function applied to symbol values elementwise.
    """
    messages = _message_count(n, rate)
    if budget is not None and (cost is None or not 0 <= budget < np.inf):
        raise ValueError("a cost budget must be finite and nonnegative, with a cost table "
                         "or function to screen by")
    rng = _trial_rng(seed, 0x600D)
    if q_seq is None:
        q_seq = _draw_q(policy, rng, n)
    gaussian = isinstance(policy, GaussianPhasePolicy)
    if gaussian != (alphabet is None):
        raise ValueError("discrete policies need an alphabet; Gaussian policies take none")

    words = np.empty((messages, n), float if gaussian else np.min_scalar_type(len(alphabet) - 1))
    rows, done, rejected = max(1, _BLOCK_VALUES // n), 0, 0
    while done < messages:
        block = _draw_block(policy, rng, min(messages - done, rows), n, q_seq, input_index)
        if budget is not None:  # count the rejections before each accepted row
            ok = np.flatnonzero(_block_cost(block, cost, alphabet) <= budget + BUDGET_TOL)
            runs = np.diff(ok, prepend=-1 - rejected, append=len(block)) - 1
            if runs.max() > MAX_REJECTIONS:
                raise InfeasibleError(
                    f"codeword {done + np.argmax(runs > MAX_REJECTIONS)}: cost budget "
                    f"{budget} incompatible with the policy after {MAX_REJECTIONS} attempts")
            block, rejected = block[ok], runs[-1]
        words[done:done + len(block)] = block
        done += len(block)
    # Certificate: recheck the stored words, a block at a time to bound temporaries.
    for start in range(0, messages, rows) if budget is not None else ():
        over = ~(_block_cost(words[start:start + rows], cost, alphabet) <= budget + BUDGET_TOL)
        if over.any():
            raise RuntimeError(f"codeword {start + np.argmax(over)}: cost screening failed")
    return Codebook(words, q_seq, alphabet)


def generate_mac_codebooks(policy, n: int, rate1: float, rate2: float, *,
                           alphabets=(None, None), costs=(None, None),
                           budgets=(None, None), seed: int = 0):
    """Codebook pair sharing one coordination sequence Q^n.

    Time sharing requires the encoders to agree on Q^n, so it is drawn once
    and both codebooks condition on it.
    """
    q_seq = _draw_q(policy, _trial_rng(seed, 0xC0DE), n)
    cb1 = generate_codebook(policy, n, rate1, alphabet=alphabets[0], cost=costs[0],
                            budget=budgets[0], seed=seed + 1, q_seq=q_seq, input_index=0)
    cb2 = generate_codebook(policy, n, rate2, alphabet=alphabets[1], cost=costs[1],
                            budget=budgets[1], seed=seed + 2, q_seq=q_seq, input_index=1)
    return cb1, cb2


# ---------------------------------------------------------------------------
# Channel samplers
# ---------------------------------------------------------------------------


class _DiscreteSampler:
    """Inverse-CDF sampling of a discrete channel on symbol indices."""

    discrete = True

    def __init__(self, ch: DmChannel):
        if ch.is_mac != self._mac:
            raise ValueError("expected a two-sender channel" if self._mac
                             else "expected a point-to-point channel")
        self.channel = ch
        # Symbol = CDF edges below u; no top edge, so rows summing below 1 end on the last.
        cdf = np.cumsum(ch.transition, axis=-1)
        self._edges = np.ascontiguousarray(cdf.reshape(-1, cdf.shape[-1]).T[:-1])

    def _draw(self, inputs: np.ndarray, rng) -> np.ndarray:
        """One output per entry of ``inputs``, flat indices into the channel's input grid."""
        u = rng.random(len(inputs))
        y = np.zeros(len(u), dtype=np.intp)
        for edge in self._edges:
            y += u > edge.take(inputs)
        return y


class DmMacSampler(_DiscreteSampler):
    """Samples a discrete two-sender channel on symbol indices."""

    _mac = True

    def sample(self, x1_idx, x2_idx, rng) -> np.ndarray:
        """Positions are not range-checked: a sender-2 one too large reads another pair's row."""
        inputs = np.asarray(x1_idx, dtype=np.intp) * self.channel.transition.shape[1] + x2_idx
        return self._draw(inputs, rng)


class DmPointToPointSampler(_DiscreteSampler):
    """Samples a discrete point-to-point channel on symbol indices."""

    _mac = False

    def sample(self, x_idx, rng) -> np.ndarray:
        """Positions are not range-checked."""
        return self._draw(x_idx, rng)


class GaussianMacSampler:
    """Y = X1 + X2 + Z with Z drawn N(0, n0); operates on symbol values."""

    discrete = False

    def __init__(self, n0: float = 1.0):
        if not 0 < n0 < np.inf:
            raise ValueError("noise variance must be positive and finite")
        self.n0 = n0

    def sample(self, x1_vals, x2_vals, rng) -> np.ndarray:
        return x1_vals + x2_vals + rng.normal(0.0, np.sqrt(self.n0), x1_vals.shape[0])


def _trial_inputs(sampler, trials: int, *codebooks: Codebook, levels=()) -> list:
    """Check a simulation's arguments; return the codeword arrays the sampler reads."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not all(0 <= level < np.inf for level in levels):  # targets, |eps|, relay supplies
        raise ValueError("energy targets and relay supplies must be finite and nonnegative, "
                         "and eps finite")
    if len({cb.n for cb in codebooks}) != 1:
        raise ValueError("codebooks must share a blocklength")
    q_seqs = [cb.q_seq for cb in codebooks if cb.q_seq is not None]
    if any(not np.array_equal(q_seqs[0], q) for q in q_seqs[1:]):
        raise ValueError("codebooks were built on different Q sequences")
    if not sampler.discrete:
        return [cb.codewords for cb in codebooks]
    if any(cb.alphabet is None for cb in codebooks):
        raise ValueError("discrete samplers need codebooks drawn on an alphabet")
    if any(cb.words.max() >= k for cb, k in zip(codebooks, sampler.channel.transition.shape)):
        raise ValueError("codewords use symbols outside the channel's input alphabets")
    return [cb.words for cb in codebooks]


def _map_trials(sampler, xs, seed: int, trials: int, per_trial: int, width: int,
                score) -> np.ndarray:
    """(width, trials) float64 rows, scored a block of trials at a time.

    Blocks hold max(1, _BLOCK_VALUES // per_trial) trials and are the items
    of ``fork_map``.  Trial t draws from _trial_rng(seed, t) one uniform
    message per array of ``xs``, then its output.  ``score(sent, y, rngs)``
    gets a block's sent messages (len(xs), k), outputs (k, n) and trial
    streams, from which the relay's blocks are drawn, and returns (width, k)
    rows, or (k,) if width is 1.  Every trial reads only its own stream, so
    the rows depend on neither the block size nor the CPU count.
    """
    size = max(1, _BLOCK_VALUES // per_trial)
    blocks = [range(start, min(start + size, trials)) for start in range(0, trials, size)]

    def run(k, rows):
        block = blocks[k]
        rngs = [_trial_rng(seed, t) for t in block]
        sent = np.empty((len(xs), len(block)), dtype=np.intp)
        y = np.empty((len(block), xs[0].shape[1]), np.intp if sampler.discrete else float)
        for j, rng in enumerate(rngs):
            sent[:, j] = [rng.integers(len(x)) for x in xs]
            y[j] = sampler.sample(*(x[m] for x, m in zip(xs, sent[:, j])), rng)
        rows[:, block.start:block.stop] = score(sent, y, rngs)

    return fork_map(run, len(blocks), (width, trials))


def _energy_fn(b, sampler):
    """Per-symbol energy of the sampler's outputs (indices or values)."""
    if not sampler.discrete:
        return b
    if not isinstance(b, EnergyFn):
        raise ValueError("discrete channels need an EnergyFn table")
    return lambda y: b.values[y]


# ---------------------------------------------------------------------------
# Simulations
# ---------------------------------------------------------------------------


def simulate_mac_energy(cb1: Codebook, cb2: Codebook, sampler, b, b_target: float,
                        eps: float, trials: int, seed: int = 0) -> SimReport:
    """Transmit random message pairs; track block energy and shortfalls.

    Per trial the pair is uniform, the channel is sampled symbol by symbol,
    and the block average of b is compared against b_target - eps.
    """
    xs = _trial_inputs(sampler, trials, cb1, cb2, levels=(b_target, abs(eps)))
    energy = _energy_fn(b, sampler)
    # Row sums of the contiguous (k, n) outputs add up as each one-trial sum did.
    bn = _map_trials(sampler, xs, seed, trials, cb1.n, 1,
                     lambda sent, y, rngs: energy(y).sum(axis=1) / cb1.n)[0]
    se = float(bn.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return SimReport(cb1.n, trials, seed, float(bn.mean()),
                     float((bn < b_target - eps).mean()), float("nan"),
                     float("nan"), se)


def check_energy_markov_bound(report: SimReport, b_target: float, eps: float) -> bool:
    """Empirical form of E[b_block] >= (B - eps) * Pr[b_block >= B - eps].

    Holds pathwise because b is nonnegative; the three-standard-error slack
    only guards display rounding of externally supplied reports.  A report
    with no shortfall frequency (viol_freq NaN) raises ValueError.
    """
    if np.isnan(report.viol_freq):
        raise ValueError("report.viol_freq is NaN: no shortfall frequency was measured")
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
        if not 0 <= power < np.inf:
            raise ValueError("power must be finite and nonnegative")
        self.power = power

    def transmit(self, budget: float, n: int, rng) -> np.ndarray:
        return rng.normal(0.0, np.sqrt(self.power) if self.power > 0 else 0.0, n)


def simulate_mhc_harvest(cb1: Codebook, sampler, relay, b, p2_budget: float,
                         trials: int, seed: int = 0) -> SimReport:
    """Check the relay spending rule block by block.

    Per trial: transmit a random first-hop codeword, harvest the block energy,
    let the relay emit its block, and flag trials where the relay's block cost,
    the mean square of its block, exceeds harvested energy plus its own supply.
    """
    xs = _trial_inputs(sampler, trials, cb1, levels=(p2_budget,))
    energy = _energy_fn(b, sampler)

    def score(sent, y, rngs):
        h = energy(y).sum(axis=1) / cb1.n
        spent = [np.square(relay.transmit(hk + p2_budget, cb1.n, rng)).sum() / cb1.n
                 for hk, rng in zip(h, rngs)]
        return h, np.array(spent) > h + p2_budget + BUDGET_TOL

    harvested, violations = _map_trials(sampler, xs, seed, trials, cb1.n, 2, score)
    se = float(harvested.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return SimReport(cb1.n, trials, seed, float(harvested.mean()), float("nan"),
                     float("nan"), int(violations.sum()) / trials, se)


def _pair_scorer(cb1: Codebook, cb2: Codebook, sampler, trials: int):
    """Check a decoding run; return its codeword arrays, per-trial size and ``scores(y)``.

    ``scores`` gives the log-likelihood scores (trials in block, M1 * M2) of
    every pair, flat index m1 * M2 + m2, for a block's outputs, overwritten by
    the next call.  Each trial's scores are summed over the symbols in order,
    bit for bit as a one-trial sum.  A block holds at most _BLOCK_VALUES scores
    or one trial's largest array, whichever is more: the scores, the outputs,
    or a Gaussian row's differences (M2, n) per codeword of the first sender.
    """
    m1_count, m2_count = cb1.message_count, cb2.message_count
    if m1_count * m2_count > 1 << 20:
        raise ValueError("codebook pair too large for exhaustive decoding")
    x1, x2 = _trial_inputs(sampler, trials, cb1, cb2)
    n = cb1.n
    if sampler.discrete:
        with np.errstate(divide="ignore"):
            log_wy = np.moveaxis(np.log(sampler.channel.transition), -1, 0)  # (ny, n1, n2)
        per_trial = max(m1_count * m2_count, n)
    else:
        per_trial = m2_count * max(m1_count, n)
    ll = term = None  # sized by a process's first, largest block; one table and term live

    def scores(y):
        nonlocal ll, term
        if ll is None:
            ll = np.empty((len(y), m1_count, m2_count))
            term = np.empty_like(ll) if sampler.discrete else None
        table = ll[:len(y)]
        if sampler.discrete:
            table.fill(0.0)
            step = term[:len(y)]
            for i in range(n):
                # Gather sender 2's columns first, then copy whole rows per codeword of
                # sender 1; "clip" leaves out unbuffered, and _trial_inputs checked the
                # symbols.
                np.take(log_wy[y[:, i]][:, :, x2[:, i]], x1[:, i], axis=1, out=step,
                        mode="clip")
                table += step
        else:
            for a in range(m1_count):
                diff = y[:, None, :] - x1[a] - x2
                table[:, a] = -(diff * diff).sum(axis=-1)
        return table.reshape(len(y), -1)

    return (x1, x2), per_trial, scores


def simulate_decode(cb1: Codebook, cb2: Codebook, sampler, trials: int,
                    seed: int = 0) -> float:
    """Empirical joint-message error rate under exhaustive ML decoding.

    Trials are decoded in blocks of up to _BLOCK_VALUES pair scores, with the
    rate and every decoded pair of a one-trial-at-a-time decoder.
    """
    xs, per_trial, scores = _pair_scorer(cb1, cb2, sampler, trials)
    errors = _map_trials(sampler, xs, seed, trials, per_trial, 1, lambda sent, y, rngs: (
        scores(y).argmax(axis=1) != sent[0] * cb2.message_count + sent[1]))
    return int(errors.sum()) / trials
