"""Monte Carlo codebook generation and link simulations."""

import dataclasses
import math
import os

import numpy as np
import pytest

import infoenergy as ie
from conftest import make_binary_adder, report_bytes
from infoenergy.capacity import BUDGET_TOL


def reports_equal(a: ie.SimReport, b: ie.SimReport) -> bool:
    for f in dataclasses.fields(ie.SimReport):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, float) and math.isnan(x) and math.isnan(y):
            continue
        if x != y:
            return False
    return True


FOUR_LEVELS = ie.Alphabet([-2.0, -1.0, 1.0, 2.0])
SQUARES = ie.CostFn([4.0, 1.0, 1.0, 4.0])
SQUARES_B = ie.EnergyFn([4.0, 1.0, 1.0, 4.0])
NAN, INF = float("nan"), float("inf")


def one_word_codebook(policy, n, rate, *, alphabet=None, cost=None, budget=None, seed=0,
                      q_seq=None, input_index=0):
    """Reference generator: one codeword per draw call, screened as it is drawn.

    generate_codebook draws whole blocks of codewords; it must give these
    words, and raise at the same codeword, bit for bit.
    """
    messages = max(1, int(round(2.0 ** (n * rate))))
    rng = np.random.default_rng([seed, 0x600D])
    if q_seq is None and isinstance(policy, ie.TimeSharingPolicy):
        q_seq = rng.choice(len(policy), size=n, p=policy.q_pmf.probs)

    def draw():
        if isinstance(policy, ie.GaussianPhasePolicy):
            return rng.normal(np.sqrt(policy.p_dprime), np.sqrt(policy.p_prime), n)
        if isinstance(policy, ie.Pmf):
            return rng.choice(len(policy), size=n, p=policy.probs)
        idx = np.empty(n, dtype=int)
        for qv in np.unique(q_seq):
            where = q_seq == qv
            table = policy.inputs[qv][input_index]
            idx[where] = rng.choice(len(table), size=int(where.sum()), p=table.probs)
        return idx

    def word_cost(word):
        if isinstance(cost, ie.CostFn):
            return float(cost.values[word].mean())
        return float(np.mean(cost(word if alphabet is None else alphabet.symbols[word])))

    words = []
    for m in range(messages):
        for _ in range(ie.linksim.MAX_REJECTIONS + 1):
            word = draw()
            if budget is None or word_cost(word) <= budget + BUDGET_TOL:
                break
        else:
            raise RuntimeError(
                f"codeword {m}: cost budget {budget} incompatible with the policy "
                f"after {ie.linksim.MAX_REJECTIONS} attempts")
        words.append(word)
    return np.array(words), q_seq


def comparison_sum(cdf_rows, u):
    """Reference channel draw: count the CDF entries below u, clamped to the top symbol."""
    return np.minimum((u[:, None] > cdf_rows).sum(axis=1), cdf_rows.shape[1] - 1)


class FixedUniforms:
    """Stands in for a Generator whose next uniforms are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self.u)
        return self.u


def per_trial_scores(cb1, cb2, sampler, trials, seed):
    """Reference ML decoder: one trial at a time, one symbol's gather per step.

    A frozen copy of simulate_decode before it decoded trials in blocks.
    Returns the sent flat pair index, m1 * M2 + m2, and the flat score table
    of every trial.
    """
    m1_count, m2_count = cb1.message_count, cb2.message_count
    if sampler.discrete:
        x1, x2 = cb1.words, cb2.words
        with np.errstate(divide="ignore"):
            log_w = np.log(sampler.channel.transition)

        def log_likelihood(y):
            ll = np.zeros((m1_count, m2_count))
            for i in range(cb1.n):
                ll += log_w[x1[:, i][:, None], x2[:, i][None, :], y[i]]
            return ll
    else:
        x1, x2 = cb1.codewords, cb2.codewords

        def log_likelihood(y):
            ll = np.empty((m1_count, m2_count))
            for a in range(m1_count):
                diff = y[None, :] - x1[a][None, :] - x2
                ll[a] = -(diff * diff).sum(axis=1)
            return ll

    sent, scores = [], []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        m1 = int(rng.integers(m1_count))
        m2 = int(rng.integers(m2_count))
        sent.append(m1 * m2_count + m2)
        scores.append(log_likelihood(sampler.sample(x1[m1], x2[m2], rng)).ravel())
    return np.array(sent), np.array(scores)


def per_trial_mac_energy(cb1, cb2, sampler, b, b_target, eps, trials, seed):
    """Reference simulate_mac_energy: a frozen copy of its one-trial-at-a-time loop."""
    x1, x2 = (cb.words for cb in (cb1, cb2)) if sampler.discrete else (
        cb.codewords for cb in (cb1, cb2))
    energy = (lambda y: b.values[y]) if sampler.discrete else b
    bn = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        m1 = int(rng.integers(cb1.message_count))
        m2 = int(rng.integers(cb2.message_count))
        bn[t] = energy(sampler.sample(x1[m1], x2[m2], rng)).sum() / cb1.n
    se = float(bn.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return ie.SimReport(cb1.n, trials, seed, float(bn.mean()),
                        float((bn < b_target - eps).mean()), float("nan"), float("nan"), se)


def per_trial_mhc_harvest(cb1, sampler, relay, b, p2_budget, trials, seed):
    """Reference simulate_mhc_harvest: a frozen copy of its one-trial-at-a-time loop."""
    x1 = cb1.words
    harvested = np.empty(trials)
    violations = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        m = int(rng.integers(cb1.message_count))
        harvested[t] = b.values[sampler.sample(x1[m], rng)].sum() / cb1.n
        x2 = relay.transmit(harvested[t] + p2_budget, cb1.n, rng)
        if np.square(x2).sum() / cb1.n > harvested[t] + p2_budget + BUDGET_TOL:
            violations += 1
    se = float(harvested.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return ie.SimReport(cb1.n, trials, seed, float(harvested.mean()), float("nan"),
                        float("nan"), violations / trials, se)


def block_scores(cb1, cb2, sampler, trials, seed):
    """simulate_decode's sent pairs and scores, and the number of blocks it used.

    The map runs on one CPU, so every block is kept in this process.
    """
    xs, per_trial, scores = ie.linksim._pair_scorer(cb1, cb2, sampler, trials)
    blocks = []

    def keep(sent, y, rngs):
        blocks.append((sent[0] * cb2.message_count + sent[1], scores(y).copy()))
        return np.zeros(len(y))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        ie.linksim._map_trials(sampler, xs, seed, trials, per_trial, 1, keep)
    return (np.concatenate([sent for sent, _ in blocks]),
            np.concatenate([scores for _, scores in blocks]), len(blocks))


def random_discrete_mac(rs, zeros: bool) -> ie.DmChannel:
    """2-4 symbols per alphabet; with zeros, some transitions are impossible."""
    n1, n2, ny = rs.integers(2, 5, size=3)
    W = rs.dirichlet(np.ones(ny), size=(n1, n2))
    if zeros:
        W[rs.random(W.shape) < 0.3] = 0.0
        W[..., 0] += W.sum(axis=-1) == 0.0  # keep every row a distribution
        W /= W.sum(axis=-1, keepdims=True)
    return ie.DmChannel.mac(ie.Alphabet(np.arange(n1)), ie.Alphabet(np.arange(n2)),
                            ie.Alphabet(np.arange(ny)), W)


class TestGenerateCodebook:
    def test_degenerate_policy_constant_words(self):
        cb = ie.generate_codebook(ie.Pmf.degenerate(4, 2), 50, 4 / 50,
                                  alphabet=FOUR_LEVELS, seed=1)
        assert np.all(cb.codewords == 1.0)
        assert cb.message_count == 2 ** 4

    def test_uniform_free_cost_screening(self):
        cb = ie.generate_codebook(ie.Pmf.uniform(4), 64, 4 / 64,
                                  alphabet=FOUR_LEVELS,
                                  cost=ie.CostFn(np.zeros(4)), budget=0.0, seed=2)
        assert cb.codewords.shape == (16, 64)

    def test_cost_screening_holds_everywhere(self):
        cb = ie.generate_codebook(ie.Pmf.uniform(4), 40, 5 / 40,
                                  alphabet=FOUR_LEVELS, cost=SQUARES,
                                  budget=2.6, seed=3)
        costs = SQUARES.values[cb.words].mean(axis=1)
        assert np.all(costs <= 2.6 + 1e-9)

    def test_incompatible_budget_raises(self):
        with pytest.raises(RuntimeError, match="incompatible"):
            ie.generate_codebook(ie.Pmf.degenerate(4, 0), 20, 0.1,
                                 alphabet=FOUR_LEVELS, cost=SQUARES,
                                 budget=1.0, seed=4)

    def test_screen_reads_the_budget_within_budget_tol(self):
        # A word with one symbol 1 costs 0.5, 5e-10 over the budget.
        cb = ie.generate_codebook(ie.Pmf.uniform(2), 2, 1.0, alphabet=ie.Alphabet([0.0, 1.0]),
                                  cost=ie.CostFn([0.0, 1.0]), budget=0.5 - 5e-10, seed=6)
        assert cb.message_count == 4
        assert not cb.words.any()

    def test_budget_without_cost_raises(self):
        # Nothing to screen by: the budget would be silently ignored.
        with pytest.raises(ValueError, match="cost"):
            ie.generate_codebook(ie.Pmf.uniform(4), 64, 6 / 64,
                                 alphabet=FOUR_LEVELS, budget=0.5, seed=3)

    def test_time_sharing_policy_follows_q(self):
        # Degenerate per-q pmfs make the codewords a deterministic image of Q.
        two = ie.Alphabet([0.0, 1.0])
        pol = ie.TimeSharingPolicy(
            ie.Pmf([0.5, 0.5]),
            ((ie.Pmf.degenerate(2, 0), ie.Pmf.degenerate(2, 1)),
             (ie.Pmf.degenerate(2, 1), ie.Pmf.degenerate(2, 0))))
        cb1, cb2 = ie.generate_mac_codebooks(pol, 120, 2 / 120, 2 / 120,
                                             alphabets=(two, two), seed=7)
        assert np.array_equal(cb1.q_seq, cb2.q_seq)
        q = cb1.q_seq
        assert np.array_equal(cb1.codewords, np.tile(q, (4, 1)))
        assert np.array_equal(cb2.codewords, np.tile(1 - q, (4, 1)))

    def test_discrete_words_are_uint8_positions(self):
        cb = ie.generate_codebook(ie.Pmf.uniform(4), 64, 6 / 64, alphabet=FOUR_LEVELS,
                                  cost=SQUARES, budget=2.6, seed=10)
        assert cb.words.dtype == np.uint8
        assert cb.words.nbytes == cb.message_count * cb.n == 64 * 64
        assert np.array_equal(cb.codewords, FOUR_LEVELS.symbols[cb.words])
        assert not cb.words.flags.writeable

    def test_codebook_rejects_non_positions(self):
        for bad in ([[0, 4]], [[-1, 0]], [[0.0, 1.0]]):
            with pytest.raises(ValueError, match="alphabet positions"):
                ie.Codebook(np.array(bad), alphabet=FOUR_LEVELS)

    def test_alphabet_follows_the_policy(self):
        with pytest.raises(ValueError, match="need an alphabet"):
            ie.generate_codebook(ie.Pmf.uniform(4), 10, 0.1)
        with pytest.raises(ValueError, match="take none"):
            ie.generate_codebook(ie.GaussianPhasePolicy(1.0, 1.0), 10, 0.1,
                                 alphabet=FOUR_LEVELS)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="n\\*rate"):
            ie.generate_codebook(ie.Pmf.uniform(2), 100, 0.5,
                                 alphabet=ie.Alphabet([0.0, 1.0]))

    @pytest.mark.parametrize("rate", [-0.5, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_rate(self, rate):
        # A negative rate used to give a one-message codebook.
        with pytest.raises(ValueError, match="rate"):
            ie.generate_codebook(ie.Pmf.uniform(4), 10, rate, alphabet=FOUR_LEVELS)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_rejects_non_finite_budget(self, budget):
        # A NaN or negative budget used to reject 1,001 words, then blame the policy.
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ie.generate_codebook(ie.Pmf.uniform(4), 10, 0.2, alphabet=FOUR_LEVELS,
                                 cost=SQUARES, budget=budget)


class TestBlockDrawsMatchOneWordDraws:
    """Block draws give the same words as one draw call per codeword."""

    LEVELS3 = ie.Alphabet([0.0, 1.0, 3.0])
    SHARING = ie.TimeSharingPolicy(
        ie.Pmf([0.2, 0.5, 0.3]),
        ((ie.Pmf([0.5, 0.5, 0.0]), ie.Pmf([0.1, 0.2, 0.7])),
         (ie.Pmf([0.2, 0.3, 0.5]), ie.Pmf.uniform(3)),
         (ie.Pmf.degenerate(3, 2), ie.Pmf([0.6, 0.4, 0.0]))))

    @pytest.mark.parametrize("probs", [None, [0.1, 0.6, 0.3]])
    @pytest.mark.parametrize("screen", ["none", "table", "callable"])
    def test_pmf_codebooks(self, probs, screen):
        pmf = ie.Pmf.uniform(3) if probs is None else ie.Pmf(probs)
        cost, budget = {"none": (None, None),
                        "table": (ie.CostFn([0.0, 1.0, 9.0]), 2.0),
                        "callable": (np.square, 2.0)}[screen]
        for n, seed in ((1, 3), (7, 4), (40, 5)):
            kwargs = dict(alphabet=self.LEVELS3, cost=cost, budget=budget, seed=seed)
            want, _ = one_word_codebook(pmf, n, 6 / n, **kwargs)
            cb = ie.generate_codebook(pmf, n, 6 / n, **kwargs)
            assert np.array_equal(cb.words, want)

    @pytest.mark.parametrize("screen", ["none", "table", "callable"])
    def test_time_sharing_pair(self, screen):
        pol = self.SHARING
        cost, budget = {"none": (None, None),
                        "table": (ie.CostFn([0.0, 1.0, 9.0]), 5.0),
                        "callable": (np.square, 5.0)}[screen]
        cbs = ie.generate_mac_codebooks(pol, 30, 5 / 30, 4 / 30,
                                        alphabets=(self.LEVELS3, self.LEVELS3),
                                        costs=(cost, cost), budgets=(budget, budget), seed=11)
        for i, (cb, rate) in enumerate(zip(cbs, (5 / 30, 4 / 30))):
            want, _ = one_word_codebook(pol, 30, rate, alphabet=self.LEVELS3, cost=cost,
                                        budget=budget, seed=12 + i, q_seq=cb.q_seq,
                                        input_index=i)
            assert np.array_equal(cb.words, want)

    @pytest.mark.parametrize("screen", ["none", "callable"])
    def test_two_phase_pair(self, screen):
        pol = ie.GaussianPhasePolicy(0.9, 0.5)  # mean cost 1.4
        cost, budget = (None, None) if screen == "none" else (np.square, 1.6)
        cbs = ie.generate_mac_codebooks(pol, 25, 6 / 25, 3 / 25, costs=(cost, cost),
                                        budgets=(budget, budget), seed=21)
        for i, (cb, rate) in enumerate(zip(cbs, (6 / 25, 3 / 25))):
            want, _ = one_word_codebook(pol, 25, rate, cost=cost, budget=budget,
                                        seed=22 + i, q_seq=cb.q_seq)
            assert np.array_equal(cb.words, want)

    @pytest.mark.parametrize("kind", ["table", "callable", "two-phase"])
    def test_codebooks_larger_than_one_block(self, kind):
        # 64 words of 300 symbols exceed one block, so screening spans several.
        assert 64 * 300 > ie.linksim._BLOCK_VALUES
        if kind == "two-phase":  # mean cost 0.7 + 1 = 1.7
            pol, kwargs = ie.GaussianPhasePolicy(0.7, 1.0), dict(cost=np.square, budget=1.75)
        else:  # mean cost 2.5
            pol = ie.Pmf.uniform(4)
            kwargs = dict(alphabet=FOUR_LEVELS, budget=2.6,
                          cost=SQUARES if kind == "table" else np.square)
        want, _ = one_word_codebook(pol, 300, 6 / 300, seed=41, **kwargs)
        cb = ie.generate_codebook(pol, 300, 6 / 300, seed=41, **kwargs)
        assert np.array_equal(cb.words, want)

    @pytest.mark.parametrize("rate", [0.0, 3 / 50])
    def test_q_drawn_from_the_codebook_stream(self, rate):
        # No Q given: the codebook draws its own first.  Rate 0 is a single word.
        want, q = one_word_codebook(self.SHARING, 50, rate, alphabet=self.LEVELS3, seed=31)
        cb = ie.generate_codebook(self.SHARING, 50, rate, alphabet=self.LEVELS3, seed=31)
        assert np.array_equal(cb.q_seq, q)
        assert np.array_equal(cb.words, want)

    @pytest.mark.parametrize("seed", [4, 5, 10])
    def test_incompatible_budget_names_the_same_codeword(self, seed):
        # All nine symbols must be the cheap ones: about one word in 512 passes,
        # so rejection runs cross block boundaries before one reaches 1,001.
        kwargs = dict(alphabet=FOUR_LEVELS, cost=SQUARES, budget=1.0, seed=seed)
        with pytest.raises(RuntimeError) as want:
            one_word_codebook(ie.Pmf.uniform(4), 9, 1.0, **kwargs)
        assert not str(want.value).startswith("codeword 0:")
        with pytest.raises(RuntimeError) as got:
            ie.generate_codebook(ie.Pmf.uniform(4), 9, 1.0, **kwargs)
        assert str(got.value) == str(want.value)

    def test_certificate_catches_an_over_budget_word(self, monkeypatch):
        # Screening is made to pass every drawn block (intp symbol indices); the
        # certificate over the stored uint8 words must still name the first word
        # over budget, here in its second block.
        rows = ie.linksim._BLOCK_VALUES // 200
        for seed in range(100):
            free = ie.generate_codebook(ie.Pmf.uniform(4), 200, 7 / 200, alphabet=FOUR_LEVELS,
                                        seed=seed)
            costs = SQUARES.values[free.words].mean(axis=1)
            if costs[rows:].max() > costs[:rows].max():
                break
        budget = costs[:rows].max()
        first_over = int(np.argmax(costs > budget + BUDGET_TOL))
        assert rows <= first_over < len(costs)

        real = ie.linksim._block_cost

        def screening_passes_all(block, cost, alphabet):
            costs = real(block, cost, alphabet)
            return costs if block.dtype == np.uint8 else np.zeros_like(costs)

        monkeypatch.setattr(ie.linksim, "_block_cost", screening_passes_all)
        with pytest.raises(RuntimeError, match=f"codeword {first_over}: cost screening failed"):
            ie.generate_codebook(ie.Pmf.uniform(4), 200, 7 / 200, alphabet=FOUR_LEVELS,
                                 cost=SQUARES, budget=budget, seed=seed)


class TestSamplerMatchesComparisonSum:
    """The edge-count samplers reproduce the comparison-sum draw symbol for symbol."""

    def _random_rows(self, rs, rows, ny):
        w = rs.random((rows, ny)) ** 3
        w[rs.random((rows, ny)) < 0.2] = 0.0
        w[:, 0] += 1e-3
        return w / w.sum(axis=1, keepdims=True)

    def test_point_to_point_and_mac_on_random_channels(self):
        rs = np.random.default_rng(40)
        for case in range(30):
            nx, ny = int(rs.integers(1, 5)), int(rs.integers(1, 6))
            ys = ie.Alphabet(np.arange(ny, dtype=float))
            ch = ie.DmChannel.point_to_point(ie.Alphabet(np.arange(nx, dtype=float)), ys,
                                              self._random_rows(rs, nx, ny))
            cdf = np.cumsum(ch.transition, axis=-1)
            x = rs.integers(0, nx, 400).astype(np.uint8)
            got = ie.DmPointToPointSampler(ch).sample(x, np.random.default_rng(case))
            want = comparison_sum(cdf[x], np.random.default_rng(case).random(400))
            assert np.array_equal(got, want)

            n1, n2 = int(rs.integers(1, 4)), int(rs.integers(1, 4))
            law = self._random_rows(rs, n1 * n2, ny).reshape(n1, n2, ny)
            ch = ie.DmChannel.mac(ie.Alphabet(np.arange(n1, dtype=float)),
                                  ie.Alphabet(np.arange(n2, dtype=float)), ys, law)
            cdf = np.cumsum(ch.transition, axis=-1)
            x1 = rs.integers(0, n1, 400).astype(np.uint8)
            x2 = rs.integers(0, n2, 400).astype(np.uint8)
            got = ie.DmMacSampler(ch).sample(x1, x2, np.random.default_rng(case))
            want = comparison_sum(cdf[x1, x2], np.random.default_rng(case).random(400))
            assert np.array_equal(got, want)

    def test_uniforms_on_an_edge_and_above_a_short_row(self):
        # A row whose running sum ends below 1 even after normalisation.
        rs = np.random.default_rng(0)
        while True:
            short = rs.dirichlet(np.ones(9))
            if np.cumsum(short / short.sum())[-1] < 1.0:
                break
        rows = np.vstack([short, [0.25, 0.25, 0.0, 0.5] + [0.0] * 5, np.eye(9)[4]])
        outputs = ie.Alphabet(np.arange(9.0))
        ch = ie.DmChannel.point_to_point(ie.Alphabet([0.0, 1.0, 2.0]), outputs, rows)
        cdf = np.cumsum(ch.transition, axis=-1)
        assert cdf[0, -1] < 1.0
        # Every CDF edge of every row exactly, then just above the short row's top,
        # zero and the smallest positive uniform.
        x = np.concatenate([np.repeat(np.arange(3), 9), [0, 0, 1, 2]]).astype(np.uint8)
        u = np.concatenate([cdf.ravel(), [np.nextafter(cdf[0, -1], 1.0), 0.0, 5e-324, 0.0]])
        got = ie.DmPointToPointSampler(ch).sample(x, FixedUniforms(u))
        assert np.array_equal(got, comparison_sum(cdf[x], u))
        assert got[27] == 8  # above the short row's last edge: the top symbol

        mac = ie.DmChannel.mac(ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0, 2.0]),
                               outputs, np.stack([rows, rows[::-1]]))
        cdf = np.cumsum(mac.transition, axis=-1)
        x1, x2 = np.divmod(np.repeat(np.arange(6), 9), 3)
        u = np.concatenate([cdf.reshape(-1), [np.nextafter(cdf[0, 0, -1], 1.0)]])
        x1 = np.append(x1, 0).astype(np.uint8)
        x2 = np.append(x2, 0).astype(np.uint8)
        got = ie.DmMacSampler(mac).sample(x1, x2, FixedUniforms(u))
        assert np.array_equal(got, comparison_sum(cdf[x1, x2], u))
        assert got[-1] == 8


class TestSimulateMacEnergy:
    def test_constant_inputs_coherent_energy(self):
        pol = ie.GaussianPhasePolicy(0.0, 1.0)
        cb1, cb2 = ie.generate_mac_codebooks(pol, 10000, 0.0, 0.0, seed=1)
        rep = ie.simulate_mac_energy(cb1, cb2, ie.GaussianMacSampler(1.0),
                                     np.square, 4.5, 0.1, 200, seed=1)
        assert rep.mean_bn == pytest.approx(5.0, abs=0.1)

    def test_attained_gaussian_policy_meets_the_floor(self):
        # P = 1, B = 4: both senders send sqrt(1/2) + N(0, 1/2), so E[Y^2] = 2 + 1 + 1.
        sol = ie.gaussian_mac_timeshare(1.0, 4.0)
        pol = ie.GaussianPhasePolicy(sol.p_prime, sol.p_dprime)
        cb1, cb2 = ie.generate_mac_codebooks(pol, 512, 6 / 512, 6 / 512, seed=3)
        rep = ie.simulate_mac_energy(cb1, cb2, ie.GaussianMacSampler(1.0), np.square,
                                     4.0, 0.05, 2000, seed=4)
        assert abs(rep.mean_bn - 4.0) <= 5 * rep.mean_bn_se

    def test_violations_vanish_when_energy_margin_positive(self):
        pol = ie.GaussianPhasePolicy(0.0, 1.0)
        freqs = []
        for n in (100, 1000, 10000):
            cb1, cb2 = ie.generate_mac_codebooks(pol, n, 0.0, 0.0, seed=2)
            rep = ie.simulate_mac_energy(cb1, cb2, ie.GaussianMacSampler(1.0),
                                         np.square, 4.5, 0.1, 100, seed=2)
            freqs.append(rep.viol_freq)
        assert freqs[0] >= freqs[1] >= freqs[2]
        assert freqs[2] == 0.0

    def test_violations_saturate_when_target_unreachable(self):
        # E[Y^2] = 5 but the target is far above it.
        pol = ie.GaussianPhasePolicy(0.0, 1.0)
        cb1, cb2 = ie.generate_mac_codebooks(pol, 2000, 0.0, 0.0, seed=3)
        rep = ie.simulate_mac_energy(cb1, cb2, ie.GaussianMacSampler(1.0),
                                     np.square, 7.0, 0.1, 100, seed=3)
        assert rep.viol_freq == pytest.approx(1.0)

    def test_discrete_channel_path(self):
        x = ie.Alphabet([0.0, 1.0])
        y = ie.Alphabet([0.0, 1.0, 2.0])
        W = np.zeros((2, 2, 3))
        for i in range(2):
            for j in range(2):
                W[i, j, i + j] = 1.0
        ch = ie.DmChannel.mac(x, x, y, W)
        cb1 = ie.generate_codebook(ie.Pmf.uniform(2), 500, 4 / 500, alphabet=x, seed=4)
        cb2 = ie.generate_codebook(ie.Pmf.uniform(2), 500, 4 / 500, alphabet=x, seed=5)
        rep = ie.simulate_mac_energy(cb1, cb2, ie.DmMacSampler(ch),
                                     ie.EnergyFn([0.0, 1.0, 2.0]), 0.9, 0.05,
                                     200, seed=6)
        assert rep.mean_bn == pytest.approx(1.0, abs=0.05)

    def test_gaussian_sampler_reads_symbol_values(self):
        # Indices 0 + 0 would give E[Y^2] ~ 0; the values -2 + -2 give 16.
        cb = ie.generate_codebook(ie.Pmf.degenerate(4, 0), 200, 0.0,
                                  alphabet=FOUR_LEVELS, seed=1)
        rep = ie.simulate_mac_energy(cb, cb, ie.GaussianMacSampler(1e-6), np.square,
                                     16.0, 0.1, 20, seed=1)
        assert rep.mean_bn == pytest.approx(16.0, abs=1e-3)

    def test_discrete_sampler_needs_alphabet_codebook(self):
        values = ie.Codebook(np.zeros((4, 10)))
        adder = ie.DmMacSampler(make_binary_adder())
        energy = ie.EnergyFn([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="alphabet"):
            ie.simulate_mac_energy(values, values, adder, energy, 1.0, 0.1, 5)
        with pytest.raises(ValueError, match="alphabet"):
            ie.simulate_decode(values, values, adder, 5)
        hop = ie.DmPointToPointSampler(ie.DmChannel.noiseless(ie.Alphabet([0.0, 1.0])))
        with pytest.raises(ValueError, match="alphabet"):
            ie.simulate_mhc_harvest(values, hop, ie.ScalingGaussianRelay(),
                                    ie.EnergyFn([0.0, 1.0]), 0.0, 5)

    def test_deterministic_given_seed(self):
        pol = ie.GaussianPhasePolicy(1.0, 2.0)
        cb1, cb2 = ie.generate_mac_codebooks(pol, 500, 0.0, 0.0, seed=7)
        a = ie.simulate_mac_energy(cb1, cb2, ie.GaussianMacSampler(1.0),
                                   np.square, 3.0, 0.1, 50, seed=8)
        b = ie.simulate_mac_energy(cb1, cb2, ie.GaussianMacSampler(1.0),
                                   np.square, 3.0, 0.1, 50, seed=8)
        assert reports_equal(a, b)
        c = ie.simulate_mac_energy(cb1, cb2, ie.GaussianMacSampler(1.0),
                                   np.square, 3.0, 0.1, 50, seed=9)
        assert not reports_equal(a, c)


class TestEnergyMarkovBound:
    def test_holds_on_generated_reports(self):
        pol = ie.GaussianPhasePolicy(1.0, 1.5)
        for seed in range(5):
            cb1, cb2 = ie.generate_mac_codebooks(pol, 400, 0.0, 0.0, seed=seed)
            rep = ie.simulate_mac_energy(cb1, cb2, ie.GaussianMacSampler(1.0),
                                         np.square, 3.5, 0.2, 80, seed=seed)
            assert ie.check_energy_markov_bound(rep, 3.5, 0.2)

    def test_trivial_when_floor_nonpositive(self):
        rep = ie.SimReport(10, 5, 0, 0.0, 1.0, float("nan"), float("nan"), 0.0)
        assert ie.check_energy_markov_bound(rep, 0.1, 0.1)

    def test_rejects_synthetic_violation(self):
        rep = ie.SimReport(10, 5, 0, 0.5, 0.0, float("nan"), float("nan"), 0.0)
        assert not ie.check_energy_markov_bound(rep, 2.0, 0.1)

    def test_rejects_a_report_without_shortfall_frequency(self):
        """simulate_mhc_harvest measures no viol_freq (NaN), which the bound
        used to read as a violation and answer False."""
        cb = ie.generate_codebook(ie.Pmf.uniform(4), 64, 4.0 / 64, alphabet=FOUR_LEVELS,
                                  cost=SQUARES, budget=4.0, seed=3)
        rep = ie.simulate_mhc_harvest(cb, ie.DmPointToPointSampler(
            ie.DmChannel.noiseless(FOUR_LEVELS)), ie.ScalingGaussianRelay(), SQUARES_B,
            0.0, 20, seed=3)
        assert rep.mean_bn > 1.0
        with pytest.raises(ValueError, match="viol_freq"):
            ie.check_energy_markov_bound(rep, 1.0, 0.1)


class OverspendingRelay(ie.ScalingGaussianRelay):
    """Spends its budget plus extra, up to rounding in the last places."""

    def __init__(self, extra):
        self.extra = extra

    def transmit(self, budget, n, rng):
        return super().transmit(budget + self.extra, n, rng)


class TestSimulateMhcHarvest:
    def _codebook(self, n=1024, seed=3):
        return ie.generate_codebook(ie.Pmf.uniform(4), n, 4.0 / n,
                                    alphabet=FOUR_LEVELS, cost=SQUARES,
                                    budget=4.0, seed=seed)

    def test_scaling_relay_never_violates(self):
        cb = self._codebook()
        hop1 = ie.DmChannel.noiseless(FOUR_LEVELS)
        rep = ie.simulate_mhc_harvest(cb, ie.DmPointToPointSampler(hop1),
                                      ie.ScalingGaussianRelay(), SQUARES_B,
                                      0.0, 2000, seed=3)
        assert rep.relay_viol_freq == 0.0

    def test_harvested_mean_matches_input_power(self):
        cb = self._codebook(n=2048)
        hop1 = ie.DmChannel.noiseless(FOUR_LEVELS)
        rep = ie.simulate_mhc_harvest(cb, ie.DmPointToPointSampler(hop1),
                                      ie.ScalingGaussianRelay(), SQUARES_B,
                                      0.0, 4000, seed=3)
        assert rep.mean_bn == pytest.approx(2.5, abs=0.05)

    def test_fixed_power_relay_straddles_half(self):
        cb = self._codebook(n=256)
        hop1 = ie.DmChannel.noiseless(FOUR_LEVELS)
        rep = ie.simulate_mhc_harvest(cb, ie.DmPointToPointSampler(hop1),
                                      ie.FixedPowerGaussianRelay(2.5), SQUARES_B,
                                      0.0, 4000, seed=4)
        assert 0.35 <= rep.relay_viol_freq <= 0.65

    @pytest.mark.parametrize("extra,freq", [(5e-10, 1.0), (5e-13, 0.0)])
    def test_spend_read_within_budget_tol(self, extra, freq):
        cb = self._codebook(n=256)
        hop1 = ie.DmChannel.noiseless(FOUR_LEVELS)
        rep = ie.simulate_mhc_harvest(cb, ie.DmPointToPointSampler(hop1),
                                      OverspendingRelay(extra), SQUARES_B, 0.5, 400, seed=5)
        assert rep.relay_viol_freq == freq


class TestSimulateDecode:
    def _noiseless_mac(self):
        # Y = X1 + X2 with X2 on {0, 2}: every input pair has a distinct sum.
        x1 = ie.Alphabet([0.0, 1.0])
        x2 = ie.Alphabet([0.0, 2.0])
        y = ie.Alphabet([0.0, 1.0, 2.0, 3.0])
        W = np.zeros((2, 2, 4))
        for i in range(2):
            for j in range(2):
                W[i, j, i + 2 * j] = 1.0
        return ie.DmChannel.mac(x1, x2, y, W)

    def test_noiseless_distinct_codewords(self):
        ch = self._noiseless_mac()
        cb1 = ie.generate_codebook(ie.Pmf.uniform(2), 24, 3 / 24,
                                   alphabet=ch.input_alphabets[0], seed=5)
        cb2 = ie.generate_codebook(ie.Pmf.uniform(2), 24, 3 / 24,
                                   alphabet=ch.input_alphabets[1], seed=6)
        err = ie.simulate_decode(cb1, cb2, ie.DmMacSampler(ch), 200, seed=7)
        assert err == 0.0

    def test_low_rate_noisy_smoke(self):
        """Rates far below the sum bound decode reliably; smoke threshold."""
        x = ie.Alphabet([0.0, 1.0])
        W = np.zeros((2, 2, 3))
        for i in range(2):
            for j in range(2):
                W[i, j, i + j] = 1.0
        W = 0.9 * W + 0.1 / 3
        ch = ie.DmChannel.mac(x, x, ie.Alphabet([0.0, 1.0, 2.0]), W)
        cb1 = ie.generate_codebook(ie.Pmf.uniform(2), 200, 6 / 200, alphabet=x, seed=8)
        cb2 = ie.generate_codebook(ie.Pmf.uniform(2), 200, 6 / 200, alphabet=x, seed=9)
        err = ie.simulate_decode(cb1, cb2, ie.DmMacSampler(ch), 100, seed=10)
        assert err < 0.1

    def test_identical_codewords_force_errors(self):
        ch = self._noiseless_mac()
        cb1 = ie.generate_codebook(ie.Pmf.uniform(2), 30, 3 / 30,
                                   alphabet=ch.input_alphabets[0], seed=11)
        idx = cb1.words.copy()
        idx[1] = idx[0]
        clone = ie.Codebook(idx, cb1.q_seq, cb1.alphabet)
        cb2 = ie.generate_codebook(ie.Pmf.uniform(2), 30, 3 / 30,
                                   alphabet=ch.input_alphabets[1], seed=12)
        err = ie.simulate_decode(clone, cb2, ie.DmMacSampler(ch), 2000, seed=13)
        assert err >= 1.0 / (2 * clone.message_count)

    def test_gaussian_path_and_size_guard(self):
        pol = ie.GaussianPhasePolicy(1.0, 0.0)
        cb1, cb2 = ie.generate_mac_codebooks(pol, 60, 4 / 60, 4 / 60, seed=14)
        err = ie.simulate_decode(cb1, cb2, ie.GaussianMacSampler(0.01), 50, seed=15)
        assert err <= 0.1
        big = ie.Codebook(np.zeros((2048, 1)))
        with pytest.raises(ValueError, match="too large"):
            ie.simulate_decode(big, big, ie.GaussianMacSampler(1.0), 1, seed=0)

    def test_mismatched_q_sequences_rejected(self):
        adder = make_binary_adder()
        two = ie.Alphabet([0.0, 1.0])
        pol = ie.TimeSharingPolicy(ie.Pmf.uniform(2), (
            (ie.Pmf.uniform(2), ie.Pmf.uniform(2)), (ie.Pmf([0.9, 0.1]), ie.Pmf([0.1, 0.9]))))
        cb1, _ = ie.generate_mac_codebooks(pol, 40, 2 / 40, 2 / 40, alphabets=(two, two), seed=1)
        _, cb2 = ie.generate_mac_codebooks(pol, 40, 2 / 40, 2 / 40, alphabets=(two, two), seed=2)
        assert not np.array_equal(cb1.q_seq, cb2.q_seq)
        with pytest.raises(ValueError, match="codebooks were built on different Q sequences"):
            ie.simulate_decode(cb1, cb2, ie.DmMacSampler(adder), 10, seed=3)

    def test_symbols_outside_the_channel_alphabet_rejected(self):
        adder = make_binary_adder()
        three = ie.Alphabet([0.0, 1.0, 2.0])
        words = np.zeros((4, 8), dtype=np.uint8)
        words[3, 5] = 2  # one symbol of one codeword
        cb1 = ie.Codebook(words, None, three)
        cb2 = ie.generate_codebook(ie.Pmf.uniform(2), 8, 2 / 8,
                                   alphabet=adder.input_alphabets[1], seed=1)
        with pytest.raises(ValueError, match="outside the channel's input alphabets"):
            ie.simulate_decode(cb1, cb2, ie.DmMacSampler(adder), 5, seed=2)

    @pytest.mark.parametrize("kind, mib", [("discrete", 18), ("gaussian", 10)])
    def test_bounded_memory_at_the_size_guard(self, kind, mib):
        """2**20 pairs decode with one 8 MiB score table live, and one term of it if discrete."""
        import tracemalloc

        if kind == "discrete":
            adder = make_binary_adder()
            x = adder.input_alphabets[0]
            sampler = ie.DmMacSampler(ie.DmChannel.mac(x, x, adder.output_alphabet,
                                                       0.9 * adder.transition + 0.1 / 3))
            cb1 = ie.generate_codebook(ie.Pmf.uniform(2), 12, 10 / 12, alphabet=x, seed=1)
            cb2 = ie.generate_codebook(ie.Pmf.uniform(2), 12, 10 / 12, alphabet=x, seed=2)
        else:
            sampler = ie.GaussianMacSampler(1.0)
            cb1, cb2 = ie.generate_mac_codebooks(ie.GaussianPhasePolicy(1.0, 0.0), 12,
                                                 10 / 12, 10 / 12, seed=1)
        assert cb1.message_count * cb2.message_count == 1 << 20
        tracemalloc.start()
        try:
            ie.simulate_decode(cb1, cb2, sampler, 3, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20


class TestBlockDecodeMatchesPerTrial:
    """Blocked decoding sends, scores and decodes every trial as a one-trial loop does."""

    @staticmethod
    def _check(cb1, cb2, sampler, trials, seed, blocks=None):
        sent, scores, used = block_scores(cb1, cb2, sampler, trials, seed)
        ref_sent, ref_scores = per_trial_scores(cb1, cb2, sampler, trials, seed)
        assert np.array_equal(sent, ref_sent)
        assert scores.tobytes() == ref_scores.tobytes()
        ref_decoded = [int(np.argmax(row)) for row in ref_scores]
        assert np.array_equal(scores.argmax(axis=1), ref_decoded)
        assert ie.simulate_decode(cb1, cb2, sampler, trials, seed) == (
            np.count_nonzero(ref_sent != ref_decoded) / trials)
        if blocks is not None:
            assert used == blocks

    @pytest.mark.parametrize("seed", range(12))
    def test_random_discrete_macs(self, seed, monkeypatch):
        rs = np.random.default_rng(seed)
        ch = random_discrete_mac(rs, zeros=seed % 3 == 0)
        n = int(rs.integers(4, 30))
        pols = [ie.Pmf(rs.dirichlet(np.ones(len(a)))) for a in ch.input_alphabets]
        cb1, cb2 = (ie.generate_codebook(pol, n, int(rs.integers(1, 5)) / n, alphabet=a,
                                         seed=int(rs.integers(100)))
                    for pol, a in zip(pols, ch.input_alphabets))
        sampler = ie.DmMacSampler(ch)
        per_trial = max(cb1.message_count * cb2.message_count, n)
        trials = int(rs.integers(20, 60))
        self._check(cb1, cb2, sampler, trials, seed, blocks=1)
        for k in (1, 3, 7):
            monkeypatch.setattr(ie.linksim, "_BLOCK_VALUES", k * per_trial)
            self._check(cb1, cb2, sampler, trials, seed, blocks=-(-trials // k))

    def test_zero_probability_outputs(self):
        """A noiseless adder puts -inf on most pairs; ties break to the first pair."""
        ch = make_binary_adder()
        two = ch.input_alphabets[0]
        cb1 = ie.generate_codebook(ie.Pmf.uniform(2), 6, 3 / 6, alphabet=two, seed=21)
        cb2 = ie.generate_codebook(ie.Pmf.uniform(2), 6, 3 / 6, alphabet=two, seed=22)
        self._check(cb1, cb2, ie.DmMacSampler(ch), 50, seed=23)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_gaussian_pairs(self, seed, monkeypatch):
        rs = np.random.default_rng(100 + seed)
        n = int(rs.integers(5, 300))
        pol = ie.GaussianPhasePolicy(float(rs.uniform(0.1, 3.0)), float(rs.uniform(0.0, 2.0)))
        cb1, cb2 = ie.generate_mac_codebooks(pol, n, int(rs.integers(1, 5)) / n,
                                             int(rs.integers(1, 5)) / n, seed=seed)
        sampler = ie.GaussianMacSampler(float(rs.uniform(0.5, 50.0)))
        trials = int(rs.integers(10, 40))
        self._check(cb1, cb2, sampler, trials, seed)
        per_trial = cb2.message_count * max(cb1.message_count, n)
        for k in (1, 4):
            monkeypatch.setattr(ie.linksim, "_BLOCK_VALUES", k * per_trial)
            self._check(cb1, cb2, sampler, trials, seed, blocks=-(-trials // k))

    @pytest.mark.parametrize("trials", [1, 4, 5, 6, 11])
    def test_trial_counts_straddle_blocks(self, trials, monkeypatch):
        ch = random_discrete_mac(np.random.default_rng(7), zeros=True)
        cb1, cb2 = (ie.generate_codebook(ie.Pmf.uniform(len(a)), 10, 3 / 10, alphabet=a,
                                         seed=30 + i)
                    for i, a in enumerate(ch.input_alphabets))
        monkeypatch.setattr(ie.linksim, "_BLOCK_VALUES", 5 * 64)
        self._check(cb1, cb2, ie.DmMacSampler(ch), trials, seed=8, blocks=-(-trials // 5))

    @pytest.mark.parametrize("kind", ["discrete", "gaussian"])
    def test_one_trial_per_block_past_the_block_bound(self, kind, monkeypatch):
        monkeypatch.setattr(ie.linksim, "_BLOCK_VALUES", 32)
        if kind == "discrete":
            ch = random_discrete_mac(np.random.default_rng(9), zeros=False)
            cb1, cb2 = (ie.generate_codebook(ie.Pmf.uniform(len(a)), 12, 3 / 12, alphabet=a,
                                             seed=40 + i)
                        for i, a in enumerate(ch.input_alphabets))
            sampler = ie.DmMacSampler(ch)
        else:
            cb1, cb2 = ie.generate_mac_codebooks(ie.GaussianPhasePolicy(1.0, 0.5), 12,
                                                 3 / 12, 3 / 12, seed=41)
            sampler = ie.GaussianMacSampler(4.0)
        assert cb1.message_count * cb2.message_count > ie.linksim._BLOCK_VALUES
        self._check(cb1, cb2, sampler, 7, seed=10, blocks=7)


class TestEnergySimulatorsMatchPerTrial:
    """Blocked trials give every SimReport field of a one-trial-at-a-time loop, bit for bit."""

    @staticmethod
    def _mac_case(kind, n, seed):
        rs = np.random.default_rng(seed)
        if kind == "discrete":
            ch = random_discrete_mac(rs, zeros=seed % 2 == 0)
            cb1, cb2 = (ie.generate_codebook(ie.Pmf(rs.dirichlet(np.ones(len(a)))), n,
                                             int(rs.integers(0, 4)) / n, alphabet=a,
                                             seed=seed + i)
                        for i, a in enumerate(ch.input_alphabets))
            b = ie.EnergyFn(rs.uniform(0.0, 2.5, len(ch.output_alphabet)))
            sampler = ie.DmMacSampler(ch)
        else:
            pol = ie.GaussianPhasePolicy(float(rs.uniform(0.1, 2.0)), float(rs.uniform(0.0, 1.5)))
            cb1, cb2 = ie.generate_mac_codebooks(pol, n, 2 / n, 1 / n, seed=seed)
            b, sampler = np.square, ie.GaussianMacSampler(float(rs.uniform(0.3, 3.0)))
        return cb1, cb2, sampler, b

    @staticmethod
    def _mhc_case(relay, n, seed):
        rs = np.random.default_rng(seed)
        cost = ie.CostFn(rs.uniform(0.0, 3.0, 4))
        cb = ie.generate_codebook(ie.Pmf.uniform(4), n, 3 / n, alphabet=FOUR_LEVELS,
                                  cost=cost, budget=float(cost.values.mean()), seed=seed)
        hop = ie.DmChannel.point_to_point(FOUR_LEVELS, FOUR_LEVELS,
                                          rs.dirichlet(np.ones(4), size=4))
        b = ie.EnergyFn(rs.uniform(0.0, 2.0, 4))
        relay = ie.ScalingGaussianRelay() if relay == "scaling" else (
            ie.FixedPowerGaussianRelay(float(b.values.mean())))
        return cb, ie.DmPointToPointSampler(hop), relay, b, float(rs.uniform(0.0, 0.5))

    @pytest.mark.parametrize("kind", ["discrete", "gaussian"])
    @pytest.mark.parametrize("seed", range(3))
    def test_mac_energy(self, kind, seed, monkeypatch):
        n = 50 + 31 * seed
        cb1, cb2, sampler, b = self._mac_case(kind, n, seed)
        for k in (None, 1, 3, 7):
            if k is not None:
                monkeypatch.setattr(ie.linksim, "_BLOCK_VALUES", k * n)
            for trials in (1, 2, 11, 22):
                got = ie.simulate_mac_energy(cb1, cb2, sampler, b, 1.3, 0.1, trials, seed)
                ref = per_trial_mac_energy(cb1, cb2, sampler, b, 1.3, 0.1, trials, seed)
                assert report_bytes(got) == report_bytes(ref)

    @pytest.mark.parametrize("relay", ["scaling", "fixed"])
    @pytest.mark.parametrize("seed", range(3))
    def test_mhc_harvest(self, relay, seed, monkeypatch):
        n = 40 + 17 * seed
        cb, sampler, relay, b, p2 = self._mhc_case(relay, n, seed)
        for k in (None, 1, 3, 7):
            if k is not None:
                monkeypatch.setattr(ie.linksim, "_BLOCK_VALUES", k * n)
            for trials in (1, 2, 11, 22):
                got = ie.simulate_mhc_harvest(cb, sampler, relay, b, p2, trials, seed)
                ref = per_trial_mhc_harvest(cb, sampler, relay, b, p2, trials, seed)
                assert report_bytes(got) == report_bytes(ref)

    def test_blocklength_above_the_block_bound(self):
        n = ie.linksim._BLOCK_VALUES + 5
        for kind in ("discrete", "gaussian"):
            cb1, cb2, sampler, b = self._mac_case(kind, n, 4)
            assert report_bytes(ie.simulate_mac_energy(cb1, cb2, sampler, b, 1.3, 0.1, 3, 4)) \
                == report_bytes(per_trial_mac_energy(cb1, cb2, sampler, b, 1.3, 0.1, 3, 4))
        for relay in ("scaling", "fixed"):
            cb, sampler, relay, b, p2 = self._mhc_case(relay, n, 5)
            assert report_bytes(ie.simulate_mhc_harvest(cb, sampler, relay, b, p2, 3, 5)) \
                == report_bytes(per_trial_mhc_harvest(cb, sampler, relay, b, p2, 3, 5))


class RefusingRelay(ie.ScalingGaussianRelay):
    """Raises on the given budgets, so a test can fail chosen trials."""

    def __init__(self, refused):
        self.refused = set(refused)
        self.calls = 0

    def transmit(self, budget, n, rng):
        self.calls += 1
        if budget in self.refused:
            raise ValueError(f"relay refuses budget {budget!r}")
        return super().transmit(budget, n, rng)


class TestForkedWorkers:
    """1, 2 and 3 workers give the one-trial-at-a-time results bit for bit and leave no child.

    Blocks hold 3 trials, so 1 and 3 trials make one block, 4 fewer blocks than
    3 workers, and 7, 11 and 22 trials shares of unequal length.
    """

    TRIALS = (1, 3, 4, 7, 11, 22)

    @staticmethod
    def _workers(monkeypatch, count, per_trial):
        """Show ``count`` CPUs and 3 trials a block; return the pids of the forks made."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        monkeypatch.setattr(ie.linksim, "_BLOCK_VALUES", 3 * per_trial)
        pids, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        return pids

    @staticmethod
    def _no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_energy_reports(self, count, monkeypatch):
        n = 50
        pids = self._workers(monkeypatch, count, n)
        cases = TestEnergySimulatorsMatchPerTrial
        for trials in self.TRIALS:
            forks = len(pids)
            for kind in ("discrete", "gaussian"):
                cb1, cb2, sampler, b = cases._mac_case(kind, n, 1)
                got = ie.simulate_mac_energy(cb1, cb2, sampler, b, 1.3, 0.1, trials, 2)
                ref = per_trial_mac_energy(cb1, cb2, sampler, b, 1.3, 0.1, trials, 2)
                assert report_bytes(got) == report_bytes(ref)
            for relay in ("scaling", "fixed"):
                cb, sampler, relay, b, p2 = cases._mhc_case(relay, n, 2)
                got = ie.simulate_mhc_harvest(cb, sampler, relay, b, p2, trials, 3)
                ref = per_trial_mhc_harvest(cb, sampler, relay, b, p2, trials, 3)
                assert report_bytes(got) == report_bytes(ref)
            assert len(pids) - forks == 4 * (min(count, -(-trials // 3)) - 1)
        self._no_child_left()

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_decoded_pairs(self, count, monkeypatch):
        ch = random_discrete_mac(np.random.default_rng(7), zeros=True)
        discrete = [ie.generate_codebook(ie.Pmf.uniform(len(a)), 10, 3 / 10, alphabet=a,
                                         seed=30 + i)
                    for i, a in enumerate(ch.input_alphabets)]
        gaussian = ie.generate_mac_codebooks(ie.GaussianPhasePolicy(1.0, 0.5), 12,
                                             2 / 12, 2 / 12, seed=41)
        for (cb1, cb2), sampler, per_trial in ((discrete, ie.DmMacSampler(ch), 64),
                                               (gaussian, ie.GaussianMacSampler(4.0), 48)):
            pids = self._workers(monkeypatch, count, per_trial)
            for trials in self.TRIALS:
                ref_sent, ref_scores = per_trial_scores(cb1, cb2, sampler, trials, 8)
                ref_decoded = ref_scores.argmax(axis=1)
                xs, size, scores = ie.linksim._pair_scorer(cb1, cb2, sampler, trials)
                decoded = ie.linksim._map_trials(
                    sampler, xs, 8, trials, size, 1,
                    lambda sent, y, rngs: scores(y).argmax(axis=1))[0]
                assert np.array_equal(decoded, ref_decoded)
                assert ie.simulate_decode(cb1, cb2, sampler, trials, 8) == (
                    np.count_nonzero(ref_sent != ref_decoded) / trials)
            assert len(pids) == 2 * sum(min(count, -(-t // 3)) - 1 for t in self.TRIALS)
        self._no_child_left()

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("refused", [(3,), (3, 8), (6, 9)])
    def test_a_failed_child_raises_the_serial_error(self, count, refused, monkeypatch):
        """Trials 3-5 are block 1, trials 6-8 block 2 and trials 9-11 block 3.

        Block 1 is a child's; block 2 is the caller's if W = 2, block 3 if W = 3.
        """
        n, trials, seed = 40, 12, 1
        cb, sampler, _, b, p2 = TestEnergySimulatorsMatchPerTrial._mhc_case("scaling", n, 2)
        budgets = []
        for t in range(trials):
            rng = np.random.default_rng([seed, t])
            m = int(rng.integers(cb.message_count))
            budgets.append(b.values[sampler.sample(cb.words[m], rng)].sum() / n + p2)
        relay = RefusingRelay(budgets[t] for t in refused)
        assert [t for t in range(trials) if budgets[t] in relay.refused] == list(refused)
        pids = self._workers(monkeypatch, 1, n)
        with pytest.raises(ValueError) as serial:
            ie.simulate_mhc_harvest(cb, sampler, relay, b, p2, trials, seed)
        assert relay.calls == refused[0] + 1  # each trial up to the first refused, once
        pids = self._workers(monkeypatch, count, n)
        with pytest.raises(ValueError) as forked:
            ie.simulate_mhc_harvest(cb, sampler, relay, b, p2, trials, seed)
        assert str(forked.value) == str(serial.value) == (
            f"relay refuses budget {budgets[refused[0]]!r}")
        assert len(pids) == count - 1
        self._no_child_left()
        got = ie.simulate_mhc_harvest(cb, sampler, ie.ScalingGaussianRelay(), b, p2, trials, seed)
        assert report_bytes(got) == report_bytes(per_trial_mhc_harvest(
            cb, sampler, ie.ScalingGaussianRelay(), b, p2, trials, seed))
        self._no_child_left()

    def test_bad_arguments_fork_no_worker(self, monkeypatch):
        """Every argument check runs before the map, which forks for 5 trials."""
        pids = self._workers(monkeypatch, 3, 8)
        twos = ie.Codebook(np.full((4, 8), 2, dtype=np.uint8), None, ie.Alphabet([0, 1, 2]))
        wide = ie.Codebook(np.zeros((1 << 11, 8), dtype=np.uint8), None, ie.Alphabet([0, 1]))
        adder = ie.DmMacSampler(make_binary_adder())
        for call, match in ((library_calls(trials=0)["mac"], "trials"),
                            (lambda: ie.simulate_decode(twos, twos, adder, 5), "outside"),
                            (library_calls(b_target=NAN)["mac"], "finite"),
                            (lambda: ie.simulate_decode(wide, wide, adder, 5), "too large")):
            with pytest.raises(ValueError, match=match):
                call()
            assert pids == []
            self._no_child_left()
        library_calls()["mac"]()
        assert len(pids) == 1

    def test_a_failed_fork_runs_its_share_in_process(self, monkeypatch):
        cb1, cb2, sampler, b = TestEnergySimulatorsMatchPerTrial._mac_case("discrete", 30, 0)
        self._workers(monkeypatch, 3, 30)

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        got = ie.simulate_mac_energy(cb1, cb2, sampler, b, 1.3, 0.1, 11, 4)
        assert report_bytes(got) == report_bytes(
            per_trial_mac_energy(cb1, cb2, sampler, b, 1.3, 0.1, 11, 4))


@pytest.mark.parametrize("simulate", ["mac", "mhc", "decode"])
def test_simulators_reject_symbols_outside_the_channel_alphabets(simulate):
    """A position past the channel's alphabet fails loudly instead of reading another row."""
    three = ie.Alphabet([0.0, 1.0, 2.0])
    twos = ie.Codebook(np.full((4, 8), 2, dtype=np.uint8), None, three)
    zeros = ie.Codebook(np.zeros((4, 8), dtype=np.uint8), None, ie.Alphabet([0.0, 1.0]))
    adder = ie.DmMacSampler(make_binary_adder())
    calls = {
        "mac": lambda: ie.simulate_mac_energy(zeros, twos, adder, ie.EnergyFn([0.0, 1.0, 2.0]),
                                              1.0, 0.1, 5),
        "mhc": lambda: ie.simulate_mhc_harvest(
            twos, ie.DmPointToPointSampler(ie.DmChannel.noiseless(ie.Alphabet([0.0, 1.0]))),
            ie.ScalingGaussianRelay(), ie.EnergyFn([0.0, 1.0]), 0.0, 5),
        "decode": lambda: ie.simulate_decode(zeros, twos, adder, 5),
    }
    with pytest.raises(ValueError, match="outside the channel's input alphabets"):
        calls[simulate]()


def library_calls(trials=5, b_target=1.0, eps=0.1, p2_budget=0.0):
    """One small call of each simulator, keyed "mac", "mhc" and "decode"."""
    x = ie.Alphabet([0.0, 1.0])
    cb = ie.generate_codebook(ie.Pmf.uniform(2), 8, 2 / 8, alphabet=x, seed=1)
    adder = ie.DmMacSampler(make_binary_adder())
    return {
        "mac": lambda: ie.simulate_mac_energy(cb, cb, adder, ie.EnergyFn([0.0, 1.0, 2.0]),
                                              b_target, eps, trials),
        "mhc": lambda: ie.simulate_mhc_harvest(
            cb, ie.DmPointToPointSampler(ie.DmChannel.noiseless(x)),
            ie.ScalingGaussianRelay(), ie.EnergyFn([0.0, 1.0]), p2_budget, trials),
        "decode": lambda: ie.simulate_decode(cb, cb, adder, trials),
    }


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("simulate", ["mac", "mhc", "decode"])
def test_library_simulators_reject_fewer_than_one_trial(simulate, trials):
    with pytest.raises(ValueError, match="trials"):
        library_calls(trials=trials)[simulate]()


@pytest.mark.parametrize("simulate, name, value", [
    ("mac", "b_target", NAN), ("mac", "b_target", INF), ("mac", "b_target", -1.0),
    ("mac", "eps", NAN), ("mac", "eps", INF), ("mac", "eps", -INF),
    ("mhc", "p2_budget", NAN), ("mhc", "p2_budget", INF), ("mhc", "p2_budget", -1.0),
])
def test_library_simulators_reject_bad_energy_levels(simulate, name, value):
    """A NaN target or supply would report no violations, and a negative supply all."""
    with pytest.raises(ValueError, match="finite"):
        library_calls(**{name: value})[simulate]()


def test_library_simulators_take_a_negative_slack():
    """eps only needs to be finite: a negative slack raises the floor."""
    assert library_calls(eps=-0.1)["mac"]().viol_freq >= library_calls()["mac"]().viol_freq


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
class TestRejectsNonFiniteParameters:
    def test_phase_policy(self, bad):
        # A NaN p'' used to give a zero-power Gaussian phase: nan > 0 is False.
        for args in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="phase policy"):
                ie.GaussianPhasePolicy(*args)

    def test_gaussian_mac_sampler(self, bad):
        with pytest.raises(ValueError, match="noise variance"):
            ie.GaussianMacSampler(bad)

    def test_fixed_power_relay(self, bad):
        with pytest.raises(ValueError, match="power"):
            ie.FixedPowerGaussianRelay(bad)
