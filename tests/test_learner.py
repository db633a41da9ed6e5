"""Actor network pieces, the training objective, gradients, and the loop."""

import collections
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from abrbench import (
    DomainError,
    LabeledState,
    ParseError,
    PolicyConfig,
    QoEParams,
    TraceModel,
    TrainConfig,
    UsageError,
    act,
    aib_loss,
    aib_loss_components,
    cbr_manifest,
    decide_robust_mpc,
    decode,
    encode,
    grad_aib,
    init_actor,
    initial_state,
    label_state,
    load_checkpoint,
    observation_size,
    preset,
    problem_from_state,
    reparameterize,
    save_checkpoint,
    solve_expert_ao,
    step,
    synth_trace,
    train,
)
from abrbench import learner, policies
from abrbench.learner import (
    _WEIGHT_FIELDS,
    LOGSIG_MAX,
    LOGSIG_MIN,
    _batch_arrays,
    _buffers,
    _loss_and_grad,
    _pick,
)


def flatten(theta):
    return np.concatenate([getattr(theta, n).ravel() for n in _WEIGHT_FIELDS])


def set_flat(theta, vec):
    offset = 0
    for name in _WEIGHT_FIELDS:
        arr = getattr(theta, name)
        arr.flat[:] = vec[offset : offset + arr.size]
        offset += arr.size


def random_batch(rng, obs_dim, n_levels, size):
    return [
        LabeledState(
            observation=tuple(rng.standard_normal(obs_dim)),
            expert_level=int(rng.integers(n_levels)),
            adverse_level=int(rng.integers(n_levels)),
        )
        for _ in range(size)
    ]


def randomized_actor(obs_dim, n_levels, latent, hidden, seed):
    theta = init_actor(obs_dim, n_levels, latent, hidden, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name in _WEIGHT_FIELDS:
        arr = getattr(theta, name)
        arr += 0.3 * rng.standard_normal(arr.shape)
    return theta


class TestEncode:
    def test_zero_weights_zero_outputs(self):
        theta = init_actor(5, 3, latent_dim=2, hidden_dim=4, seed=0)
        for name in _WEIGHT_FIELDS:
            getattr(theta, name)[:] = 0.0
        mu, ls = encode(theta, np.ones(5))
        assert np.all(mu == 0.0) and np.all(ls == 0.0)

    def test_deterministic(self):
        theta = init_actor(5, 3, latent_dim=2, hidden_dim=4, seed=1)
        obs = np.arange(5.0)
        a = encode(theta, obs)
        b = encode(theta, obs)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_wrong_length_rejected(self):
        theta = init_actor(5, 3, latent_dim=2, hidden_dim=4, seed=1)
        with pytest.raises(UsageError):
            encode(theta, np.ones(4))

    def test_outputs_finite_and_clamped(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            theta = randomized_actor(6, 3, 2, 4, seed=trial)
            mu, ls = encode(theta, 5.0 * rng.standard_normal(6))
            assert np.all(np.isfinite(mu))
            assert np.all(ls >= LOGSIG_MIN) and np.all(ls <= LOGSIG_MAX)


class TestReparameterize:
    def test_zero_noise_identity(self):
        mu = np.array([1.0, -2.0])
        assert np.array_equal(reparameterize(mu, np.zeros(2), np.zeros(2)), mu)

    def test_clamp_floor_scale(self):
        mu = np.zeros(3)
        noise = np.ones(3)
        z = reparameterize(mu, np.full(3, -10.0), noise)
        assert np.all(np.abs(z - mu) <= 5e-5)

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(3)
        mu = np.array([0.7, -0.3])
        log_sigma = np.array([0.0, 0.5])
        draws = np.stack(
            [reparameterize(mu, log_sigma, rng.standard_normal(2)) for _ in range(100_000)]
        )
        sigma = np.exp(log_sigma)
        err = np.abs(draws.mean(axis=0) - mu)
        assert np.all(err <= 3.0 * sigma / math.sqrt(100_000) + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            reparameterize(np.zeros(2), np.zeros(3), np.zeros(2))


class TestDecode:
    def test_zero_logits_uniform(self):
        theta = init_actor(5, 4, latent_dim=2, hidden_dim=4, seed=0)
        for name in ("dec_w1", "dec_b1", "dec_w2", "dec_b2"):
            getattr(theta, name)[:] = 0.0
        probs = decode(theta, np.ones(2))
        assert probs == pytest.approx([0.25] * 4, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            theta = randomized_actor(5, 6, 3, 8, seed=trial)
            probs = decode(theta, rng.standard_normal(3))
            assert np.all(probs > 0.0)
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_shift_invariance(self):
        theta = randomized_actor(5, 4, 2, 4, seed=9)
        z = np.array([0.3, -0.8])
        base = decode(theta, z)
        theta.dec_b2 += 7.5  # constant logit shift
        assert decode(theta, z) == pytest.approx(base, rel=1e-9)

    def test_dominant_logit(self):
        theta = init_actor(5, 3, latent_dim=2, hidden_dim=4, seed=0)
        for name in ("dec_w1", "dec_b1", "dec_w2", "dec_b2"):
            getattr(theta, name)[:] = 0.0
        theta.dec_b2[1] = 20.0
        probs = decode(theta, np.zeros(2))
        assert probs[1] > 0.999999


class TestAibLoss:
    def make_uniform_decoder(self, n_levels=6):
        theta = init_actor(4, n_levels, latent_dim=2, hidden_dim=4, seed=0)
        for name in ("dec_w1", "dec_b1", "dec_w2", "dec_b2"):
            getattr(theta, name)[:] = 0.0
        return theta

    def test_uniform_decoder_single_sample(self):
        # -ln(1/6) for the expert term plus eta times the same for the
        # adverse term, beta 0: loss = 1.2 * ln 6
        theta = self.make_uniform_decoder()
        batch = [LabeledState((0.0,) * 4, 2, 4)]
        cfg = TrainConfig(beta=0.0, eta=0.2)
        loss = aib_loss(theta, batch, np.zeros((1, 2)), cfg)
        assert loss == pytest.approx(1.2 * math.log(6.0), abs=1e-12)

    def test_standard_normal_latent_zero_kl(self):
        theta = self.make_uniform_decoder()
        for name in ("enc_w1", "enc_b1", "enc_w2", "enc_b2",
                     "enc_wmu", "enc_bmu", "enc_wls", "enc_bls"):
            getattr(theta, name)[:] = 0.0  # mu = 0, log sigma = 0
        batch = [LabeledState((0.5,) * 4, 1, 1)]
        _, _, kl = aib_loss_components(theta, batch, np.zeros((1, 2)), TrainConfig())
        assert kl == pytest.approx(0.0, abs=1e-12)

    def test_kl_closed_form_hand_case(self):
        # mu = (1, 0), sigma = (1, 1), perfect decoder on both labels:
        # loss = KL = 0.5
        theta = init_actor(2, 3, latent_dim=2, hidden_dim=2, seed=0)
        for name in _WEIGHT_FIELDS:
            getattr(theta, name)[:] = 0.0
        theta.enc_bmu[:] = (1.0, 0.0)
        theta.dec_b2[1] = 40.0  # probability of level 1 -> 1
        batch = [LabeledState((0.0, 0.0), 1, 1)]
        cfg = TrainConfig(beta=1.0, eta=0.2)
        loss = aib_loss(theta, batch, np.zeros((1, 2)), cfg)
        assert loss == pytest.approx(0.5, abs=1e-12)

    def test_decomposition_and_nonnegativity(self):
        rng = np.random.default_rng(11)
        cfg = TrainConfig(beta=1e-4, eta=0.2)
        for trial in range(20):
            theta = randomized_actor(6, 4, 3, 5, seed=trial)
            batch = random_batch(rng, 6, 4, int(rng.integers(1, 6)))
            noise = rng.standard_normal((len(batch), 3))
            ce_e, ce_a, kl = aib_loss_components(theta, batch, noise, cfg)
            assert ce_e >= 0.0 and ce_a >= 0.0 and kl >= 0.0
            assert aib_loss(theta, batch, noise, cfg) == pytest.approx(
                ce_e + cfg.eta * ce_a + cfg.beta * kl, rel=1e-12
            )

    def test_reduces_to_behavior_cloning(self):
        # beta = 0, eta = 0: the loss is the plain cross-entropy to the expert
        rng = np.random.default_rng(13)
        cfg = TrainConfig(beta=0.0, eta=0.0)
        for trial in range(10):
            theta = randomized_actor(5, 4, 2, 4, seed=trial)
            batch = random_batch(rng, 5, 4, 4)
            noise = rng.standard_normal((4, 2))
            loss = aib_loss(theta, batch, noise, cfg)
            direct = 0.0
            for sample, eps in zip(batch, noise):
                mu, ls = encode(theta, np.array(sample.observation))
                probs = decode(theta, reparameterize(mu, ls, eps))
                direct -= math.log(probs[sample.expert_level])
            assert loss == pytest.approx(direct / len(batch), abs=1e-12)

    def test_cross_entropy_bound_shared_observation(self):
        # with one shared observation and shared noise the decoder emits one
        # distribution, so the batch cross-entropy is at least the empirical
        # label entropy (Gibbs)
        rng = np.random.default_rng(17)
        for trial in range(20):
            theta = randomized_actor(5, 4, 2, 4, seed=trial)
            obs = tuple(rng.standard_normal(5))
            labels = rng.integers(0, 4, size=8)
            batch = [LabeledState(obs, int(l), int(l)) for l in labels]
            noise = np.tile(rng.standard_normal(2), (8, 1))
            ce_e, _, _ = aib_loss_components(theta, batch, noise, TrainConfig())
            counts = np.bincount(labels, minlength=4) / 8.0
            entropy = -sum(p * math.log(p) for p in counts if p > 0.0)
            assert ce_e >= entropy - 1e-9

    def test_empty_batch_rejected(self):
        theta = init_actor(5, 4, latent_dim=2, hidden_dim=4, seed=0)
        with pytest.raises(DomainError):
            aib_loss(theta, [], np.zeros((0, 2)), TrainConfig())

    def test_equals_the_training_loss(self):
        # bit for bit: the objective that the gradient check differentiates
        # is the one the SGD steps minimise
        rng = np.random.default_rng(23)
        for trial in range(200):
            obs_dim, n_levels, latent, hidden = (int(x) for x in rng.integers(1, 7, size=4))
            theta = randomized_actor(obs_dim, n_levels, latent, hidden, seed=trial)
            batch = random_batch(rng, obs_dim, n_levels, int(rng.integers(1, 9)))
            noise = rng.standard_normal((len(batch), latent))
            cfg = TrainConfig(beta=float(rng.uniform(0.0, 1.0)), eta=float(rng.uniform(0.0, 1.0)))
            X = np.array([s.observation for s in batch])
            a_hat = np.array([s.expert_level for s in batch])
            a_til = np.array([s.adverse_level for s in batch])
            loss, _ = _loss_and_grad(theta, X, np.arange(len(batch)), a_hat, a_til, noise, cfg)
            assert aib_loss(theta, batch, noise, cfg) == loss


class TestDistinctRows:
    """An SGD step encodes each distinct observation of its minibatch once and
    sums the batch rows' latent gradients onto it; expanding the rows first
    must give the same loss and, up to summation order, the same gradient."""

    @pytest.mark.parametrize("distinct", [1, 4, 16, 128])
    def test_matches_the_expanded_batch(self, distinct):
        manifest, _ = preset("pensieve")
        obs_dim, cfg = observation_size(manifest, 8), TrainConfig()
        theta = init_actor(obs_dim, manifest.n_levels, seed=distinct)
        rng = np.random.default_rng(distinct)
        pool = rng.standard_normal((distinct, obs_dim))
        pool_levels = rng.integers(manifest.n_levels, size=(2, distinct))
        # every pooled row at least once, the rest of the minibatch drawn with repeats
        idx = rng.permutation(np.concatenate(
            [np.arange(distinct), rng.integers(distinct, size=cfg.minibatch - distinct)]))
        noise = rng.standard_normal((cfg.minibatch, cfg.latent_dim))
        rows, inv = np.unique(idx, return_inverse=True)
        assert len(rows) == distinct
        loss, grads = _loss_and_grad(theta, pool[rows], inv, *pool_levels[:, idx], noise, cfg)
        loss_expanded, grads_expanded = _loss_and_grad(
            theta, pool[idx], np.arange(cfg.minibatch), *pool_levels[:, idx], noise, cfg)
        assert loss == loss_expanded
        for name in _WEIGHT_FIELDS:
            assert np.abs(grads[name] - grads_expanded[name]).max() <= 1e-15, name


class TestGradAib:
    def relative_errors(self, theta, batch, noise, cfg, step=1e-5):
        analytic = flatten(grad_aib(theta, batch, noise, cfg))
        base = flatten(theta).copy()
        fd = np.empty_like(analytic)
        for i in range(base.size):
            for sign, slot in ((1.0, 0), (-1.0, 1)):
                probe = base.copy()
                probe[i] += sign * step
                set_flat(theta, probe)
                if slot == 0:
                    up = aib_loss(theta, batch, noise, cfg)
                else:
                    down = aib_loss(theta, batch, noise, cfg)
            fd[i] = (up - down) / (2.0 * step)
        set_flat(theta, base)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-7)
        return np.abs(analytic - fd) / denom

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        worst = 0.0
        for trial in range(12):
            theta = randomized_actor(6, 4, 3, 5, seed=trial)
            batch = random_batch(rng, 6, 4, 3)
            noise = rng.standard_normal((3, 3))
            cfg = TrainConfig(beta=(0.0, 1e-4, 1.0)[trial % 3], eta=(0.0, 0.2, 1.0)[trial % 3])
            rel = self.relative_errors(theta, batch, noise, cfg)
            worst = max(worst, float(rel.max()))
        assert worst <= 1e-3

    def test_flat_near_perfect_decoder(self):
        theta = init_actor(4, 3, latent_dim=2, hidden_dim=3, seed=0)
        for name in _WEIGHT_FIELDS:
            getattr(theta, name)[:] = 0.0
        theta.dec_b2[2] = 30.0  # probability ~1 on the labeled level
        batch = [LabeledState((0.1, 0.2, 0.3, 0.4), 2, 2)]
        cfg = TrainConfig(beta=0.0, eta=0.0)
        grads = grad_aib(theta, batch, np.zeros((1, 2)), cfg)
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.weights()))
        assert norm < 1e-6

    def test_beta_linearity(self):
        rng = np.random.default_rng(23)
        theta = randomized_actor(5, 4, 2, 4, seed=8)
        batch = random_batch(rng, 5, 4, 4)
        noise = rng.standard_normal((4, 2))

        def grad_vec(beta):
            return flatten(grad_aib(theta, batch, noise, TrainConfig(beta=beta, eta=0.2)))

        g0, g1, g2 = grad_vec(0.0), grad_vec(1.0), grad_vec(2.0)
        assert g2 - g0 == pytest.approx(2.0 * (g1 - g0), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("size", [1, 5, 40])
    def test_buffers_change_no_bit(self, size):
        # train's step writes into arrays it keeps; aib_loss and grad_aib let numpy allocate
        theta = randomized_actor(9, 4, 6, 12, seed=size)
        rng = np.random.default_rng(size)
        arrays = _batch_arrays(theta, random_batch(rng, 9, 4, size), rng.standard_normal((size, 6)))
        cfg = TrainConfig(beta=0.3, eta=0.7)
        loss, grads = _loss_and_grad(theta, *arrays, cfg)
        out = _buffers(theta, size)
        kept = {name: out[name] for name in _WEIGHT_FIELDS}
        for _ in range(2):  # a second step overwrites what the first left
            again, written = _loss_and_grad(theta, *arrays, cfg, out)
            assert again == loss
            for name in _WEIGHT_FIELDS:
                assert written[name] is kept[name]
                assert np.array_equal(written[name], grads[name]), name


class TestAct:
    def test_uniform_ties_break_to_lowest_level(self):
        theta = init_actor(4, 5, latent_dim=2, hidden_dim=3, seed=0)
        for name in _WEIGHT_FIELDS:
            getattr(theta, name)[:] = 0.0
        assert act(theta, np.ones(4), "greedy") == 0

    def test_dominant_logit_in_both_modes(self):
        theta = init_actor(4, 5, latent_dim=2, hidden_dim=3, seed=0)
        for name in _WEIGHT_FIELDS:
            getattr(theta, name)[:] = 0.0
        theta.dec_b2[3] = 25.0
        assert act(theta, np.ones(4), "greedy") == 3
        rng = np.random.default_rng(0)
        picks = {act(theta, np.ones(4), "sample", rng) for _ in range(200)}
        assert picks == {3}

    def test_greedy_deterministic(self):
        theta = randomized_actor(4, 5, 2, 3, seed=4)
        obs = np.array([0.1, 0.2, 0.3, 0.4])
        assert act(theta, obs, "greedy") == act(theta, obs, "greedy")

    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_is_train_s_greedy_pick(self, seed):
        # act skips the log-sigma head that train's encoding computes; both pick alike
        theta = randomized_actor(6, 8, 3, 5, seed=seed)
        theta.enc_wls *= 40.0  # so that log sigma reaches its clamp on some observations
        rng = np.random.default_rng(seed)
        clamped = 0
        for scale in (0.1, 1.0, 10.0, 100.0):
            for _ in range(10):
                obs = scale * rng.standard_normal(6)
                mu, log_sigma = encode(theta, obs)
                clamped += int(np.isin(log_sigma, (LOGSIG_MIN, LOGSIG_MAX)).any())
                level = act(theta, obs, "greedy")
                assert level == _pick(theta, mu, log_sigma, "greedy", None)
                assert level == int(np.argmax(decode(theta, mu)))
        assert clamped > 0

    @pytest.mark.parametrize("shape", [(5,), (7,), (1, 6), ()])
    def test_greedy_refuses_a_wrong_shaped_observation(self, shape):
        theta = randomized_actor(6, 4, 3, 5, seed=0)
        with pytest.raises(UsageError, match="observation must have shape"):
            act(theta, np.ones(shape), "greedy")

    def test_sample_requires_rng(self):
        theta = randomized_actor(4, 5, 2, 3, seed=4)
        with pytest.raises(UsageError):
            act(theta, np.ones(4), "sample")

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_non_finite_probabilities_rejected(self, mode):
        theta = randomized_actor(4, 5, 2, 3, seed=4)
        theta.dec_b2[1] = math.nan
        with pytest.raises(DomainError, match="not finite"):
            act(theta, np.ones(4), mode, np.random.default_rng(0))


@pytest.fixture(scope="module")
def tiny_setup():
    manifest, params = preset("pensieve", chunk_count=1)
    trace = synth_trace(0, TraceModel(mean_mbps=2.0, volatility=0.0, duration_s=30.0))
    return manifest, params, trace


def count_labels(monkeypatch) -> list:
    """Make train record the (trace id, state) of every label_state call in the returned list."""
    calls = []
    label_state = learner.label_state

    def counting(state, trace, *rest):
        calls.append((trace.id, state))
        return label_state(state, trace, *rest)

    monkeypatch.setattr(learner, "label_state", counting)
    return calls


class TestTrain:
    def test_zero_epochs_returns_initial_weights(self, tiny_setup):
        manifest, params, trace = tiny_setup
        cfg = TrainConfig(epochs=0, seed=5, latent_dim=4, hidden_dim=8)
        theta, report = train([trace], manifest, params, cfg)
        fresh = init_actor(
            observation_size(manifest, cfg.history_k),
            manifest.n_levels,
            latent_dim=4,
            hidden_dim=8,
            seed=5,
        )
        assert np.array_equal(flatten(theta), flatten(fresh))
        assert report["loss_ema"] == []

    def test_single_state_problem_converges(self, tiny_setup):
        # one constant trace, one-chunk video: a single labeled state, whose
        # cross-entropy objective is driven to full greedy agreement
        manifest, params, trace = tiny_setup
        cfg = TrainConfig(
            epochs=200, seed=3, latent_dim=4, hidden_dim=8, learning_rate=0.1, minibatch=8
        )
        theta, report = train([trace], manifest, params, cfg)
        assert report["expert_agreement"][-1] == 1.0
        assert report["final_loss_ema"] < report["loss_ema"][0]

    def test_deterministic(self, tiny_setup):
        manifest, params, trace = tiny_setup
        cfg = TrainConfig(epochs=8, seed=9, latent_dim=4, hidden_dim=8)
        theta_a, report_a = train([trace], manifest, params, cfg)
        theta_b, report_b = train([trace], manifest, params, cfg)
        assert save_checkpoint(theta_a) == save_checkpoint(theta_b)
        assert report_a == report_b

    def test_diverged_run_rejected(self, tiny_setup):
        manifest, params, trace = tiny_setup
        cfg = TrainConfig(epochs=3, seed=1, latent_dim=4, hidden_dim=8, learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(DomainError, match="not finite"):
            train([trace], manifest, params, cfg)

    def test_overflow_on_the_last_step_rejected(self, tiny_setup):
        # a single SGD step: its loss is finite, but the update overflows the weights
        manifest, params, trace = tiny_setup
        cfg = TrainConfig(
            epochs=1, seed=1, latent_dim=1, hidden_dim=1, learning_rate=1.79e308, minibatch=1
        )
        with np.errstate(all="ignore"), pytest.raises(DomainError, match="weights are not finite"):
            train([trace], manifest, params, cfg)

    def test_label_memo_changes_no_byte(self, tiny_setup, monkeypatch):
        # the single state of this setup is labelled once, or once per epoch without the memo
        manifest, params, trace = tiny_setup
        cfg = TrainConfig(epochs=6, seed=2, latent_dim=4, hidden_dim=8, minibatch=8)
        labelled = count_labels(monkeypatch)
        runs = []
        for memo_chunks in (learner.MEMO_CHUNKS, 0):
            monkeypatch.setattr(learner, "MEMO_CHUNKS", memo_chunks)
            labelled.clear()
            theta, report = train([trace], manifest, params, cfg)
            runs.append((save_checkpoint(theta), report, len(labelled)))
        assert runs[0][:2] == runs[1][:2]
        assert (runs[0][2], runs[1][2]) == (1, cfg.epochs)

    def test_label_memo_holds_no_state_past_memo_chunks(self, monkeypatch):
        # two levels and four chunks, so that states past the memo's last chunk recur
        manifest = cbr_manifest((1.2, 0.3), 4.0, 4)
        params = QoEParams(alpha1=1.2, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.08)
        traces = [synth_trace(s, TraceModel(mean_mbps=1.0, volatility=0.2, duration_s=60.0))
                  for s in (0, 1)]
        cfg = TrainConfig(epochs=40, seed=4, horizon=2, latent_dim=4, hidden_dim=8, minibatch=8)
        labelled = count_labels(monkeypatch)
        runs = []
        for memo_chunks in (2, 0):
            monkeypatch.setattr(learner, "MEMO_CHUNKS", memo_chunks)
            labelled.clear()
            theta, _report = train(traces, manifest, params, cfg)
            runs.append((save_checkpoint(theta), collections.Counter(labelled)))
        (memo_checkpoint, memo_counts), (plain_checkpoint, visits) = runs
        assert memo_checkpoint == plain_checkpoint
        assert sum(visits.values()) == cfg.epochs * manifest.chunk_count
        for key, count in visits.items():
            expected = 1 if key[1].next_chunk <= 2 else count
            assert memo_counts[key] == expected
        assert any(count > 1 for key, count in visits.items() if key[1].next_chunk > 2)

    def test_the_helper_labels_each_memoised_state_once(self, tmp_path, monkeypatch):
        # the memo lives in the helper process, so the forked label_state counts its calls
        # in a file: a list would grow in the helper's copy of memory, not in this one
        manifest = cbr_manifest((1.2, 0.3), 4.0, 4)
        params = QoEParams(alpha1=1.2, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.08)
        traces = [synth_trace(s, TraceModel(mean_mbps=1.0, volatility=0.2, duration_s=60.0))
                  for s in (0, 1)]
        cfg = TrainConfig(epochs=40, seed=4, horizon=2, latent_dim=4, hidden_dim=8, minibatch=8)
        monkeypatch.setattr(learner, "MEMO_CHUNKS", 2)
        calls = tmp_path / "calls"
        label_state = learner.label_state

        def counting(state, trace, *rest):
            with calls.open("a") as f:
                f.write(f"{state.next_chunk} {trace.id} {state!r}\n")
            return label_state(state, trace, *rest)

        monkeypatch.setattr(learner, "label_state", counting)
        runs = []
        for helper in (True, False):
            calls.write_text("")
            theta, report = train(traces, manifest, params, cfg, helper=helper)
            runs.append((save_checkpoint(theta), report, collections.Counter(
                calls.read_text().splitlines())))
        assert runs[0] == runs[1]
        labelled = runs[0][2]
        memoised = [count for line, count in labelled.items() if int(line.split()[0]) <= 2]
        assert memoised and set(memoised) == {1}
        assert any(count > 1 for count in labelled.values())  # deeper states are not memoised

    def test_requires_traces(self, tiny_setup):
        manifest, params, _ = tiny_setup
        with pytest.raises(DomainError):
            train([], manifest, params, TrainConfig(epochs=1))

    @pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's page faults")
    @pytest.mark.parametrize("helper", [False, True])
    def test_an_sgd_step_faults_in_almost_no_memory(self, helper):
        # Steps that allocate and free their large arrays let the allocator hand the heap
        # top back to the system and the next step fault it in again: about 190 minor faults
        # a step at these sizes. A fresh process, because a test runner's heap may not trim.
        script = "\n".join([
            "import resource, sys",
            "from abrbench import TraceModel, TrainConfig, preset, synth_trace, train",
            "manifest, params = preset('pensieve', chunk_count=16)",
            "traces = [synth_trace(s, TraceModel(mean_mbps=3.0, volatility=0.1)) for s in range(4)]",
            "cfg = TrainConfig(epochs=20, horizon=3)",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "train(traces, manifest, params, cfg, helper=sys.argv[1] == 'True')",
            "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before",
            "print(faults / (cfg.epochs * manifest.chunk_count))",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(learner.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(helper)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert float(done.stdout) < 25


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["beta", "eta", "learning_rate"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rates_must_be_finite(self, field, bad):
        with pytest.raises(DomainError, match="finite"):
            TrainConfig(**{field: bad})

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_learning_rate_must_be_positive(self, rate):
        with pytest.raises(DomainError, match="learning rate"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize(
        "field", ["minibatch", "horizon", "history_k", "latent_dim", "hidden_dim"]
    )
    def test_sizes_must_be_positive(self, field):
        with pytest.raises(DomainError, match="at least 1"):
            TrainConfig(**{field: 0})

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(DomainError, match="seed"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field,maximum", [
        ("minibatch", learner.MAX_SIZE), ("latent_dim", learner.MAX_SIZE),
        ("hidden_dim", learner.MAX_SIZE), ("history_k", learner.MAX_HISTORY_K),
        ("horizon", policies.MAX_HORIZON),
    ])
    def test_sizes_are_bounded(self, field, maximum):
        assert getattr(TrainConfig(**{field: maximum}), field) == maximum
        with pytest.raises(DomainError, match="at most"):
            TrainConfig(**{field: maximum + 1})


class TestLabelState:
    @pytest.mark.parametrize("name,mean_mbps", [("pensieve", 3.0), ("a2br-5g", 100.0)])
    def test_matches_ao_and_mpc_at_the_state_history(self, name, mean_mbps):
        manifest, params = preset(name, chunk_count=12)
        trace = synth_trace(31, TraceModel(mean_mbps=mean_mbps, volatility=0.3, duration_s=90.0))
        mpc_cfg = PolicyConfig(kind="robust_mpc", history_k=3)
        state = initial_state(manifest, params, history_k=3)
        while not state.terminal:
            solution, adverse = label_state(state, trace, manifest, params, 4)
            problem = problem_from_state(state, trace, manifest, params, 4)
            assert solution == solve_expert_ao(problem)
            assert adverse == decide_robust_mpc(state, manifest, params, mpc_cfg)
            # cycle through the ladder so the states see rebuffering and switches
            _, state = step(state, trace, manifest, params, state.next_chunk % manifest.n_levels)


class TestCheckpoint:
    def test_round_trip_bit_exact(self):
        theta = randomized_actor(7, 5, 3, 6, seed=12)
        text = save_checkpoint(theta, config={"seed": 12})
        again, config = load_checkpoint(text)
        assert config == {"seed": 12}
        assert np.array_equal(flatten(theta), flatten(again))
        obs = np.linspace(-1.0, 1.0, 7)
        assert act(theta, obs, "greedy") == act(again, obs, "greedy")
        assert np.array_equal(encode(theta, obs)[0], encode(again, obs)[0])

    def test_a_nan_weight_is_not_saved(self):
        for name in _WEIGHT_FIELDS:
            for row in range(3):
                for bad in (math.nan, math.inf, -math.inf):
                    theta = init_actor(3, 3, latent_dim=3, hidden_dim=3)
                    getattr(theta, name)[row, ...].flat[-1] = bad
                    with pytest.raises(ValueError, match="not JSON compliant"):
                        save_checkpoint(theta)

    @pytest.mark.parametrize("sizes", [(1, 1, 1, 1), (7, 5, 3, 6), (31, 6, 64, 128)])
    @pytest.mark.parametrize("config", [
        None, {}, {"seed": 12, "nested": {"list": [1, 2.5, None], "empty": {}, "none": []}},
        {"traces": "tr\u00e4ces/\u96fb", "\u00e9": "\U0001f600", "flag": True},
    ])
    def test_is_the_whole_document_dumped_at_once(self, sizes, config):
        theta = randomized_actor(*sizes, seed=sum(sizes))
        theta.dec_b2[0] = -0.0
        doc = {
            "format": learner.CHECKPOINT_FORMAT,
            "version": learner.CHECKPOINT_VERSION,
            **{name: getattr(theta, name) for name in learner._HEADER_FIELDS},
            "config": config or {},
            "weights": {name: getattr(theta, name).tolist() for name in _WEIGHT_FIELDS},
        }
        assert save_checkpoint(theta, config) == json.dumps(doc, sort_keys=True,
                                                            allow_nan=False) + "\n"

    def test_rejects_foreign_documents(self):
        with pytest.raises(DomainError):
            load_checkpoint('{"format": "other"}')

    @pytest.mark.parametrize("field", ["latent_dim", "seed"])
    def test_sizes_and_seed_must_be_json_integers(self, field):
        doc = json.loads(save_checkpoint(init_actor(3, 2, latent_dim=2, hidden_dim=2)))
        for bad in (2.0, True, "2", None):
            doc[field] = bad
            with pytest.raises(ParseError, match=field):
                load_checkpoint(json.dumps(doc))

    def test_every_weight_must_have_its_layer_shape(self):
        theta = init_actor(3, 2, latent_dim=2, hidden_dim=4)
        for name in _WEIGHT_FIELDS:
            with pytest.raises(DomainError, match=name):
                replace(theta, **{name: getattr(theta, name)[..., :1]})
        with pytest.raises(DomainError, match="at least 1"):
            replace(theta, n_levels=0)

    def test_default_layer_sizes_are_train_configs(self):
        theta = init_actor(3, 2)
        assert (theta.latent_dim, theta.hidden_dim) == (TrainConfig.latent_dim,
                                                        TrainConfig.hidden_dim)

    @pytest.mark.parametrize("bad", [None, "1.5", True, [1.0]])
    def test_weights_must_be_json_numbers(self, bad):
        doc = json.loads(save_checkpoint(init_actor(3, 2, latent_dim=2, hidden_dim=2)))
        doc["weights"]["dec_w1"][1][0] = bad
        with pytest.raises(ParseError, match="'dec_w1' must hold only numbers"):
            load_checkpoint(json.dumps(doc))

    def test_a_json_nan_weight_loads(self):
        doc = json.loads(save_checkpoint(init_actor(3, 2, latent_dim=2, hidden_dim=2)))
        doc["weights"]["dec_b2"][0] = math.nan
        theta, _ = load_checkpoint(json.dumps(doc))
        assert math.isnan(theta.dec_b2[0]) and theta.dec_b2[1] == 0.0

    def test_missing_weights_is_parse_error(self):
        doc = json.loads(save_checkpoint(init_actor(3, 2, latent_dim=2, hidden_dim=2)))
        del doc["weights"]
        with pytest.raises(ParseError, match="weights"):
            load_checkpoint(json.dumps(doc))
