"""Stochastic-latent imitation actor and its training loop.

The actor encodes an observation into a Gaussian latent (mean and log
standard deviation), samples it with the reparameterization trick, and
decodes the sample into a categorical action distribution over levels. The
training objective is the sum of the cross-entropy to the offline expert
label, an adversarial cross-entropy to the future-blind expert label
(weighted by eta), and a KL regularizer to a standard-normal prior
(weighted by beta). Gradients are analytic backpropagation through the whole
stack; ``grad_check``-style tests compare them against finite differences.
"""

from __future__ import annotations

import json
import math
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, ParseError, UsageError
from .expert import ExpertSolution, problem_from_state, solve_expert_ao
from .media import QoEParams, VideoManifest
from .policies import MAX_HISTORY_K, PolicyConfig, check_horizon, decide_robust_mpc
from .simulator import SessionState, check_history_k, initial_state, observation_size, observe, step
from .trace import Trace, check_seed
from .workers import Worker, one_blas_thread

LOGSIG_MIN = -10.0
LOGSIG_MAX = 3.0
CHECKPOINT_FORMAT = "abrbench-actor"
CHECKPOINT_VERSION = 1
# SGD steps rescale gradients whose global norm exceeds GRAD_CLIP; the
# reported training loss is an exponential moving average with EMA_DECAY.
GRAD_CLIP = 5.0
EMA_DECAY = 0.98
# train memoises the labels of session states up to this chunk: a trace has at most
# n_levels**(c - 1) states at chunk c, and most repeated states lie on the first few chunks.
MEMO_CHUNKS = 4
# The largest minibatch, latent and hidden size TrainConfig admits.
MAX_SIZE = 4096

# The network, one layer a row: weight matrix (fan-in, fan-out), bias (fan-out,) and the two
# sizes. init_actor draws the matrices in row order; ActorParams checks every shape against it.
_LAYERS = (
    ("enc_w1", "enc_b1", "obs_dim", "hidden_dim"),
    ("enc_w2", "enc_b2", "hidden_dim", "hidden_dim"),
    ("enc_wmu", "enc_bmu", "hidden_dim", "latent_dim"),
    ("enc_wls", "enc_bls", "hidden_dim", "latent_dim"),
    ("dec_w1", "dec_b1", "latent_dim", "hidden_dim"),
    ("dec_w2", "dec_b2", "hidden_dim", "n_levels"),
)
_WEIGHT_FIELDS = tuple(name for layer in _LAYERS for name in layer[:2])
# the integer fields of an actor and of its checkpoint
_HEADER_FIELDS = ("obs_dim", "n_levels", "latent_dim", "hidden_dim", "seed")


def _shapes(sizes: dict) -> dict[str, tuple[int, ...]]:
    """Every weight's shape for the layer sizes in ``sizes``, which must be at least 1."""
    shapes = {}
    for weight, bias, fan_in, fan_out in _LAYERS:
        if min(sizes[fan_in], sizes[fan_out]) < 1:
            raise DomainError("actor layer sizes must be at least 1")
        shapes[weight], shapes[bias] = (sizes[fan_in], sizes[fan_out]), (sizes[fan_out],)
    return shapes


@dataclass(frozen=True)
class LabeledState:
    """One imitation sample: observation plus both expert level indices."""

    observation: tuple[float, ...]
    expert_level: int
    adverse_level: int

    def __post_init__(self):
        if self.expert_level < 0 or self.adverse_level < 0:
            raise DomainError("level indices must be nonnegative")


@dataclass(frozen=True)
class TrainConfig:
    beta: float = 1e-4
    eta: float = 0.2
    learning_rate: float = 0.2
    minibatch: int = 128
    epochs: int = 100
    horizon: int = 8
    history_k: int = 8
    seed: int = 0
    latent_dim: int = 64
    hidden_dim: int = 128

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.beta, self.eta, self.learning_rate)):
            raise DomainError("beta, eta and learning rate must be finite")
        if self.beta < 0.0 or self.eta < 0.0:
            raise DomainError("beta and eta must be nonnegative")
        if self.learning_rate <= 0.0:
            raise DomainError("learning rate must be positive")
        if self.epochs < 0:
            raise DomainError("epochs must be nonnegative")
        check_seed(self.seed)
        if min(self.minibatch, self.horizon, self.latent_dim, self.hidden_dim) < 1:
            raise DomainError("minibatch, horizon and layer sizes must be at least 1")
        if max(self.minibatch, self.latent_dim, self.hidden_dim) > MAX_SIZE:
            raise DomainError(f"minibatch and layer sizes must be at most {MAX_SIZE}")
        check_history_k(self.history_k)
        check_horizon(self.horizon)


@dataclass
class ActorParams:
    """Dense encoder/decoder weights: float64, row-major, of the shapes ``_LAYERS`` gives."""

    obs_dim: int
    n_levels: int
    latent_dim: int
    hidden_dim: int
    seed: int
    enc_w1: np.ndarray = field(repr=False)
    enc_b1: np.ndarray = field(repr=False)
    enc_w2: np.ndarray = field(repr=False)
    enc_b2: np.ndarray = field(repr=False)
    enc_wmu: np.ndarray = field(repr=False)
    enc_bmu: np.ndarray = field(repr=False)
    enc_wls: np.ndarray = field(repr=False)
    enc_bls: np.ndarray = field(repr=False)
    dec_w1: np.ndarray = field(repr=False)
    dec_b1: np.ndarray = field(repr=False)
    dec_w2: np.ndarray = field(repr=False)
    dec_b2: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, shape in _shapes(vars(self)).items():
            if (actual := getattr(self, name).shape) != shape:
                raise DomainError(f"actor weight {name} has shape {actual}, not {shape}")

    def weights(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _WEIGHT_FIELDS]


def init_actor(
    obs_dim: int,
    n_levels: int,
    latent_dim: int = TrainConfig.latent_dim,
    hidden_dim: int = TrainConfig.hidden_dim,
    seed: int = TrainConfig.seed,
) -> ActorParams:
    """Seeded uniform(+-1/sqrt(fan_in)) weight matrices, zero biases."""
    sizes = dict(obs_dim=obs_dim, n_levels=n_levels, latent_dim=latent_dim, hidden_dim=hidden_dim)
    shapes = _shapes(sizes)
    rng = np.random.default_rng(seed)
    weights = {}
    for weight, bias, fan_in, _fan_out in _LAYERS:
        bound = 1.0 / np.sqrt(sizes[fan_in])
        weights[weight] = rng.uniform(-bound, bound, size=shapes[weight])
        weights[bias] = np.zeros(shapes[bias])
    return ActorParams(**sizes, seed=seed, **weights)


# -- forward pieces ------------------------------------------------------------


def _encode_mean(theta: ActorParams, X: np.ndarray):
    """The encoder trunk and mean head: (H1, H2, MU), without the log-sigma head."""
    H1 = np.tanh(X @ theta.enc_w1 + theta.enc_b1)
    H2 = np.tanh(H1 @ theta.enc_w2 + theta.enc_b2)
    return H1, H2, H2 @ theta.enc_wmu + theta.enc_bmu


def _encode_batch(theta: ActorParams, X: np.ndarray):
    H1, H2, MU = _encode_mean(theta, X)
    LS_pre = H2 @ theta.enc_wls + theta.enc_bls
    LS = np.clip(LS_pre, LOGSIG_MIN, LOGSIG_MAX)
    return H1, H2, MU, LS_pre, LS


def _decode_batch(theta: ActorParams, Z: np.ndarray, out: np.ndarray | None = None):
    """(Hd, P) of the latents ``Z``; the hidden layer ``Hd`` goes into ``out`` when given."""
    Hd = np.matmul(Z, theta.dec_w1, out=out)
    Hd += theta.dec_b1
    np.tanh(Hd, out=Hd)
    logits = Hd @ theta.dec_w2 + theta.dec_b2
    expd = np.exp(logits - logits.max(axis=1, keepdims=True))
    return Hd, expd / expd.sum(axis=1, keepdims=True)


def _observation_row(theta: ActorParams, obs) -> np.ndarray:
    """One observation as a (1, obs_dim) float64 batch; another shape is a ``UsageError``."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (theta.obs_dim,):
        raise UsageError(f"observation must have shape ({theta.obs_dim},), got {obs.shape}")
    return obs[None, :]


def encode(theta: ActorParams, obs) -> tuple[np.ndarray, np.ndarray]:
    """Observation -> (mu, log sigma); log sigma clamped to [-10, 3]."""
    _, _, MU, _, LS = _encode_batch(theta, _observation_row(theta, obs))
    return MU[0], LS[0]


def reparameterize(mu, log_sigma, noise) -> np.ndarray:
    """z = mu + exp(log sigma) * noise, elementwise."""
    mu = np.asarray(mu, dtype=np.float64)
    log_sigma = np.asarray(log_sigma, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if mu.shape != log_sigma.shape or mu.shape != noise.shape:
        raise UsageError("mu, log sigma, and noise must share a shape")
    return mu + np.exp(log_sigma) * noise


def decode(theta: ActorParams, z) -> np.ndarray:
    """Latent -> categorical action probabilities over levels."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (theta.latent_dim,):
        raise UsageError(f"latent must have shape ({theta.latent_dim},), got {z.shape}")
    _, P = _decode_batch(theta, z[None, :])
    return P[0]


def _batch_arrays(theta: ActorParams, batch, noise):
    """(X, inverse index, expert levels, adverse levels, noise) arrays of a nonempty batch."""
    if not batch:
        raise DomainError("batch must be nonempty")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != (len(batch), theta.latent_dim):
        raise UsageError("noise must have shape (batch, latent_dim)")
    X = np.array([s.observation for s in batch], dtype=np.float64)
    levels = np.array([(s.expert_level, s.adverse_level) for s in batch], dtype=np.int64)
    return X, np.arange(len(batch)), *levels.T, noise


def _forward(theta: ActorParams, X, inv, a_hat, a_til, noise, out: dict | None = None):
    """Batch forward pass over the rows ``X[inv]``: the (expert CE, adverse CE,
    KL) batch means and the activations that backpropagation reads. The encoder
    runs once per row of ``X``; the batch row ``m`` reads encoder row ``inv[m]``.
    ``Z`` and ``Hd`` go into the arrays of those names in ``out`` (see :func:`_buffers`)
    when given; numpy allocates them otherwise."""
    out = out or {}
    H1, H2, MU, LS_pre, LS = _encode_batch(theta, X)
    SIG = np.exp(LS)
    MU_rows, SIG_rows = MU[inv], SIG[inv]
    Z = np.multiply(SIG_rows, noise, out=out.get("Z"))
    np.add(MU_rows, Z, out=Z)  # Z = MU_rows + SIG_rows * noise
    Hd, P = _decode_batch(theta, Z, out.get("Hd"))
    rows = np.arange(len(inv))
    ce_expert = float(np.mean(-np.log(P[rows, a_hat])))
    ce_adverse = float(np.mean(-np.log(P[rows, a_til])))
    kl = float(np.mean(0.5 * np.sum(MU**2 + SIG**2 - 1.0 - 2.0 * LS, axis=1)[inv]))
    return (ce_expert, ce_adverse, kl), (H1, H2, LS_pre, MU_rows, SIG_rows, Z, Hd, P)


def _objective(components, cfg: TrainConfig) -> float:
    ce_expert, ce_adverse, kl = components
    return ce_expert + cfg.eta * ce_adverse + cfg.beta * kl


def aib_loss_components(
    theta: ActorParams, batch, noise, cfg: TrainConfig
) -> tuple[float, float, float]:
    """(expert cross-entropy, adverse cross-entropy, KL to the prior), each a
    batch mean and each nonnegative. The training loss weights them by
    (1, eta, beta)."""
    components, _ = _forward(theta, *_batch_arrays(theta, batch, noise))
    return components


def aib_loss(theta: ActorParams, batch, noise, cfg: TrainConfig) -> float:
    """Empirical objective: CE(expert) + eta * CE(adverse) + beta * KL."""
    return _objective(aib_loss_components(theta, batch, noise, cfg), cfg)


def _buffers(theta: ActorParams, minibatch: int) -> dict[str, np.ndarray]:
    """The arrays one SGD step over ``minibatch`` rows writes, for :func:`_loss_and_grad`'s
    ``out``: the minibatch-row activations, two latent-sized scratch arrays and a
    gradient per weight. ``train`` allocates them once, so a step frees no large array
    for the allocator to hand back to the system and the next step to fault in again."""
    rows = {"Z": theta.latent_dim, "Hd": theta.hidden_dim, "Hd_slope": theta.hidden_dim,
            "dHd": theta.hidden_dim, "dZ": theta.latent_dim,
            "latent_a": theta.latent_dim, "latent_b": theta.latent_dim}
    return {**{name: np.empty((minibatch, width)) for name, width in rows.items()},
            **{name: np.empty_like(w) for name, w in zip(_WEIGHT_FIELDS, theta.weights())}}


def _loss_and_grad(theta: ActorParams, X, inv, a_hat, a_til, noise, cfg: TrainConfig,
                   out: dict | None = None):
    """:func:`aib_loss` of the batch rows ``X[inv]`` plus analytic backpropagation.
    Returns (loss, grads dict). Activations and gradients go into the arrays of ``out``
    (see :func:`_buffers`) when given; numpy allocates them otherwise."""
    out = out or {}
    components, (H1, H2, LS_pre, MU_rows, SIG_rows, Z, Hd, P) = _forward(
        theta, X, inv, a_hat, a_til, noise, out)
    M = len(inv)
    rows = np.arange(M)

    # decoder head: softmax cross-entropy for both label sets (rows are distinct)
    dlogits = (1.0 + cfg.eta) * P
    dlogits[rows, a_hat] -= 1.0
    dlogits[rows, a_til] -= cfg.eta
    dlogits /= M

    g = {}
    g["dec_w2"] = np.matmul(Hd.T, dlogits, out=out.get("dec_w2"))
    g["dec_b2"] = np.sum(dlogits, axis=0, out=out.get("dec_b2"))
    # dHd = (dlogits @ dec_w2.T) * (1 - Hd**2)
    slope = np.square(Hd, out=out.get("Hd_slope"))
    np.subtract(1.0, slope, out=slope)
    dHd = np.matmul(dlogits, theta.dec_w2.T, out=out.get("dHd"))
    dHd *= slope
    g["dec_w1"] = np.matmul(Z.T, dHd, out=out.get("dec_w1"))
    g["dec_b1"] = np.sum(dHd, axis=0, out=out.get("dec_b1"))
    dZ = np.matmul(dHd, theta.dec_w1.T, out=out.get("dZ"))

    # latent: per batch row, then summed onto the encoder row each batch row read
    fold = (inv == np.arange(X.shape[0])[:, None]).astype(np.float64)
    # dMU = fold @ (dZ + (beta / M) * MU_rows)
    a = np.multiply(cfg.beta / M, MU_rows, out=out.get("latent_a"))
    dMU = fold @ np.add(dZ, a, out=a)
    # dLS = fold @ (dZ * noise * SIG_rows + (beta / M) * (SIG_rows**2 - 1))
    b = np.multiply(dZ, noise, out=out.get("latent_b"))
    b *= SIG_rows
    np.square(SIG_rows, out=a)
    a -= 1.0
    np.multiply(cfg.beta / M, a, out=a)
    dLS = fold @ np.add(b, a, out=b)
    dLS *= (LS_pre > LOGSIG_MIN) & (LS_pre < LOGSIG_MAX)  # clamp passes no gradient

    g["enc_wmu"] = np.matmul(H2.T, dMU, out=out.get("enc_wmu"))
    g["enc_bmu"] = np.sum(dMU, axis=0, out=out.get("enc_bmu"))
    g["enc_wls"] = np.matmul(H2.T, dLS, out=out.get("enc_wls"))
    g["enc_bls"] = np.sum(dLS, axis=0, out=out.get("enc_bls"))
    dH2 = (dMU @ theta.enc_wmu.T + dLS @ theta.enc_wls.T) * (1.0 - H2**2)
    g["enc_w2"] = np.matmul(H1.T, dH2, out=out.get("enc_w2"))
    g["enc_b2"] = np.sum(dH2, axis=0, out=out.get("enc_b2"))
    dH1 = (dH2 @ theta.enc_w2.T) * (1.0 - H1**2)
    g["enc_w1"] = np.matmul(X.T, dH1, out=out.get("enc_w1"))
    g["enc_b1"] = np.sum(dH1, axis=0, out=out.get("enc_b1"))
    return _objective(components, cfg), g


def grad_aib(theta: ActorParams, batch, noise, cfg: TrainConfig) -> ActorParams:
    """Analytic gradient of :func:`aib_loss`, shaped like the parameters."""
    _, g = _loss_and_grad(theta, *_batch_arrays(theta, batch, noise), cfg)
    return replace(theta, **g)


def act(theta: ActorParams, obs, mode: str = "greedy", rng: np.random.Generator | None = None) -> int:
    """Pick a level. Greedy uses the latent mean (zero noise) and breaks
    probability ties toward the lower level; sample draws from the
    categorical with the supplied generator. Non-finite probabilities (from
    diverged or corrupt weights) raise ``DomainError``."""
    if mode == "greedy":  # the latent mean alone: no log-sigma head
        _, _, MU = _encode_mean(theta, _observation_row(theta, obs))
        return _pick(theta, MU[0], None, mode, None)
    mu, log_sigma = encode(theta, obs)
    return _pick(theta, mu, log_sigma, mode, rng)


def _pick(theta: ActorParams, mu, log_sigma, mode: str, rng: np.random.Generator | None) -> int:
    """:func:`act` on an observation already encoded to ``(mu, log_sigma)``; greedy reads
    ``mu`` alone."""
    if mode not in ("greedy", "sample"):
        raise UsageError(f"unknown act mode {mode!r}")
    if mode == "sample" and rng is None:
        raise UsageError("sample mode needs a seeded generator")
    greedy = mode == "greedy"
    z = mu if greedy else reparameterize(mu, log_sigma, rng.standard_normal(theta.latent_dim))
    _, P = _decode_batch(theta, z[None, :])
    probs = P[0]
    if not np.isfinite(probs).all():
        raise DomainError("actor action probabilities are not finite")
    return int(np.argmax(probs)) if greedy else int(rng.choice(theta.n_levels, p=probs))


# -- training ------------------------------------------------------------------


def _sgd_step(theta: ActorParams, X, inv, a_hat, a_til, noise, cfg: TrainConfig,
              out: dict) -> float:
    """One clipped SGD step, in place, with :func:`_buffers`' arrays ``out``."""
    loss, g = _loss_and_grad(theta, X, inv, a_hat, a_til, noise, cfg, out)
    # the norm sums in backpropagation's order, which sets the clip scale's last bit
    norm = float(np.sqrt(sum(float(np.sum(w * w)) for w in g.values())))
    scale = cfg.learning_rate * (min(1.0, GRAD_CLIP / norm) if norm > 0.0 else 1.0)
    for name, grad in g.items():
        arr = getattr(theta, name)
        grad *= scale
        arr -= grad
    return loss


def label_state(
    state: SessionState, trace: Trace, manifest: VideoManifest, params: QoEParams, horizon: int
) -> tuple[ExpertSolution, int]:
    """Both imitation labels of one session state.

    Returns the offline expert's horizon solve (AO on the ``horizon`` chunks
    ahead of ``state`` over ``trace``) and the future-blind RobustMPC level
    at the state's own history length.
    """
    solution = solve_expert_ao(problem_from_state(state, trace, manifest, params, horizon))
    mpc_cfg = PolicyConfig(kind="robust_mpc", history_k=state.history_k)
    return solution, decide_robust_mpc(state, manifest, params, mpc_cfg)


def _labeller(traces, manifest, params, horizon: int):
    """``labels(k, state)``: the (expert level, adverse level) of ``state`` on trace ``k``.

    It memoises the labels of states up to chunk ``MEMO_CHUNKS`` in the process that
    runs it. Labels depend on no weight and no random draw, so which process computes
    them, and whether they come from the memo, changes no byte.
    """
    # (trace index, state) -> labels; at most n_levels**(c - 1) states per trace at chunk c
    memo: dict[tuple[int, SessionState], tuple[int, int]] = {}

    def labels(k: int, state: SessionState) -> tuple[int, int]:
        memoised = state.next_chunk <= MEMO_CHUNKS
        if memoised and (k, state) in memo:
            return memo[k, state]
        solution, adverse = label_state(state, traces[k], manifest, params, horizon)
        if memoised:
            memo[k, state] = solution.levels[0], adverse
        return solution.levels[0], adverse

    return labels


def train(
    traces: list[Trace],
    manifest: VideoManifest,
    params: QoEParams,
    cfg: TrainConfig,
    *,
    helper: bool = False,
) -> tuple[ActorParams, dict]:
    """Imitation training loop.

    Each epoch rolls one session on a randomly picked trace with the actor's
    own sampled actions. Every visited state is labeled by
    :func:`label_state` (first action of the offline expert's horizon solve
    and the RobustMPC level) and added to the epoch's sample arrays; one
    clipped SGD step on a random minibatch of them follows each chunk. Fully
    deterministic in ``cfg.seed``, with or without ``helper``. A non-finite
    loss or final weights (a diverged run) raise ``DomainError``.

    Each piece of work is done once, without changing a result: the labels
    of a (trace, state) pair are a pure function of it, so those of states
    up to chunk ``MEMO_CHUNKS`` are kept as two ints, by the process that
    labels, and reused when a later epoch reaches the same state (the memo
    holds at most ``len(traces) * n_levels**(MEMO_CHUNKS - 1)`` states per
    chunk, whatever the epoch count); a visited state is encoded once for both its greedy and
    its sampled action; and an SGD step encodes each distinct observation of
    its minibatch once.

    A chunk steps the session before its SGD step, which reads the weights and
    the generator that stepping does not, and asks for the next state's labels
    first. With ``helper``, one forked process computes them meanwhile, so the
    labels of state t+1 and the SGD step of state t run at once; a helper that
    dies raises ``RuntimeError``. The pipeline is one state deep: state t+2
    depends on the weights after step t. The helper pays only on a CPU that
    no BLAS thread of the SGD step uses, so the loaded BLAS runs one thread
    throughout, with or without the helper, and gets its old count back after.
    """
    if not traces:
        raise DomainError("training needs at least one trace")
    rng = np.random.default_rng(cfg.seed)
    obs_dim = observation_size(manifest, cfg.history_k)
    theta = init_actor(obs_dim, manifest.n_levels, cfg.latent_dim, cfg.hidden_dim, cfg.seed)
    buffers = _buffers(theta, cfg.minibatch)

    # the epoch's samples: visited state i has observation X[i] and labels levels[:, i]
    X = np.empty((manifest.chunk_count, obs_dim))
    levels = np.empty((2, manifest.chunk_count), dtype=np.int64)
    ema = None
    loss_curve: list[float] = []
    agreement_curve: list[float] = []
    labels = _labeller(traces, manifest, params, cfg.horizon)
    asked: deque = deque()  # without the helper, the states whose labels are not yet read
    with one_blas_thread(), Worker(labels) if helper else nullcontext() as worker:
        send = worker.send if helper else lambda *request: asked.append(request)
        # in-process labels are computed when read, so an error surfaces where the helper's would
        recv = worker.recv if helper else lambda: labels(*asked.popleft())
        for _epoch in range(cfg.epochs):
            k = int(rng.integers(len(traces)))
            trace = traces[k]
            state = initial_state(manifest, params, history_k=cfg.history_k)
            send(k, state)
            n = agreements = 0
            while not state.terminal:
                obs = observe(state, manifest)
                mu, log_sigma = encode(theta, obs)
                greedy = _pick(theta, mu, log_sigma, "greedy", None)
                behavior = _pick(theta, mu, log_sigma, "sample", rng)
                _outcome, state = step(state, trace, manifest, params, behavior)
                if not state.terminal:
                    send(k, state)
                got = recv()
                if isinstance(got, Exception):  # the helper hands back what labels raised
                    raise got
                expert, adverse = got
                X[n], levels[:, n] = obs, (expert, adverse)
                agreements += int(greedy == expert)
                n += 1

                idx = rng.choice(n, size=cfg.minibatch, replace=n < cfg.minibatch)
                noise = rng.standard_normal((cfg.minibatch, cfg.latent_dim))
                distinct, inv = np.unique(idx, return_inverse=True)
                loss = _sgd_step(theta, X[distinct], inv, *levels[:, idx], noise, cfg,
                                 buffers)
                if not math.isfinite(loss):
                    raise DomainError("training diverged: the loss is not finite")
                ema = loss if ema is None else EMA_DECAY * ema + (1.0 - EMA_DECAY) * loss
            loss_curve.append(float(ema))
            agreement_curve.append(agreements / n)
    if not all(np.isfinite(w).all() for w in theta.weights()):
        raise DomainError("training diverged: the actor weights are not finite")

    report = {
        "epochs": cfg.epochs,
        "loss_ema": loss_curve,
        "expert_agreement": agreement_curve,
        "final_loss_ema": loss_curve[-1] if loss_curve else None,
        "final_agreement": agreement_curve[-1] if agreement_curve else None,
    }
    return theta, report


# -- checkpointing -------------------------------------------------------------


def _json_rows(arr: np.ndarray) -> str:
    """``json.dumps(arr.tolist(), allow_nan=False)``, encoded one row at a time."""
    if arr.ndim == 1:
        return json.dumps(arr.tolist(), allow_nan=False)
    return "[" + ", ".join(map(_json_rows, arr)) + "]"


def save_checkpoint(theta: ActorParams, config: dict | None = None) -> str:
    """Versioned JSON checkpoint; floats round-trip exactly.

    The text is ``json.dumps(doc, sort_keys=True, allow_nan=False) + "\\n"`` of the header,
    the config and a ``"weights"`` object of nested lists, but the weights are encoded
    one matrix row at a time, so the whole actor never exists as Python floats at once.
    A NaN or an infinity raises ``ValueError``."""
    header = json.dumps({
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        **{name: getattr(theta, name) for name in _HEADER_FIELDS},
        "config": config or {},
    }, sort_keys=True, allow_nan=False)
    weights = ", ".join(f"{json.dumps(name)}: {_json_rows(getattr(theta, name))}"
                        for name in sorted(_WEIGHT_FIELDS))
    # "weights" sorts after every header key, so it closes the document
    return f'{header[:-1]}, "weights": {{{weights}}}}}\n'


def _weight_array(name: str, entry) -> np.ndarray:
    """A checkpoint weight entry as float64. Its leaves must be JSON numbers (a
    JSON NaN included): numpy would take null as NaN and "1.5" or true as numbers."""
    leaves = np.array(entry, dtype=object)
    if not set(map(type, leaves.flat)) <= {int, float}:
        raise ParseError(f"checkpoint weight {name!r} must hold only numbers")
    return leaves.astype(np.float64)


def load_checkpoint(text: str) -> tuple[ActorParams, dict]:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise DomainError("not an actor checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise DomainError(f"unsupported checkpoint version {doc.get('version')}")
    try:
        arrays = {name: _weight_array(name, doc["weights"][name]) for name in _WEIGHT_FIELDS}
        header = {name: doc[name] for name in _HEADER_FIELDS}
    except KeyError as exc:
        raise ParseError(f"checkpoint has no field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed checkpoint field: {exc}") from None
    for name, value in header.items():
        if type(value) is not int:  # JSON integers only: not 2.0, true or "2"
            raise ParseError(f"checkpoint field {name!r} must be an integer, got {value!r}")
    return ActorParams(**header, **arrays), doc.get("config", {})
