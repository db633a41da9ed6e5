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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, ParseError, UsageError
from .expert import ExpertSolution, problem_from_state, solve_expert_ao
from .media import QoEParams, VideoManifest
from .policies import PolicyConfig, decide_robust_mpc
from .simulator import SessionState, initial_state, observation_size, observe, step
from .trace import Trace

LOGSIG_MIN = -10.0
LOGSIG_MAX = 3.0
CHECKPOINT_FORMAT = "abrbench-actor"
CHECKPOINT_VERSION = 1
# SGD steps rescale gradients whose global norm exceeds GRAD_CLIP; the
# reported training loss is an exponential moving average with EMA_DECAY.
GRAD_CLIP = 5.0
EMA_DECAY = 0.98

_WEIGHT_FIELDS = (
    "enc_w1", "enc_b1", "enc_w2", "enc_b2",
    "enc_wmu", "enc_bmu", "enc_wls", "enc_bls",
    "dec_w1", "dec_b1", "dec_w2", "dec_b2",
)


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
        if self.epochs < 0 or self.seed < 0:
            raise DomainError("epochs and seed must be nonnegative")
        if min(self.minibatch, self.horizon, self.history_k, self.latent_dim, self.hidden_dim) < 1:
            raise DomainError("minibatch, horizon, history_k and layer sizes must be at least 1")


@dataclass
class ActorParams:
    """Dense encoder/decoder weights. All arrays are float64, row-major."""

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

    def weights(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _WEIGHT_FIELDS]


def init_actor(
    obs_dim: int,
    n_levels: int,
    latent_dim: int = 64,
    hidden_dim: int = 128,
    seed: int = 0,
) -> ActorParams:
    """Seeded uniform(+-1/sqrt(fan_in)) weights, zero biases."""
    if latent_dim < 1:
        raise DomainError("latent dimension must be at least 1")
    rng = np.random.default_rng(seed)

    def layer(fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        return w, np.zeros(fan_out)

    enc_w1, enc_b1 = layer(obs_dim, hidden_dim)
    enc_w2, enc_b2 = layer(hidden_dim, hidden_dim)
    enc_wmu, enc_bmu = layer(hidden_dim, latent_dim)
    enc_wls, enc_bls = layer(hidden_dim, latent_dim)
    dec_w1, dec_b1 = layer(latent_dim, hidden_dim)
    dec_w2, dec_b2 = layer(hidden_dim, n_levels)
    return ActorParams(
        obs_dim=obs_dim,
        n_levels=n_levels,
        latent_dim=latent_dim,
        hidden_dim=hidden_dim,
        seed=seed,
        enc_w1=enc_w1, enc_b1=enc_b1, enc_w2=enc_w2, enc_b2=enc_b2,
        enc_wmu=enc_wmu, enc_bmu=enc_bmu, enc_wls=enc_wls, enc_bls=enc_bls,
        dec_w1=dec_w1, dec_b1=dec_b1, dec_w2=dec_w2, dec_b2=dec_b2,
    )


# -- forward pieces ------------------------------------------------------------


def _encode_batch(theta: ActorParams, X: np.ndarray):
    H1 = np.tanh(X @ theta.enc_w1 + theta.enc_b1)
    H2 = np.tanh(H1 @ theta.enc_w2 + theta.enc_b2)
    MU = H2 @ theta.enc_wmu + theta.enc_bmu
    LS_pre = H2 @ theta.enc_wls + theta.enc_bls
    LS = np.clip(LS_pre, LOGSIG_MIN, LOGSIG_MAX)
    return H1, H2, MU, LS_pre, LS


def _decode_batch(theta: ActorParams, Z: np.ndarray):
    Hd = np.tanh(Z @ theta.dec_w1 + theta.dec_b1)
    logits = Hd @ theta.dec_w2 + theta.dec_b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    P = expd / expd.sum(axis=1, keepdims=True)
    return Hd, logits, P


def encode(theta: ActorParams, obs) -> tuple[np.ndarray, np.ndarray]:
    """Observation -> (mu, log sigma); log sigma clamped to [-10, 3]."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (theta.obs_dim,):
        raise UsageError(f"observation must have shape ({theta.obs_dim},), got {obs.shape}")
    _, _, MU, _, LS = _encode_batch(theta, obs[None, :])
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
    _, _, P = _decode_batch(theta, z[None, :])
    return P[0]


def _batch_arrays(theta: ActorParams, batch, noise):
    """(X, expert levels, adverse levels, noise) arrays of a nonempty batch."""
    if not batch:
        raise DomainError("batch must be nonempty")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != (len(batch), theta.latent_dim):
        raise UsageError("noise must have shape (batch, latent_dim)")
    X = np.array([s.observation for s in batch], dtype=np.float64)
    a_hat = np.array([s.expert_level for s in batch], dtype=np.int64)
    a_til = np.array([s.adverse_level for s in batch], dtype=np.int64)
    return X, a_hat, a_til, noise


def _forward(theta: ActorParams, X, a_hat, a_til, noise):
    """Batch forward pass: the (expert CE, adverse CE, KL) batch means and
    the activations that backpropagation reads."""
    H1, H2, MU, LS_pre, LS = _encode_batch(theta, X)
    SIG = np.exp(LS)
    Z = MU + SIG * noise
    Hd, _logits, P = _decode_batch(theta, Z)
    rows = np.arange(X.shape[0])
    ce_expert = float(np.mean(-np.log(P[rows, a_hat])))
    ce_adverse = float(np.mean(-np.log(P[rows, a_til])))
    kl = float(np.mean(0.5 * np.sum(MU**2 + SIG**2 - 1.0 - 2.0 * LS, axis=1)))
    return (ce_expert, ce_adverse, kl), (H1, H2, MU, LS_pre, LS, SIG, Z, Hd, P)


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


def _loss_and_grad(theta: ActorParams, X, a_hat, a_til, noise, cfg: TrainConfig):
    """:func:`aib_loss` plus analytic backpropagation. Returns (loss, grads dict)."""
    components, (H1, H2, MU, LS_pre, LS, SIG, Z, Hd, P) = _forward(theta, X, a_hat, a_til, noise)
    M = X.shape[0]
    rows = np.arange(M)

    # decoder head: softmax cross-entropy for both label sets (rows are distinct)
    dlogits = (1.0 + cfg.eta) * P
    dlogits[rows, a_hat] -= 1.0
    dlogits[rows, a_til] -= cfg.eta
    dlogits /= M

    g = {}
    g["dec_w2"] = Hd.T @ dlogits
    g["dec_b2"] = dlogits.sum(axis=0)
    dHd = (dlogits @ theta.dec_w2.T) * (1.0 - Hd**2)
    g["dec_w1"] = Z.T @ dHd
    g["dec_b1"] = dHd.sum(axis=0)
    dZ = dHd @ theta.dec_w1.T

    dMU = dZ + (cfg.beta / M) * MU
    dLS = dZ * noise * SIG + (cfg.beta / M) * (SIG**2 - 1.0)
    dLS *= (LS_pre > LOGSIG_MIN) & (LS_pre < LOGSIG_MAX)  # clamp passes no gradient

    g["enc_wmu"] = H2.T @ dMU
    g["enc_bmu"] = dMU.sum(axis=0)
    g["enc_wls"] = H2.T @ dLS
    g["enc_bls"] = dLS.sum(axis=0)
    dH2 = (dMU @ theta.enc_wmu.T + dLS @ theta.enc_wls.T) * (1.0 - H2**2)
    g["enc_w2"] = H1.T @ dH2
    g["enc_b2"] = dH2.sum(axis=0)
    dH1 = (dH2 @ theta.enc_w2.T) * (1.0 - H1**2)
    g["enc_w1"] = X.T @ dH1
    g["enc_b1"] = dH1.sum(axis=0)
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
    mu, log_sigma = encode(theta, obs)
    if mode not in ("greedy", "sample"):
        raise UsageError(f"unknown act mode {mode!r}")
    if mode == "sample" and rng is None:
        raise UsageError("sample mode needs a seeded generator")
    greedy = mode == "greedy"
    z = mu if greedy else reparameterize(mu, log_sigma, rng.standard_normal(theta.latent_dim))
    probs = decode(theta, z)
    if not np.isfinite(probs).all():
        raise DomainError("actor action probabilities are not finite")
    return int(np.argmax(probs)) if greedy else int(rng.choice(theta.n_levels, p=probs))


# -- training ------------------------------------------------------------------


def _sgd_step(theta: ActorParams, X, a_hat, a_til, noise, cfg: TrainConfig) -> float:
    loss, g = _loss_and_grad(theta, X, a_hat, a_til, noise, cfg)
    norm = float(np.sqrt(sum(float(np.sum(w * w)) for w in g.values())))
    scale = cfg.learning_rate * (min(1.0, GRAD_CLIP / norm) if norm > 0.0 else 1.0)
    for name, grad in g.items():
        arr = getattr(theta, name)
        arr -= scale * grad
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


def train(
    traces: list[Trace],
    manifest: VideoManifest,
    params: QoEParams,
    cfg: TrainConfig,
) -> tuple[ActorParams, dict]:
    """Imitation training loop.

    Each epoch rolls one session on a randomly picked trace with the actor's
    own sampled actions. Every visited state is labeled by
    :func:`label_state` (first action of the offline expert's horizon solve
    and the RobustMPC level) and appended to the per-session sample set; one
    clipped SGD step on a random minibatch follows each chunk. Serial and
    fully deterministic in ``cfg.seed``. A non-finite loss or final weights
    (a diverged run) raise ``DomainError``.
    """
    if not traces:
        raise DomainError("training needs at least one trace")
    rng = np.random.default_rng(cfg.seed)
    obs_dim = observation_size(manifest, cfg.history_k)
    theta = init_actor(
        obs_dim,
        manifest.n_levels,
        latent_dim=cfg.latent_dim,
        hidden_dim=cfg.hidden_dim,
        seed=cfg.seed,
    )

    ema = None
    loss_curve: list[float] = []
    agreement_curve: list[float] = []
    for _epoch in range(cfg.epochs):
        trace = traces[int(rng.integers(len(traces)))]
        state = initial_state(manifest, params, history_k=cfg.history_k)
        samples: list[LabeledState] = []
        agreements = 0
        while not state.terminal:
            obs = observe(state, manifest)
            solution, a_til = label_state(state, trace, manifest, params, cfg.horizon)
            a_hat = solution.levels[0]

            agreements += int(act(theta, obs, "greedy") == a_hat)
            behavior = act(theta, obs, "sample", rng)
            samples.append(LabeledState(tuple(obs), a_hat, a_til))

            n = len(samples)
            idx = rng.choice(n, size=cfg.minibatch, replace=n < cfg.minibatch)
            noise = rng.standard_normal((cfg.minibatch, cfg.latent_dim))
            loss = _sgd_step(theta, *_batch_arrays(theta, [samples[i] for i in idx], noise), cfg)
            if not math.isfinite(loss):
                raise DomainError("training diverged: the loss is not finite")
            ema = loss if ema is None else EMA_DECAY * ema + (1.0 - EMA_DECAY) * loss

            _outcome, state = step(state, trace, manifest, params, behavior)
        loss_curve.append(float(ema))
        agreement_curve.append(agreements / len(samples))
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


def save_checkpoint(theta: ActorParams, config: dict | None = None) -> str:
    """Versioned JSON checkpoint; floats round-trip exactly."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "obs_dim": theta.obs_dim,
        "n_levels": theta.n_levels,
        "latent_dim": theta.latent_dim,
        "hidden_dim": theta.hidden_dim,
        "seed": theta.seed,
        "config": config or {},
        "weights": {name: getattr(theta, name).tolist() for name in _WEIGHT_FIELDS},
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def load_checkpoint(text: str) -> tuple[ActorParams, dict]:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise DomainError("not an actor checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise DomainError(f"unsupported checkpoint version {doc.get('version')}")
    try:
        weights = doc["weights"]
        kwargs = {name: np.array(weights[name], dtype=np.float64) for name in _WEIGHT_FIELDS}
        dims = {
            k: int(doc[k]) for k in ("obs_dim", "n_levels", "latent_dim", "hidden_dim", "seed")
        }
    except KeyError as exc:
        raise ParseError(f"checkpoint has no field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed checkpoint field: {exc}") from None
    return ActorParams(**dims, **kwargs), doc.get("config", {})
