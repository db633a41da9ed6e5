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
import signal
from collections import deque
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
# train memoises the labels of session states up to this chunk: a trace has at most
# n_levels**(c - 1) states at chunk c, and most repeated states lie on the first few chunks.
MEMO_CHUNKS = 4

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
        if self.epochs < 0 or self.seed < 0:
            raise DomainError("epochs and seed must be nonnegative")
        if min(self.minibatch, self.horizon, self.history_k, self.latent_dim, self.hidden_dim) < 1:
            raise DomainError("minibatch, horizon, history_k and layer sizes must be at least 1")


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
    expd = np.exp(logits - logits.max(axis=1, keepdims=True))
    return Hd, expd / expd.sum(axis=1, keepdims=True)


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


def _forward(theta: ActorParams, X, inv, a_hat, a_til, noise):
    """Batch forward pass over the rows ``X[inv]``: the (expert CE, adverse CE,
    KL) batch means and the activations that backpropagation reads. The encoder
    runs once per row of ``X``; the batch row ``m`` reads encoder row ``inv[m]``."""
    H1, H2, MU, LS_pre, LS = _encode_batch(theta, X)
    SIG = np.exp(LS)
    MU_rows, SIG_rows = MU[inv], SIG[inv]
    Z = MU_rows + SIG_rows * noise
    Hd, P = _decode_batch(theta, Z)
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


def _loss_and_grad(theta: ActorParams, X, inv, a_hat, a_til, noise, cfg: TrainConfig):
    """:func:`aib_loss` of the batch rows ``X[inv]`` plus analytic backpropagation.
    Returns (loss, grads dict)."""
    components, (H1, H2, LS_pre, MU_rows, SIG_rows, Z, Hd, P) = _forward(
        theta, X, inv, a_hat, a_til, noise)
    M = len(inv)
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

    # latent: per batch row, then summed onto the encoder row each batch row read
    fold = (inv == np.arange(X.shape[0])[:, None]).astype(np.float64)
    dMU = fold @ (dZ + (cfg.beta / M) * MU_rows)
    dLS = fold @ (dZ * noise * SIG_rows + (cfg.beta / M) * (SIG_rows**2 - 1.0))
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
    return _pick(theta, mu, log_sigma, mode, rng)


def _pick(theta: ActorParams, mu, log_sigma, mode: str, rng: np.random.Generator | None) -> int:
    """:func:`act` on an observation already encoded to ``(mu, log_sigma)``."""
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


def _sgd_step(theta: ActorParams, X, inv, a_hat, a_til, noise, cfg: TrainConfig) -> float:
    loss, g = _loss_and_grad(theta, X, inv, a_hat, a_til, noise, cfg)
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


class _Labels:
    """The labels of the states :func:`train` visits, handed back in the order it asks.

    A state's labels come from the memo (states up to chunk ``MEMO_CHUNKS``), from
    :func:`label_state` run when they are waited for, or, with ``helper``, from one
    forked process that labels a state while the parent runs the SGD step of the state
    before it. Labels
    depend on no weight and no random draw, so where they are computed changes no byte.
    Leaving the ``with`` block ends the helper process, however it is left.
    """

    def __init__(self, traces, manifest, params, horizon: int, helper: bool):
        self._job = traces, manifest, params, horizon
        self._helper = helper
        # (trace index, state) -> (expert level, adverse level), for states up to chunk MEMO_CHUNKS
        self._memo: dict[tuple[int, SessionState], tuple[int, int]] = {}
        self._pending: deque = deque()  # (k, state, memo key or None, labels or None)
        self._conn = self._process = None

    def __enter__(self):
        if self._helper:
            import multiprocessing

            context = multiprocessing.get_context("fork")
            self._conn, child_end = context.Pipe()
            self._process = context.Process(target=self._serve, args=(child_end, self._conn))
            # SIGINT stays blocked across the fork, so a Ctrl-C that comes before the
            # helper ignores it still reaches only the parent
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                self._process.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                child_end.close()
        return self

    def __exit__(self, *exc_info):
        if self._process is not None:
            self._process.terminate()
            self._process.join()
            self._conn.close()

    def _compute(self, k: int, state: SessionState) -> tuple[int, int]:
        traces, manifest, params, horizon = self._job
        solution, a_til = label_state(state, traces[k], manifest, params, horizon)
        return solution.levels[0], a_til

    def _serve(self, conn, parent_end) -> None:
        """The helper process: label each (trace index, state) the parent sends, in
        order, and reply with the labels or the exception raised, until the parent's
        end of the pipe closes (it exited, or was killed)."""
        parent_end.close()
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # a Ctrl-C ends the parent, which ends this
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        try:
            while True:
                request = _polled_recv(conn)
                try:
                    reply = self._compute(*request)
                except Exception as exc:
                    reply = exc
                conn.send(reply)
        except (EOFError, OSError):
            return

    def request(self, k: int, state: SessionState) -> None:
        """Ask for the labels of ``state`` on trace ``k``. Without the helper they are
        computed when waited for, so an error raised labelling a state surfaces at the
        same point of training on both paths."""
        key = (k, state) if state.next_chunk <= MEMO_CHUNKS else None
        labels = self._memo.get(key) if key else None
        if labels is None and self._conn is not None:
            try:
                self._conn.send((k, state))
            except OSError:
                raise RuntimeError("a worker process died") from None
        self._pending.append((k, state, key, labels))

    def wait(self) -> tuple[int, int]:
        """The labels of the oldest state asked for and not yet handed back."""
        k, state, key, labels = self._pending.popleft()
        if labels is None and self._conn is None:
            labels = self._compute(k, state)
        elif labels is None:
            try:
                labels = _polled_recv(self._conn)
            except (EOFError, OSError):
                raise RuntimeError("a worker process died") from None
            if isinstance(labels, Exception):
                raise labels
        if key:
            self._memo[key] = labels
        return labels


def _polled_recv(conn):
    """``conn.recv()``, waiting by polling. On a shared 2-vCPU VM a process blocked in
    ``recv`` often woke late: with blocking waits on either side, training runs that
    took 8-11 s with polling on both took 9-22 s, some slower than one process."""
    while not conn.poll(0):
        pass
    return conn.recv()


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
    up to chunk ``MEMO_CHUNKS`` are kept as two ints and reused when a later
    epoch reaches the same state (the memo holds at most
    ``len(traces) * n_levels**(MEMO_CHUNKS - 1)`` states per chunk, whatever
    the epoch count); a visited state is encoded once for both its greedy and
    its sampled action; and an SGD step encodes each distinct observation of
    its minibatch once.

    A chunk steps the session before its SGD step, which reads the weights and
    the generator that stepping does not, and asks for the next state's labels
    first. With ``helper``, one forked process computes them meanwhile, so the
    labels of state t+1 and the SGD step of state t run at once; a helper that
    dies raises ``RuntimeError``. The pipeline is one state deep: state t+2
    depends on the weights after step t. The helper pays only on a CPU that
    no BLAS thread of the SGD step uses (see the package's BLAS default).
    """
    if not traces:
        raise DomainError("training needs at least one trace")
    rng = np.random.default_rng(cfg.seed)
    obs_dim = observation_size(manifest, cfg.history_k)
    theta = init_actor(obs_dim, manifest.n_levels, cfg.latent_dim, cfg.hidden_dim, cfg.seed)

    # the epoch's samples: visited state i has observation X[i] and labels levels[:, i]
    X = np.empty((manifest.chunk_count, obs_dim))
    levels = np.empty((2, manifest.chunk_count), dtype=np.int64)
    ema = None
    loss_curve: list[float] = []
    agreement_curve: list[float] = []
    with _Labels(traces, manifest, params, cfg.horizon, helper) as labels:
        for _epoch in range(cfg.epochs):
            k = int(rng.integers(len(traces)))
            trace = traces[k]
            state = initial_state(manifest, params, history_k=cfg.history_k)
            labels.request(k, state)
            n = agreements = 0
            while not state.terminal:
                obs = observe(state, manifest)
                mu, log_sigma = encode(theta, obs)
                greedy = _pick(theta, mu, log_sigma, "greedy", None)
                behavior = _pick(theta, mu, log_sigma, "sample", rng)
                _outcome, state = step(state, trace, manifest, params, behavior)
                if not state.terminal:
                    labels.request(k, state)
                expert, adverse = labels.wait()
                X[n], levels[:, n] = obs, (expert, adverse)
                agreements += int(greedy == expert)
                n += 1

                idx = rng.choice(n, size=cfg.minibatch, replace=n < cfg.minibatch)
                noise = rng.standard_normal((cfg.minibatch, cfg.latent_dim))
                distinct, inv = np.unique(idx, return_inverse=True)
                loss = _sgd_step(theta, X[distinct], inv, *levels[:, idx], noise, cfg)
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


def save_checkpoint(theta: ActorParams, config: dict | None = None) -> str:
    """Versioned JSON checkpoint; floats round-trip exactly."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        **{name: getattr(theta, name) for name in _HEADER_FIELDS},
        "config": config or {},
        "weights": {name: getattr(theta, name).tolist() for name in _WEIGHT_FIELDS},
    }
    return json.dumps(doc, sort_keys=True) + "\n"


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
