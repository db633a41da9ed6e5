"""Trace-driven adaptive-bitrate workbench.

Building blocks: throughput traces (`trace`), video manifests and QoE
weights (`media`), the chunk-level DASH session engine (`simulator`), online
baseline policies (`policies`), offline expert solvers (`expert`), the
stochastic-latent imitation actor (`learner`), metrics and ranking
(`metrics`), and the CLI (`cli`).
"""

from .errors import BudgetError, DomainError, ParseError, UsageError
from .expert import (
    ExpertProblem,
    ExpertSolution,
    problem_from_state,
    solve_expert_ao,
    solve_expert_dp,
    solve_expert_enum,
    solve_fixed_throughput,
)
from .learner import (
    ActorParams,
    LabeledState,
    TrainConfig,
    act,
    aib_loss,
    aib_loss_components,
    decode,
    encode,
    grad_aib,
    init_actor,
    label_state,
    load_checkpoint,
    reparameterize,
    save_checkpoint,
    train,
)
from .media import (
    QoEParams,
    VideoManifest,
    cbr_manifest,
    dump_manifest,
    load_manifest,
    preset,
    preset_names,
    with_vbr_sizes,
)
from .metrics import QoEComponents, compare, rank_points, session_metrics
from .policies import (
    PolicyConfig,
    decide_buffer_based,
    decide_robust_mpc,
    harmonic_mean,
    make_policy,
    mpc_throughput_prediction,
)
from .simulator import (
    SessionLog,
    SessionState,
    StepOutcome,
    initial_state,
    observation_size,
    observe,
    run_session,
    session_to_jsonl,
    step,
)
from .trace import (
    Trace,
    TraceModel,
    integrate_throughput,
    load_trace,
    save_trace,
    synth_trace,
    transfer_time,
)

__version__ = "0.1.0"
