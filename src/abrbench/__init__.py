"""Trace-driven adaptive-bitrate workbench.

Building blocks: throughput traces (`trace`), video manifests and QoE
weights (`media`), the chunk-level DASH session engine (`simulator`), online
baseline policies (`policies`), offline expert solvers (`expert`), the
stochastic-latent imitation actor (`learner`), metrics and ranking
(`metrics`), and the CLI (`cli`).
"""

import os

# numpy's BLAS fixes its thread count when numpy is first imported, so the default is set
# here, ahead of it. The matrices here are small enough that one thread loses nothing, and
# it leaves the second CPU to train's label helper: beside OpenBLAS's default of a thread
# per CPU the helper made training 2.5 times slower (2-vCPU VM). A count the user sets stands.
# A caller that imported numpy first misses this default; train caps the loaded BLAS at run
# time while its helper runs instead (workers.one_blas_thread).
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

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
