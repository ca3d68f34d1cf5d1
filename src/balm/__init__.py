"""Bundle adjustment with learned and scheduled Levenberg-Marquardt damping.

The package is organised bottom-up:

- :mod:`balm.scene` — BAL-convention scenes: camera/point containers, Rodrigues
  rotation, projection with radial distortion, synthetic scene generation, and
  BAL text (de)serialization.
- :mod:`balm.solver` — damped Levenberg-Marquardt with a Schur-complement
  camera system, the classic damping schedule, and the `solve` driver.
- :mod:`balm.policy` — the policy interface the solver consults for the next
  damping value, plus classic / fixed / scheduler / learned implementations.
- :mod:`balm.env` — the solver wrapped as a sequential decision environment
  (episode observations, duration rewards, episode bookkeeping).
- :mod:`balm.nn` — a small from-scratch MLP stack (forward, backprop, Adam,
  checkpoints) used by both learners.
- :mod:`balm.sac` — soft actor-critic training of the damping agent.
- :mod:`balm.baselines` — the greedy one-step-oracle regression baseline.
- :mod:`balm.bench` — comparison runs, aggregate tables, performance profiles,
  schedule extraction, and the ablation suite.
- :mod:`balm.cli` — the ``balm`` command line (generate / solve / train /
  eval / profile / ablate).
"""

import os

# One BLAS thread unless the environment says otherwise (README, Reproducibility).
# It binds only before numpy loads: here, as ``python -m balm`` runs this first.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .scene import (
    BAProblem,
    BalParseError,
    CameraPose,
    DegenerateDepthError,
    Observation,
    Point3,
    SceneGenerationError,
    generate_synthetic,
    parse_bal,
    project,
    project_many,
    rotate_points,
    serialize_bal,
)
from .solver import (
    IterationRecord,
    NumericalFailureError,
    SingularSystemError,
    SolveResult,
    damped_step,
    estimation_error,
    evaluate_steps,
    linearize,
    lm_iterate,
    solve,
)
from .policy import (
    AgentPolicy,
    ClassicPolicy,
    ConstantSchedulerPolicy,
    DampingPolicy,
    FixedPolicy,
    PolicyObservation,
    ZeroNetPolicy,
)
from .env import BAEnv, EnvConfig, StepOutcome, compute_reward
from .sac import (
    AgentNets,
    NonFiniteLossError,
    TrainConfig,
    init_agent,
    lambda_from_action,
    load_agent_checkpoint,
    save_agent_checkpoint,
    select_action,
    train_agent,
)
from .baselines import (
    ZeroNetConfig,
    init_zero_net,
    load_zero_net_checkpoint,
    save_zero_net_checkpoint,
    zero_net_oracle,
    zero_net_train,
)
from .bench import (
    ComparisonTable,
    ProfilePoint,
    RunRecord,
    ablation_suite,
    extract_schedule,
    performance_profile,
    run_comparison,
    suite_scene,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # scene
    "BAProblem",
    "BalParseError",
    "CameraPose",
    "DegenerateDepthError",
    "Observation",
    "Point3",
    "SceneGenerationError",
    "generate_synthetic",
    "parse_bal",
    "project",
    "project_many",
    "rotate_points",
    "serialize_bal",
    # solver
    "IterationRecord",
    "NumericalFailureError",
    "SingularSystemError",
    "SolveResult",
    "damped_step",
    "estimation_error",
    "evaluate_steps",
    "linearize",
    "lm_iterate",
    "solve",
    # policy
    "AgentPolicy",
    "ClassicPolicy",
    "ConstantSchedulerPolicy",
    "DampingPolicy",
    "FixedPolicy",
    "PolicyObservation",
    "ZeroNetPolicy",
    # env
    "BAEnv",
    "EnvConfig",
    "StepOutcome",
    "compute_reward",
    # sac
    "AgentNets",
    "NonFiniteLossError",
    "TrainConfig",
    "init_agent",
    "lambda_from_action",
    "load_agent_checkpoint",
    "save_agent_checkpoint",
    "select_action",
    "train_agent",
    # baselines
    "ZeroNetConfig",
    "init_zero_net",
    "load_zero_net_checkpoint",
    "save_zero_net_checkpoint",
    "zero_net_oracle",
    "zero_net_train",
    # bench
    "ComparisonTable",
    "ProfilePoint",
    "RunRecord",
    "ablation_suite",
    "extract_schedule",
    "performance_profile",
    "run_comparison",
    "suite_scene",
]
