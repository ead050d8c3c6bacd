"""Online exit-threshold adaptation for multi-exit inference, simulated.

The package couples a bandit over candidate exit thresholds with a synthetic
multi-exit sample stream: each round the policy picks a threshold, the exit
rule walks the layers until the exit score clears it, and the observed
score minus a depth penalty feeds back as reward. Baseline policies, a
trainable reliability scorer, bound-checking metrics, and a CLI harness
round out the toolkit.

This namespace holds the entry points that README.md documents; every other
name is imported from its module (for example ``exitbandit.metrics.beta_bound``).
"""

from .bandit import (
    BanditState,
    RewardParams,
    RewardVariant,
    RunTrace,
    UcbPolicy,
    reward,
    run,
    run_many,
    run_policy,
)
from .baselines import (
    FinalLayerPolicy,
    FixedPolicy,
    RandomPolicy,
    oracle_best_arm,
    replay_arm,
)
from .env import (
    GeneratorParams,
    SampleOutcomes,
    ShiftSchedule,
    ThresholdGrid,
    default_grid,
)
from .exits import Criterion, ExitDecision, decide, exit_distribution
from .harness import (
    ConfigError,
    ExperimentConfig,
    analyze,
    load_config,
    parse_config,
    run_experiment,
    sweep,
    train_reliability,
)
from .metrics import (
    RunSummary,
    cumulative_regret,
    empirical_risk,
    speedup,
    summarize,
)
from .reliability import (
    ReliabilityModel,
    compute_c_from_samples,
    dataset_from_samples,
    train,
)
from .simulator import iter_samples, round_rng, stream

__all__ = [
    # env
    "GeneratorParams", "SampleOutcomes", "ShiftSchedule", "ThresholdGrid", "default_grid",
    # simulator
    "iter_samples", "round_rng", "stream",
    # exits
    "Criterion", "ExitDecision", "decide", "exit_distribution",
    # bandit
    "BanditState", "RewardParams", "RewardVariant", "RunTrace", "UcbPolicy",
    "reward", "run", "run_many", "run_policy",
    # baselines
    "FinalLayerPolicy", "FixedPolicy", "RandomPolicy", "oracle_best_arm", "replay_arm",
    # metrics
    "RunSummary", "cumulative_regret", "empirical_risk", "speedup", "summarize",
    # harness
    "ConfigError", "ExperimentConfig", "analyze", "load_config", "parse_config",
    "run_experiment", "sweep", "train_reliability",
    # reliability
    "ReliabilityModel", "compute_c_from_samples", "dataset_from_samples", "train",
]

__version__ = "0.1.0"
