"""Online exit-threshold adaptation for multi-exit inference, simulated.

The package couples a bandit over candidate exit thresholds with a synthetic
multi-exit sample stream: each round the policy picks a threshold, the exit
rule walks the layers until the exit score clears it, and the observed
score minus a depth penalty feeds back as reward. Baseline policies, a
trainable reliability scorer, bound-checking metrics, and a CLI harness
round out the toolkit.
"""

from .bandit import (
    BanditState,
    RewardParams,
    RewardVariant,
    RunTrace,
    UcbPolicy,
    has_penalty,
    lambda_from_epsilon,
    natural_criterion,
    reward,
    run,
    run_many,
    run_policy,
    ucb_index,
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
    active_params,
    default_grid,
)
from .exits import Criterion, ExitDecision, decide, exit_distribution, layer_score
from .harness import (
    ConfigError,
    ExperimentConfig,
    PolicySpec,
    analyze,
    benchmark_overhead,
    load_config,
    parse_config,
    read_trace_csv,
    run_experiment,
    run_single,
    sweep,
    train_reliability,
    write_trace_csv,
)
from .metrics import (
    RunSummary,
    arm_gaps,
    attach_regret,
    beta_bound,
    cumulative_regret,
    delta1_hat,
    empirical_risk,
    hoeffding_ci,
    mean_exit_layer,
    per_arm_pulls,
    positive_gaps,
    regret_curve,
    risk_bound_check,
    speedup,
    summarize,
)
from .reliability import (
    CoverageTargets,
    Dataset,
    Hyperparams,
    ReliabilityModel,
    auc_score,
    aggregate_loss,
    batch_scores,
    compute_c,
    compute_c_from_samples,
    coverage,
    dataset_from_samples,
    finite_difference_gradient,
    hinge_sq,
    loss_interference_experiment,
    objective,
    objective_gradient,
    per_exit_coverage,
    per_exit_loss,
    rescore_sample,
    rescore_stream,
    score,
    train,
)
from .simulator import generate_sample, iter_samples, round_rng, stream

__version__ = "0.1.0"
