"""Run-level metrics and the theory-side bound checks.

Conventions used throughout:
  * per-arm mean rewards come from the offline oracle replay, and the gap of
    an arm is ``best_mean - mean`` computed once in float64 and reused, so
    the regret decomposition identity holds bit-for-bit;
  * cumulative regret sums per-round gaps with ``math.fsum`` (correctly
    rounded), making it exactly equal to the gap/pull-count dot product;
  * empirical risk is the expected-error view (one minus the mean correct
    probability at the exit), reported next to the realized error rate.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .bandit import RunTrace


def arm_gaps(per_arm_means: dict[float, float], best_mean: Optional[float] = None) -> dict[float, float]:
    """Suboptimality gap of every arm; the best arm gets exactly 0.0."""
    if not per_arm_means:
        raise ValueError("per_arm_means is empty")
    if best_mean is None:
        best_mean = max(per_arm_means.values())
    return {arm: best_mean - mean for arm, mean in per_arm_means.items()}


def positive_gaps(gaps: dict[float, float]) -> list[float]:
    return [g for g in gaps.values() if g > 0.0]


def _per_round_gaps(trace: RunTrace, gaps: dict[float, float]) -> list[float]:
    out = []
    for arm in trace.arms:
        if arm not in gaps:
            raise ValueError(f"arm {arm!r} missing from per-arm means")
        out.append(gaps[arm])
    return out


def cumulative_regret(
    trace: RunTrace,
    per_arm_means: dict[float, float],
    best_mean: Optional[float] = None,
) -> float:
    """Sum of per-round gaps; equals sum(gap[a] * pulls[a]) exactly."""
    gaps = arm_gaps(per_arm_means, best_mean)
    return math.fsum(_per_round_gaps(trace, gaps))


def regret_curve(
    trace: RunTrace,
    per_arm_means: dict[float, float],
    best_mean: Optional[float] = None,
) -> np.ndarray:
    """Running cumulative regret after each round."""
    gaps = arm_gaps(per_arm_means, best_mean)
    return np.cumsum(np.asarray(_per_round_gaps(trace, gaps), dtype=np.float64))


def attach_regret(
    trace: RunTrace,
    per_arm_means: dict[float, float],
    best_mean: Optional[float] = None,
) -> RunTrace:
    trace.cum_regret = regret_curve(trace, per_arm_means, best_mean)
    return trace


def beta_bound(gaps: list[float], num_rounds: int) -> float:
    """Instance-dependent regret ceiling: sum over gaps of 8*ln(T)/gap + gap.

    Accepts only strictly positive gaps (zero-gap arms contribute no regret
    and must be filtered out first). Empty input means a single-arm instance
    and bounds regret by zero.
    """
    if num_rounds <= 1:
        raise ValueError("num_rounds must exceed 1")
    log_t = math.log(num_rounds)
    total = 0.0
    for gap in gaps:
        if gap <= 0.0:
            raise ValueError(f"gap {gap!r} not positive")
        total += 8.0 * log_t / gap + gap
    return total


def empirical_risk(trace: RunTrace) -> tuple[float, float]:
    """(expected error at exit, realized error rate).

    The first term averages 1 - correct_prob at the chosen exit and is the
    quantity the risk bound constrains; the second is its Bernoulli
    realization, reported for sanity.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    expected = 1.0 - float(np.mean(trace.correct_probs))
    realized = 1.0 - float(np.mean(trace.realized))
    return expected, realized


def mean_exit_layer(trace: RunTrace) -> float:
    if len(trace) == 0:
        raise ValueError("empty trace")
    return float(np.mean(trace.exit_layers))


def speedup(trace: RunTrace) -> float:
    """Depth compression factor: num_layers / mean exit layer."""
    return trace.num_layers / mean_exit_layer(trace)


def per_arm_pulls(trace: RunTrace) -> dict[float, int]:
    counts = Counter(trace.arms)
    return dict(counts)


def delta1_hat(trace: RunTrace, tol: float = 0.1) -> float:
    """Fraction of rounds where the exit's reliability score misses the true
    correctness probability by more than ``tol``."""
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    if len(trace) == 0:
        raise ValueError("empty trace")
    err = np.abs(trace.reliabilities - trace.correct_probs)
    return float(np.mean(err > tol))


def risk_bound_check(
    risk: float,
    epsilon_star: float,
    beta_t: float,
    num_rounds: int,
    lam: float,
    num_layers: int,
) -> tuple[bool, dict[str, float]]:
    """Does measured risk stay within epsilon* + beta(T)/T + lam*L?

    Inclusive at the boundary. Returns the verdict plus a term-by-term
    report for logging.
    """
    if num_rounds < 1:
        raise ValueError("num_rounds must be >= 1")
    exploration = beta_t / num_rounds
    slack = lam * num_layers
    rhs = epsilon_star + exploration + slack
    report = {
        "risk": risk,
        "epsilon_star": epsilon_star,
        "exploration_term": exploration,
        "penalty_slack": slack,
        "bound": rhs,
        "margin": rhs - risk,
    }
    return risk <= rhs, report


@dataclass
class RunSummary:
    """Flat, JSON-ready digest of one policy run."""

    policy: str
    seed: Optional[int]
    num_rounds: int
    num_layers: int
    variant: str
    criterion: str
    lam: float
    epsilon: Optional[float]
    best_arm: float
    epsilon_star: float
    epsilon_d: Optional[float]
    cumulative_regret: float
    regret_bound: float
    empirical_risk: float
    realized_error_rate: float
    mean_exit_layer: float
    speedup: float
    delta1_hat: float
    calibration_tol: float
    risk_bound_rhs: float
    risk_bound_holds: bool
    per_arm_pulls: dict[str, int]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


FINAL_ARM_TOKEN = "final"


def arm_key(arm: Optional[float]) -> str:
    """An arm's printed text: its threshold to 9 significant digits, or "final"."""
    return FINAL_ARM_TOKEN if arm is None else format(arm, ".9g")


def summarize(
    trace: RunTrace,
    per_arm_means: dict[float, float],
    best_arm: float,
    *,
    epsilon_star: float,
    epsilon: Optional[float] = None,
    calibration_tol: float = 0.1,
) -> RunSummary:
    """Full metric sweep for one run against oracle per-arm means.

    ``epsilon_star`` is the oracle arm's own empirical risk; the means map
    cannot supply it, since a mean reward is a score minus a depth penalty,
    not an accuracy.
    """
    params = trace.reward_params
    best_mean = per_arm_means[best_arm]
    gaps = arm_gaps(per_arm_means, best_mean)
    regret = cumulative_regret(trace, per_arm_means, best_mean)
    bound = beta_bound(positive_gaps(gaps), len(trace))
    risk, realized = empirical_risk(trace)
    holds, report = risk_bound_check(
        risk, epsilon_star, bound, len(trace), params.lam, params.num_layers,
    )
    pulls = Counter(arm_key(a) for a in trace.arms)
    return RunSummary(
        policy=trace.policy,
        seed=trace.seed,
        num_rounds=len(trace),
        num_layers=trace.num_layers,
        variant=params.variant.value,
        criterion=trace.criterion.value,
        lam=params.lam,
        epsilon=epsilon,
        best_arm=best_arm,
        epsilon_star=epsilon_star,
        epsilon_d=None if epsilon is None else epsilon + epsilon_star,
        cumulative_regret=regret,
        regret_bound=bound,
        empirical_risk=risk,
        realized_error_rate=realized,
        mean_exit_layer=mean_exit_layer(trace),
        speedup=speedup(trace),
        delta1_hat=delta1_hat(trace, calibration_tol),
        calibration_tol=calibration_tol,
        risk_bound_rhs=report["bound"],
        risk_bound_holds=holds,
        per_arm_pulls=dict(pulls),
    )
