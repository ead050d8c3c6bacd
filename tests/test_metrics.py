"""Metric and bound arithmetic against frozen oracles and exact identities."""

import json
import math

import numpy as np
import pytest

from conftest import make_trace
from exitbandit import (
    Criterion,
    GeneratorParams,
    RewardParams,
    ShiftSchedule,
    ThresholdGrid,
    cumulative_regret,
    empirical_risk,
    oracle_best_arm,
    replay_arm,
    speedup,
    stream,
    summarize,
)
from exitbandit.exits import layer_score
from exitbandit.metrics import (
    arm_gaps,
    attach_regret,
    beta_bound,
    delta1_hat,
    mean_exit_layer,
    per_arm_pulls,
    positive_gaps,
    regret_curve,
    risk_bound_check,
)


class TestGaps:
    def test_best_arm_gap_is_exactly_zero(self):
        gaps = arm_gaps({0.5: 0.7, 0.6: 0.9, 0.7: 0.8})
        assert gaps[0.6] == 0.0
        assert gaps[0.5] == pytest.approx(0.2, abs=1e-12)

    def test_positive_gaps_filters_the_best(self):
        gaps = arm_gaps({0.5: 0.7, 0.6: 0.9})
        assert positive_gaps(gaps) == [pytest.approx(0.2)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            arm_gaps({})


class TestCumulativeRegret:
    def test_always_best_is_zero(self):
        trace = make_trace(arms=[0.6] * 5, exit_layers=[1] * 5)
        assert cumulative_regret(trace, {0.5: 0.7, 0.6: 0.9}) == 0.0

    def test_small_hand_case(self):
        trace = make_trace(arms=[0.5, 0.6, 0.5], exit_layers=[1, 1, 1])
        got = cumulative_regret(trace, {0.5: 0.8, 0.6: 0.7})
        assert got == pytest.approx(0.1, abs=1e-9)

    def test_matches_per_round_summation_oracle(self):
        rng = np.random.default_rng(2)
        grid_values = (0.5, 0.6, 0.7, 0.8)
        arms = [float(grid_values[i]) for i in rng.integers(0, 4, size=1000)]
        trace = make_trace(arms=arms, exit_layers=[1] * 1000)
        means = {0.5: 0.71, 0.6: 0.84, 0.7: 0.62, 0.8: 0.9}
        best = 0.9
        expected = 0.0
        for a in arms:
            expected += best - means[a]
        got = cumulative_regret(trace, means)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_missing_arm_rejected(self):
        trace = make_trace(arms=[0.5, 0.9], exit_layers=[1, 1])
        with pytest.raises(ValueError, match="missing"):
            cumulative_regret(trace, {0.5: 0.8})

    def test_curve_and_attach(self):
        trace = make_trace(arms=[0.5, 0.6, 0.5], exit_layers=[1, 1, 1])
        means = {0.5: 0.8, 0.6: 0.7}
        curve = regret_curve(trace, means)
        assert curve.shape == (3,)
        assert curve[-1] == pytest.approx(cumulative_regret(trace, means))
        attach_regret(trace, means)
        np.testing.assert_array_equal(trace.cum_regret, curve)


class TestBetaBound:
    def test_arithmetic_oracle(self):
        assert beta_bound([0.1], 1000) == pytest.approx(552.7204, abs=1e-3)

    def test_no_suboptimal_arms(self):
        assert beta_bound([], 5000) == 0.0

    def test_unit_log_case(self):
        assert beta_bound([1.0], math.e) == pytest.approx(9.0, abs=1e-12)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            beta_bound([0.0], 100)
        with pytest.raises(ValueError):
            beta_bound([-0.1], 100)

    def test_rejects_tiny_horizon(self):
        with pytest.raises(ValueError):
            beta_bound([0.1], 1)

    def test_monotone_in_horizon(self):
        assert beta_bound([0.2], 10_000) < beta_bound([0.2], 100_000)


class TestEmpiricalRisk:
    def test_expected_error_hand_case(self):
        trace = make_trace(
            arms=[0.5] * 3, exit_layers=[1] * 3, correct_probs=[1.0, 0.8, 0.6]
        )
        assert empirical_risk(trace)[0] == pytest.approx(0.2, abs=1e-12)

    def test_perfect_stream_has_zero_risk(self):
        trace = make_trace(arms=[0.5] * 4, exit_layers=[1] * 4)
        assert empirical_risk(trace) == (0.0, 0.0)

    def test_realized_rate_concentrates_for_unconditional_exits(self):
        # the final-layer policy never conditions on the score, so its
        # realized error rate is a plain Bernoulli mean of the expected one
        from exitbandit import FinalLayerPolicy, default_grid, run_policy

        samples = stream(ShiftSchedule.constant(GeneratorParams()), 10_000, seed=33)
        params = RewardParams(lam=0.01 / 12, num_layers=12)
        trace = run_policy(FinalLayerPolicy(), samples, params, grid=default_grid())
        expected, realized = empirical_risk(trace)
        sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / 10_000)
        assert abs(realized - expected) <= 3 * sigma

    def test_threshold_exits_realize_at_most_the_expected_risk(self):
        # crossing a high threshold selects layers whose prediction came out
        # right (wrong predictions carry near-zero confidence), so the
        # realized rate sits at or below the expected rate
        samples = stream(ShiftSchedule.constant(GeneratorParams()), 10_000, seed=33)
        trace = replay_arm(0.8, samples, RewardParams(lam=0.01 / 12, num_layers=12))
        expected, realized = empirical_risk(trace)
        assert realized <= expected
        assert expected == pytest.approx(0.0376, abs=0.005)

    def test_empty_rejected(self):
        trace = make_trace(arms=[], exit_layers=[])
        with pytest.raises(ValueError):
            empirical_risk(trace)


class TestSpeedup:
    def test_hand_case(self):
        trace = make_trace(arms=[0.5] * 3, exit_layers=[6, 12, 6])
        assert speedup(trace) == 1.5

    def test_all_final(self):
        trace = make_trace(arms=[0.5] * 3, exit_layers=[12, 12, 12])
        assert speedup(trace) == 1.0

    def test_all_first_layer(self):
        trace = make_trace(arms=[0.5] * 2, exit_layers=[1, 1], num_layers=24)
        assert speedup(trace) == 24.0

    def test_mean_exit_layer(self):
        trace = make_trace(arms=[0.5] * 2, exit_layers=[3, 5])
        assert mean_exit_layer(trace) == 4.0


class TestPulls:
    def test_counter(self):
        trace = make_trace(arms=[0.5, 0.7, 0.5, None], exit_layers=[1, 1, 1, 12])
        assert per_arm_pulls(trace) == {0.5: 2, 0.7: 1, None: 1}


class TestDelta1Hat:
    def test_perfectly_calibrated_scorer(self):
        cps = [0.3, 0.6, 0.9]
        trace = make_trace(
            arms=[0.5] * 3, exit_layers=[1] * 3,
            correct_probs=cps, reliabilities=cps,
        )
        assert delta1_hat(trace, 0.1) == 0.0

    def test_fully_miscalibrated_scorer(self):
        # scorer insists on full risk while every prediction is correct
        trace = make_trace(
            arms=[0.5] * 4, exit_layers=[1] * 4,
            correct_probs=[1.0] * 4, reliabilities=[0.0] * 4,
        )
        for tol in (0.05, 0.5, 0.99):
            assert delta1_hat(trace, tol) == 1.0

    def test_tol_domain(self):
        trace = make_trace(arms=[0.5], exit_layers=[1])
        with pytest.raises(ValueError):
            delta1_hat(trace, 0.0)
        with pytest.raises(ValueError):
            delta1_hat(trace, 1.0)

    @pytest.mark.xfail(
        strict=True,
        reason="the trained scorer is rank-calibrated, not value-calibrated: "
        "its scores sit in a narrow band (0.46-0.60) regardless of regime, so "
        "the measured disagreement with the true correctness probability is "
        "0.92 of the holdout rows instead of the targeted 0.15",
    )
    def test_trained_scorer_value_calibration(self):
        from exitbandit import compute_c_from_samples, dataset_from_samples, train
        from exitbandit.reliability import batch_scores
        from exitbandit.simulator import sample_block

        sch = ShiftSchedule.constant(GeneratorParams(reliability_signal=0.9))
        train_block = sample_block(sch, 1500, seed=31)
        model = train(
            dataset_from_samples(train_block),
            compute_c_from_samples(train_block),
        )
        holdout = sample_block(sch, 3000, seed=33)
        scores = batch_scores(model, dataset_from_samples(holdout))
        # a Dataset's rows run layer by layer, so the block's columns go in transposed
        correct_prob = holdout.correct_prob.T.ravel()
        assert np.mean(np.abs(scores - correct_prob) > 0.2) <= 0.15


def joint_score(confidence, correctness):
    # the product exit criterion, with correctness as 1 - reliability risk
    return layer_score(confidence, 1.0 - correctness, Criterion.PRODUCT)


class TestLemma1Check:
    def test_certain_prediction(self):
        assert joint_score(1.0, 0.37) == pytest.approx(0.37, abs=1e-15)

    def test_zero_correctness(self):
        assert joint_score(0.44, 0.0) == 0.0

    def test_product_case(self):
        assert joint_score(0.9, 0.8) == pytest.approx(0.72, abs=1e-12)

    def test_argmax_invariant_under_confidence_rescaling(self):
        rng = np.random.default_rng(4)
        conf = rng.random(16)
        correct = rng.random(16)
        joint = joint_score(conf, correct)
        for scale in (0.25, 0.5, 0.99):
            assert int(np.argmax(joint_score(scale * conf, correct))) == int(np.argmax(joint))


class TestRiskBoundCheck:
    def test_boundary_inclusive(self):
        holds, report = risk_bound_check(
            risk=0.05, epsilon_star=0.05, beta_t=0.0, num_rounds=100,
            lam=0.0, num_layers=12,
        )
        assert holds
        assert report["margin"] == 0.0

    def test_excess_risk_fails(self):
        rhs = 0.05 + 0.01 + 0.3 / 100
        holds, _ = risk_bound_check(
            risk=rhs + 0.01, epsilon_star=0.05, beta_t=0.3, num_rounds=100,
            lam=0.01 / 12, num_layers=12,
        )
        assert not holds

    def test_report_terms(self):
        _, report = risk_bound_check(
            risk=0.1, epsilon_star=0.04, beta_t=50.0, num_rounds=1000,
            lam=0.001, num_layers=10,
        )
        assert report["exploration_term"] == 0.05
        assert report["penalty_slack"] == pytest.approx(0.01)
        assert report["bound"] == pytest.approx(0.04 + 0.05 + 0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            risk_bound_check(0.1, 0.1, 1.0, 0, 0.0, 12)


class TestSummarize:
    def test_full_digest_consistency(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams()), 400, seed=9)
        params = RewardParams(lam=0.01 / 12, num_layers=12)
        grid = ThresholdGrid((0.5, 0.8, 1.0))
        from exitbandit import run

        trace = run(grid, samples, params, seed=9)
        best, means = oracle_best_arm(grid, samples, params)
        best_trace = replay_arm(best, samples, params, grid=grid)
        eps_star = empirical_risk(best_trace)[0]
        summary = summarize(
            trace, means, best, epsilon=0.01, epsilon_star=eps_star,
        )
        assert summary.policy == "ucb"
        assert summary.num_rounds == 400
        assert summary.best_arm == best
        assert summary.epsilon_d == pytest.approx(0.01 + eps_star)
        assert summary.cumulative_regret == pytest.approx(
            cumulative_regret(trace, means), abs=1e-12
        )
        assert summary.risk_bound_rhs == pytest.approx(
            eps_star + summary.regret_bound / 400 + params.lam * 12
        )
        assert sum(summary.per_arm_pulls.values()) == 400
        parsed = json.loads(summary.to_json())
        assert parsed["variant"] == "product_penalized"
        assert parsed["speedup"] == pytest.approx(speedup(trace))
