"""The exit rule's three forms agree with decide, and every reward with reward().

decide (one sample, one threshold) is the reference. ExitScan answers many
thresholds on one sample, run_many plays several policies on it per round,
and exit_columns (directly and via oracle_best_arm) answers a whole stream
one threshold at a time. Samples are drawn so that scores often equal a
threshold exactly, thresholds include 1.0, and policies repeat each other's
arms or force the final layer (arm None).
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_sample
from exitbandit import (
    Criterion,
    ExitDecision,
    GeneratorParams,
    RewardParams,
    RewardVariant,
    SampleOutcomes,
    ShiftSchedule,
    ThresholdGrid,
    decide,
    oracle_best_arm,
    replay_arm,
    reward,
    run_many,
    stream,
)
from exitbandit.exits import ExitScan, exit_columns, layer_score

THRESHOLDS = (0.25, 0.5, 0.6, 0.75, 0.9, 1.0)
GRID = ThresholdGrid(THRESHOLDS)
# products of these land exactly on grid values (0.75 * 1.0, 1.0 * 0.75, ...)
CONFIDENCES = st.one_of(st.sampled_from((0.0, 0.5, 0.6, 0.75, 1.0)),
                        st.floats(min_value=0.0, max_value=1.0))
RISKS = st.one_of(st.sampled_from((0.0, 0.25)), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def samples_of_depth(draw, num_layers, min_size=1, max_size=12):
    rounds = draw(st.integers(min_value=min_size, max_value=max_size))
    out = []
    for _ in range(rounds):
        layers = []  # one (conf, risk, cp, realized, features) row per layer
        for i in range(1, num_layers + 1):
            conf, risk = draw(CONFIDENCES), draw(RISKS)
            cp = draw(st.floats(min_value=0.0, max_value=1.0))
            layers.append((conf, risk, cp, draw(st.booleans()),
                           (conf, i / num_layers, 1.0 - risk)))
        out.append(SampleOutcomes(*zip(*layers)))
    return out


@st.composite
def stream_and_arm_scripts(draw):
    num_layers = draw(st.integers(min_value=2, max_value=6))
    samples = draw(samples_of_depth(num_layers))
    arm = st.sampled_from(THRESHOLDS + (None,))
    num_policies = draw(st.integers(min_value=1, max_value=5))
    scripts = [draw(st.lists(arm, min_size=len(samples), max_size=len(samples)))
               for _ in range(num_policies)]
    if draw(st.booleans()):
        scripts.append(list(scripts[0]))  # two policies playing identical arms
    return num_layers, samples, scripts


class ScriptedPolicy:
    """Plays a pre-drawn arm sequence; records what it observed."""

    def __init__(self, arms):
        self.arms = arms
        self.observed = []

    def select(self, round_number):
        return self.arms[round_number - 1]

    def observe(self, arm, reward_value):
        self.observed.append((arm, reward_value))


def reference_decision(sample, arm, criterion):
    """decide for a threshold; a None arm exits at the final layer."""
    if arm is None:
        s = layer_score(sample.confidence[-1], sample.reliability_risk[-1], criterion)
        return ExitDecision(sample.num_layers, s, False)
    return decide(sample, arm, criterion)


CRITERIA = st.sampled_from(list(Criterion))
VARIANTS = st.sampled_from(list(RewardVariant))
LAMBDAS = st.sampled_from((0.0, 0.01, 0.1 / 3, 0.25))


class TestExitScan:
    @given(data=st.data(), criterion=CRITERIA)
    @settings(max_examples=150, deadline=None)
    def test_every_threshold_order_matches_decide(self, data, criterion):
        num_layers = data.draw(st.integers(min_value=2, max_value=8))
        sample = data.draw(samples_of_depth(num_layers, max_size=1))[0]
        asks = data.draw(st.lists(st.sampled_from(THRESHOLDS + (None,)), max_size=10))
        scan = ExitScan(sample, criterion)
        for tau in asks:
            d = reference_decision(sample, tau, criterion)
            assert scan.exit(tau) == (d.exit_layer, d.score_at_exit)

    def test_each_layer_scored_at_most_once(self):
        calls = []
        confidences = (0.2, 0.55, 0.7, 0.95, 0.4)
        scan = ExitScan(make_sample(confidences))
        scan._score = lambda conf, risk: calls.append(conf) or conf
        for tau in (0.5, 0.9, 0.6, 1.0, None, 0.25, 1.0, None):
            scan.exit(tau)
        assert sorted(calls) == sorted(confidences)

    def test_out_of_range_threshold_raises_like_decide(self):
        sample = make_sample([0.9, 0.9])
        scan = ExitScan(sample)
        scan.exit(0.5)  # the prefix max (0.9) now clears anything up to 0.9
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="threshold"):
                decide(sample, bad)
            with pytest.raises(ValueError, match="threshold"):
                scan.exit(bad)

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError, match="criterion"):
            ExitScan(make_sample([0.9, 0.9]), "product")


class TestRunManyMatchesDecide:
    @given(case=stream_and_arm_scripts(), criterion=CRITERIA, variant=VARIANTS,
           lam=LAMBDAS)
    @settings(max_examples=150, deadline=None)
    def test_traces_equal_decide_and_reward_arm_by_arm(self, case, criterion, variant, lam):
        num_layers, samples, scripts = case
        params = RewardParams(lam=lam, num_layers=num_layers, variant=variant)
        policies = [ScriptedPolicy(arms) for arms in scripts]
        traces = run_many(policies, samples, params, criterion, grid=GRID)
        for policy, trace in zip(policies, traces):
            decisions = [reference_decision(s, arm, criterion)
                         for s, arm in zip(samples, policy.arms)]
            at_exit = [(s, d.exit_layer - 1) for s, d in zip(samples, decisions)]
            expected_rewards = [reward(d, params) for d in decisions]
            assert trace.arms == policy.arms
            assert trace.exit_layers.tolist() == [d.exit_layer for d in decisions]
            assert trace.scores.tolist() == [d.score_at_exit for d in decisions]
            assert trace.rewards.tolist() == expected_rewards
            assert policy.observed == list(zip(policy.arms, expected_rewards))
            assert trace.correct_probs.tolist() == [s.correct_prob[i] for s, i in at_exit]
            assert trace.realized.tolist() == [s.realized_correct[i] for s, i in at_exit]
            assert trace.reliabilities.tolist() == [1.0 - s.reliability_risk[i]
                                                    for s, i in at_exit]


class TestOracleMatchesReplay:
    @given(data=st.data(), lam=LAMBDAS)
    @settings(max_examples=40, deadline=None)
    def test_means_bit_identical_for_every_criterion_and_variant(self, data, lam):
        num_layers = data.draw(st.integers(min_value=2, max_value=6))
        samples = data.draw(samples_of_depth(num_layers, max_size=30))
        for criterion, variant in itertools.product(Criterion, RewardVariant):
            params = RewardParams(lam=lam, num_layers=num_layers, variant=variant)
            _, means = oracle_best_arm(GRID, samples, params, criterion)
            for tau in THRESHOLDS:
                trace = replay_arm(tau, samples, params, criterion, grid=GRID)
                assert means[tau] == math.fsum(trace.rewards) / len(samples)
                by_decide = [reward(decide(s, tau, criterion), params) for s in samples]
                assert means[tau] == math.fsum(by_decide) / len(samples)

    def test_generated_stream(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams(seed=4)), 300, seed=2)
        for criterion, variant in itertools.product(Criterion, RewardVariant):
            params = RewardParams(lam=0.01 / 12, num_layers=12, variant=variant)
            _, means = oracle_best_arm(GRID, samples, params, criterion)
            for tau in THRESHOLDS:
                trace = replay_arm(tau, samples, params, criterion, grid=GRID)
                assert means[tau] == math.fsum(trace.rewards) / len(samples)

    def test_depth_mismatch_and_empty_stream_raise(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams(num_layers=4)), 5, seed=0)
        with pytest.raises(ValueError, match="depth"):
            oracle_best_arm(GRID, samples, RewardParams(lam=0.0, num_layers=5))
        with pytest.raises(ValueError, match="empty"):
            oracle_best_arm(GRID, [], RewardParams(lam=0.0, num_layers=4))


class TestExitColumns:
    @given(data=st.data(), criterion=CRITERIA)
    @settings(max_examples=60, deadline=None)
    def test_columns_match_decide(self, data, criterion):
        num_layers = data.draw(st.integers(min_value=2, max_value=6))
        samples = data.draw(samples_of_depth(num_layers, max_size=30))
        for tau, (layers, at_exit) in zip(THRESHOLDS, exit_columns(samples, THRESHOLDS, criterion)):
            decisions = [decide(s, tau, criterion) for s in samples]
            assert layers.tolist() == [d.exit_layer for d in decisions]
            assert at_exit.tolist() == [d.score_at_exit for d in decisions]

    def test_columns_match_decide_on_a_generated_stream(self):
        # 600 rows span several scoring blocks
        samples = stream(ShiftSchedule.constant(GeneratorParams(seed=5)), 600, seed=1)
        for criterion in Criterion:
            for tau, (layers, at_exit) in zip(THRESHOLDS,
                                              exit_columns(samples, THRESHOLDS, criterion)):
                decisions = [decide(s, tau, criterion) for s in samples]
                assert layers.tolist() == [d.exit_layer for d in decisions]
                assert at_exit.tolist() == [d.score_at_exit for d in decisions]

    def test_threshold_validated(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams(num_layers=3)), 4, seed=0)
        with pytest.raises(ValueError, match="threshold"):
            list(exit_columns(samples, (0.5, 0.0)))


def test_generated_outcomes_hold_plain_floats():
    # overconfidence_rate=1 corrupts one shallow layer of every sample
    params = GeneratorParams(num_layers=6, overconfidence_rate=1.0, seed=3)
    for sample in stream(ShiftSchedule.constant(params), 50, seed=7):
        columns = (sample.confidence, sample.reliability_risk, sample.correct_prob,
                   sample.realized_correct, sample.g_features, *sample.g_features)
        assert all(type(column) is tuple for column in columns)
        for column in (sample.confidence, sample.reliability_risk, sample.correct_prob,
                       *sample.g_features):
            assert all(type(v) is float for v in column)
        assert all(type(v) is bool for v in sample.realized_correct)
