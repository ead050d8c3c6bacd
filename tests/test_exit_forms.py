"""The exit rule's two forms agree with decide, and every reward with reward().

decide (one sample, one threshold) is the reference. A sample's exit-table
row (scored_row) answers many thresholds through exit_at, run_many plays
several policies on it per round, and exit_columns (directly and via
oracle_best_arm) answers a whole stream one threshold at a time. replay_arm
gathers one exit_columns column and must record what the runner records for
FixedPolicy. Samples are drawn so that scores often equal a threshold
exactly, thresholds include 1.0, and policies repeat each other's arms or
force the final layer (arm None).
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
    FixedPolicy,
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
    run_policy,
    stream,
)
from exitbandit.env import SampleBlock
from exitbandit.exits import exit_at, exit_columns, layer_score, scored_row

THRESHOLDS = (0.25, 0.5, 0.6, 0.75, 0.9, 1.0)
GRID = ThresholdGrid(THRESHOLDS)
# products of these land exactly on grid values (0.75 * 1.0, 1.0 * 0.75, ...)
CONFIDENCES = st.one_of(st.sampled_from((0.0, 0.5, 0.6, 0.75, 1.0)),
                        st.floats(min_value=0.0, max_value=1.0))
RISKS = st.one_of(st.sampled_from((0.0, 0.25)), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def samples_of_depth(draw, num_layers, min_size=1, max_size=12, confidences=CONFIDENCES):
    rounds = draw(st.integers(min_value=min_size, max_value=max_size))
    out = []
    for _ in range(rounds):
        layers = []  # one (conf, risk, cp, realized, feat) row per layer
        for _ in range(num_layers):
            conf, risk = draw(confidences), draw(RISKS)
            cp = draw(st.floats(min_value=0.0, max_value=1.0))
            layers.append((conf, risk, cp, draw(st.booleans()), 1.0 - risk))
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


# -0.0 is a valid confidence; its zero scores must keep their sign
SIGNED_CONFIDENCES = st.one_of(st.sampled_from((-0.0, 0.0)), CONFIDENCES)


class TestExitRow:
    @given(data=st.data(), criterion=CRITERIA)
    @settings(max_examples=150, deadline=None)
    def test_exit_at_scored_row_matches_decide(self, data, criterion):
        num_layers = data.draw(st.integers(min_value=2, max_value=8))
        sample = data.draw(samples_of_depth(num_layers, max_size=1,
                                            confidences=SIGNED_CONFIDENCES))[0]
        row = scored_row(sample.confidence, sample.reliability_risk, criterion)
        for tau in THRESHOLDS + (None,):
            d = reference_decision(sample, tau, criterion)
            layer, score = exit_at(*row, tau)
            assert (layer, score) == (d.exit_layer, d.score_at_exit)
            assert math.copysign(1.0, score) == math.copysign(1.0, d.score_at_exit)

    def test_out_of_range_threshold_raises_like_decide(self):
        sample = make_sample([0.9, 0.9])
        row = scored_row(sample.confidence, sample.reliability_risk)
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="threshold"):
                decide(sample, bad)
            with pytest.raises(ValueError, match="threshold"):
                exit_at(*row, bad)

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError, match="criterion"):
            scored_row((0.9, 0.9), (0.0, 0.0), "product")


class TestRunManyMatchesDecide:
    @given(case=stream_and_arm_scripts(), criterion=CRITERIA, variant=VARIANTS,
           lam=LAMBDAS)
    @settings(max_examples=150, deadline=None)
    def test_traces_equal_decide_and_reward_arm_by_arm(self, case, criterion, variant, lam):
        num_layers, samples, scripts = case
        params = RewardParams(lam=lam, num_layers=num_layers, variant=variant)
        # a block is scored a chunk at a time, a list or generator per sample
        for source in (samples, SampleBlock.from_samples(samples), iter(samples)):
            policies = [ScriptedPolicy(arms) for arms in scripts]
            traces = run_many(policies, source, params, criterion, grid=GRID)
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


class LoggedPolicy:
    """Plays a fixed arm and logs each select and observe with its round."""

    def __init__(self, arm, log):
        self.arm, self.log = arm, log

    def select(self, round_number):
        self.round = round_number
        self.log.append(("select", self, round_number))
        return self.arm

    def observe(self, arm, reward_value):
        self.log.append(("observe", self, self.round))


class TestRunManyPullsLockstep:
    def test_sample_requested_after_every_policy_observed_the_round_before(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams(num_layers=4, seed=1)), 8,
                         seed=0)
        log = []

        def endless():
            for t, sample in enumerate(itertools.cycle(samples), start=1):
                log.append(("pull", None, t))
                yield sample

        policies = [LoggedPolicy(arm, log) for arm in (0.5, None, 0.9)]
        params = RewardParams(lam=0.01, num_layers=4)
        traces = run_many(policies, endless(), params, grid=GRID, num_rounds=20)
        expected = []
        for t in range(1, 21):
            expected.append(("pull", None, t))
            for policy in policies:
                expected += [("select", policy, t), ("observe", policy, t)]
        assert log == expected
        assert [len(trace) for trace in traces] == [20] * 3


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


TRACE_ARRAYS = ("exit_layers", "scores", "rewards", "correct_probs", "realized",
                "reliabilities")


class TestReplayMatchesRunner:
    # replay_arm gathers from exit_columns, as the oracle does, so the runner
    # playing FixedPolicy(tau) is its independent reference
    @given(data=st.data(), lam=LAMBDAS)
    @settings(max_examples=40, deadline=None)
    def test_replay_arm_equals_fixed_policy_run(self, data, lam):
        num_layers = data.draw(st.integers(min_value=2, max_value=6))
        samples = data.draw(samples_of_depth(num_layers, max_size=30))
        num_rounds = data.draw(st.none() | st.integers(min_value=1, max_value=len(samples) + 2))
        block = SampleBlock.from_samples(samples)
        for criterion, variant in itertools.product((*Criterion, None), RewardVariant):
            params = RewardParams(lam=lam, num_layers=num_layers, variant=variant)
            for tau in THRESHOLDS:
                want = run_policy(FixedPolicy(tau), samples, params, criterion, grid=GRID,
                                  label=f"fixed{tau:g}", seed=1, num_rounds=num_rounds)
                for source in (samples, block):
                    got = replay_arm(tau, source, params, criterion, grid=GRID, seed=1,
                                     num_rounds=num_rounds)
                    assert (got.policy, got.arms) == (want.policy, want.arms)
                    assert (got.criterion, got.grid, got.seed) == (want.criterion, want.grid, 1)
                    for name in TRACE_ARRAYS:
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.dtype == b.dtype
                        assert a.tobytes() == b.tobytes(), name


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
                   sample.realized_correct, sample.feat)
        assert all(type(column) is tuple for column in columns)
        for column in (sample.confidence, sample.reliability_risk, sample.correct_prob,
                       sample.feat):
            assert all(type(v) is float for v in column)
        assert all(type(v) is bool for v in sample.realized_correct)
