"""Reference policies and the exhaustive-replay oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_stream, make_sample
from exitbandit import (
    FinalLayerPolicy,
    FixedPolicy,
    GeneratorParams,
    RandomPolicy,
    RewardParams,
    RewardVariant,
    ShiftSchedule,
    ThresholdGrid,
    default_grid,
    empirical_risk,
    exit_distribution,
    oracle_best_arm,
    replay_arm,
    run_policy,
    speedup,
    stream,
)
from exitbandit.bandit import UcbPolicy
from exitbandit.metrics import mean_exit_layer


@pytest.fixture(scope="module")
def default_stream():
    return stream(ShiftSchedule.constant(GeneratorParams()), 3000, seed=42)


DEFAULT_PARAMS = RewardParams(lam=0.01 / 12, num_layers=12)


class TestFixedPolicy:
    def test_constant_arm_history(self, default_stream):
        trace = replay_arm(0.7, default_stream[:200], DEFAULT_PARAMS)
        assert trace.arms == [0.7] * 200
        assert trace.policy == "fixed0.7"

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            FixedPolicy(0.0)
        with pytest.raises(ValueError):
            FixedPolicy(1.2)
        with pytest.raises(ValueError, match="threshold"):
            FixedPolicy('0.5')
        with pytest.raises(ValueError, match="threshold"):
            FixedPolicy(True)
        with pytest.raises(ValueError, match="threshold"):
            FixedPolicy(np.True_)

    def test_unit_threshold_forces_final_on_sub_unit_scores(self):
        samples = constant_stream([0.8, 0.9, 0.95], 20)
        trace = replay_arm(1.0, samples, RewardParams(lam=0.0, num_layers=3))
        assert np.all(trace.exit_layers == 3)

    def test_grid_minimum_exits_shallower_than_unit_threshold(self, default_stream):
        low = replay_arm(0.5, default_stream, DEFAULT_PARAMS)
        high = replay_arm(1.0, default_stream, DEFAULT_PARAMS)
        assert mean_exit_layer(low) < mean_exit_layer(high)

    def test_num_rounds_passthrough(self, default_stream):
        trace = replay_arm(0.6, default_stream, DEFAULT_PARAMS, num_rounds=100)
        assert len(trace) == 100


class TestRandomPolicy:
    def test_uniform_arm_frequencies(self):
        grid = default_grid()
        pol = RandomPolicy(grid, seed=3)
        counts = {v: 0 for v in grid.values}
        n = 100_000
        for t in range(n):
            counts[pol.select(t)] += 1
        for v in grid.values:
            assert counts[v] / n == pytest.approx(0.1, abs=0.01)

    def test_seeded_repeatability(self):
        grid = default_grid()
        a = RandomPolicy(grid, seed=5)
        b = RandomPolicy(grid, seed=5)
        assert [a.select(t) for t in range(500)] == [b.select(t) for t in range(500)]

    def test_single_arm_grid_is_constant(self):
        pol = RandomPolicy(ThresholdGrid((0.75,)), seed=1)
        assert {pol.select(t) for t in range(50)} == {0.75}

    # planned_arms draws a run's arms in one batch; numpy does not promise
    # that a batch equals the scalar draws, so this pins it
    @given(k=st.integers(min_value=1, max_value=64), seed=st.integers(min_value=0),
           before=st.integers(min_value=0, max_value=3),
           rounds=st.integers(min_value=0, max_value=300))
    @settings(max_examples=200, deadline=None)
    def test_batched_draw_equals_scalar_draws(self, k, seed, before, rounds):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (batched, scalar):
            for _ in range(before):  # may leave half of a 64-bit output buffered
                rng.integers(k)
        assert batched.integers(k, size=rounds).tolist() == [
            int(scalar.integers(k)) for _ in range(rounds)]
        assert batched.bit_generator.state == scalar.bit_generator.state

    @given(k=st.integers(min_value=1, max_value=64), seed=st.integers(min_value=0),
           rounds=st.integers(min_value=0, max_value=300))
    @settings(max_examples=100, deadline=None)
    def test_planned_arms_equal_select(self, k, seed, rounds):
        grid = ThresholdGrid(tuple((i + 1) / k for i in range(k)))
        planned, played = RandomPolicy(grid, seed), RandomPolicy(grid, seed)
        assert planned.planned_arms(rounds) == [played.select(t) for t in range(1, rounds + 1)]
        assert planned._rng.bit_generator.state == played._rng.bit_generator.state


class TestFinalLayerPolicy:
    def test_speedup_is_exactly_one(self, default_stream):
        trace = run_policy(
            FinalLayerPolicy(), default_stream[:500], DEFAULT_PARAMS,
            grid=default_grid(),
        )
        assert np.all(trace.exit_layers == 12)
        assert speedup(trace) == 1.0

    def test_risk_equals_final_layer_error(self, default_stream):
        part = default_stream[:500]
        trace = run_policy(
            FinalLayerPolicy(), part, DEFAULT_PARAMS, grid=default_grid(),
        )
        expected = 1.0 - np.mean([s.correct_prob[-1] for s in part])
        assert empirical_risk(trace)[0] == pytest.approx(expected, abs=1e-12)

    def test_exit_histogram_concentrates_on_final(self, default_stream):
        hist = exit_distribution(default_stream[:200], 1.0)
        # threshold 1.0 rarely triggers early; the final-layer policy never does
        trace = run_policy(
            FinalLayerPolicy(), default_stream[:200], DEFAULT_PARAMS,
            grid=default_grid(),
        )
        got = np.bincount(trace.exit_layers, minlength=13)[1:] / 200
        np.testing.assert_array_equal(got, [0.0] * 11 + [1.0])
        assert hist[-1] <= 1.0

    def test_arms_recorded_as_none(self, default_stream):
        trace = run_policy(
            FinalLayerPolicy(), default_stream[:10], DEFAULT_PARAMS,
            grid=default_grid(),
        )
        assert trace.arms == [None] * 10

    def test_final_reward_pays_full_depth_penalty(self):
        samples = constant_stream([0.5, 0.8], 4)
        params = RewardParams(lam=0.1, num_layers=2)
        trace = run_policy(
            FinalLayerPolicy(), samples, params, grid=ThresholdGrid((0.5,)),
        )
        assert np.all(trace.rewards == 0.8 - 0.2)


class TestOracleBestArm:
    def test_single_arm(self):
        grid = ThresholdGrid((0.6,))
        samples = constant_stream([0.7, 0.7], 10)
        best, means = oracle_best_arm(grid, samples, RewardParams(lam=0.0, num_layers=2))
        assert best == 0.6
        assert set(means) == {0.6}

    def test_heavy_penalty_prefers_grid_minimum(self):
        # scores rise with depth but the penalty rises faster
        samples = constant_stream([0.5, 0.6, 0.7], 20)
        grid = ThresholdGrid((0.5, 0.6, 0.7))
        params = RewardParams(lam=0.2, num_layers=3)
        best, means = oracle_best_arm(grid, samples, params)
        assert best == 0.5
        assert means[0.5] > means[0.6] > means[0.7]

    def test_mean_ties_break_toward_smaller_threshold(self):
        # both arms exit at layer 1 with the same score
        samples = constant_stream([0.8, 0.9], 10)
        grid = ThresholdGrid((0.5, 0.8))
        best, means = oracle_best_arm(grid, samples, RewardParams(lam=0.0, num_layers=2))
        assert means[0.5] == means[0.8]
        assert best == 0.5

    def test_oracle_mean_matches_always_pulled_bandit_q(self, default_stream):
        # a 1-arm bandit pulls its arm every round; its running mean must
        # agree with the oracle's fsum mean on the same stream
        grid = ThresholdGrid((0.7,))
        part = default_stream[:500]
        policy = UcbPolicy(grid)
        run_policy(policy, part, DEFAULT_PARAMS, grid=grid)
        _, means = oracle_best_arm(grid, part, DEFAULT_PARAMS)
        assert abs(policy.state.q[0.7] - means[0.7]) <= 1e-12

    def test_means_are_exact_stream_averages(self):
        samples = constant_stream([0.4, 0.9], 7)
        grid = ThresholdGrid((0.5, 0.9))
        params = RewardParams(lam=0.01, num_layers=2)
        _, means = oracle_best_arm(grid, samples, params)
        assert means[0.9] == pytest.approx(0.9 - 0.02, abs=1e-15)
        trace = replay_arm(0.5, samples, params)
        assert means[0.5] == math.fsum(trace.rewards) / 7
