"""Bandit core: index arithmetic, state updates, rewards, and the run loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_stream, make_sample, two_layer_noisy_stream
from exitbandit import (
    BanditState,
    Criterion,
    FixedPolicy,
    RewardParams,
    RewardVariant,
    ThresholdGrid,
    UcbPolicy,
    decide,
    default_grid,
    reward,
    run,
    run_many,
    run_policy,
)
from exitbandit.bandit import has_penalty, lambda_from_epsilon, natural_criterion, ucb_index
from exitbandit.metrics import per_arm_pulls


class TestRewardVariants:
    def test_natural_criterion_mapping(self):
        assert natural_criterion(RewardVariant.PRODUCT_PENALIZED) is Criterion.PRODUCT
        assert natural_criterion(RewardVariant.PRODUCT) is Criterion.PRODUCT
        assert natural_criterion(RewardVariant.CONFIDENCE) is Criterion.CONFIDENCE
        assert natural_criterion(RewardVariant.CONFIDENCE_PENALIZED) is Criterion.CONFIDENCE
        assert natural_criterion(RewardVariant.RELIABILITY) is Criterion.RELIABILITY
        assert natural_criterion(RewardVariant.RELIABILITY_PENALIZED) is Criterion.RELIABILITY

    def test_penalty_partition(self):
        penalized = [v for v in RewardVariant if has_penalty(v)]
        assert len(penalized) == 3
        assert len(list(RewardVariant)) == 6

    def test_reward_params_validation(self):
        with pytest.raises(ValueError):
            RewardParams(lam=-0.1, num_layers=12)
        with pytest.raises(ValueError):
            RewardParams(lam=0.0, num_layers=0)
        for lam, num_layers in ((0.01, 2.5), (0.01, True), (True, 12), (math.nan, 12),
                                (math.inf, 12), ("0.01", 12)):
            with pytest.raises(ValueError, match="lam|num_layers"):
                RewardParams(lam, num_layers)


class TestLambdaFromEpsilon:
    def test_deep_network_scale(self):
        assert lambda_from_epsilon(0.01, 24) == pytest.approx(4.16667e-4, abs=1e-9)

    def test_single_layer(self):
        assert lambda_from_epsilon(0.01, 1) == 0.01

    def test_tenth_over_ten(self):
        assert lambda_from_epsilon(0.1, 10) == pytest.approx(0.01, abs=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.2])
    def test_epsilon_domain(self, eps):
        with pytest.raises(ValueError):
            lambda_from_epsilon(eps, 12)


class TestReward:
    def test_early_exit_pays_per_layer(self):
        d = decide(make_sample([0.1, 0.2, 0.72, 0.9]), 0.7)
        assert d.exit_layer == 3
        params = RewardParams(lam=0.01, num_layers=4)
        assert reward(d, params) == pytest.approx(0.69, abs=1e-12)

    def test_final_layer_pays_full_depth(self):
        scores = [0.1] * 11 + [0.25]
        d = decide(make_sample(scores), 0.9)
        assert d.exit_layer == 12
        params = RewardParams(lam=0.01, num_layers=12)
        assert reward(d, params) == pytest.approx(0.13, abs=1e-12)

    def test_zero_lambda_returns_bare_score(self):
        params = RewardParams(lam=0.0, num_layers=12)
        for tau in (0.3, 0.9):
            d = decide(make_sample([0.4, 0.5, 0.6]), tau)
            assert reward(d, params) == d.score_at_exit

    def test_unpenalized_variant_ignores_depth(self):
        d = decide(make_sample([0.2, 0.8]), 0.7)
        params = RewardParams(lam=0.05, num_layers=2, variant=RewardVariant.PRODUCT)
        assert reward(d, params) == d.score_at_exit


class TestUcbIndex:
    def test_round_one_has_zero_bonus(self):
        assert ucb_index(0.2, 5, 1, 2.0) == 0.2

    def test_unit_case(self):
        assert ucb_index(1.0, 1, 1, 1.0) == 1.0

    def test_arithmetic_oracle(self):
        got = ucb_index(0.6, 10, 100, 1.5)
        assert got == pytest.approx(1.617921, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            ucb_index(0.5, 0, 10, 1.0)
        with pytest.raises(ValueError):
            ucb_index(0.5, 1, 0, 1.0)


class TestBanditState:
    def test_initial_state(self):
        state = BanditState(grid=default_grid())
        assert state.q_values == [0.0] * 10
        assert state.pull_counts == [1] * 10
        assert state.observations == [0] * 10
        assert state.t == 0

    def test_gamma_floor(self):
        with pytest.raises(ValueError, match="gamma"):
            BanditState(grid=default_grid(), gamma=0.5)

    @pytest.mark.parametrize("field", ["q_values", "pull_counts", "observations"])
    def test_lists_must_cover_the_grid(self, field):
        grid = ThresholdGrid((0.25, 0.5, 0.75))
        for wrong in ([1], [1, 1, 1, 1]):
            with pytest.raises(ValueError, match=field):
                BanditState(grid=grid, **{field: wrong})

    @pytest.mark.parametrize("field, value", [
        ("t", -5), ("t", 2.5), ("pull_counts", [0] * 10), ("pull_counts", [1] * 9 + [-1]),
        ("observations", [1] * 9 + [-1]), ("q_values", [math.nan] * 10),
        ("q_values", [0.0] * 9 + [math.inf]),
    ], ids=["t-negative", "t-float", "pull-zero", "pull-negative", "observation-negative",
            "q-nan", "q-inf"])
    def test_unusable_numbers_rejected(self, field, value):
        # every other field is a state select_index can read
        state = dict(pull_counts=[1] * 10, observations=[1] * 10, t=10)
        BanditState(grid=default_grid(), **state).select_index()
        with pytest.raises(ValueError, match=field):
            BanditState(grid=default_grid(), **{**state, field: value})

    def test_round_robin_initialization(self):
        grid = default_grid()
        state = BanditState(grid=grid)
        state.update_index(state.select_index(), 0.4)
        state.update_index(state.select_index(), 0.4)
        # round 3 of a 10-arm grid still initializes: third arm
        assert state.select_index() == 2

    def test_first_observation_keeps_count_at_one(self):
        grid = ThresholdGrid((0.5, 1.0))
        state = BanditState(grid=grid)
        state.update_index(grid.index_of(0.5), 0.5)
        assert state.q[0.5] == 0.5
        assert state.n[0.5] == 1
        assert state.t == 1

    def test_running_mean(self):
        grid = ThresholdGrid((0.5,))
        state = BanditState(grid=grid)
        state.update_index(0, 0.2)
        state.update_index(0, 0.4)
        assert state.q[0.5] == pytest.approx(0.3, abs=1e-12)
        assert state.n[0.5] == 2

    def test_pull_counts_sum_to_rounds_after_init(self):
        grid = ThresholdGrid((0.25, 0.5, 0.75))
        state = BanditState(grid=grid)
        rng = np.random.default_rng(1)
        for _ in range(50):
            state.update_index(state.select_index(), float(rng.random()))
        assert sum(state.pull_counts) == state.t == 50

    def test_tie_breaks_toward_smaller_threshold(self):
        grid = ThresholdGrid((0.25, 0.5, 0.75))
        state = BanditState(grid=grid, gamma=1.0)
        for i in range(len(grid)):
            state.update_index(i, 0.6)  # identical rewards, identical indices
        assert grid.values[state.select_index()] == 0.25

    def test_dominant_arm_selected(self):
        grid = ThresholdGrid((0.3, 0.6))
        state = BanditState(
            grid=grid,
            gamma=1.5,
            q_values=[0.9, 0.1],
            pull_counts=[50, 50],
            observations=[50, 50],
            t=100,
        )
        i0 = ucb_index(0.9, 50, 101, 1.5)
        i1 = ucb_index(0.1, 50, 101, 1.5)
        assert i0 > i1
        assert grid.values[state.select_index()] == 0.3

    @given(data=st.data(), k=st.integers(1, 8), gamma=st.floats(1.0, 4.0),
           log_of=st.none() | st.integers(1, 10**9))
    @settings(max_examples=300, deadline=None)
    def test_select_index_is_lowest_argmax_of_ucb_index(self, data, k, gamma, log_of):
        # a few shared values make exact ties between arms common
        q = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5])
                               | st.floats(-1.0, 1.0), min_size=k, max_size=k))
        n = data.draw(st.lists(st.sampled_from([1, 2, 7]) | st.integers(1, 10**6),
                               min_size=k, max_size=k))
        t = data.draw(st.integers(k, 10**9))  # completed rounds, past initialization
        state = BanditState(grid=ThresholdGrid(tuple((i + 1) / k for i in range(k))),
                            gamma=gamma, q_values=list(q), pull_counts=list(n),
                            observations=list(n), t=t)
        log_round = t + 1 if log_of is None else log_of
        indices = [ucb_index(q[i], n[i], log_round, gamma) for i in range(k)]
        assert state.select_index(log_of) == indices.index(max(indices))

    def test_incremental_mean_matches_batch(self):
        rng = np.random.default_rng(7)
        rewards = rng.random(10_000)
        grid = ThresholdGrid((0.5,))
        state = BanditState(grid=grid)
        for r in rewards:
            state.update_index(0, float(r))
        assert abs(state.q_values[0] - rewards.mean()) < 1e-12

    @given(rewards=st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_mean_invariant_under_any_reward_sequence(self, rewards):
        state = BanditState(grid=ThresholdGrid((0.5,)))
        for r in rewards:
            state.update_index(0, r)
        assert state.q_values[0] == pytest.approx(
            math.fsum(rewards) / len(rewards), abs=1e-9
        )


class TestUcbPolicy:
    def test_bool_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma must be a finite number"):
            UcbPolicy(default_grid(), gamma=True)

    def test_horizon_validation(self):
        for horizon in (0, -5, 1.5, True, "10"):
            with pytest.raises(ValueError, match="horizon"):
                UcbPolicy(default_grid(), horizon=horizon)

    def test_horizon_mode_uses_fixed_log(self):
        grid = ThresholdGrid((0.4, 0.8))
        pol = UcbPolicy(grid, gamma=1.0, horizon=1000)
        pol.observe(pol.select(1), 0.55)
        pol.observe(pol.select(2), 0.5)
        state = pol.state
        want = max(
            range(2),
            key=lambda i: ucb_index(
                state.q_values[i], state.pull_counts[i], 1000, 1.0
            ),
        )
        assert pol.select(3) == grid.values[want]


class TestRunLoop:
    def setup_method(self):
        self.params = RewardParams(lam=0.01, num_layers=3)

    def test_initialization_pulls_every_arm_once(self):
        grid = ThresholdGrid((0.3, 0.5, 0.7))
        trace = run(grid, constant_stream([0.4, 0.6, 0.9], 3), self.params)
        assert trace.arms == [0.3, 0.5, 0.7]
        assert per_arm_pulls(trace) == {0.3: 1, 0.5: 1, 0.7: 1}

    def test_deterministic(self):
        grid = ThresholdGrid((0.3, 0.7))
        samples = two_layer_noisy_stream(400, seed=5)
        params = RewardParams(lam=0.01, num_layers=2)
        a = run(grid, samples, params)
        b = run(grid, samples, params)
        assert a.arms == b.arms
        np.testing.assert_array_equal(a.rewards, b.rewards)

    def test_generator_stream_equals_list_stream(self):
        grid = ThresholdGrid((0.3, 0.7))
        samples = two_layer_noisy_stream(300, seed=6)
        params = RewardParams(lam=0.01, num_layers=2)
        from_list = run(grid, samples, params)
        from_gen = run(grid, iter(samples), params, num_rounds=300)
        assert from_list.arms == from_gen.arms
        np.testing.assert_array_equal(from_list.rewards, from_gen.rewards)

    def test_truncation(self):
        grid = ThresholdGrid((0.3, 0.7))
        samples = two_layer_noisy_stream(100, seed=6)
        params = RewardParams(lam=0.01, num_layers=2)
        short = run(grid, samples, params, num_rounds=40)
        assert len(short) == 40

    def test_unsized_stream_needs_num_rounds(self):
        grid = ThresholdGrid((0.5,))
        with pytest.raises(ValueError, match="unsized"):
            run(grid, iter([make_sample([0.5, 0.5])]), self.params)

    def test_num_rounds_beyond_stream_rejected(self):
        grid = ThresholdGrid((0.5,))
        samples = constant_stream([0.5, 0.5, 0.5], 5)
        with pytest.raises(ValueError, match="exceeds"):
            run(grid, samples, self.params, num_rounds=6)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run(ThresholdGrid((0.5,)), [], self.params)

    def test_depth_mismatch_rejected(self):
        params = RewardParams(lam=0.0, num_layers=4)
        with pytest.raises(ValueError, match="depth"):
            run(ThresholdGrid((0.5,)), constant_stream([0.5, 0.5], 3), params)

    def test_trace_columns_align(self):
        grid = ThresholdGrid((0.4, 0.8))
        samples = two_layer_noisy_stream(50, seed=3)
        params = RewardParams(lam=0.01, num_layers=2)
        trace = run(grid, samples, params, seed=3)
        assert len(trace) == 50
        assert trace.policy == "ucb"
        assert trace.seed == 3
        for i in (0, 25, 49):
            d = decide(samples[i], trace.arms[i])
            assert trace.exit_layers[i] == d.exit_layer
            assert trace.scores[i] == d.score_at_exit
            assert trace.rewards[i] == d.score_at_exit - 0.01 * d.exit_layer

    def test_realized_outcomes_read_by_truth_value(self):
        # numpy bools and 0/1 ints in realized_correct record as Python bools would
        base = make_sample([0.3, 0.9, 0.3])
        params = RewardParams(lam=0.0, num_layers=3)
        for realized in ((np.True_, np.False_, np.True_), (1, 0, 1)):
            samples = [replace(base, realized_correct=realized)]
            for arm, want in ((0.2, True), (0.5, False), (0.95, True)):
                trace = run(ThresholdGrid((arm,)), samples, params)
                assert trace.realized.dtype == bool
                assert trace.realized.tolist() == [want]

    def test_dominant_arm_absorbs_play(self):
        # layer-1 scores average 0.75, layer-2 scores 0.55: the low threshold
        # dominates by 0.2 and must take at least 90% of 50k rounds
        grid = ThresholdGrid((0.5, 1.0))
        params = RewardParams(lam=0.0, num_layers=2, variant=RewardVariant.PRODUCT)
        for seed in range(10):
            trace = run(grid, two_layer_noisy_stream(50_000, 900 + seed), params)
            assert per_arm_pulls(trace)[0.5] / 50_000 >= 0.9


class TestRunMany:
    def test_lockstep_matches_individual_runs(self):
        grid = ThresholdGrid((0.4, 0.8))
        samples = two_layer_noisy_stream(500, seed=12)
        params = RewardParams(lam=0.01, num_layers=2)
        merged = run_many(
            [UcbPolicy(grid), UcbPolicy(grid, gamma=2.0)],
            samples,
            params,
            grid=grid,
        )
        solo_a = run_policy(UcbPolicy(grid), samples, params, grid=grid)
        solo_b = run_policy(UcbPolicy(grid, gamma=2.0), samples, params, grid=grid)
        assert merged[0].arms == solo_a.arms
        assert merged[1].arms == solo_b.arms
        np.testing.assert_array_equal(merged[0].rewards, solo_a.rewards)
        np.testing.assert_array_equal(merged[1].rewards, solo_b.rewards)

    def test_labels(self):
        grid = ThresholdGrid((0.5,))
        params = RewardParams(lam=0.0, num_layers=2)
        traces = run_many(
            [UcbPolicy(grid)],
            constant_stream([0.6, 0.6], 4),
            params,
            grid=grid,
            labels=["renamed"],
        )
        assert traces[0].policy == "renamed"

    def test_label_length_mismatch_rejected(self):
        grid = ThresholdGrid((0.5,))
        with pytest.raises(ValueError, match="labels"):
            run_many(
                [UcbPolicy(grid)],
                constant_stream([0.6, 0.6], 2),
                RewardParams(lam=0.0, num_layers=2),
                grid=grid,
                labels=["a", "b"],
            )

    def test_missing_grid_rejected_before_the_stream_is_read(self):
        def untouchable_stream():
            raise AssertionError("the stream was advanced")
            yield

        with pytest.raises(ValueError, match="grid="):
            run_many([FixedPolicy(0.9)], untouchable_stream(),
                     RewardParams(lam=0.0, num_layers=2))

    def test_no_policies_rejected(self):
        with pytest.raises(ValueError, match="no policies"):
            run_many([], constant_stream([0.6, 0.6], 2), RewardParams(lam=0.0, num_layers=2))
