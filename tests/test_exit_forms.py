"""The exit rule's two forms agree with decide, and every reward with reward().

decide (one sample, one threshold) is the reference. A stream is scored
once into its exit table (exit_table); a row of it (one list) answers many
thresholds through exit_at, and run_many plays several policies on it per
round to choose their arms. The table's row view (table_rows) gives each
sample's row of its own one-row table, and the one reader (table_exits) answers a table at
one arm, as oracle_best_arm and exit_distribution call it, or at one arm
per row. Every run_many trace is answered from the stream's exit table
after the loop by table_exits, so the decide + reward reference
(TestRunManyMatchesDecide) is the independent check of played traces. A
stream() list or tuple is scored as one block, a live iter_samples stream
one exit table per pass, and any other sample as a one-row pass. A policy
that declares its arms (planned_arms) must record what the same policy
records played round by round; replay_arm is run_policy(FixedPolicy(tau),
...).
Samples are drawn so that scores often equal a threshold exactly,
thresholds include 1.0, and policies repeat each other's arms or force the
final layer (arm None).
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_sample
from exitbandit import (
    Criterion,
    ExitDecision,
    FinalLayerPolicy,
    FixedPolicy,
    GeneratorParams,
    RandomPolicy,
    RewardParams,
    RewardVariant,
    SampleOutcomes,
    ShiftSchedule,
    ThresholdGrid,
    UcbPolicy,
    decide,
    exit_distribution,
    iter_samples,
    oracle_best_arm,
    replay_arm,
    reward,
    run_many,
    stream,
)
from exitbandit import bandit
from exitbandit.bandit import natural_criterion
from exitbandit.env import SampleBlock
from exitbandit.exits import (
    exit_at, exit_table, layer_score, table_exits, table_rows,
)

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


def one_row(sample, criterion=Criterion.PRODUCT):
    """The sample's row of its own one-row exit table."""
    return exit_table([sample], criterion)[0].tolist()


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
        row = one_row(sample, criterion)
        for tau in THRESHOLDS + (None,):
            d = reference_decision(sample, tau, criterion)
            layer, score = exit_at(row, tau)
            assert (layer, score) == (d.exit_layer, d.score_at_exit)
            assert math.copysign(1.0, score) == math.copysign(1.0, d.score_at_exit)

    def test_out_of_range_threshold_raises_like_decide(self):
        sample = make_sample([0.9, 0.9])
        row = one_row(sample)
        for bad in (0.0, -0.2, 1.5, "0.5", True, np.True_):
            with pytest.raises(ValueError, match="threshold"):
                decide(sample, bad)
            with pytest.raises(ValueError, match="threshold"):
                exit_at(row, bad)

    def test_unknown_criterion_rejected(self):
        sample = make_sample([0.9, 0.9])
        with pytest.raises(ValueError, match="criterion"):
            exit_table([sample], "product")
        with pytest.raises(ValueError, match="criterion"):
            decide(sample, 0.5, "product")
        for not_a_criterion in (None, 0):
            with pytest.raises(ValueError, match="unknown criterion"):
                decide(sample, 0.5, not_a_criterion)


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

    def test_live_stream_pulled_the_same_way(self):
        # 300 rounds of 4 layers cross two pass edges (128 and 256) and stop inside a pass
        samples = iter_samples(ShiftSchedule.constant(GeneratorParams(num_layers=4, seed=1)),
                               400, seed=0)
        log = []

        def logged():
            for t, sample in enumerate(samples, start=1):
                log.append(("pull", None, t))
                yield sample

        policies = [LoggedPolicy(arm, log) for arm in (0.5, None, 0.9)]
        params = RewardParams(lam=0.01, num_layers=4)
        traces = run_many(policies, logged(), params, grid=GRID, num_rounds=300)
        expected = []
        for t in range(1, 301):
            expected.append(("pull", None, t))
            for policy in policies:
                expected += [("select", policy, t), ("observe", policy, t)]
        assert log == expected
        assert [len(trace) for trace in traces] == [300] * 3


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


def per_round(policy_class):
    """The policy class with its declaration hidden, so run_many plays it
    round by round through select and observe."""
    return type(f"PerRound{policy_class.__name__}", (policy_class,), {"planned_arms": None})


def unplayable(policy_class):
    """The policy class with select and observe that fail if called."""
    def fail(self, *args):
        raise AssertionError(f"{policy_class.__name__} was played round by round")
    return type(f"Unplayable{policy_class.__name__}", (policy_class,),
                {"select": fail, "observe": fail})


# the built-in open-loop policies, as (class, constructor arguments)
OPEN_LOOP = ((FixedPolicy, (0.6,)), (FixedPolicy, (1.0,)), (FinalLayerPolicy, ()),
             (RandomPolicy, (GRID, 11)))


def policy_state(policy):
    """A policy's attributes, with a generator read as its bit-generator state."""
    return {name: value.bit_generator.state if name == "_rng" else value
            for name, value in vars(policy).items()}


def assert_traces_equal(got, want):
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), field.name
        else:
            assert a == b, field.name


def run_both(make_policies, source, *args, **kwargs):
    """run_many over the declared policies and over their per-round twins;
    both runs' traces and policies."""
    declared, hidden = make_policies(lambda cls: cls), make_policies(per_round)
    return (run_many(declared, source(), *args, **kwargs), declared,
            run_many(hidden, source(), *args, **kwargs), hidden)


class TestDeclaredArms:
    """Open-loop policies declare their arms with planned_arms and are answered
    from the exit table after the loop; the same policy with its declaration
    hidden plays round by round and is the reference."""

    @given(data=st.data(), criterion=st.sampled_from((*Criterion, None)), variant=VARIANTS,
           lam=LAMBDAS)
    @settings(max_examples=60, deadline=None)
    def test_equal_to_per_round_play(self, data, criterion, variant, lam):
        num_layers = data.draw(st.integers(min_value=2, max_value=6))
        samples = data.draw(samples_of_depth(num_layers, max_size=30))
        num_rounds = data.draw(st.none() | st.integers(min_value=1, max_value=len(samples) + 2))
        with_ucb = data.draw(st.booleans())
        params = RewardParams(lam=lam, num_layers=num_layers, variant=variant)
        block = SampleBlock.from_samples(samples)

        def make_policies(wrap):
            ucb = [UcbPolicy(GRID)] if with_ucb else []
            return ucb + [wrap(cls)(*args) for cls, args in OPEN_LOOP]

        rounds = len(samples) if num_rounds is None else min(num_rounds, len(samples))
        names = ["ucb"] * with_ucb + ["fixed", "fixed", "final", "random"]
        for source in (lambda: samples, lambda: block, lambda: iter(samples)):
            got, declared, want, hidden = run_both(
                make_policies, source, params, criterion, grid=GRID, seed=3,
                num_rounds=num_rounds)
            for a, b in zip(got, want):
                assert_traces_equal(a, b)
            for a, b in zip(declared, hidden):
                assert policy_state(a) == policy_state(b)
            assert [trace.policy for trace in got] == names
            for trace in got:
                assert (len(trace), trace.grid, trace.seed) == (rounds, GRID, 3)
                assert trace.criterion == (criterion or natural_criterion(variant))
            # replay_arm is the declared FixedPolicy run, labelled by its arm
            for trace, (cls, args) in zip(got[with_ucb:], OPEN_LOOP):
                if cls is FixedPolicy:
                    replayed = replay_arm(*args, source(), params, criterion, grid=GRID,
                                          seed=3, num_rounds=num_rounds)
                    assert_traces_equal(replayed,
                                        dataclasses.replace(trace, policy=f"fixed{args[0]:g}"))

    def test_equal_to_per_round_play_across_a_shift(self):
        params = GeneratorParams(num_layers=6, seed=2)
        schedule = ShiftSchedule(((1, params),
                                  (301, dataclasses.replace(params, confidence_noise=0.4))))
        reward_params = RewardParams(lam=0.01 / 6, num_layers=6)

        def make_policies(wrap):
            return [UcbPolicy(GRID)] + [wrap(cls)(*args) for cls, args in OPEN_LOOP]

        block = SampleBlock.from_samples(stream(schedule, 600, seed=5))
        for source in (lambda: block, lambda: iter_samples(schedule, 600, seed=5)):
            got, declared, want, hidden = run_both(make_policies, source, reward_params,
                                                   grid=GRID, num_rounds=450)
            assert [len(t) for t in got] == [450] * len(got)
            for a, b in zip(got, want):
                assert_traces_equal(a, b)
            for a, b in zip(declared, hidden):
                assert policy_state(a) == policy_state(b)

    def test_declared_policies_are_not_played_and_the_rest_stay_in_lockstep(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams(num_layers=4, seed=1)), 8,
                         seed=0)
        log = []

        def endless():
            for t, sample in enumerate(itertools.cycle(samples), start=1):
                log.append(("pull", None, t))
                yield sample

        logged = [LoggedPolicy(0.5, log), LoggedPolicy(None, log)]
        declared = [unplayable(cls)(*args) for cls, args in OPEN_LOOP]
        params = RewardParams(lam=0.01, num_layers=4)
        traces = run_many([logged[0], *declared, logged[1]], endless(), params, grid=GRID,
                          num_rounds=20)
        expected = []
        for t in range(1, 21):
            expected.append(("pull", None, t))
            for policy in logged:
                expected += [("select", policy, t), ("observe", policy, t)]
        assert log == expected
        want = run_many([per_round(cls)(*args) for cls, args in OPEN_LOOP],
                        itertools.islice(itertools.cycle(samples), 20), params, grid=GRID)
        for a, b in zip(traces[1:-1], want):
            assert_traces_equal(a, b)

    @pytest.mark.parametrize("arms, match", [
        ([0.5] * 3, "planned_arms gave 3 arms for 4 rounds"),
        ([0.5, None, 1.2, 0.5], "threshold"),
        ([0.5, 0.0, None, 0.5], "threshold"),
        ([0.5, 0.5, 0.5, math.nan], "threshold"),
    ])
    def test_declared_arms_checked_before_any_trace_is_built(self, arms, match, monkeypatch):
        class Declares:
            def planned_arms(self, num_rounds):
                return arms

        def build_no_trace(*args, **kwargs):
            raise AssertionError("a trace was built")

        monkeypatch.setattr(bandit, "gather_trace", build_no_trace)
        samples = [make_sample([0.4, 0.7, 0.9])] * 4
        params = RewardParams(lam=0.0, num_layers=3)
        for source in (samples, SampleBlock.from_samples(samples), iter(samples)):
            with pytest.raises(ValueError, match=match):
                run_many([UcbPolicy(GRID), Declares()], source, params, grid=GRID)


class TestOneTracePath:
    """Every listed policy's trace comes from one table_exits call on the
    stream's exit table, whether its arms were played or declared."""

    @pytest.mark.parametrize("open_loop", [False, True], ids=["ucb", "ucb+open_loop"])
    def test_one_table_exits_call_per_policy(self, open_loop, monkeypatch):
        calls = []

        def counted(table, arms):
            calls.append(len(arms))
            return table_exits(table, arms)

        monkeypatch.setattr(bandit, "table_exits", counted)
        samples = stream(ShiftSchedule.constant(GeneratorParams(num_layers=4, seed=1)), 30,
                         seed=0)
        params = RewardParams(lam=0.01, num_layers=4)
        for source in (samples, SampleBlock.from_samples(samples), iter(samples)):
            policies = [UcbPolicy(GRID)]
            if open_loop:
                policies += [cls(*args) for cls, args in OPEN_LOOP]
            calls.clear()
            run_many(policies, source, params, grid=GRID)
            assert calls == [30] * len(policies)


class TestExitColumns:
    """table_exits at one threshold, as oracle_best_arm and exit_distribution
    call it, against decide, and at that threshold on every row."""

    @given(data=st.data(), criterion=CRITERIA)
    @settings(max_examples=60, deadline=None)
    def test_columns_match_decide(self, data, criterion):
        num_layers = data.draw(st.integers(min_value=2, max_value=6))
        samples = data.draw(samples_of_depth(num_layers, max_size=30))
        table = exit_table(samples, criterion)
        for tau in THRESHOLDS:
            layers, at_exit = table_exits(table, tau)
            decisions = [decide(s, tau, criterion) for s in samples]
            assert layers.tolist() == [d.exit_layer for d in decisions]
            assert at_exit.tolist() == [d.score_at_exit for d in decisions]
            per_row = table_exits(table, [tau] * len(table))
            assert [a.tolist() for a in per_row] == [layers.tolist(), at_exit.tolist()]

    def test_columns_match_decide_on_a_generated_stream(self):
        # 600 generated rows (more than two row chunks); the oracle's means come from
        # the same counts
        samples = stream(ShiftSchedule.constant(GeneratorParams(seed=5)), 600, seed=1)
        params = RewardParams(lam=0.01 / 12, num_layers=12)
        for criterion in Criterion:
            table = exit_table(samples, criterion)
            _, means = oracle_best_arm(GRID, samples, params, criterion)
            for tau in THRESHOLDS:
                layers, at_exit = table_exits(table, tau)
                decisions = [decide(s, tau, criterion) for s in samples]
                assert layers.tolist() == [d.exit_layer for d in decisions]
                assert at_exit.tolist() == [d.score_at_exit for d in decisions]
                by_decide = [reward(d, params) for d in decisions]
                assert means[tau] == math.fsum(by_decide) / len(samples)

    def test_threshold_validated(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams(num_layers=3)), 4, seed=0)
        table = exit_table(samples)
        for bad in (0.0, -0.2, 1.5, math.nan, "0.5"):
            with pytest.raises(ValueError, match="threshold"):
                table_exits(table, [0.5, bad, None, 0.5])
            with pytest.raises(ValueError, match="threshold"):
                table_exits(table, bad)
            with pytest.raises(ValueError, match="threshold"):
                exit_distribution(samples, bad)
        for bad in ([object()] * len(table), ["abc"] * len(table), ["0.5"] * len(table),
                    [[0.5]] * len(table), np.full((len(table), 1), 0.5)):
            with pytest.raises(ValueError, match="threshold"):
                table_exits(table, bad)
        for arms in ([0.5] * 3, (0.5,) * 5):
            with pytest.raises(ValueError, match=f"{len(arms)} arms for 4 rows"):
                table_exits(table, arms)
        # a bool equals 1.0, and is rejected wherever it stands among the arms
        for bad in ([1.0, True, 0.5, 0.5], [True, 1.0, 0.5, 0.5], (1.0, 0.5, None, True),
                    [np.float64(1.0), np.True_, 0.5, 0.5], [1, True, 0.5, 0.5],
                    np.array([1.0, True, 0.5, 0.5], dtype=object),
                    np.ones(len(table), dtype=bool), np.True_):
            with pytest.raises(ValueError, match="threshold (True|np.True_) outside"):
                table_exits(table, bad)
        at_one = table_exits(table, [1.0, 1, np.float64(1.0), 1.0])
        np.testing.assert_array_equal(at_one, table_exits(table, 1.0))
        with pytest.raises(ValueError, match="threshold"):
            exit_distribution(samples, None)


class TestExitTable:
    @pytest.mark.parametrize("rounds", (1, 255, 256, 257, 511, 513))
    def test_rows_equal_scored_row_across_row_chunks(self, rounds):
        samples = stream(ShiftSchedule.constant(GeneratorParams(num_layers=5, seed=6)),
                         rounds, seed=rounds)
        for criterion in Criterion:
            rows = list(table_rows(exit_table(samples, criterion)))
            assert rows == [one_row(s, criterion) for s in samples]
            assert all(type(v) is float for row in rows for v in row)

    def test_run_many_scores_a_block_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return exit_table(*args, **kwargs)

        monkeypatch.setattr(bandit, "exit_table", counted)
        block = SampleBlock.from_samples(
            stream(ShiftSchedule.constant(GeneratorParams(num_layers=4, seed=1)), 600, seed=0))
        policies = [UcbPolicy(GRID)] + [cls(*args) for cls, args in OPEN_LOOP]
        traces = run_many(policies, block, RewardParams(lam=0.01, num_layers=4), grid=GRID)
        assert len(calls) == 1
        assert [len(trace) for trace in traces] == [600] * len(policies)

    def test_run_many_scores_a_live_pass_once(self, monkeypatch):
        tables = []

        def counted(*args, **kwargs):
            tables.append(args)
            return exit_table(*args, **kwargs)

        monkeypatch.setattr(bandit, "exit_table", counted)
        schedule = ShiftSchedule.constant(GeneratorParams(num_layers=4, seed=1))
        policies = [UcbPolicy(GRID)] + [cls(*args) for cls, args in OPEN_LOOP]
        params = RewardParams(lam=0.01, num_layers=4)
        listed = stream(schedule, 600, seed=0)
        # 600 rounds are passes of 128, 128, 128, 128 (one 512-round seeding block) and 88;
        # a list or tuple is one block, and a sample from no pass is a one-row pass
        for source, calls in ((iter_samples(schedule, 600, seed=0), 5), (listed, 1),
                              (tuple(listed), 1), (iter(listed), 600)):
            tables.clear()
            run_many(policies, source, params, grid=GRID)
            assert len(tables) == calls


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
