"""SampleBlock: the stream as (T, L) columns.

sample_block must hold exactly the five fields of stream(), bit for bit
(-0.0 included), for the golden and edge configs; a shorter block must
be a prefix of a longer one across pass and seeding-block edges; and the
runner must record the same traces, and raise the same errors, from a block
as from the list of samples.

A list or tuple of samples is stacked into one block before the runner's
loop. A sample iter_samples yields is a row of its validated pass while the
generator is in that pass: the runner reads it from the pass's exit table,
and any other sample as a one-row pass.
Traces from a live stream, alone or mixed with other samples, must equal
those from the same samples in a list, and a linked sample must behave as
any other sample.
"""

import copy
import dataclasses
import itertools
import pickle
import weakref

import numpy as np
import pytest

from exitbandit import (
    FinalLayerPolicy,
    FixedPolicy,
    GeneratorParams,
    RandomPolicy,
    RewardParams,
    SampleOutcomes,
    ShiftSchedule,
    UcbPolicy,
    default_grid,
    iter_samples,
    run,
    run_many,
    stream,
)
from exitbandit import simulator
from exitbandit.env import SampleBlock
from exitbandit.harness import parse_config
from exitbandit.simulator import sample_block
from test_golden import CONFIGS, EDGE_STREAMS

COLUMNS = ("confidence", "reliability_risk", "correct_prob", "realized_correct", "feat")
TRACE_ARRAYS = ("exit_layers", "scores", "rewards", "correct_probs", "realized",
                "reliabilities")


def golden_inputs():
    """(schedule, num_rounds, seed) of the two golden streams and the edge streams."""
    inputs = {
        "default": (ShiftSchedule.constant(GeneratorParams()), 400, 0),
        "shift": (parse_config(CONFIGS["shift"]).schedule, 400, 3),
    }
    for name, (segments, num_rounds, seed) in EDGE_STREAMS.items():
        schedule = ShiftSchedule(tuple((start, GeneratorParams(**overrides))
                                       for start, overrides in segments))
        inputs[name] = (schedule, num_rounds, seed)
    return inputs


INPUTS = golden_inputs()


def assert_same_columns(block, samples):
    assert len(block) == len(samples)
    for name in COLUMNS:
        expected = np.array([getattr(s, name) for s in samples])
        column = getattr(block, name)
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_block_columns_equal_stacked_stream(name):
    schedule, num_rounds, seed = INPUTS[name]
    assert_same_columns(sample_block(schedule, num_rounds, seed),
                        stream(schedule, num_rounds, seed))


def test_from_samples_equals_sample_block():
    schedule, num_rounds, seed = INPUTS["shift"]
    block = SampleBlock.from_samples(stream(schedule, num_rounds, seed))
    assert_same_columns(block, stream(schedule, num_rounds, seed))
    assert SampleBlock.from_samples(block) is block


@pytest.mark.parametrize("name", ["default", "shift_in_and_on_block"])
def test_shorter_block_is_a_prefix(name):
    schedule, _, seed = INPUTS[name]
    full = sample_block(schedule, 600, seed)
    for k in (1, 127, 128, 129, 511, 512, 513):
        part = sample_block(schedule, k, seed)
        for column in COLUMNS:
            assert getattr(part, column).tobytes() == getattr(full, column)[:k].tobytes()


def test_arguments_checked_like_stream():
    schedule = ShiftSchedule.constant(GeneratorParams())
    for args in ((0, 1), (5, -1), (5.0, 1), (True, 1)):
        with pytest.raises(ValueError) as from_stream:
            stream(schedule, *args)
        with pytest.raises(ValueError) as from_block:
            sample_block(schedule, *args)
        assert str(from_block.value) == str(from_stream.value)


def test_sample_and_block_declare_the_same_columns():
    # a sample is a row of the block: same fields, same order
    names = [f.name for f in dataclasses.fields(SampleOutcomes)]
    assert names == [f.name for f in dataclasses.fields(SampleBlock)] == list(COLUMNS)


def columns(rows=4, layers=3):
    rng = np.random.default_rng(0)
    return [rng.random((rows, layers)), rng.random((rows, layers)),
            rng.random((rows, layers)), rng.random((rows, layers)) < 0.5,
            rng.normal(size=(rows, layers))]


class TestValidation:
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.1, np.inf])
    def test_values_outside_unit_interval_rejected(self, position, bad):
        cols = columns()
        cols[position][2, 1] = bad
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            SampleBlock(*cols)

    def test_mismatched_shapes_rejected(self):
        for position in range(5):
            cols = columns()
            cols[position] = cols[position][:, :2]
            with pytest.raises(ValueError):
                SampleBlock(*cols)

    def test_single_layer_rejected(self):
        with pytest.raises(ValueError, match="2 layers"):
            SampleBlock(*columns(layers=1))

    def test_empty_and_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="empty sample stream"):
            SampleBlock(*columns(rows=0))
        with pytest.raises(ValueError, match="empty sample stream"):
            SampleBlock.from_samples([])
        with pytest.raises(ValueError):
            SampleBlock(*(c[0] for c in columns()))

    def test_dtypes_checked(self):
        cols = columns()
        cols[3] = cols[3].astype(np.float64)
        with pytest.raises(ValueError, match="bool"):
            SampleBlock(*cols)
        for position in (0, 4):
            cols = columns()
            cols[position] = cols[position].astype(np.float32)
            with pytest.raises(ValueError, match="float64"):
                SampleBlock(*cols)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feat_rejected(self, bad):
        cols = columns()
        cols[4][1, 2] = bad
        with pytest.raises(ValueError, match="feat=.* not finite"):
            SampleBlock(*cols)

    def test_arrays_are_read_only(self):
        block = sample_block(ShiftSchedule.constant(GeneratorParams()), 10, 0)
        for name in COLUMNS:
            column = getattr(block, name)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0, 0] = column[0, 1]
        assert not block.rows(0, 4).confidence.flags.writeable

    def test_rows_are_a_row_range(self):
        block = sample_block(ShiftSchedule.constant(GeneratorParams()), 10, 0)
        assert block.rows(0, 10) is block and block.rows(0, 99) is block
        for start, stop in ((0, 4), (3, 7), (9, 10), (6, 99)):
            part = block.rows(start, stop)
            for name in COLUMNS:
                assert getattr(part, name).tobytes() == getattr(block, name)[start:stop].tobytes()
        with pytest.raises(ValueError, match="empty sample stream"):
            block.rows(10, 10)
        for start, stop in ((-1, 4), (5, 4)):
            with pytest.raises(ValueError, match="start <= stop"):
                block.rows(start, stop)


# lockstep_shift's two-segment schedule, at 1100 rounds
SHIFT_ROUNDS = 1100
LOCKSTEP = ShiftSchedule((
    (1, GeneratorParams(confidence_noise=0.05)),
    (SHIFT_ROUNDS // 2 + 1, GeneratorParams(confidence_noise=0.4)),
))
GRID = default_grid()
PARAMS = RewardParams(lam=0.01 / 12, num_layers=12)


def lockstep(samples, params=PARAMS, **kwargs):
    policies = [UcbPolicy(GRID)] + [FixedPolicy(v) for v in GRID.values]
    return run_many(policies, samples, params, grid=GRID, seed=7, **kwargs)


def assert_same_traces(traces, expected):
    assert len(traces) == len(expected)
    for got, want in zip(traces, expected):
        assert got.policy == want.policy
        assert got.arms == want.arms
        for name in TRACE_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def shift_stream():
    return (sample_block(LOCKSTEP, SHIFT_ROUNDS, 3), stream(LOCKSTEP, SHIFT_ROUNDS, 3))


def test_lockstep_traces_identical_from_block_and_list(shift_stream):
    block, samples = shift_stream
    assert_same_traces(lockstep(block), lockstep(samples))
    assert_same_traces(lockstep(block, num_rounds=600), lockstep(samples, num_rounds=600))
    assert_same_traces(lockstep(block, num_rounds=5000), lockstep(samples))
    assert_same_traces(lockstep(tuple(samples), num_rounds=600), lockstep(block, num_rounds=600))


def test_mixed_depth_list_raises_before_any_round():
    class Unplayed(UcbPolicy):
        def select(self, round_number):
            raise AssertionError("a policy was played")

    shallow = stream(ShiftSchedule.constant(GeneratorParams(num_layers=11)), 3, 0)
    mixed = stream(LOCKSTEP, 3, 3) + shallow
    for source in (mixed, tuple(mixed)):
        with pytest.raises(ValueError, match="depth"):
            run_many([Unplayed(GRID)], source, PARAMS, grid=GRID)


def error_message(fn) -> str:
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


def test_runner_errors_match(shift_stream):
    block, samples = shift_stream
    deeper = RewardParams(lam=0.0, num_layers=13)
    assert "depth" in error_message(lambda: lockstep(samples, deeper))
    assert error_message(lambda: lockstep(block, deeper)) == \
        error_message(lambda: lockstep(samples, deeper))
    assert error_message(lambda: lockstep(block, num_rounds=0)) == \
        error_message(lambda: lockstep(samples, num_rounds=0)) == \
        error_message(lambda: lockstep([])) == \
        error_message(lambda: SampleBlock.from_samples([])) == "empty sample stream"
    for bad in (True, 2.5, -1):
        message = error_message(lambda: lockstep(block, num_rounds=bad))
        assert message == error_message(lambda: lockstep(samples, num_rounds=bad))
        assert message == error_message(lambda: lockstep(iter(samples), num_rounds=bad))
        assert message.startswith("num_rounds must be")
    too_many = SHIFT_ROUNDS + 1
    assert "exceeds" in error_message(lambda: run(GRID, samples, PARAMS, num_rounds=too_many))
    assert error_message(lambda: run(GRID, block, PARAMS, num_rounds=too_many)) == \
        error_message(lambda: run(GRID, samples, PARAMS, num_rounds=too_many))
    assert error_message(lambda: run(GRID, block, PARAMS, num_rounds="5")) == \
        error_message(lambda: run(GRID, samples, PARAMS, num_rounds="5")) == \
        error_message(lambda: run(GRID, iter(samples), PARAMS, num_rounds="5")) == \
        "num_rounds must be an integer, got '5'"


def every_policy(samples, **kwargs):
    """UCB, played round by round, and the open-loop policies, declared."""
    policies = [UcbPolicy(GRID), FinalLayerPolicy(), RandomPolicy(GRID, 11)]
    policies += [FixedPolicy(v) for v in GRID.values]
    return run_many(policies, samples, PARAMS, grid=GRID, seed=7, **kwargs)


def live(num_rounds=SHIFT_ROUNDS, seed=3):
    return iter_samples(LOCKSTEP, num_rounds, seed)


class TestLiveStream:
    @pytest.mark.parametrize("rounds", [127, 128, 129, 301, 600])
    def test_same_traces_from_every_source(self, shift_stream, rounds):
        # pass edges at 128, 256, ..., 512, 550 (the segment ends) and 678
        block, samples = shift_stream
        expected = every_policy(samples, num_rounds=rounds)
        assert_same_traces(every_policy(block, num_rounds=rounds), expected)
        assert_same_traces(every_policy(live(), num_rounds=rounds), expected)
        assert_same_traces(every_policy(live(rounds)), expected)
        assert_same_traces(every_policy(stream(LOCKSTEP, rounds, 3)), expected)

    @pytest.mark.parametrize("mix", ["copies", "repeats", "alternating"])
    def test_mixed_sources_equal_the_same_samples_from_a_list(self, mix):
        def copies(samples):
            # every third sample replaced by a user-built equal copy
            for t, sample in enumerate(samples):
                yield dataclasses.replace(sample) if t % 3 == 1 else sample

        def repeats(samples):
            # every fifth sample yielded twice in a row
            for t, sample in enumerate(samples):
                yield sample
                if t % 5 == 4:
                    yield sample

        def alternating(first, second):
            return itertools.chain.from_iterable(zip(first, second))

        rounds = 700
        if mix == "alternating":
            source = alternating(live(400, 3), live(400, 4))
            listed = list(alternating(stream(LOCKSTEP, 400, 3), stream(LOCKSTEP, 400, 4)))
        else:
            mixer = copies if mix == "copies" else repeats
            source, listed = mixer(live()), list(mixer(stream(LOCKSTEP, SHIFT_ROUNDS, 3)))
        assert_same_traces(every_policy(source, num_rounds=rounds),
                           every_policy(listed, num_rounds=rounds))

    def test_wrong_depth_raises_the_runner_message(self, shift_stream):
        deeper = RewardParams(lam=0.0, num_layers=13)
        expected = error_message(lambda: lockstep(shift_stream[1], deeper))
        assert error_message(lambda: lockstep(live(), deeper)) == expected
        assert expected == "stream depth does not match reward_params.num_layers"

    def test_generated_sample_behaves_as_any_sample(self):
        samples = live(300)
        sample = next(itertools.islice(samples, 5, None))  # row 5 of the first pass
        assert sample._pass is not None
        built = SampleOutcomes(*(getattr(sample, f.name)
                                 for f in dataclasses.fields(SampleOutcomes)))
        assert [f.name for f in dataclasses.fields(sample)] == list(COLUMNS)
        for other in (pickle.loads(pickle.dumps(sample)), copy.deepcopy(sample),
                      copy.copy(sample), dataclasses.replace(sample), built):
            assert other == sample and hash(other) == hash(sample)
            assert repr(other) == repr(sample)
            assert other._pass is None
        assert dataclasses.replace(sample, feat=(0.0,) * 12) != sample

    def test_no_pass_block_outlives_its_pass(self):
        samples = live(300)
        first = next(samples)
        block = weakref.ref(first._pass)
        assert block() is not None
        rest = list(samples)
        assert block() is None and first._pass is None
        assert all(sample._pass is None for sample in rest)
        assert all(sample._pass is None for sample in stream(LOCKSTEP, 300, 3))

    def test_pass_values_still_range_checked(self, monkeypatch):
        columns = simulator._columns

        def out_of_range(*args):
            conf, *rest = columns(*args)
            conf[3, 2] = 1.5
            return (conf, *rest)

        monkeypatch.setattr(simulator, "_columns", out_of_range)
        with pytest.raises(ValueError, match=r"confidence=1.5 outside \[0, 1\]"):
            next(live(10))
