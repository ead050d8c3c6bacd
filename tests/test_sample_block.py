"""SampleBlock: the stream as (T, L) columns.

sample_block must hold exactly the five fields of stream(), bit for bit
(-0.0 included), for the golden and edge configs; a shorter block must
be a prefix of a longer one across pass and seeding-block edges; and the
runner must record the same traces, and raise the same errors, from a block
as from the list of samples.
"""

import dataclasses

import numpy as np
import pytest

from exitbandit import (
    FixedPolicy,
    GeneratorParams,
    RewardParams,
    SampleOutcomes,
    ShiftSchedule,
    UcbPolicy,
    default_grid,
    run,
    run_many,
    stream,
)
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
