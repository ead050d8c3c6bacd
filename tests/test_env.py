"""Threshold grid, generator parameter validation, shift schedules, and the
count rule at every site that takes a count."""

import numpy as np
import pytest

from conftest import make_sample
from exitbandit import (
    BanditState,
    FixedPolicy,
    GeneratorParams,
    ReliabilityModel,
    RewardParams,
    SampleOutcomes,
    ShiftSchedule,
    ThresholdGrid,
    UcbPolicy,
    default_grid,
    iter_samples,
    run_many,
    stream,
)
from exitbandit.bandit import lambda_from_epsilon
from exitbandit.env import active_params
from exitbandit.harness import benchmark_overhead
from exitbandit.reliability import Hyperparams


class TestDefaultGrid:
    def test_first_value(self):
        assert default_grid().values[0] == 0.5

    def test_last_value(self):
        assert default_grid().values[-1] == 1.0

    def test_second_value_is_uniform_step(self):
        # ten points over [0.5, 1.0] step by 0.5/9
        assert default_grid().values[1] == pytest.approx(0.5 + 0.5 / 9, abs=1e-9)

    def test_size_and_order(self):
        g = default_grid()
        assert len(g) == 10
        assert list(g) == sorted(g.values)

    def test_reproducible(self):
        assert default_grid() == default_grid()


class TestThresholdGrid:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ThresholdGrid(())

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0001, True, np.True_])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="outside"):
            ThresholdGrid((bad,))

    def test_numpy_bool_after_a_valid_value_rejected(self):
        with pytest.raises(ValueError, match="threshold np.True_ outside"):
            ThresholdGrid((0.5, np.True_))

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ThresholdGrid((0.5, 0.5))
        with pytest.raises(ValueError, match="strictly increasing"):
            ThresholdGrid((0.6, 0.5))

    def test_index_of(self):
        g = ThresholdGrid((0.25, 0.5, 1.0))
        assert g.index_of(0.5) == 1
        with pytest.raises(ValueError):
            g.index_of(0.75)


class TestGeneratorParams:
    def test_defaults_valid(self):
        p = GeneratorParams()
        assert p.num_layers == 12
        assert p.overconfidence_rate == 0.12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_layers": 1},
            {"difficulty_spread": -0.1},
            {"confidence_noise": -0.01},
            {"reliability_signal": 1.5},
            {"reliability_signal": -0.1},
            {"overconfidence_rate": -0.1},
            {"overconfidence_rate": 1.1},
            {"noise_accuracy_drag": -1.0},
            {"seed": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorParams(**kwargs)

    def test_frozen(self):
        p = GeneratorParams()
        with pytest.raises(Exception):
            p.num_layers = 6


class TestSampleOutcomes:
    def columns(self, **overrides):
        sample = make_sample([0.5, 0.9], cps=[0.7, 0.8])
        columns = {name: getattr(sample, name) for name in (
            "confidence", "reliability_risk", "correct_prob", "realized_correct", "feat")}
        return {**columns, **overrides}

    def test_fewer_than_two_layers_rejected(self):
        one = {name: column[:1] for name, column in self.columns().items()}
        with pytest.raises(ValueError, match="at least 2 layers"):
            SampleOutcomes(**one)

    @pytest.mark.parametrize("name", ["reliability_risk", "correct_prob",
                                      "realized_correct", "feat"])
    def test_unequal_columns_rejected(self, name):
        columns = self.columns()
        with pytest.raises(ValueError, match="differ in length"):
            SampleOutcomes(**{**columns, name: columns[name][:1]})
        with pytest.raises(ValueError, match="differ in length"):
            SampleOutcomes(**{**columns, name: columns[name] * 2})

    @pytest.mark.parametrize("name", ["confidence", "reliability_risk", "correct_prob"])
    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_out_of_unit_interval_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name}=.* outside \\[0, 1\\]"):
            SampleOutcomes(**self.columns(**{name: (0.5, bad)}))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_feat_rejected(self, bad):
        # the block's rule, so a sample that constructs also stacks into a block
        with pytest.raises(ValueError, match=f"feat={bad!r} is not finite"):
            SampleOutcomes(**self.columns(feat=(0.5, bad)))


class TestShiftSchedule:
    def test_constant(self):
        p = GeneratorParams()
        sch = ShiftSchedule.constant(p)
        assert active_params(sch, 1) is p
        assert active_params(sch, 10**6) is p

    def test_segment_boundaries(self):
        a = GeneratorParams(seed=1)
        b = GeneratorParams(seed=2)
        sch = ShiftSchedule(((1, a), (100, b)))
        assert active_params(sch, 1) is a
        assert active_params(sch, 99) is a
        # the boundary round already uses the new segment
        assert active_params(sch, 100) is b
        assert active_params(sch, 5000) is b

    def test_round_index_is_one_based(self):
        sch = ShiftSchedule.constant(GeneratorParams())
        with pytest.raises(ValueError, match="1-based"):
            active_params(sch, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ShiftSchedule(())

    def test_first_segment_must_start_at_one(self):
        with pytest.raises(ValueError, match="start at round 1"):
            ShiftSchedule(((2, GeneratorParams()),))

    def test_starts_strictly_increasing(self):
        a = GeneratorParams()
        with pytest.raises(ValueError, match="strictly increasing"):
            ShiftSchedule(((1, a), (100, a), (100, a)))

    @pytest.mark.parametrize("start", [1.0, 2.5, True, "1", None])
    def test_non_integer_start_rejected(self, start):
        a = GeneratorParams()
        with pytest.raises(ValueError, match="start_round must be an integer"):
            ShiftSchedule(((start, a),))
        with pytest.raises(ValueError, match="start_round must be an integer"):
            ShiftSchedule(((1, a), (start, a)))

    def test_float_start_rejected_before_any_sample(self):
        # 1.0 == 1, so only the type check keeps it out of the RNG key
        with pytest.raises(ValueError, match="start_round"):
            list(iter_samples(ShiftSchedule(((1.0, GeneratorParams()),)), 3, 0))

    def test_numpy_integer_start_accepted(self):
        b = GeneratorParams(seed=2)
        sch = ShiftSchedule(((1, GeneratorParams()), (np.int64(50), b)))
        assert active_params(sch, 50) is b

    def test_mixed_depths_rejected(self):
        with pytest.raises(ValueError, match="num_layers"):
            ShiftSchedule(((1, GeneratorParams(num_layers=12)),
                           (5, GeneratorParams(num_layers=6))))


SCHEDULE = ShiftSchedule.constant(GeneratorParams(num_layers=3))

# every site that takes a count: (argument name, least value, call with the count)
COUNT_SITES = {
    "GeneratorParams.num_layers": ("num_layers", 2, lambda v: GeneratorParams(num_layers=v)),
    "GeneratorParams.seed": ("seed", 0, lambda v: GeneratorParams(seed=v)),
    "RewardParams.num_layers": ("num_layers", 1, lambda v: RewardParams(0.0, num_layers=v)),
    "lambda_from_epsilon": ("num_layers", 1, lambda v: lambda_from_epsilon(0.01, v)),
    "BanditState.t": ("t", 0, lambda v: BanditState(grid=default_grid(), t=v)),
    "run_many.num_rounds": ("num_rounds", 0, lambda v: run_many(
        [FixedPolicy(0.5)], stream(SCHEDULE, 2, seed=0), RewardParams(0.0, 3),
        grid=default_grid(), num_rounds=v)),
    "UcbPolicy.horizon": ("horizon", 1, lambda v: UcbPolicy(default_grid(), horizon=v)),
    "ReliabilityModel.num_layers": ("num_layers", 2, lambda v: ReliabilityModel(
        weights=(0.0, 0.0, 0.0), num_layers=v)),
    "Hyperparams.epochs": ("epochs", 1, lambda v: Hyperparams(epochs=v)),
    "stream.num_rounds": ("num_rounds", 1, lambda v: stream(SCHEDULE, v, seed=0)),
    "stream.seed": ("seed", 0, lambda v: stream(SCHEDULE, 1, seed=v)),
    "benchmark_overhead.num_arms": ("num_arms", 1, lambda v: benchmark_overhead(num_arms=v)),
    "benchmark_overhead.rounds": ("rounds", 1, lambda v: benchmark_overhead(rounds=v)),
    "benchmark_overhead.warmup": ("warmup", 0, lambda v: benchmark_overhead(warmup=v)),
}


@pytest.mark.parametrize("bad", ["bool", "float", "below"])
@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_count_rule(site, bad):
    name, least, call = COUNT_SITES[site]
    value, match = {
        "bool": (True, f"{name} must be an integer, got True"),
        "float": (2.0, f"{name} must be an integer, got 2.0"),
        "below": (least - 1, f"{name} must be >= {least}, got {least - 1}"),
    }[bad]
    with pytest.raises(ValueError, match=match):
        call(value)
