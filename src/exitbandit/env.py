"""Domain types for the early-exit threshold environment.

The environment is a stream of samples; each sample holds one column per
outcome field, with one entry per exit layer of a depth-L network. A
SampleBlock holds a whole stream as the same columns stacked, one row per
sample. Threshold policies pick an exit threshold per round, and the
outcomes at the chosen exit layer determine the reward.

Each input rule is written here once and called wherever a value enters: the
require_* checks, and a sample's columns (_FIELDS, their block dtypes, the
[0, 1] columns and the finite one), which SampleOutcomes and SampleBlock both read.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field, fields

import numpy as np

DEFAULT_GRID_SIZE = 10
DEFAULT_GRID_LOW = 0.5
DEFAULT_GRID_HIGH = 1.0


def require_integer(name: str, value) -> None:
    """Reject anything but an integer; bool is an Integral but never a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_count(name: str, value, least: int) -> None:
    """Reject anything but an integer of at least least (see require_integer)."""
    require_integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def require_finite(name: str, value) -> None:
    """Reject anything but a finite real number; bool is never one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def require_threshold(value) -> None:
    """Reject an exit threshold outside (0, 1]; NaN, a bool, an array and a non-number
    are never inside. A number compares to True or np.True_, an array to an array."""
    try:
        inside = value is not True and 0.0 < value <= 1.0
    except (TypeError, ValueError):
        inside = False
    if inside is not True and inside is not np.True_:
        raise ValueError(f"threshold {value!r} outside (0, 1]")


@dataclass(frozen=True)
class ThresholdGrid:
    """Finite, strictly increasing set of candidate exit thresholds in (0, 1]."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("threshold grid must be non-empty")
        for v in self.values:
            require_threshold(v)
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("threshold grid must be strictly increasing")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def index_of(self, value: float) -> int:
        """Position of an exact grid value; raises ValueError if absent."""
        return self.values.index(value)


def default_grid() -> ThresholdGrid:
    """Ten equally spaced thresholds from 0.5 to 1.0, both endpoints included.

    linspace pins the endpoints exactly; construction is reproducible
    bit-for-bit across calls.
    """
    values = np.linspace(DEFAULT_GRID_LOW, DEFAULT_GRID_HIGH, DEFAULT_GRID_SIZE)
    return ThresholdGrid(tuple(float(v) for v in values))


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the synthetic multi-exit sample generator.

    num_layers: depth L of the simulated network (>= 2).
    difficulty_spread: std of the per-sample difficulty draw.
    depth_gain: how fast correctness improves with relative depth.
    confidence_noise: std of the noise added to reported confidence.
    reliability_signal: in [0, 1]; 1.0 makes the reliability feature exact,
        0.0 makes it pure noise.
    overconfidence_rate: probability that a sample gets one shallow layer
        corrupted to be confidently wrong.
    noise_accuracy_drag: couples confidence noise into effective difficulty,
        so noisier inputs are also harder (0.0 disables the coupling).
    seed: generator identity; mixed into every per-round RNG stream.
    """

    num_layers: int = 12
    difficulty_spread: float = 2.0
    depth_gain: float = 10.0
    confidence_noise: float = 0.05
    reliability_signal: float = 0.85
    overconfidence_rate: float = 0.12
    noise_accuracy_drag: float = 2.0
    seed: int = 0

    def __post_init__(self):
        require_count("num_layers", self.num_layers, 2)
        require_count("seed", self.seed, 0)
        for name in ("difficulty_spread", "depth_gain", "confidence_noise",
                     "reliability_signal", "overconfidence_rate", "noise_accuracy_drag"):
            require_finite(name, getattr(self, name))
        if self.difficulty_spread < 0:
            raise ValueError("difficulty_spread must be >= 0")
        if self.confidence_noise < 0:
            raise ValueError("confidence_noise must be >= 0")
        if not (0.0 <= self.reliability_signal <= 1.0):
            raise ValueError("reliability_signal must be in [0, 1]")
        if not (0.0 <= self.overconfidence_rate <= 1.0):
            raise ValueError("overconfidence_rate must be in [0, 1]")
        if self.noise_accuracy_drag < 0:
            raise ValueError("noise_accuracy_drag must be >= 0")


@dataclass(frozen=True)
class SampleOutcomes:
    """What the simulated network reports for one sample, one column per field.

    Every column holds one entry per exit layer; index i is layer i + 1.
    confidence is the max-class probability the model would report;
    reliability_risk is the scorer's estimate that the prediction is
    unreliable (the exit score multiplies confidence by 1 - reliability_risk);
    correct_prob is the true probability that the predicted label is right;
    realized_correct is the Bernoulli(correct_prob) draw fixed at generation;
    feat is the generator's reliability feature, the input the reliability
    scorer reads next to confidence and depth.

    A generated sample is also a row of its pass: two private slots, not
    fields, hold the pass's validated SampleBlock and the row's index while
    the generator is in that pass (see _pass_samples). They take no part in
    equality, hashing, repr or replace, and a pickled, copied or user-built
    sample holds no pass.
    """

    __slots__ = ("confidence", "reliability_risk", "correct_prob", "realized_correct", "feat",
                 "_pass", "_row")
    confidence: tuple[float, ...]
    reliability_risk: tuple[float, ...]
    correct_prob: tuple[float, ...]
    realized_correct: tuple[bool, ...]
    feat: tuple[float, ...]

    def __post_init__(self):
        # constructed in bulk by the generator; keep checks flat and cheap
        num_layers = len(self.confidence)
        if num_layers < 2:
            raise ValueError("a sample needs at least 2 layers")
        if any(len(getattr(self, name)) != num_layers for name in _FIELDS):
            raise ValueError("per-layer columns differ in length")
        for name in _UNIT_COLUMNS:
            for value in getattr(self, name):
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name}={value!r} outside [0, 1]")
        for name in _FINITE_COLUMNS:
            for value in getattr(self, name):
                if not -math.inf < value < math.inf:
                    raise ValueError(f"{name}={value!r} is not finite")
        _set_pass(self, None)

    # a frozen dataclass with __slots__ pickles and copies through these
    def __getstate__(self):
        return tuple(getattr(self, name) for name in _FIELDS)

    def __setstate__(self, state):
        for name, value in zip(_FIELDS, state):
            object.__setattr__(self, name, value)
        _set_pass(self, None)

    @property
    def num_layers(self) -> int:
        return len(self.confidence)


@dataclass(frozen=True, eq=False)
class SampleBlock:
    """A whole stream as read-only (T, L) columns: row t is round t + 1.

    The columns are SampleOutcomes', in the same order, stacked: a sample is
    a row of the block. The block is validated once, as a whole, and owns
    its arrays: they are set read-only.
    """

    confidence: np.ndarray
    reliability_risk: np.ndarray
    correct_prob: np.ndarray
    realized_correct: np.ndarray
    feat: np.ndarray

    def __post_init__(self):
        columns = [getattr(self, name) for name in _FIELDS]
        shape = columns[0].shape
        if len(shape) != 2:
            raise ValueError("block columns must be (rounds, layers) arrays")
        if shape[1] < 2:
            raise ValueError("a sample needs at least 2 layers")
        if shape[0] < 1:
            raise ValueError("empty sample stream")
        if any(x.shape != shape for x in columns):
            raise ValueError("per-layer columns differ in shape")
        for name, x, dtype in zip(_FIELDS, columns, _DTYPES):
            if x.dtype != dtype:
                raise ValueError(f"{name} must be a {dtype.name} array")
        for name in _UNIT_COLUMNS:
            x = getattr(self, name)
            bad = ~((x >= 0.0) & (x <= 1.0))  # also catches NaN
            if bad.any():
                raise ValueError(f"{name}={float(x[bad][0])!r} outside [0, 1]")
        for name in _FINITE_COLUMNS:
            x = getattr(self, name)
            bad = ~np.isfinite(x)
            if bad.any():
                raise ValueError(f"{name}={float(x[bad][0])!r} is not finite")
        for x in columns:
            x.flags.writeable = False

    @classmethod
    def from_samples(cls, samples) -> "SampleBlock":
        """Stack an iterable of SampleOutcomes of one depth (a SampleBlock is
        returned as it is)."""
        if isinstance(samples, SampleBlock):
            return samples
        samples = list(samples)
        if not samples:
            raise ValueError("empty sample stream")
        depth = samples[0].num_layers
        if any(s.num_layers != depth for s in samples):
            raise ValueError("stream depth differs between samples")

        def stack(column, dtype):
            values = itertools.chain.from_iterable(map(operator.attrgetter(column), samples))
            return np.fromiter(values, dtype).reshape(len(samples), depth)

        return cls(*map(stack, _FIELDS, _DTYPES))

    def __len__(self) -> int:
        return len(self.confidence)

    @property
    def num_layers(self) -> int:
        return self.confidence.shape[1]

    def rows(self, start: int, stop: int) -> "SampleBlock":
        """Rows start..stop - 1, as a block of views (stop is capped at the
        block's length; an empty range raises like an empty stream)."""
        if not 0 <= start <= stop:
            raise ValueError(f"row range {start}..{stop} needs 0 <= start <= stop")
        if start == 0 and stop >= len(self):
            return self
        return SampleBlock(*(getattr(self, name)[start:stop] for name in _FIELDS))


# a sample's columns, declared once: SampleOutcomes' fields in order, the dtype
# of each as a SampleBlock column, the probability columns and the other real one
_FIELDS = tuple(f.name for f in fields(SampleOutcomes))
_DTYPES = tuple(map(np.dtype, (np.float64, np.float64, np.float64, np.bool_, np.float64)))
_UNIT_COLUMNS, _FINITE_COLUMNS = _FIELDS[:3], _FIELDS[4:]
# the pass slots' setters (they bypass the frozen __setattr__)
_set_pass, _set_row = SampleOutcomes._pass.__set__, SampleOutcomes._row.__set__


def _pass_samples(block: SampleBlock) -> list[SampleOutcomes]:
    """One SampleOutcomes per row of a pass's block, linked to the block and
    its row. The block has run every check __post_init__ would run on its
    rows, so they are not run again."""
    setters = [getattr(SampleOutcomes, name).__set__ for name in _FIELDS]
    set_conf, set_risk, set_cp, set_realized, set_feat = setters
    new = object.__new__
    samples = []
    columns = (getattr(block, name).tolist() for name in _FIELDS)
    for row, (c, k, p, b, f) in enumerate(zip(*(map(tuple, column) for column in columns))):
        sample = new(SampleOutcomes)
        set_conf(sample, c)
        set_risk(sample, k)
        set_cp(sample, p)
        set_realized(sample, b)
        set_feat(sample, f)
        _set_pass(sample, block)
        _set_row(sample, row)
        samples.append(sample)
    return samples


def _unlink(samples) -> None:
    """Release each sample's pass: it is an ordinary sample from then on."""
    for sample in samples:
        _set_pass(sample, None)


@dataclass(frozen=True)
class ShiftSchedule:
    """Piecewise-constant generator parameters over the round axis.

    segments: (start_round, params) pairs; start rounds are integers, the
    first is 1 and they strictly increase. Every segment has the same
    num_layers. A segment applies from its start round (inclusive) until the
    next segment begins.
    """

    segments: tuple[tuple[int, GeneratorParams], ...]
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.segments) == 0:
            raise ValueError("schedule needs at least one segment")
        starts = [s for s, _ in self.segments]
        for start in starts:
            require_integer("start_round", start)
        if len({p.num_layers for _, p in self.segments}) != 1:
            raise ValueError("segments must share one num_layers")
        if starts[0] != 1:
            raise ValueError("first segment must start at round 1")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment starts must be strictly increasing")
        object.__setattr__(self, "_starts", tuple(starts))

    @classmethod
    def constant(cls, params: GeneratorParams) -> "ShiftSchedule":
        return cls(((1, params),))


def active_params(schedule: ShiftSchedule, round_index: int) -> GeneratorParams:
    """Parameters governing a given 1-based round.

    Right-continuous at boundaries: the round equal to a segment start
    already uses the new segment.
    """
    if round_index < 1:
        raise ValueError("round_index is 1-based")
    pos = bisect.bisect_right(schedule._starts, round_index) - 1
    return schedule.segments[pos][1]
