"""Synthetic multi-exit inference stream.

Each round yields one sample with per-layer (confidence, reliability risk,
correctness, feature) outcomes drawn from a parametric generative model:

    difficulty     d ~ Normal(0, difficulty_spread)
    correct_prob_i = logistic(depth_gain * i/L - d - drag * confidence_noise)
    realized_i     ~ Bernoulli(correct_prob_i), fixed at generation time
    confidence_i   = clamp01(correct_prob_i * dir_i + Normal(0, confidence_noise))
                     with dir_i = +1 if realized_i else -1
    feature_i      = correct_prob_i * reliability_signal
                     + Normal(0, 1 - reliability_signal)
    risk_i         = 1 - clamp01(feature_i)

With probability overconfidence_rate one shallow layer (index < L/2) is
corrupted to be confidently wrong: realized false, correct_prob pushed below
0.3, confidence pushed to at least 0.7. This is the hazard an exit policy
that trusts raw confidence walks into.

Reproducibility contract: round t draws from its own PCG64 stream, seeded by
numpy's SeedSequence((stream_seed, params.seed, t)) (`round_rng` builds that
one stream), in a fixed order (difficulty, confidence noise vector, realized
uniforms, feature noise vector, corruption draws). `iter_samples` computes
the same per-round seeds for a block of rounds at a time: SeedSequence's
entropy mixing and PCG64's seeding step run in numpy over the block's round
indices. One Generator takes each round's state in turn and writes that
round's draws into its row of the block's arrays; the per-layer transform
then runs once per block in numpy, with the IEEE operations of the scalar
formulas above. Only the exponential is math.exp per element, because
numpy's SIMD exp can differ from it in the last ulp. NumPy's RNG policy (NEP
19) keeps both seeding algorithms stable, and the tests pin the block seeds
against SeedSequence and PCG64 themselves. Identical (schedule, num_rounds,
seed) inputs therefore yield bit-identical streams, and each round is
reproducible in isolation (`generate_sample` is the one-row case).

Both stream forms come from the same five transformed arrays (confidence,
risk, correct prob, realized and feature): `iter_samples` and `stream` build
one SampleOutcomes per row, and `sample_block` concatenates them into one
read-only SampleBlock, equal to the stacked stream bit for bit. A shorter
stream is a prefix of a longer one in either form.

A generated sample is a row of its validated pass: `iter_samples` checks
each pass once as a SampleBlock, builds the pass's samples from its rows
without checking each value again, and links each sample to the block and
its row, so a reader such as `bandit.run_many` can score the pass once. The
link is released when the generator leaves the pass: a built `stream` holds
no block.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

# active_params stays in this namespace: the benchmark's traced run wraps
# simulator.active_params
from .env import GeneratorParams, SampleOutcomes, ShiftSchedule, active_params  # noqa: F401
from .env import SampleBlock, _pass_samples, _unlink, require_count

# a corrupted layer's confidence and correct_prob are uniform on these ranges
_CORRUPT_CONF = (0.7, 0.95)
_CORRUPT_PROB = (0.05, 0.25)

# rounds seeded per vectorized pass, and rounds drawn and transformed per pass
_BLOCK_ROUNDS = 512
_PASS_ROUNDS = 128

# numpy.random.SeedSequence's pool size and hash constants (bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _unit_clamp(x: np.ndarray) -> np.ndarray:
    # np.where, not np.clip (min/max leave the sign of equal zeros open): -0.0 stays -0.0
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def max_corruptible_layer(num_layers: int) -> int:
    """Largest 1-based layer index strictly below num_layers / 2 (0 if none)."""
    return (num_layers - 1) // 2


def _draw_rows(params, rng, states) -> tuple:
    """Set rng to each round's state in turn and draw that round's row in the
    fixed order: Z difficulty and confidence noise, U realized uniforms, F
    feature noise, then the corruption uniform and, on a hit, the corruption
    draws, listed as (row, layer, confidence, correct_prob)."""
    L, count = params.num_layers, len(states)
    top = max_corruptible_layer(L)
    Z, U, F = np.empty((count, L + 1)), np.empty((count, L)), np.empty((count, L))
    corrupted = []
    for row, (state, z, u, f) in enumerate(zip(states, Z, U, F)):
        rng.bit_generator.state = state
        rng.standard_normal(out=z)
        rng.random(out=u)
        rng.standard_normal(out=f)
        if rng.random() < params.overconfidence_rate and top >= 1:
            corrupted.append((row, int(rng.integers(1, top + 1)),
                              float(rng.uniform(*_CORRUPT_CONF)),
                              float(rng.uniform(*_CORRUPT_PROB))))
    return Z, U, F, corrupted


def _columns(params, Z, U, F, corrupted) -> tuple:
    """Transform rows of draws into (B, L) confidence, reliability_risk,
    correct_prob, realized and feature arrays. Noise is scaled here, so
    sigma = 0 draws as much as any sigma (negative draws become -0.0)."""
    L, sigma, rs = params.num_layers, params.confidence_noise, params.reliability_signal
    depth = np.arange(1, L + 1) / L
    x = params.depth_gain * depth - (params.difficulty_spread * Z[:, :1]
                                     + params.noise_accuracy_drag * sigma)
    # logistic(x) through math.exp per element: numpy's SIMD exp can differ in the last ulp
    e = np.fromiter(map(math.exp, (-np.abs(x)).ravel().tolist()), float, x.size).reshape(x.shape)
    cp = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    realized = U < cp
    conf = _unit_clamp(np.where(realized, cp, -cp) + sigma * Z[:, 1:])
    if corrupted:  # before the features, which read conf and cp
        rows, layers, c_conf, c_cp = zip(*corrupted)
        cols = np.array(layers) - 1
        conf[rows, cols], cp[rows, cols], realized[rows, cols] = c_conf, c_cp, False
    feat = cp * rs + (1.0 - rs) * F
    return conf, 1.0 - _unit_clamp(feat), cp, realized, feat


def _samples(columns) -> Iterator[SampleOutcomes]:
    """One SampleOutcomes per row of a pass's _columns arrays: the pass is
    validated once, as a SampleBlock, and each sample holds it and its row
    until the generator leaves the pass."""
    samples = _pass_samples(SampleBlock(*columns))
    try:
        yield from samples
    finally:
        _unlink(samples)


def generate_sample(params: GeneratorParams, rng: np.random.Generator) -> SampleOutcomes:
    """Draw one sample's per-layer outcomes from the given RNG state: a one-row
    block (setting rng to its own state changes nothing)."""
    return next(_samples(_columns(params, *_draw_rows(params, rng, [rng.bit_generator.state]))))


def round_rng(stream_seed: int, params_seed: int, round_index: int) -> np.random.Generator:
    """One round's RNG stream: the reference for the seeds `iter_samples` computes."""
    ss = np.random.SeedSequence((stream_seed, params_seed, round_index))
    return np.random.Generator(np.random.PCG64(ss))


def _int_words(n: int) -> list[int]:
    """SeedSequence's entropy words for a non-negative int: uint32, low first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_words(stream_seed: int, params_seed: int, first: int, count: int) -> np.ndarray:
    """SeedSequence((stream_seed, params_seed, t)).generate_state(8, np.uint32)
    for t = first .. first + count - 1, as a (8, count) array.

    The rounds must share t >> 32, so every key has the same entropy words
    except the lowest word of t, which is a numpy row over the block.
    """
    key = _int_words(stream_seed) + _int_words(params_seed)
    t_row = len(key)
    key += _int_words(first)
    key += [0] * (_POOL_SIZE - len(key))  # hashing a 0 word is how the pool pads
    entropy = np.array(key, dtype=np.uint32)[:, None].repeat(count, axis=1)
    entropy[t_row] += np.arange(count, dtype=np.uint32)

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append(value ^ value >> 16)
    return np.array(words)


def _pcg64_states(words: np.ndarray) -> list[dict]:
    """PCG64's full state dict per `_seed_words` column (has_uint32 = 0 clears
    the 32-bit buffer a previous round may have left). The 8 words are
    generate_state(4, np.uint64) in little-endian pairs: initstate =
    (u0 << 64) | u1 and initseq = (u2 << 64) | u3."""
    u = words.astype(np.uint64)
    u = (u[0::2] | u[1::2] << np.uint64(32)).astype(object)
    inc = (u[2] << 65 | u[3] << 1 | 1) & _MASK128
    state = ((inc + (u[0] << 64 | u[1])) * _PCG64_MULT + inc) & _MASK128
    return [{"bit_generator": "PCG64", "state": {"state": s, "inc": i},
             "has_uint32": 0, "uinteger": 0} for s, i in zip(state.tolist(), inc.tolist())]


def _check_stream_args(num_rounds, seed) -> None:
    require_count("num_rounds", num_rounds, 1)
    require_count("seed", seed, 0)


def _passes(schedule, num_rounds, seed) -> Iterator[tuple]:
    """_columns of rounds 1..num_rounds, one pass of rows at a time."""
    rng = np.random.Generator(np.random.PCG64(0))
    stops = [start for start, _ in schedule.segments[1:]] + [num_rounds + 1]
    for (first, params), stop in zip(schedule.segments, stops):
        stop = min(stop, num_rounds + 1)
        while first < stop:
            # a block stays inside one segment and one value of t >> 32
            count = min(stop, first + _BLOCK_ROUNDS, ((first >> 32) + 1) << 32) - first
            states = _pcg64_states(_seed_words(seed, params.seed, first, count))
            for lo in range(0, count, _PASS_ROUNDS):
                yield _columns(params, *_draw_rows(params, rng, states[lo:lo + _PASS_ROUNDS]))
            first += count


def iter_samples(schedule: ShiftSchedule, num_rounds: int, seed: int) -> Iterator[SampleOutcomes]:
    """Lazily yield samples for rounds 1..num_rounds under the schedule.

    The arguments are checked when called, before the first sample is drawn.
    """
    _check_stream_args(num_rounds, seed)
    return itertools.chain.from_iterable(map(_samples, _passes(schedule, num_rounds, seed)))


def stream(schedule: ShiftSchedule, num_rounds: int, seed: int) -> list[SampleOutcomes]:
    """Materialize the full sample stream (replayable across policies/arms)."""
    return list(iter_samples(schedule, num_rounds, seed))


def sample_block(schedule: ShiftSchedule, num_rounds: int, seed: int) -> SampleBlock:
    """The same stream as one SampleBlock: stream's samples, stacked."""
    _check_stream_args(num_rounds, seed)
    columns = zip(*_passes(schedule, num_rounds, seed))
    return SampleBlock(*(np.concatenate(column) for column in columns))
