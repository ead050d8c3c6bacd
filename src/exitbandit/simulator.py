"""Synthetic multi-exit inference stream.

Each round yields one sample with per-layer (confidence, reliability risk,
correctness) outcomes drawn from a parametric generative model:

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
indices, and one Generator takes each round's (state, inc) in turn. NumPy's
RNG policy (NEP 19) keeps both algorithms stable, and the tests pin the block
computation against SeedSequence and PCG64 themselves. Identical (schedule,
num_rounds, seed) inputs therefore yield bit-identical streams, and each
round is reproducible in isolation.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

# active_params stays in this namespace: the benchmark's traced run wraps
# simulator.active_params
from .env import GeneratorParams, SampleOutcomes, ShiftSchedule, active_params  # noqa: F401
from .env import require_integer

# corrupted layers get confidence in [0.7, 0.95] and correct_prob in [0.05, 0.25]
_CORRUPT_CONF_LO = 0.7
_CORRUPT_CONF_HI = 0.95
_CORRUPT_PROB_LO = 0.05
_CORRUPT_PROB_HI = 0.25

# rounds seeded per vectorized pass; bounds the size of the per-block arrays
_BLOCK_ROUNDS = 512

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


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def max_corruptible_layer(num_layers: int) -> int:
    """Largest 1-based layer index strictly below num_layers / 2 (0 if none)."""
    return (num_layers - 1) // 2


def generate_sample(params: GeneratorParams, rng: np.random.Generator) -> SampleOutcomes:
    """Draw one sample's per-layer outcomes from the given RNG state."""
    L = params.num_layers
    sigma = params.confidence_noise
    rs = params.reliability_signal

    # fixed draw order; scale noise by hand so sigma=0 consumes the same entropy.
    # The vectors become plain floats once, so everything below (and every
    # stored field) is Python float arithmetic with the same IEEE values.
    d = params.difficulty_spread * rng.standard_normal()
    conf_noise = (sigma * rng.standard_normal(L)).tolist()
    realized_u = rng.random(L).tolist()
    feat_noise = ((1.0 - rs) * rng.standard_normal(L)).tolist()
    corrupt_u = rng.random()

    d_eff = d + params.noise_accuracy_drag * sigma

    # the corruption draws come last in the order but change no other layer,
    # so they are taken before the per-layer loop
    corrupt_idx = 0
    top = max_corruptible_layer(L)
    if top >= 1 and corrupt_u < params.overconfidence_rate:
        corrupt_idx = int(rng.integers(1, top + 1))
        corrupt_conf = float(rng.uniform(_CORRUPT_CONF_LO, _CORRUPT_CONF_HI))
        corrupt_cp = float(rng.uniform(_CORRUPT_PROB_LO, _CORRUPT_PROB_HI))

    layers = []  # one (conf, risk, cp, realized, features) row per layer
    for i in range(1, L + 1):
        if i == corrupt_idx:
            conf, cp, realized = corrupt_conf, corrupt_cp, False
        else:
            cp = _logistic(params.depth_gain * (i / L) - d_eff)
            realized = realized_u[i - 1] < cp
            direction = 1.0 if realized else -1.0
            conf = _clamp01(cp * direction + conf_noise[i - 1])
        feat = cp * rs + feat_noise[i - 1]
        layers.append((conf, 1.0 - _clamp01(feat), cp, realized, (conf, i / L, feat)))
    return SampleOutcomes(*zip(*layers))


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


def _pcg64_states(words: np.ndarray) -> tuple[list[int], list[int]]:
    """PCG64's (state, inc) lists seeded from `_seed_words` columns.

    The 8 words are generate_state(4, np.uint64) in little-endian pairs:
    initstate = (u0 << 64) | u1 and initseq = (u2 << 64) | u3.
    """
    u = words.astype(np.uint64)
    u = (u[0::2] | u[1::2] << np.uint64(32)).astype(object)
    inc = (u[2] << 65 | u[3] << 1 | 1) & _MASK128
    state = ((inc + (u[0] << 64 | u[1])) * _PCG64_MULT + inc) & _MASK128
    return state.tolist(), inc.tolist()


def iter_samples(
    schedule: ShiftSchedule, num_rounds: int, seed: int
) -> Iterator[SampleOutcomes]:
    """Lazily yield samples for rounds 1..num_rounds under the schedule.

    The arguments are checked when called, before the first sample is drawn.
    """
    require_integer("num_rounds", num_rounds)
    require_integer("seed", seed)
    if num_rounds < 1:
        raise ValueError("num_rounds must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return _block_seeded_samples(schedule, num_rounds, seed)


def _block_seeded_samples(
    schedule: ShiftSchedule, num_rounds: int, seed: int
) -> Iterator[SampleOutcomes]:
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    stops = [start for start, _ in schedule.segments[1:]] + [num_rounds + 1]
    for (first, params), stop in zip(schedule.segments, stops):
        stop = min(stop, num_rounds + 1)
        while first < stop:
            # a block stays inside one segment and one value of t >> 32
            count = min(stop, first + _BLOCK_ROUNDS, ((first >> 32) + 1) << 32) - first
            states, incs = _pcg64_states(_seed_words(seed, params.seed, first, count))
            for state, inc in zip(states, incs):
                pcg["state"], pcg["inc"] = state, inc
                bit_generator.state = full_state  # also clears the 32-bit buffer
                yield generate_sample(params, rng)
            first += count


def stream(schedule: ShiftSchedule, num_rounds: int, seed: int) -> list[SampleOutcomes]:
    """Materialize the full sample stream (replayable across policies/arms)."""
    return list(iter_samples(schedule, num_rounds, seed))
