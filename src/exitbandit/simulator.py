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

Reproducibility contract: every round uses its own PCG64 stream keyed by
(stream_seed, params.seed, round_index) via numpy SeedSequence, and draws in
a fixed order (difficulty, confidence noise vector, realized uniforms,
feature noise vector, corruption draws). Identical (schedule, num_rounds,
seed) inputs therefore yield bit-identical streams, and each round is
reproducible in isolation.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .env import GeneratorParams, SampleOutcomes, ShiftSchedule, active_params

# corrupted layers get confidence in [0.7, 0.95] and correct_prob in [0.05, 0.25]
_CORRUPT_CONF_LO = 0.7
_CORRUPT_CONF_HI = 0.95
_CORRUPT_PROB_LO = 0.05
_CORRUPT_PROB_HI = 0.25


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
    """Per-round RNG stream; the splitting key is part of the format contract."""
    ss = np.random.SeedSequence((stream_seed, params_seed, round_index))
    return np.random.Generator(np.random.PCG64(ss))


def iter_samples(
    schedule: ShiftSchedule, num_rounds: int, seed: int
) -> Iterator[SampleOutcomes]:
    """Lazily yield samples for rounds 1..num_rounds under the schedule."""
    if num_rounds < 1:
        raise ValueError("num_rounds must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    for t in range(1, num_rounds + 1):
        params = active_params(schedule, t)
        yield generate_sample(params, round_rng(seed, params.seed, t))


def stream(schedule: ShiftSchedule, num_rounds: int, seed: int) -> list[SampleOutcomes]:
    """Materialize the full sample stream (replayable across policies/arms)."""
    return list(iter_samples(schedule, num_rounds, seed))
