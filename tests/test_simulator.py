"""Synthetic stream generator: distributional examples, corruption, RNG contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitbandit import GeneratorParams, ShiftSchedule, iter_samples, round_rng, stream
from exitbandit.env import SampleOutcomes, active_params
from exitbandit.simulator import (
    _BLOCK_ROUNDS,
    _pcg64_states,
    _seed_words,
    generate_sample,
    max_corruptible_layer,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def confidently_wrong(sample):
    """1-based layers matching the corruption signature of the generator."""
    return [
        layer
        for layer, (conf, realized, cp) in enumerate(
            zip(sample.confidence, sample.realized_correct, sample.correct_prob), start=1)
        if conf >= 0.7 and not realized and cp < 0.3
    ]


class TestCorruption:
    def test_disabled_rate_leaves_no_signature(self):
        sch = ShiftSchedule.constant(GeneratorParams(overconfidence_rate=0.0, seed=3))
        for s in stream(sch, 3000, seed=7):
            assert confidently_wrong(s) == []

    def test_rate_and_locality_at_scale(self):
        # one batch serves both the rate estimate and the locality invariant
        params = GeneratorParams(seed=1)
        sch = ShiftSchedule.constant(params)
        n = 100_000
        hits = 0
        top = max_corruptible_layer(params.num_layers)
        assert top == 5  # strictly below L/2 for L=12
        for s in iter_samples(sch, n, seed=11):
            wrong = confidently_wrong(s)
            if wrong:
                hits += 1
                assert len(wrong) == 1
                assert wrong[0] <= top
        assert hits / n == pytest.approx(0.12, abs=0.01)

    def test_two_layer_network_cannot_corrupt(self):
        assert max_corruptible_layer(2) == 0
        sch = ShiftSchedule.constant(
            GeneratorParams(num_layers=2, overconfidence_rate=1.0)
        )
        for s in stream(sch, 200, seed=0):
            assert confidently_wrong(s) == []


class TestDepthModel:
    def test_huge_gain_drives_final_layer_certain(self):
        params = GeneratorParams(
            confidence_noise=0.0, depth_gain=1000.0, overconfidence_rate=0.0
        )
        for s in stream(ShiftSchedule.constant(params), 50, seed=5):
            assert s.correct_prob[-1] > 1.0 - 1e-6

    def test_correctness_monotone_in_depth(self):
        # without corruption every sample's correct_prob rises with depth
        params = GeneratorParams(overconfidence_rate=0.0, seed=2)
        samples = stream(ShiftSchedule.constant(params), 10_000, seed=13)
        cp = np.asarray([s.correct_prob for s in samples])
        assert np.all(np.diff(cp, axis=1) >= 0.0)
        means = cp.mean(axis=0)
        assert np.all(np.diff(means) >= -1e-3)

    def test_zero_noise_confidence_tracks_correctness(self):
        params = GeneratorParams(confidence_noise=0.0, overconfidence_rate=0.0)
        for s in stream(ShiftSchedule.constant(params), 300, seed=4):
            for conf, cp, realized in zip(s.confidence, s.correct_prob, s.realized_correct):
                if realized:
                    assert conf == cp
                else:
                    assert conf == 0.0  # -correct_prob clamped at zero

    def test_noise_shift_lowers_final_accuracy(self):
        # drag couples confidence noise into difficulty; a mid-stream noise
        # jump must depress deep-layer correctness in the second half
        base = dict(depth_gain=4.0, difficulty_spread=1.5, overconfidence_rate=0.0)
        quiet = GeneratorParams(confidence_noise=0.05, **base)
        noisy = GeneratorParams(confidence_noise=0.4, **base)
        sch = ShiftSchedule(((1, quiet), (5001, noisy)))
        for seed in range(10):
            cps = [s.correct_prob[-1] for s in iter_samples(sch, 10_000, seed)]
            assert np.mean(cps[5000:]) < np.mean(cps[:5000])


class TestReproducibility:
    def test_identical_inputs_identical_streams(self):
        sch = ShiftSchedule.constant(GeneratorParams())
        assert stream(sch, 50, seed=9) == stream(sch, 50, seed=9)

    def test_streams_differ_across_seeds(self):
        sch = ShiftSchedule.constant(GeneratorParams())
        assert stream(sch, 50, seed=9) != stream(sch, 50, seed=10)

    def test_rounds_reproducible_in_isolation(self):
        params = GeneratorParams(seed=6)
        sch = ShiftSchedule.constant(params)
        samples = stream(sch, 40, seed=21)
        for t in (1, 17, 40):
            lone = generate_sample(params, round_rng(21, params.seed, t))
            assert lone == samples[t - 1]

    def test_params_seed_changes_stream(self):
        a = ShiftSchedule.constant(GeneratorParams(seed=0))
        b = ShiftSchedule.constant(GeneratorParams(seed=1))
        assert stream(a, 20, seed=3) != stream(b, 20, seed=3)

    def test_zero_rounds_rejected(self):
        sch = ShiftSchedule.constant(GeneratorParams())
        with pytest.raises(ValueError, match="num_rounds"):
            list(iter_samples(sch, 0, seed=0))

    def test_negative_seed_rejected(self):
        sch = ShiftSchedule.constant(GeneratorParams())
        with pytest.raises(ValueError, match="seed"):
            list(iter_samples(sch, 1, seed=-1))

    @pytest.mark.parametrize("k", [1, 127, 128, 129, 511, 512, 513, 1025])
    def test_prefixes_are_stable(self, k):
        # a shorter stream is a prefix of a longer one, so nothing a row, a
        # transform pass or a seeding block leaves behind reaches the next;
        # the schedule shifts inside the first block and on a block edge
        sch = ShiftSchedule((
            (1, GeneratorParams(overconfidence_rate=0.5)),
            (300, GeneratorParams(confidence_noise=0.4, seed=5)),
            (300 + _BLOCK_ROUNDS, GeneratorParams(overconfidence_rate=1.0, depth_gain=4.0)),
        ))
        assert stream(sch, k, seed=2) == stream(sch, 1100, seed=2)[:k]

    def test_correct_prob_keeps_math_exp_last_ulp(self):
        # numpy's SIMD exp gives 0.03263061711101994 here; the contract is math.exp
        sample = stream(ShiftSchedule.constant(GeneratorParams()), 4, seed=0)[3]
        assert sample.correct_prob[0] == 0.032630617111019944

    @pytest.mark.parametrize("num_rounds, seed, match", [
        (0, 0, "num_rounds"), (1, -5, "seed"), (2.5, 0, "num_rounds"),
        (3.0, 0, "num_rounds"), (True, 0, "num_rounds"), ("3", 0, "num_rounds"),
        (3, 1.5, "seed"), (3, False, "seed"), (3, None, "seed"),
    ])
    def test_bad_arguments_rejected_before_iteration(self, num_rounds, seed, match):
        sch = ShiftSchedule.constant(GeneratorParams())
        with pytest.raises(ValueError, match=match):
            iter_samples(sch, num_rounds, seed=seed)


# stream seeds and params seeds at the edges of SeedSequence's word count
KEY_INTS = st.sampled_from([0, 2**32 - 1, 2**32]) | st.integers(0, 9).map(lambda k: 2**64 + k) \
    | st.integers(0, 2**80)
FIRST_ROUNDS = st.sampled_from([1, 2**32 - 1, 2**32]) | st.integers(1, 2**70)


class TestBlockSeeding:
    """The vectorized block seeds equal numpy's SeedSequence and PCG64."""

    @given(stream_seed=KEY_INTS, params_seed=KEY_INTS, first=FIRST_ROUNDS,
           count=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_words_and_states_match_numpy(self, stream_seed, params_seed, first, count):
        # a block never spans two values of t >> 32
        count = min(count, (((first >> 32) + 1) << 32) - first)
        words = _seed_words(stream_seed, params_seed, first, count)
        states = _pcg64_states(words)
        assert words.shape == (8, count)
        for j in range(count):
            seq = np.random.SeedSequence((stream_seed, params_seed, first + j))
            assert words[:, j].tolist() == seq.generate_state(8, np.uint32).tolist()
            assert states[j] == np.random.PCG64(seq).state

    def test_streams_match_round_rng_across_segments_and_blocks(self):
        # segment starts on a block edge (1 + _BLOCK_ROUNDS) and inside a block;
        # overconfidence_rate 1.0 makes every round draw rng.integers, which
        # buffers half a 64-bit word, so each round must start with has_uint32 = 0
        edge = 1 + _BLOCK_ROUNDS
        inside = edge + _BLOCK_ROUNDS // 2
        sch = ShiftSchedule((
            (1, GeneratorParams(overconfidence_rate=1.0, seed=1)),
            (edge, GeneratorParams(overconfidence_rate=1.0, seed=2**32)),
            (inside, GeneratorParams(overconfidence_rate=1.0, confidence_noise=0.2)),
        ))
        num_rounds = inside + _BLOCK_ROUNDS + 50
        for seed in (0, 2**32 + 7):
            expected = []
            for t in range(1, num_rounds + 1):
                params = active_params(sch, t)
                expected.append(generate_sample(params, round_rng(seed, params.seed, t)))
            assert list(iter_samples(sch, num_rounds, seed)) == expected


def _logistic(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _clamp01(x):
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def scalar_reference_sample(params, rng):
    """One round as a per-layer Python float loop, drawing in the contract's
    order: the formulas the block transform must reproduce bit for bit."""
    L, sigma, rs = params.num_layers, params.confidence_noise, params.reliability_signal
    d = params.difficulty_spread * rng.standard_normal()
    conf_noise = (sigma * rng.standard_normal(L)).tolist()
    realized_u = rng.random(L).tolist()
    feat_noise = ((1.0 - rs) * rng.standard_normal(L)).tolist()
    corrupt_u = rng.random()
    d_eff = d + params.noise_accuracy_drag * sigma
    corrupt_idx = 0
    top = max_corruptible_layer(L)
    if top >= 1 and corrupt_u < params.overconfidence_rate:
        corrupt_idx = int(rng.integers(1, top + 1))
        corrupt_conf, corrupt_cp = float(rng.uniform(0.7, 0.95)), float(rng.uniform(0.05, 0.25))
    layers = []
    for i in range(1, L + 1):
        if i == corrupt_idx:
            conf, cp, realized = corrupt_conf, corrupt_cp, False
        else:
            cp = _logistic(params.depth_gain * (i / L) - d_eff)
            realized = realized_u[i - 1] < cp
            conf = _clamp01(cp * (1.0 if realized else -1.0) + conf_noise[i - 1])
        feat = cp * rs + feat_noise[i - 1]
        layers.append((conf, 1.0 - _clamp01(feat), cp, realized, (conf, i / L, feat)))
    return SampleOutcomes(*zip(*layers))


GENERATOR_PARAMS = st.builds(
    GeneratorParams,
    num_layers=st.integers(2, 16),
    difficulty_spread=st.sampled_from([0.0, 1000.0]) | st.floats(0.0, 50.0),
    depth_gain=st.floats(0.0, 1000.0),
    confidence_noise=st.just(0.0) | st.floats(0.0, 2.0),
    reliability_signal=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    overconfidence_rate=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    noise_accuracy_drag=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**33),
)


class TestBlockTransform:
    """The block transform equals the per-layer float loop, signed zeros included."""

    @given(params=GENERATOR_PARAMS, seed=st.integers(0, 2**33))
    @settings(max_examples=60, deadline=None)
    def test_stream_matches_scalar_reference(self, params, seed):
        # 140 rounds cross one transform pass; repr shows -0.0 where == would not
        samples = stream(ShiftSchedule.constant(params), 140, seed)
        for t, sample in enumerate(samples, start=1):
            expected = scalar_reference_sample(params, round_rng(seed, params.seed, t))
            assert repr(sample) == repr(expected)

    @given(params=GENERATOR_PARAMS, seed=st.integers(0, 2**33))
    @settings(max_examples=60, deadline=None)
    def test_generate_sample_draws_like_scalar_reference(self, params, seed):
        # same outcomes, and the rng is left where the reference leaves it
        rng, reference_rng = round_rng(seed, params.seed, 1), round_rng(seed, params.seed, 1)
        assert repr(generate_sample(params, rng)) == repr(
            scalar_reference_sample(params, reference_rng))
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestSampleShape:
    def test_layer_fields_in_range(self):
        sch = ShiftSchedule.constant(GeneratorParams(seed=8))
        for s in stream(sch, 500, seed=2):
            assert s.num_layers == 12
            for column in (s.confidence, s.reliability_risk, s.correct_prob):
                assert all(0.0 <= v <= 1.0 for v in column)
            assert all(len(features) == 3 for features in s.g_features)

    def test_realized_rate_tracks_correct_prob(self):
        sch = ShiftSchedule.constant(GeneratorParams(overconfidence_rate=0.0))
        samples = stream(sch, 20_000, seed=17)
        cp = np.asarray([s.correct_prob[0] for s in samples])
        hit = np.asarray([s.realized_correct[0] for s in samples])
        sigma = np.sqrt(np.mean(cp * (1 - cp)) / len(samples))
        assert abs(hit.mean() - cp.mean()) < 4 * sigma + 1e-9
