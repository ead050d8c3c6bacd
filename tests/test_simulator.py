"""Synthetic stream generator: distributional examples, corruption, RNG contract."""

import numpy as np
import pytest

from exitbandit import (
    GeneratorParams,
    ShiftSchedule,
    generate_sample,
    iter_samples,
    round_rng,
    stream,
)
from exitbandit.simulator import max_corruptible_layer

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
