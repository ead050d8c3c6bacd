"""Reliability scorer: model arithmetic, objective terms, and training."""

import json
import math

import numpy as np
import pytest

from conftest import make_sample
from exitbandit import (
    GeneratorParams,
    SampleOutcomes,
    ShiftSchedule,
    compute_c_from_samples,
    dataset_from_samples,
    rescore_stream,
    stream,
    train,
)
from exitbandit.reliability import (
    CE_FLOOR,
    CoverageTargets,
    Dataset,
    Hyperparams,
    ReliabilityModel,
    auc_score,
    batch_scores,
    compute_c,
    coverage,
    finite_difference_gradient,
    hinge_sq,
    loss_interference_experiment,
    objective_gradient,
    per_exit_coverage,
    rescore_sample,
    score,
)


def logit(p):
    return math.log(p / (1.0 - p))


def crafted_dataset(values, layers, num_layers=2):
    """Single-feature dataset whose scores under weights (1, 0, 0) are sigmoid(x)."""
    n = len(values)
    inputs = np.column_stack([
        np.asarray(values, dtype=np.float64),
        np.asarray(layers, dtype=np.float64) / num_layers,
        np.ones(n),
    ])
    return Dataset(
        inputs=inputs,
        cross_entropy=np.full(n, 0.1),
        layer_index=np.asarray(layers, dtype=np.int64),
        correct=np.ones(n, dtype=bool),
        num_layers=num_layers,
    )


class TestScore:
    def test_zero_weights_score_half(self):
        model = ReliabilityModel((0.0, 0.0, 0.0), num_layers=4)
        assert score(model, (3.7,), 2) == 0.5

    def test_matches_manual_sigmoid(self):
        model = ReliabilityModel((0.3, -0.2, 0.1, 0.4), num_layers=4)
        z = 0.3 * 1.5 - 0.2 * 0.25 + 0.1 * (3 / 4) + 0.4
        assert score(model, (1.5, 0.25), 3) == pytest.approx(
            1.0 / (1.0 + math.exp(-z)), abs=1e-15
        )

    def test_feature_dim_mismatch(self):
        model = ReliabilityModel((0.1, 0.2, 0.3), num_layers=4)
        with pytest.raises(ValueError, match="features"):
            score(model, (1.0, 2.0), 1)

    def test_layer_out_of_range(self):
        model = ReliabilityModel((0.1, 0.2, 0.3), num_layers=4)
        for layer in (0, 5):
            with pytest.raises(ValueError, match="layer_index"):
                score(model, (1.0,), layer)

    def test_batch_matches_pointwise(self):
        model = ReliabilityModel((0.7, -0.3, 0.2), num_layers=2)
        ds = crafted_dataset([0.4, -1.2, 2.0], [1, 1, 2])
        batched = batch_scores(model, ds)
        for k in range(3):
            assert batched[k] == pytest.approx(
                score(model, (ds.inputs[k, 0],), int(ds.layer_index[k])), abs=1e-15
            )

    def test_batch_feature_dim_mismatch(self):
        model = ReliabilityModel((0.1, 0.2, 0.3, 0.4), num_layers=2)
        with pytest.raises(ValueError, match="feature dim"):
            batch_scores(model, crafted_dataset([0.0, 0.1], [1, 2]))


class TestModelValidation:
    def test_rejects_shallow_depth(self):
        with pytest.raises(ValueError):
            ReliabilityModel((0.1, 0.2, 0.3), num_layers=1)

    def test_rejects_short_weights(self):
        with pytest.raises(ValueError):
            ReliabilityModel((0.1, 0.2), num_layers=4)

    def test_rejects_nonfinite_weights(self):
        with pytest.raises(ValueError):
            ReliabilityModel((0.1, math.nan, 0.3), num_layers=4)


class TestModelJson:
    def test_round_trip_is_bit_exact(self):
        model = ReliabilityModel((0.1, -2.25, 1e-9, 0.375), num_layers=12)
        again = ReliabilityModel.from_json(model.to_json())
        assert again == model

    def test_rejects_unknown_schema(self):
        payload = json.loads(ReliabilityModel((0.1, 0.2, 0.3), 4).to_json())
        payload["schema"] = "something-else"
        with pytest.raises(ValueError, match="schema"):
            ReliabilityModel.from_json(json.dumps(payload))

    def test_rejects_unknown_version(self):
        payload = json.loads(ReliabilityModel((0.1, 0.2, 0.3), 4).to_json())
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ReliabilityModel.from_json(json.dumps(payload))


class TestCoverage:
    def test_mixed_scores_cover_half(self):
        model = ReliabilityModel((1.0, 0.0, 0.0), num_layers=2)
        ds = crafted_dataset(
            [logit(0.4), logit(0.6), logit(0.3), logit(0.7)], [1, 1, 2, 2]
        )
        assert coverage(model, ds) == 0.5
        np.testing.assert_allclose(per_exit_coverage(model, ds), [0.5, 0.5])

    def test_boundary_counts_as_covered(self):
        model = ReliabilityModel((0.0, 0.0, 0.0), num_layers=2)
        ds = crafted_dataset([5.0, -5.0], [1, 2])
        assert coverage(model, ds) == 1.0


class TestDatasetValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Dataset(
                inputs=np.zeros((0, 3)),
                cross_entropy=np.zeros(0),
                layer_index=np.zeros(0, dtype=np.int64),
                correct=np.zeros(0, dtype=bool),
                num_layers=2,
            )

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            Dataset(
                inputs=np.zeros((2, 3)),
                cross_entropy=np.zeros(3),
                layer_index=np.asarray([1, 2]),
                correct=np.asarray([True, True]),
                num_layers=2,
            )

    def test_negative_cross_entropy_rejected(self):
        with pytest.raises(ValueError, match="cross-entropy"):
            Dataset(
                inputs=np.zeros((2, 3)),
                cross_entropy=np.asarray([0.1, -0.2]),
                layer_index=np.asarray([1, 2]),
                correct=np.asarray([True, True]),
                num_layers=2,
            )

    def test_missing_layer_rejected(self):
        with pytest.raises(ValueError, match="layer"):
            crafted_dataset([0.1, 0.2], [1, 1])


class TestLossTerms:
    def test_hinge_sq(self):
        assert hinge_sq(-0.1) == 0.0
        assert hinge_sq(0.0) == 0.0
        assert hinge_sq(0.2) == pytest.approx(0.04, abs=1e-15)


class TestCoverageTargets:
    def test_compute_c_column_means(self):
        flags = [[True, True]] * 7 + [[False, True]] * 3
        targets = compute_c(flags)
        assert targets.c_per_exit == (0.7, 1.0)

    def test_compute_c_empty(self):
        with pytest.raises(ValueError):
            compute_c([])

    def test_compute_c_from_samples_consistency(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams()), 50, seed=3)
        targets = compute_c_from_samples(samples)
        manual = np.mean([s.realized_correct for s in samples], axis=0)
        np.testing.assert_allclose(targets.c_per_exit, manual)

    def test_targets_domain(self):
        with pytest.raises(ValueError):
            CoverageTargets(())
        with pytest.raises(ValueError):
            CoverageTargets((0.5, 1.2))


class TestHyperparams:
    def test_defaults(self):
        hp = Hyperparams()
        assert hp.learning_rate == 0.1
        assert hp.epochs == 500
        assert hp.sharpness == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(learning_rate=0.0)
        with pytest.raises(ValueError):
            Hyperparams(epochs=0)
        with pytest.raises(ValueError):
            Hyperparams(sharpness=-1.0)


class TestDatasetFromSamples:
    def test_one_row_per_sample_layer(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams()), 5, seed=1)
        ds = dataset_from_samples(samples)
        assert len(ds) == 5 * 12
        assert ds.feature_dim == len(samples[0].g_features[0])
        np.testing.assert_array_equal(ds.inputs[:, -1], 1.0)

    def test_columns_equal_a_per_layer_loop(self):
        # the per-(sample, layer) loop with the same arithmetic is the reference
        samples = stream(ShiftSchedule.constant(GeneratorParams(num_layers=5)), 40, seed=6)
        ds = dataset_from_samples(samples)
        rows, ce = [], []
        for s in samples:
            for i in range(s.num_layers):
                rows.append([*s.g_features[i], (i + 1) / s.num_layers, 1.0])
                p = min(max(s.correct_prob[i], CE_FLOOR), 1.0 - CE_FLOOR)
                ce.append(-math.log(p) if s.realized_correct[i] else -math.log(1.0 - p))
        assert ds.inputs.tolist() == rows
        assert ds.cross_entropy.tolist() == ce
        assert ds.layer_index.tolist() == [i for _ in samples for i in range(1, 6)]
        assert ds.correct.tolist() == [r for s in samples for r in s.realized_correct]

    def test_cross_entropy_encoding(self):
        sample = make_sample([0.5, 0.9], cps=[0.8, 0.8], realized=[True, False])
        ds = dataset_from_samples([sample])
        assert ds.cross_entropy[0] == pytest.approx(-math.log(0.8), abs=1e-12)
        assert ds.cross_entropy[1] == pytest.approx(-math.log(0.2), abs=1e-12)

    def test_certain_wrong_prediction_stays_finite(self):
        sample = make_sample([0.5, 0.9], cps=[1.0, 1.0], realized=[False, True])
        ds = dataset_from_samples([sample])
        assert np.all(np.isfinite(ds.cross_entropy))

    def test_mixed_depth_rejected(self):
        with pytest.raises(ValueError, match="num_layers"):
            dataset_from_samples(
                [make_sample([0.5, 0.6]), make_sample([0.5, 0.6, 0.7])]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_samples([])


class TestGradient:
    def test_analytic_gradient_matches_finite_differences(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams()), 60, seed=17)
        ds = dataset_from_samples(samples)
        targets = compute_c_from_samples(samples)
        rng = np.random.default_rng(17)
        for _ in range(10):
            w = rng.normal(scale=0.5, size=ds.feature_dim + 2)
            _, analytic = objective_gradient(w, ds, targets)
            numeric = finite_difference_gradient(w, ds, targets)
            err = np.linalg.norm(analytic - numeric)
            assert err <= 1e-5 * (1.0 + np.linalg.norm(analytic))


class TestTrain:
    def test_loss_history_non_increasing_after_warmup(self):
        # epoch 1 runs against zeroed coverage floors, so only losses from
        # epoch 2 onward are comparable to each other
        samples = stream(ShiftSchedule.constant(GeneratorParams()), 400, seed=21)
        ds = dataset_from_samples(samples)
        history = []
        train(
            ds,
            compute_c_from_samples(samples),
            Hyperparams(learning_rate=0.01, epochs=150),
            loss_history=history,
        )
        assert len(history) == 150
        diffs = np.diff(history[1:])
        assert np.all(diffs <= 1e-9)

    def test_single_epoch_ignores_targets(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams()), 50, seed=3)
        ds = dataset_from_samples(samples)
        one = Hyperparams(epochs=1)
        a = train(ds, compute_c_from_samples(samples), one)
        b = train(ds, CoverageTargets((1.0,) * 12), one)
        assert a.weights == b.weights

    def test_learns_separable_structure(self):
        # realized correctness is a deterministic sign of one feature; the
        # trained scorer must rank rows by it almost perfectly and point the
        # feature weight the right way
        rng = np.random.default_rng(5)
        samps = []
        for _ in range(400):
            xs = [float(rng.uniform(-2, 2)) for _ in (1, 2)]
            realized = tuple(x > 0 for x in xs)
            cps = tuple(float(math.exp(-0.05)) if r else float(1 - math.exp(-3.0))
                        for r in realized)
            features = tuple((x, i / 2, 0.5) for i, x in enumerate(xs, start=1))
            samps.append(SampleOutcomes((0.5, 0.5), (0.5, 0.5), cps, realized, features))
        ds = dataset_from_samples(samps)
        model = train(ds, compute_c_from_samples(samps))
        assert model.weights[0] > 0
        assert auc_score(batch_scores(model, ds), ds.correct) >= 0.99

    def test_coverage_floors_prevent_collapse(self):
        # with zeroed floors the fit term alone drives every score to the
        # distrust side; real floors keep most rows covered
        samples = stream(ShiftSchedule.constant(GeneratorParams()), 800, seed=22)
        ds = dataset_from_samples(samples)
        targets = compute_c_from_samples(samples)
        trained = train(ds, targets)
        collapsed = train(ds, CoverageTargets((0.0,) * 12))
        assert coverage(collapsed, ds) <= 0.1
        assert coverage(trained, ds) >= min(targets.c_per_exit) - 0.05

    def test_held_out_ranking_quality(self):
        params = GeneratorParams(reliability_signal=0.9)
        sch = ShiftSchedule.constant(params)
        ds_train = dataset_from_samples(stream(sch, 800, seed=23))
        ds_test = dataset_from_samples(stream(sch, 800, seed=24))
        model = train(ds_train, compute_c_from_samples(stream(sch, 800, seed=23)))
        assert auc_score(batch_scores(model, ds_test), ds_test.correct) >= 0.8

    def test_initial_weights_length_checked(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams()), 20, seed=3)
        ds = dataset_from_samples(samples)
        with pytest.raises(ValueError, match="initial_weights"):
            train(
                ds,
                compute_c_from_samples(samples),
                Hyperparams(epochs=1),
                initial_weights=[0.0, 0.0],
            )


class TestAucScore:
    def test_hand_case(self):
        got = auc_score(
            np.asarray([0.1, 0.4, 0.35, 0.8]), np.asarray([False, False, True, True])
        )
        assert got == pytest.approx(0.75)

    def test_perfect_and_inverted(self):
        scores = np.asarray([0.1, 0.2, 0.8, 0.9])
        labels = np.asarray([False, False, True, True])
        assert auc_score(scores, labels) == 1.0
        assert auc_score(-scores, labels) == 0.0

    def test_ties_average(self):
        assert auc_score(np.asarray([0.5, 0.5]), np.asarray([False, True])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_score(np.asarray([0.1, 0.2]), np.asarray([True, True]))


class TestRescore:
    def test_replaces_only_the_risk_column(self):
        model = ReliabilityModel((0.0, 0.0, 0.0, 0.0, 0.0), num_layers=2)
        sample = make_sample([0.5, 0.9], cps=[0.7, 0.8], realized=[True, False])
        rescored = rescore_sample(model, sample)
        assert rescored.reliability_risk == (0.5, 0.5)
        assert rescored.confidence == sample.confidence
        assert rescored.correct_prob == sample.correct_prob
        assert rescored.realized_correct == sample.realized_correct
        assert rescored.g_features == sample.g_features

    def test_stream_maps_every_sample(self):
        model = ReliabilityModel((0.0, 0.0, 0.0, 0.0, 0.0), num_layers=2)
        out = rescore_stream(model, [make_sample([0.5, 0.9])] * 3)
        assert len(out) == 3
        assert all(s.reliability_risk[0] == 0.5 for s in out)

    def test_depth_mismatch_rejected(self):
        model = ReliabilityModel((0.0, 0.0, 0.0, 0.0, 0.0), num_layers=12)
        with pytest.raises(ValueError, match="depth"):
            rescore_sample(model, make_sample([0.5, 0.9]))


class TestInterference:
    def test_reliability_term_leaves_classifier_intact(self):
        report = loss_interference_experiment(epochs=50)
        assert set(report) == {"accuracy_plain_ce", "accuracy_joint", "gap"}
        assert report["accuracy_plain_ce"] >= 0.8
        assert report["gap"] < 0.05
