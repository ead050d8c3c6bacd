"""Reliability scorer: model arithmetic, objective terms, and training."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_sample
from reliability_checks import finite_difference_gradient, loss_interference_experiment
from exitbandit import (
    GeneratorParams,
    SampleOutcomes,
    ShiftSchedule,
    compute_c_from_samples,
    dataset_from_samples,
    stream,
    train,
)
from exitbandit import reliability
from exitbandit.reliability import (
    CE_FLOOR,
    SURROGATE_SHARPNESS,
    CoverageTargets,
    Dataset,
    Hyperparams,
    ReliabilityModel,
    auc_score,
    batch_scores,
    compute_c,
    coverage,
    hinge_sq,
    objective_gradient,
    per_exit_coverage,
)
from exitbandit.simulator import sample_block


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
        model = ReliabilityModel((0.0, 0.0, 0.0), num_layers=2)
        assert batch_scores(model, crafted_dataset([3.7, -1.0], [1, 2])).tolist() == [0.5, 0.5]

    def test_matches_manual_sigmoid(self):
        model = ReliabilityModel((0.3, -0.2, 0.1, 0.4), num_layers=4)
        ds = Dataset(np.array([[1.5, 0.25, 3 / 4, 1.0]]), np.zeros(1), np.array([1]),
                     np.ones(1, dtype=bool), 1)
        z = 0.3 * 1.5 - 0.2 * 0.25 + 0.1 * (3 / 4) + 0.4
        assert batch_scores(model, ds)[0] == pytest.approx(
            1.0 / (1.0 + math.exp(-z)), abs=1e-15
        )

    def test_batch_matches_pointwise(self):
        model = ReliabilityModel((0.7, -0.3, 0.2), num_layers=2)
        ds = crafted_dataset([0.4, -1.2, 2.0], [1, 1, 2])
        batched = batch_scores(model, ds)
        for k, (x, layer) in enumerate(((0.4, 1), (-1.2, 1), (2.0, 2))):
            z = 0.7 * x - 0.3 * (layer / 2) + 0.2
            assert batched[k] == pytest.approx(1.0 / (1.0 + math.exp(-z)), abs=1e-15)

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

    @pytest.mark.parametrize("num_layers", [12.0, 12.7, True, "12"])
    def test_rejects_non_integer_depth(self, num_layers):
        with pytest.raises(ValueError, match="num_layers must be an integer"):
            ReliabilityModel((0.1, 0.2, 0.3), num_layers=num_layers)

    @pytest.mark.parametrize("weight", [True, "0.2", None])
    def test_rejects_non_number_weights(self, weight):
        with pytest.raises(ValueError, match="weight must be a finite number"):
            ReliabilityModel((0.1, weight, 0.3), num_layers=4)


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

    @pytest.mark.parametrize("num_layers", [12.7, 12.0, "12", True])
    def test_rejects_non_integer_depth(self, num_layers):
        payload = json.loads(ReliabilityModel((0.1, 0.2, 0.3), 12).to_json())
        payload["num_layers"] = num_layers
        with pytest.raises(ValueError, match="num_layers must be an integer"):
            ReliabilityModel.from_json(json.dumps(payload))

    @pytest.mark.parametrize("weights", [[0.1, True, 0.3], [0.1, "0.2", 0.3], "0.1", 0.1])
    def test_rejects_non_number_weights(self, weights):
        payload = json.loads(ReliabilityModel((0.1, 0.2, 0.3), 4).to_json())
        payload["weights"] = weights
        with pytest.raises(ValueError, match="weight"):
            ReliabilityModel.from_json(json.dumps(payload))

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"model"'])
    def test_rejects_non_object_payload(self, text):
        with pytest.raises(ValueError, match="must be an object"):
            ReliabilityModel.from_json(text)

    @pytest.mark.parametrize("key", ["num_layers", "weights"])
    def test_rejects_missing_key(self, key):
        payload = json.loads(ReliabilityModel((0.1, 0.2, 0.3), 4).to_json())
        del payload[key]
        with pytest.raises(ValueError, match=f"lacks \\['{key}'\\]"):
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

    @pytest.mark.parametrize("layers", [[1, 2, 3], [0, 1, 2]])
    def test_layer_index_out_of_range_rejected(self, layers):
        # the objective would drop such a row while len() and coverage() count it
        with pytest.raises(ValueError, match="outside 1..2"):
            crafted_dataset([0.1, 0.2, 0.3], layers)

    def test_ungrouped_rows_rejected(self):
        with pytest.raises(ValueError, match="grouped by layer"):
            crafted_dataset([0.1, 0.2, 0.3, 0.4], [1, 2, 1, 2])


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

    @pytest.mark.parametrize("name", ["learning_rate", "sharpness"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "0.1"])
    def test_rejects_non_finite_rates(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            Hyperparams(**{name: bad})

    @pytest.mark.parametrize("bad", [2.5, 500.0, True, "500"])
    def test_rejects_non_integer_epochs(self, bad):
        with pytest.raises(ValueError, match="epochs must be an integer"):
            Hyperparams(epochs=bad)


class TestDatasetFromSamples:
    def test_one_row_per_sample_layer(self):
        samples = stream(ShiftSchedule.constant(GeneratorParams()), 5, seed=1)
        ds = dataset_from_samples(samples)
        assert len(ds) == 5 * 12
        assert ds.feature_dim == 3  # confidence, layer/L, feat
        np.testing.assert_array_equal(ds.inputs[:, -1], 1.0)

    def test_columns_equal_a_per_layer_loop(self):
        # the per-(layer, sample) loop with the same arithmetic is the reference
        samples = stream(ShiftSchedule.constant(GeneratorParams(num_layers=5)), 40, seed=6)
        ds = dataset_from_samples(samples)
        rows, ce = [], []
        for i in range(5):
            for s in samples:
                depth = (i + 1) / s.num_layers
                rows.append([s.confidence[i], depth, s.feat[i], depth, 1.0])
                p = min(max(s.correct_prob[i], CE_FLOOR), 1.0 - CE_FLOOR)
                ce.append(-math.log(p) if s.realized_correct[i] else -math.log(1.0 - p))
        assert ds.inputs.tolist() == rows
        assert ds.cross_entropy.tolist() == ce
        assert ds.layer_index.tolist() == [i for i in range(1, 6) for _ in samples]
        assert ds.correct.tolist() == [s.realized_correct[i] for i in range(5) for s in samples]
        assert ds.layer_rows == [slice(40 * i, 40 * (i + 1)) for i in range(5)]

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
        with pytest.raises(ValueError, match="depth"):
            dataset_from_samples(
                [make_sample([0.5, 0.6]), make_sample([0.5, 0.6, 0.7])]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_samples([])

    def test_block_and_list_give_byte_identical_datasets(self):
        schedule = ShiftSchedule.constant(GeneratorParams(num_layers=7))
        block, samples = sample_block(schedule, 300, 9), stream(schedule, 300, 9)
        from_block, from_list = dataset_from_samples(block), dataset_from_samples(samples)
        for name in ("inputs", "cross_entropy", "layer_index", "correct"):
            a, b = getattr(from_block, name), getattr(from_list, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
        assert compute_c_from_samples(block) == compute_c_from_samples(samples)


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


def gathered_objective_gradient(weights, dataset, targets, sharpness=SURROGATE_SHARPNESS):
    """The objective as computed before rows were grouped by layer: each layer's
    rows are gathered by index, every product is formed per layer."""
    w = np.asarray(weights, dtype=np.float64)
    g = 1.0 / (1.0 + np.exp(-(dataset.inputs @ w)))
    g_prime = g * (1.0 - g)
    surrogate = 1.0 / (1.0 + np.exp(-(sharpness * (g - 0.5))))
    surrogate_prime = sharpness * surrogate * (1.0 - surrogate)
    depth_weights = np.arange(1, dataset.num_layers + 1, dtype=np.float64)
    depth_weights /= depth_weights.sum()
    total = 0.0
    grad = np.zeros_like(w)
    for i in range(dataset.num_layers):
        rows = np.flatnonzero(dataset.layer_index == i + 1)
        m = len(rows)
        x_i = dataset.inputs[rows]
        ce_i = dataset.cross_entropy[rows]
        fit = float(np.mean(ce_i * (1.0 + g[rows])))
        cov = float(np.mean(surrogate[rows]))
        gap = targets.c_per_exit[i] - cov
        total += depth_weights[i] * (fit + hinge_sq(gap))
        dg = (ce_i * g_prime[rows]) / m
        if gap > 0.0:
            dg = dg - (2.0 * gap / m) * surrogate_prime[rows] * g_prime[rows]
        grad += depth_weights[i] * (dg @ x_i)
    return total, grad


def _stream_case(num_layers, seed):
    samples = stream(ShiftSchedule.constant(GeneratorParams(num_layers=num_layers)),
                     120, seed=seed)
    return dataset_from_samples(samples), compute_c_from_samples(samples)


def _unequal_layers_case():
    # 3, 1 and 6 rows on three layers, two features, uneven cross-entropy
    rng = np.random.default_rng(8)
    layers = np.repeat([1, 2, 3], [3, 1, 6])
    inputs = np.column_stack((rng.normal(size=(10, 2)), layers / 3, np.ones(10)))
    ds = Dataset(inputs, rng.uniform(0.0, 3.0, 10), layers, rng.random(10) < 0.7, 3)
    return ds, CoverageTargets((0.9, 0.5, 0.99))


BIT_IDENTITY_CASES = {
    "12_layers": lambda: _stream_case(12, 31),
    "5_layers": lambda: _stream_case(5, 32),
    "unequal_layers": _unequal_layers_case,
}


@pytest.mark.parametrize("case", sorted(BIT_IDENTITY_CASES))
class TestMatchesGatheredObjective:
    def test_loss_and_gradient_bit_identical(self, case):
        ds, targets = BIT_IDENTITY_CASES[case]()
        rng = np.random.default_rng(33)
        for scale in (0.1, 0.5, 2.0):
            w = rng.normal(scale=scale, size=ds.feature_dim + 2)
            loss, grad = objective_gradient(w, ds, targets)
            ref_loss, ref_grad = gathered_objective_gradient(w, ds, targets)
            assert loss == ref_loss
            assert grad.tolist() == ref_grad.tolist()

    def test_training_bit_identical(self, case, monkeypatch):
        ds, targets = BIT_IDENTITY_CASES[case]()
        hp = Hyperparams(epochs=200)
        history = []
        model = train(ds, targets, hp, loss_history=history)
        monkeypatch.setattr(reliability, "objective_gradient", gathered_objective_gradient)
        ref_history = []
        ref_model = train(ds, targets, hp, loss_history=ref_history)
        assert model.weights == ref_model.weights
        assert history == ref_history

    def test_some_weights_mix_active_and_inactive_hinges(self, case):
        # the (L, m) epoch folds the hinge's on/off branch into a per-layer
        # coefficient; the weights above must give both values in one call
        ds, targets = BIT_IDENTITY_CASES[case]()
        rng = np.random.default_rng(33)
        mixed = False
        for scale in (0.1, 0.5, 2.0):
            w = rng.normal(scale=scale, size=ds.feature_dim + 2)
            g = 1.0 / (1.0 + np.exp(-(ds.inputs @ w)))
            s = 1.0 / (1.0 + np.exp(-(SURROGATE_SHARPNESS * (g - 0.5))))
            active = {c > np.mean(s[rows]) for c, rows in zip(targets.c_per_exit, ds.layer_rows)}
            mixed |= active == {True, False}
        assert mixed

    def test_replaced_cross_entropy_is_read_again(self, case):
        # loss_interference_experiment refills cross_entropy before every epoch
        ds, targets = BIT_IDENTITY_CASES[case]()
        rng = np.random.default_rng(34)
        w = rng.normal(scale=0.5, size=ds.feature_dim + 2)
        first_loss, first_grad = objective_gradient(w, ds, targets)
        kept = first_grad.tolist()
        ref_loss, ref_grad = gathered_objective_gradient(w, ds, targets)
        assert first_loss == ref_loss and kept == ref_grad.tolist()
        ds.cross_entropy = rng.uniform(0.0, 3.0, len(ds))
        loss, grad = objective_gradient(w, ds, targets)
        ref_loss, ref_grad = gathered_objective_gradient(w, ds, targets)
        assert loss == ref_loss and grad.tolist() == ref_grad.tolist()
        assert first_grad.tolist() == kept


def test_repeated_call_allocates_less_than_one_column():
    # every full-length column lives in the dataset's work arrays after the
    # first call; a call then allocates only per-layer and per-weight arrays
    ds, targets = _stream_case(12, 31)
    w = np.random.default_rng(35).normal(scale=0.5, size=ds.feature_dim + 2)
    objective_gradient(w, ds, targets)
    tracemalloc.start()
    try:
        objective_gradient(w, ds, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(ds) * np.dtype(np.float64).itemsize


class TestTrain:
    @pytest.mark.parametrize("epochs", [1, 7])
    def test_one_objective_gradient_call_per_epoch(self, epochs, monkeypatch):
        # profilers count training epochs by wrapping the module-level function
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return objective_gradient(*args, **kwargs)

        monkeypatch.setattr(reliability, "objective_gradient", counting)
        ds, targets = _unequal_layers_case()
        train(ds, targets, Hyperparams(epochs=epochs))
        assert len(calls) == epochs

    def test_training_drops_the_work_arrays(self):
        # they would otherwise be held while the trained dataset is scored
        ds, targets = _stream_case(5, 32)
        objective_gradient(np.zeros(ds.feature_dim + 2), ds, targets)
        assert ds._work is not None
        train(ds, targets, Hyperparams(epochs=2))
        assert ds._work is None

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
            samps.append(SampleOutcomes((0.5, 0.5), (0.5, 0.5), cps, realized, tuple(xs)))
        ds = dataset_from_samples(samps)
        model = train(ds, compute_c_from_samples(samps))
        assert model.weights[2] > 0  # the feat weight
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


def loop_auc_score(scores, labels):
    """auc_score's former tie-block loop: ranks averaged over each run of equal scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos = int(labels.sum())
    neg = labels.size - pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(labels.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    rank = 1
    while i < labels.size:
        j = i
        while j + 1 < labels.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        avg = 0.5 * (rank + rank + (j - i))
        ranks[order[i : j + 1]] = avg
        rank += j - i + 1
        i = j + 1
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


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

    @pytest.mark.parametrize("distinct", [None, 7, 1])
    def test_equals_the_tie_block_loop(self, distinct):
        # no ties, heavy ties (7 distinct scores) and all tied; tie-averaged
        # ranks are half-integers, so both sums are exact
        rng = np.random.default_rng(0 if distinct is None else distinct)
        for _ in range(5):
            n = int(rng.integers(2, 300))
            scores = rng.random(n) if distinct is None \
                else rng.integers(0, distinct, n).astype(np.float64)
            labels = np.arange(n) % 3 == 0
            rng.shuffle(labels)
            assert auc_score(scores, labels) == loop_auc_score(scores, labels)


class TestInterference:
    def test_reliability_term_leaves_classifier_intact(self):
        report = loss_interference_experiment(epochs=50)
        assert set(report) == {"accuracy_plain_ce", "accuracy_joint", "gap"}
        assert report["accuracy_plain_ce"] >= 0.8
        assert report["gap"] < 0.05
