"""Exit rule: first threshold crossing, laziness, and the histogram view."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_sample
from exitbandit import (
    Criterion,
    GeneratorParams,
    SampleOutcomes,
    ShiftSchedule,
    decide,
    exit_distribution,
    exits,
    stream,
)
from exitbandit.exits import layer_score
from exitbandit.simulator import sample_block


@pytest.fixture
def scored_confidences(monkeypatch):
    """Confidences the product scorer is called on, in call order."""
    calls = []
    monkeypatch.setitem(exits._SCORERS, Criterion.PRODUCT,
                        lambda conf, risk: calls.append(conf) or conf)
    return calls


class TestLayerScore:
    def test_product(self):
        assert layer_score(0.8, 0.25, Criterion.PRODUCT) == pytest.approx(0.8 * 0.75)

    def test_confidence(self):
        assert layer_score(0.8, 0.25, Criterion.CONFIDENCE) == 0.8

    def test_reliability(self):
        assert layer_score(0.8, 0.25, Criterion.RELIABILITY) == 0.75


class TestDecide:
    def test_first_crossing_wins(self):
        d = decide(make_sample([0.3, 0.75, 0.9]), 0.7)
        assert d.exit_layer == 2
        assert d.early
        assert d.score_at_exit == 0.75

    def test_forced_final_when_nothing_clears(self):
        d = decide(make_sample([0.3, 0.4, 0.5]), 0.7)
        assert d.exit_layer == 3
        assert not d.early

    def test_max_threshold_never_exits_early_on_sub_unit_scores(self):
        d = decide(make_sample([0.9, 0.99, 0.95]), 1.0)
        assert d.exit_layer == 3
        assert not d.early

    def test_max_threshold_exits_on_exact_unit_score(self):
        # clamping can produce a score of exactly 1, and >= is inclusive
        d = decide(make_sample([1.0, 0.5]), 1.0)
        assert d.exit_layer == 1
        assert d.early

    def test_threshold_comparison_is_inclusive(self):
        d = decide(make_sample([0.7, 0.9]), 0.7)
        assert d.exit_layer == 1

    def test_layers_past_exit_never_scored(self, scored_confidences):
        d = decide(make_sample([0.2, 0.8, 0.6, 0.6]), 0.75)
        assert d.exit_layer == 2
        assert scored_confidences == [0.2, 0.8]

    def test_final_layer_scored_even_without_crossing(self, scored_confidences):
        d = decide(make_sample([0.1, 0.2]), 0.9)
        assert scored_confidences == [0.1, 0.2]
        assert d.score_at_exit == 0.2

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.1, "0.5", None, True])
    def test_invalid_threshold_rejected(self, bad):
        with pytest.raises(ValueError, match="threshold"):
            decide(make_sample([0.5, 0.5]), bad)

    def test_criterion_changes_the_exit(self):
        # confident but risky first layer: confidence clears 0.6, product does not
        sample = SampleOutcomes((0.9, 0.5), (0.5, 0.0), (0.8, 0.9), (True, True), (0.8, 0.9))
        assert decide(sample, 0.6, Criterion.CONFIDENCE).exit_layer == 1
        assert decide(sample, 0.6, Criterion.PRODUCT).exit_layer == 2

    @given(
        scores=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8
        ),
        tau_lo=st.floats(min_value=0.05, max_value=0.95),
        bump=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_exit_layer_monotone_in_threshold(self, scores, tau_lo, bump):
        sample = make_sample(scores)
        tau_hi = min(1.0, tau_lo + bump)
        assert decide(sample, tau_lo).exit_layer <= decide(sample, tau_hi).exit_layer

    @given(
        scores=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8
        ),
        tau=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_scan(self, scores, tau):
        sample = make_sample(scores)
        L = len(scores)
        crossing = [i for i in range(L - 1) if scores[i] >= tau]
        expected = crossing[0] + 1 if crossing else L
        assert decide(sample, tau).exit_layer == expected


class TestExitDistribution:
    def test_all_exit_first_layer(self):
        samples = [make_sample([0.9, 0.1, 0.1]) for _ in range(5)]
        np.testing.assert_array_equal(
            exit_distribution(samples, 0.5), [1.0, 0.0, 0.0]
        )

    def test_unreachable_threshold_forces_final(self):
        samples = [make_sample([0.3, 0.3, 0.3]) for _ in range(5)]
        np.testing.assert_array_equal(
            exit_distribution(samples, 0.99), [0.0, 0.0, 1.0]
        )

    def test_hand_enumerated_histogram(self):
        samples = [
            make_sample([0.7, 0.2, 0.1]),  # exits 1
            make_sample([0.5, 0.6, 0.9]),  # exits 2
            make_sample([0.1, 0.2, 0.3]),  # exits 3 (forced)
            make_sample([0.6, 0.9, 0.9]),  # exits 1
        ]
        np.testing.assert_allclose(
            exit_distribution(samples, 0.6), [0.5, 0.25, 0.25]
        )

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        samples = [make_sample(rng.random(4)) for _ in range(50)]
        assert exit_distribution(samples, 0.5).sum() == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sample stream"):
            exit_distribution([], 0.5)

    def test_block_and_its_list_agree(self):
        schedule = ShiftSchedule.constant(GeneratorParams(seed=2))
        samples = stream(schedule, 300, seed=3)
        block = sample_block(schedule, 300, seed=3)
        for criterion in Criterion:
            for tau in (0.5, 0.9, 1.0):
                np.testing.assert_array_equal(exit_distribution(block, tau, criterion),
                                              exit_distribution(samples, tau, criterion))
