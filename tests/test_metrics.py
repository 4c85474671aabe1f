"""Confusion-matrix construction and the derived measure set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecobench import (
    BinaryAggregates,
    ConfusionMatrix,
    MeasureSet,
    confusion_matrix,
    macro_aggregate,
    measures,
    one_vs_rest,
)


def test_confusion_matrix_counts_pairs():
    actual = [0, 0, 1, 2, 1, 2, 2]
    predicted = [0, 1, 1, 2, 0, 2, 0]
    cm = confusion_matrix(actual, predicted, 3)
    expected = np.array([[1, 1, 0], [1, 1, 0], [1, 0, 2]])
    assert np.array_equal(cm.counts, expected)
    assert cm.n_classes == 3
    assert cm.total == 7


def test_confusion_matrix_counts_every_pair_once():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 200))
        actual = rng.integers(0, c, size=n)
        predicted = rng.integers(0, c, size=n)
        cm = confusion_matrix(actual, predicted, c)
        assert cm.total == n
        assert cm.counts[actual[0], predicted[0]] >= 1


def test_confusion_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError, match="equal-length"):
        confusion_matrix([0, 1], [0], 2)
    with pytest.raises(ValueError, match="equal-length"):
        confusion_matrix([], [], 2)
    with pytest.raises(ValueError, match="labels must lie in"):
        confusion_matrix([0, 2], [0, 1], 2)
    with pytest.raises(ValueError, match="labels must lie in"):
        confusion_matrix([0, 1], [0, -1], 2)


def test_confusion_matrix_validates_shape_and_sign():
    with pytest.raises(ValueError, match="square"):
        ConfusionMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        ConfusionMatrix(np.array([[1, -1], [0, 2]]))
    cm = ConfusionMatrix(np.eye(2, dtype=int))
    with pytest.raises(ValueError):
        cm.counts[0, 0] = 5


def test_one_vs_rest_known_values():
    cm = ConfusionMatrix(np.array([[5, 2, 0], [1, 4, 1], [0, 3, 8]]))
    agg = one_vs_rest(cm, 1)
    assert agg.tp == 4
    assert agg.fn == 2
    assert agg.fp == 5
    assert agg.tn == 13
    assert agg.total == cm.total


def test_one_vs_rest_components_always_cover_total():
    rng = np.random.default_rng(11)
    for _ in range(30):
        c = int(rng.integers(2, 7))
        cm = ConfusionMatrix(rng.integers(0, 20, size=(c, c)) + np.eye(c, dtype=int))
        for k in range(c):
            agg = one_vs_rest(cm, k)
            assert agg.tp == cm.counts[k, k]
            assert agg.total == cm.total


def test_one_vs_rest_rejects_bad_index():
    cm = ConfusionMatrix(np.eye(3, dtype=int))
    with pytest.raises(ValueError, match="class_index"):
        one_vs_rest(cm, 3)
    with pytest.raises(ValueError, match="class_index"):
        one_vs_rest(cm, -1)


def test_macro_aggregate_components_sum_to_one():
    rng = np.random.default_rng(13)
    for _ in range(30):
        c = int(rng.integers(2, 7))
        cm = ConfusionMatrix(rng.integers(0, 25, size=(c, c)) + np.eye(c, dtype=int))
        agg = macro_aggregate(cm)
        assert agg.total == pytest.approx(1.0, abs=1e-12)


def test_macro_aggregate_matches_manual_mean():
    cm = ConfusionMatrix(np.array([[5, 2], [1, 4]]))
    agg = macro_aggregate(cm)
    assert agg.tp == pytest.approx((5 + 4) / 24)
    assert agg.fp == pytest.approx((1 + 2) / 24)
    assert agg.fn == pytest.approx((2 + 1) / 24)
    assert agg.tn == pytest.approx((4 + 5) / 24)


def _per_class_macro_aggregate(cm):
    """The macro aggregate as the mean of the per-class one-vs-rest counts."""
    tp = fp = tn = fn = 0.0
    for k in range(cm.n_classes):
        agg = one_vs_rest(cm, k)
        tp += agg.tp
        fp += agg.fp
        tn += agg.tn
        fn += agg.fn
    scale = 1.0 / (cm.n_classes * cm.total)
    return tp * scale, fp * scale, tn * scale, fn * scale


@st.composite
def _confusion_matrices(draw):
    c = draw(st.integers(1, 9))
    counts = draw(st.lists(st.integers(0, 10**6), min_size=c * c, max_size=c * c))
    counts[draw(st.integers(0, c * c - 1))] += 1  # a positive total
    return ConfusionMatrix(np.array(counts).reshape(c, c))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_confusion_matrices())
def test_macro_aggregate_closed_form_equals_the_per_class_sum_bit_for_bit(cm):
    agg = macro_aggregate(cm)
    got = np.array([agg.tp, agg.fp, agg.tn, agg.fn])
    assert got.tobytes() == np.array(_per_class_macro_aggregate(cm)).tobytes()


def test_macro_accuracy_equals_label_agreement_rate():
    # for two classes the macro accuracy must collapse to trace / total
    rng = np.random.default_rng(17)
    for _ in range(20):
        cm = ConfusionMatrix(rng.integers(0, 30, size=(2, 2)) + 1)
        found = measures(macro_aggregate(cm))
        expected = np.trace(cm.counts) / cm.total
        assert found.accuracy == pytest.approx(expected, abs=1e-12)


def test_measures_match_direct_formulas():
    rng = np.random.default_rng(19)
    for _ in range(200):
        tp, fp, tn, fn = rng.uniform(0.01, 50.0, size=4)
        m = measures(BinaryAggregates(tp=tp, fp=fp, tn=tn, fn=fn))
        assert m.recall == pytest.approx(tp / (tp + fn))
        assert m.precision == pytest.approx(tp / (tp + fp))
        assert m.accuracy == pytest.approx((tp + tn) / (tp + fp + tn + fn))
        assert m.f_score == pytest.approx(
            2 * m.precision * m.recall / (m.precision + m.recall)
        )


def test_measures_zero_denominator_conventions():
    m = measures(BinaryAggregates(tp=0, fp=0, tn=5, fn=0))
    assert m.recall == 0.0
    assert m.precision == 0.0
    assert m.f_score == 0.0
    assert m.accuracy == 1.0
    m = measures(BinaryAggregates(tp=0, fp=3, tn=0, fn=2))
    assert m.recall == 0.0
    assert m.precision == 0.0
    assert m.f_score == 0.0
    assert m.accuracy == 0.0


def test_f_score_lies_between_precision_and_recall():
    rng = np.random.default_rng(23)
    for _ in range(200):
        tp, fp, tn, fn = rng.uniform(0.0, 20.0, size=4)
        if tp + fp + tn + fn == 0:
            continue
        m = measures(BinaryAggregates(tp=tp, fp=fp, tn=tn, fn=fn))
        low = min(m.precision, m.recall)
        high = max(m.precision, m.recall)
        assert low - 1e-12 <= m.f_score <= high + 1e-12


def test_binary_aggregates_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        BinaryAggregates(tp=-1, fp=0, tn=1, fn=0)
    with pytest.raises(ValueError, match="all be zero"):
        BinaryAggregates(tp=0, fp=0, tn=0, fn=0)
    agg = BinaryAggregates(tp=1, fp=2, tn=3, fn=4)
    assert agg.total == 10.0


def test_measure_set_rejects_out_of_range():
    with pytest.raises(ValueError, match="recall"):
        MeasureSet(recall=1.5, precision=0.5, accuracy=0.5, f_score=0.5)
    with pytest.raises(ValueError, match="f_score"):
        MeasureSet(recall=0.5, precision=0.5, accuracy=0.5, f_score=-0.1)
