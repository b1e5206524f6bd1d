"""Metrics: exact counting, shot groups, recomposition, estimation error."""

import math

import numpy as np
import pytest

from tailssl.metrics import (
    default_shot_thresholds,
    estimation_error,
    evaluate,
    group_accuracy,
    shot_groups,
)


def test_perfect_predictions():
    truths = np.array([0, 1, 2, 1, 0])
    report = evaluate(truths, truths, 3)
    assert report.top1 == 1.0
    assert np.allclose(report.per_class_recall, 1.0)
    assert report.avg_class_recall == 1.0


def test_evaluate_refuses_class_indices_outside_the_classes():
    # a -1 truth once counted in class 2's row, and a prediction of 3 raised IndexError
    with pytest.raises(ValueError, match=r"truths outside \[0, 3\)"):
        evaluate([0, 1, 0], [0, 1, -1], 3)
    with pytest.raises(ValueError, match=r"predictions outside \[0, 3\)"):
        evaluate([0, 1, 3], [0, 1, 2], 3)


def test_evaluate_refuses_non_integer_indices():
    # an empty list is a float64 array; each of these once raised IndexError in np.add.at
    with pytest.raises(ValueError, match="predictions must be integer class indices, not float64"):
        evaluate([], [], 3)
    with pytest.raises(ValueError, match="predictions must be integer class indices, not float64"):
        evaluate([0.0, 1.5], [0, 1], 3)
    with pytest.raises(ValueError, match="truths must be integer class indices, not float64"):
        evaluate([0, 1], [0.0, 1.0], 3)
    with pytest.raises(ValueError, match="predictions must be integer class indices, not bool"):
        evaluate(np.array([True, False]), [0, 1], 3)
    empty = np.zeros(0, dtype=np.int64)
    report = evaluate(empty, empty, 3)
    assert math.isnan(report.top1) and math.isnan(report.avg_class_recall)
    assert np.isnan(report.per_class_recall).all() and report.confusion.sum() == 0


def test_constant_predictor_on_balanced_two_class():
    preds = np.zeros(10, dtype=int)
    truths = np.array([0] * 5 + [1] * 5)
    report = evaluate(preds, truths, 2)
    assert report.top1 == 0.5
    assert report.per_class_recall.tolist() == [1.0, 0.0]
    assert report.avg_class_recall == 0.5


def test_hand_counted_confusion_fixture():
    truths = np.array([0, 0, 1, 1, 2, 2])
    preds = np.array([0, 1, 1, 1, 0, 2])
    report = evaluate(preds, truths, 3)
    assert report.confusion.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 1]]
    assert report.top1 == pytest.approx(4 / 6)
    assert report.per_class_recall.tolist() == [0.5, 1.0, 0.5]


def test_absent_class_excluded_from_average():
    truths = np.array([0, 0, 2])
    preds = np.array([0, 2, 2])
    report = evaluate(preds, truths, 3)
    assert math.isnan(report.per_class_recall[1])
    assert report.avg_class_recall == pytest.approx((0.5 + 1.0) / 2)


def test_evaluate_rejects_length_mismatch():
    with pytest.raises(ValueError):
        evaluate(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 2)


def test_top1_equals_trace_over_total():
    rng = np.random.default_rng(0)
    truths = rng.integers(0, 5, size=200)
    preds = rng.integers(0, 5, size=200)
    report = evaluate(preds, truths, 5)
    assert report.top1 == np.trace(report.confusion) / report.confusion.sum()


def test_shot_groups_paper_thresholds():
    groups = shot_groups(np.array([21, 4, 10]), many_min=20, few_max=4)
    assert groups == ["many", "few", "medium"]
    assert shot_groups(np.array([50]), many_min=50, few_max=10) == ["medium"]
    assert shot_groups(np.array([30, 30, 30]), many_min=20, few_max=4) == ["many"] * 3


def test_shot_groups_rejects_misordered_thresholds():
    with pytest.raises(ValueError):
        shot_groups(np.array([5, 5]), many_min=4, few_max=4)


def test_default_thresholds_tertiles():
    counts = np.array([150, 108, 77, 55, 40, 28, 20, 15, 10, 8])
    many_min, few_max = default_shot_thresholds(counts)
    groups = shot_groups(counts, many_min, few_max)
    assert groups == ["many"] * 3 + ["medium"] * 3 + ["few"] * 4


@pytest.mark.parametrize("labeled_counts", [[40, 30, 20, 10, 5, 2], [40, 30, 26, 6, 5, 2]],
                         ids=["all-groups", "no-medium"])
def test_group_accuracy_recomposes_to_top1(labeled_counts):
    rng = np.random.default_rng(1)
    truths = rng.integers(0, 6, size=500)
    preds = rng.integers(0, 6, size=500)
    report = evaluate(preds, truths, 6)
    groups = shot_groups(np.array(labeled_counts), many_min=25, few_max=6)
    acc = group_accuracy(report.confusion, groups)
    mass = {g: 0 for g in acc}
    row_sums = report.confusion.sum(axis=1)
    for k, g in enumerate(groups):
        mass[g] += row_sums[k]
    assert {g for g in acc if math.isnan(acc[g])} == {g for g in acc if not mass[g]}
    recomposed = sum(acc[g] * mass[g] for g in acc if mass[g]) / report.confusion.sum()
    assert recomposed == pytest.approx(report.top1, abs=1e-12)


def test_metrics_are_permutation_invariant():
    rng = np.random.default_rng(2)
    truths = rng.integers(0, 4, size=100)
    preds = rng.integers(0, 4, size=100)
    perm = rng.permutation(100)
    a = evaluate(preds, truths, 4)
    b = evaluate(preds[perm], truths[perm], 4)
    assert a.top1 == b.top1
    assert np.array_equal(a.confusion, b.confusion)


def test_estimation_error_cases():
    assert estimation_error(np.array([3, 1]), np.array([3, 1])) == 0.0
    assert estimation_error(np.array([5, 0]), np.array([0, 7])) == 1.0
    assert estimation_error(np.array([3, 1]), np.array([1, 1])) == pytest.approx(0.25)


def test_estimation_error_rejects_zero_sum():
    with pytest.raises(ValueError):
        estimation_error(np.array([0, 0]), np.array([1, 1]))
