"""Evaluation metrics: top-1, per-class recall, shot-group accuracies, diagnostics.

All functions are pure and order-independent. Classes absent from the test set
get NaN recall and are excluded from the averaged class recall.
"""

from dataclasses import dataclass

import numpy as np

GROUPS = ("many", "medium", "few")


@dataclass
class EvalReport:
    top1: float
    per_class_recall: np.ndarray  # (K,), NaN where the class is absent from the test set
    avg_class_recall: float
    confusion: np.ndarray  # (K, K) int64; rows = truth, cols = prediction


def evaluate(predictions: np.ndarray, truths: np.ndarray, num_classes: int) -> EvalReport:
    """Exact counting metrics from predicted and true integer class indices,
    each in [0, num_classes); a non-integer array or an index outside raises
    ValueError before any count."""
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    if predictions.shape != truths.shape:
        raise ValueError("predictions and truths must have equal length")
    for name, values in (("predictions", predictions), ("truths", truths)):
        if not np.issubdtype(values.dtype, np.integer):
            raise ValueError(f"{name} must be integer class indices, not {values.dtype}")
        if values.size and not 0 <= values.min() <= values.max() < num_classes:
            raise ValueError(f"{name} outside [0, {num_classes})")
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (truths, predictions), 1)
    total = confusion.sum()
    top1 = float(np.trace(confusion) / total) if total else float("nan")
    row_sums = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        recall = np.where(row_sums > 0, np.diag(confusion) / row_sums, np.nan)
    present = row_sums > 0
    avg = float(recall[present].mean()) if present.any() else float("nan")
    return EvalReport(top1, recall, avg, confusion)


def shot_groups(labeled_counts: np.ndarray, many_min: int, few_max: int) -> list[str]:
    """Class -> group name: many if count > many_min, few if count <= few_max, else medium."""
    if many_min <= few_max:
        raise ValueError("many_min must exceed few_max")
    out = []
    for c in np.asarray(labeled_counts):
        if c > many_min:
            out.append("many")
        elif c <= few_max:
            out.append("few")
        else:
            out.append("medium")
    return out


def default_shot_thresholds(labeled_counts: np.ndarray) -> tuple[int, int]:
    """Tertile thresholds over the labeled class sizes (documented per-dataset default)."""
    desc = np.sort(np.asarray(labeled_counts))[::-1]
    k = len(desc)
    many_min = int(desc[k // 3])
    few_max = int(min(desc[(2 * k) // 3], many_min - 1))
    return many_min, few_max


def group_accuracy(confusion: np.ndarray, groups: list[str]) -> dict[str, float]:
    """Accuracy restricted to true classes of each group; NaN for empty groups."""
    confusion = np.asarray(confusion)
    out: dict[str, float] = {}
    for g in GROUPS:
        members = [k for k, name in enumerate(groups) if name == g]
        total = confusion[members].sum() if members else 0
        correct = sum(confusion[k, k] for k in members)
        out[g] = float(correct / total) if total else float("nan")
    return out


def estimation_error(true_counts: np.ndarray, estimated_counts: np.ndarray) -> float:
    """Total-variation distance between the normalized count vectors, in [0, 1]."""
    t = np.asarray(true_counts, dtype=np.float64)
    e = np.asarray(estimated_counts, dtype=np.float64)
    if t.shape != e.shape:
        raise ValueError("count vectors must have equal length")
    if t.sum() <= 0 or e.sum() <= 0:
        raise ValueError("count vectors must have positive sums")
    return float(0.5 * np.abs(t / t.sum() - e / e.sum()).sum())
