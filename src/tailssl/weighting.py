"""Adaptive per-sample loss weights: (rarest class count / own class count) ** alpha.

The ratio form makes weights scale-invariant in the counts and pins the rarest
class at weight 1. The minimum is taken over all classes rather than assuming
a sorted ordering, so the same formula works for live estimated counts.
"""

import numpy as np


def batch_weights(counts: np.ndarray, labels: np.ndarray, alpha: float) -> np.ndarray:
    """Ratio weights for a batch of class labels, each in [0, len(counts))."""
    counts = np.asarray(counts, dtype=np.float64)
    labels = np.asarray(labels)
    if (counts < 1).any():
        raise ValueError("class counts must be >= 1 (clamp before weighting)")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if labels.size and (labels.min() < 0 or labels.max() >= len(counts)):
        raise ValueError(f"class index out of range for {len(counts)} classes")
    return batch_weights_unchecked(counts, labels, alpha)


def batch_weights_unchecked(counts: np.ndarray, labels: np.ndarray, alpha: float) -> np.ndarray:
    """`batch_weights` for inputs already known to be valid (counts an array >= 1)."""
    return (counts.min() / counts[labels]) ** alpha
