"""Adaptive per-sample loss weights: (rarest class count / own class count) ** alpha.

The ratio form makes weights scale-invariant in the counts and pins the rarest
class at weight 1. The minimum is taken over all classes rather than assuming
a sorted ordering, so the same formula works for live estimated counts.
"""

import numpy as np


def batch_weights(counts: np.ndarray, labels: np.ndarray, alpha: float) -> np.ndarray:
    """Ratio weights for a batch of class labels.

    Nothing is checked. The caller passes counts as an array with every entry
    >= 1 (clamp before weighting), integer labels in [0, len(counts)) and
    alpha >= 0.
    """
    return (np.minimum.reduce(counts) / counts[labels]) ** alpha
