"""Online estimate of the unlabeled class distribution from confident pseudo labels.

Each sample id keeps only its latest confident label; the per-class counts are
the histogram of those latest labels, so the estimate tracks a distribution
over the dataset rather than over time.
"""

import numpy as np


class PseudoLabelLedger:
    """Exclusive-access map sample id -> latest label, with incremental counts."""

    def __init__(self, num_classes: int):
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        self.num_classes = num_classes
        self.latest: dict[int, int] = {}
        self.counts = np.zeros(num_classes, dtype=np.int64)

    def record_batch(self, sample_ids: np.ndarray, labels: np.ndarray) -> None:
        """Record labels[i] for sample_ids[i]; a repeated id keeps its last label.

        The counts move once per distinct id, to the same values as recording
        the pairs one at a time.
        """
        if len(sample_ids) != len(labels):
            raise ValueError("sample_ids and labels must have the same length")
        if len(labels) and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(f"label out of range for {self.num_classes} classes")
        new = dict(zip(sample_ids.tolist(), labels.tolist()))
        latest = self.latest
        old = [latest[i] for i in new if i in latest]
        latest.update(new)
        k = self.num_classes
        self.counts += np.bincount(list(new.values()), minlength=k)
        self.counts -= np.bincount(old, minlength=k)

    def estimated_counts(self) -> np.ndarray:
        """Counts clamped from below at 1, so downstream reciprocal weights stay finite."""
        return np.maximum(self.counts, 1)

    def total(self) -> int:
        return len(self.latest)
