"""Online estimate of the unlabeled class distribution from confident pseudo labels.

Each unlabeled row keeps only its latest confident label; the per-class counts
are the histogram of those latest labels, so the estimate tracks a distribution
over the dataset rather than over time.
"""

import numpy as np


class PseudoLabelLedger:
    """Latest label per unlabeled row (-1 = none yet), with its per-class histogram."""

    def __init__(self, num_classes: int, num_rows: int):
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        self.num_classes = num_classes
        self.latest = np.full(num_rows, -1, dtype=np.int64)
        self.counts = np.zeros(num_classes, dtype=np.int64)

    def record_batch(self, positions: np.ndarray, labels: np.ndarray) -> None:
        """Record labels[i] for row positions[i]; a repeated position keeps its last label.

        The counts move once per distinct position, to the same values as
        recording the pairs one at a time. Bad input raises ValueError and
        leaves the ledger unchanged.
        """
        if len(positions) != len(labels):
            raise ValueError("positions and labels must have the same length")
        if positions.dtype.kind not in "iu" or labels.dtype.kind not in "iu":
            raise ValueError("positions and labels must be integer arrays")
        if not len(labels):
            return
        positions, labels = positions.tolist(), labels.tolist()
        if min(labels) < 0 or max(labels) >= self.num_classes:
            raise ValueError(f"label out of range for {self.num_classes} classes")
        if min(positions) < 0 or max(positions) >= len(self.latest):
            raise ValueError(f"position outside [0, {len(self.latest)})")
        last = dict(zip(positions, labels))  # each position's last label
        rows = np.fromiter(last, dtype=np.int64, count=len(last))
        new = np.fromiter(last.values(), dtype=np.int64, count=len(last))
        old = self.latest[rows]
        self.latest[rows] = new
        k = self.num_classes
        self.counts += np.bincount(new, minlength=k)
        self.counts -= np.bincount(old[old >= 0], minlength=k)

    def estimated_counts(self) -> np.ndarray:
        """Counts clamped from below at 1, so downstream reciprocal weights stay finite."""
        return np.maximum(self.counts, 1)
