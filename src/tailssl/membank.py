"""Class-rebalanced feature memory bank.

A fixed-capacity, per-class store of cached encoder features with their
pseudo labels. Maintenance is probabilistic: an arriving record of class k is
accepted with P_in = 1/C_k^beta (1 when the class is empty), and on overflow a
victim class is drawn proportionally to P_out = 1 - 1/C_k^beta over non-empty
classes, evicting its oldest record. When every eviction weight vanishes
(beta = 0, or all non-empty classes hold a single record) the victim is drawn
uniformly over stored records, i.e. class probability proportional to C_k, so
a beta = 0 bank mirrors its input stream. Retrieval reverses the estimated
class distribution: class k is drawn with probability proportional to
1/M_k^lambda over non-empty classes, then a record uniformly within the class.

Storage is preallocated arrays, with no object per record. Slot i is row i of
`features` (capacity, d) and of `labels` (capacity,). Each class keeps a FIFO
list of its slots, oldest first; records of a class arrive in step order, so
eviction pops the head. Free slots sit on a stack, and an int64 array of class
sizes is updated on every insert and eviction. `get` draws all n
within-class positions with one vectorised `rng.integers` call and returns
slot rows, which callers use to index `features` and `labels`.
"""

import numpy as np


def accept_probability(count: int, beta: float) -> float:
    """P_in = 1/count^beta, defined as 1 for an empty class."""
    return 1.0 if count == 0 else float(count) ** (-beta)


def eviction_distribution(counts: np.ndarray, beta: float) -> np.ndarray:
    """Victim-class probabilities: 1 - 1/C_k^beta over non-empty classes, normalized.

    When every weight vanishes (beta = 0, or all non-empty counts are 1) the
    fallback is uniform over stored records, i.e. probability C_k / sum(C).
    Empty classes get probability 0.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.sum() <= 0:
        raise ValueError("no records to evict")
    weights = np.zeros_like(counts)
    nonempty = counts > 0
    weights[nonempty] = 1.0 - counts[nonempty] ** (-beta)
    total = weights.sum()
    if total <= 0.0:
        weights, total = counts.copy(), counts.sum()
    return weights / total


def retrieval_distribution(
    estimated_counts: np.ndarray, counts: np.ndarray, lam: float
) -> np.ndarray:
    """Reversed-sampling class probabilities: 1/M_k^lambda on non-empty classes, normalized."""
    estimated = np.asarray(estimated_counts, dtype=np.float64)
    counts = np.asarray(counts)
    if (estimated < 1).any():
        raise ValueError("estimated counts must be clamped >= 1")
    if not (counts > 0).any():
        raise ValueError("no records to retrieve")
    weights = np.where(counts > 0, estimated ** (-lam), 0.0)
    return weights / weights.sum()


class MemoryBank:
    """Exclusive-access mutable store; one logical writer, no internal locking."""

    def __init__(self, capacity: int, num_classes: int, beta: float, feature_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if beta < 0:
            raise ValueError("beta must be >= 0")
        if feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        self.capacity = capacity
        self.num_classes = num_classes
        self.beta = beta
        self.features = np.zeros((capacity, feature_dim))
        self.labels = np.zeros(capacity, dtype=np.int64)
        self._counts = np.zeros(num_classes, dtype=np.int64)
        self._fifo: list[list[int]] = [[] for _ in range(num_classes)]  # slots, oldest first
        self._free = list(range(capacity - 1, -1, -1))  # stack; slot 0 is used first

    def __len__(self) -> int:
        return self.capacity - len(self._free)

    def counts(self) -> np.ndarray:
        return self._counts.copy()

    def rows(self, k: int) -> np.ndarray:
        """Slot rows of class k, oldest first."""
        return np.array(self._fifo[k], dtype=np.int64)

    def insert(self, feature: np.ndarray, label: int) -> None:
        """Copy a record into a free slot, with no acceptance draw and no eviction."""
        if not 0 <= label < self.num_classes:
            raise ValueError(f"pseudo_label {label} out of range")
        if not self._free:
            raise ValueError("cannot insert into a full bank")
        slot = self._free.pop()
        self.features[slot] = feature
        self.labels[slot] = label
        self._fifo[label].append(slot)
        self._counts[label] += 1

    def enqueue(self, feature: np.ndarray, label: int, rng: np.random.Generator) -> bool:
        """Accept with probability 1/C_k^beta (C_k read before insertion; 1 if empty).

        An accepted insert at capacity dequeues exactly once first, so the
        capacity invariant holds after every call.
        """
        if not 0 <= label < self.num_classes:
            raise ValueError(f"pseudo_label {label} out of range")
        if rng.random() >= accept_probability(self._counts[label], self.beta):
            return False
        if not self._free:
            self.dequeue(rng)
        self.insert(feature, label)
        return True

    def dequeue(self, rng: np.random.Generator) -> int:
        """Evict the oldest record of a victim class drawn by eviction weight.

        Victim class ~ 1 - 1/C_k^beta over non-empty classes; if all weights
        are zero the draw is uniform over stored records (~ C_k). Returns the
        freed slot, whose features/labels rows keep the evicted record until
        the next insert.
        """
        counts = self._counts
        if not len(self):
            raise ValueError("cannot dequeue from an empty bank")
        probs = eviction_distribution(counts, self.beta)
        support = np.flatnonzero(counts)  # boundary draws must never hit empty classes
        victim = int(rng.choice(support, p=probs[support] / probs[support].sum()))
        slot = self._fifo[victim].pop(0)
        counts[victim] -= 1
        self._free.append(slot)
        return slot

    def get(
        self,
        estimated_counts: np.ndarray,
        n: int,
        lam: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw n slot rows with replacement, reversing the estimated distribution.

        Class k is chosen with probability proportional to 1/M_k^lambda over
        non-empty classes; within a class records are uniform. Index
        `features`/`labels` with the result. It is empty only when n is 0 or
        the bank is empty.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        estimated = np.asarray(estimated_counts, dtype=np.float64)
        if estimated.shape != (self.num_classes,):
            raise ValueError("estimated_counts must have one entry per class")
        counts = self._counts
        if n == 0 or not len(self):
            return np.zeros(0, dtype=np.int64)
        probs = retrieval_distribution(estimated, counts, lam)
        support = np.flatnonzero(counts)
        classes = rng.choice(support, size=n, p=probs[support] / probs[support].sum())
        positions = rng.integers(0, counts[classes])
        fifo = self._fifo
        return np.array(
            [fifo[k][i] for k, i in zip(classes.tolist(), positions.tolist())], dtype=np.int64
        )

    def balance_entropy(self) -> float:
        """Shannon entropy of the in-memory class distribution, normalized by ln K."""
        counts = self._counts
        total = counts.sum()
        if total == 0:
            raise ValueError("balance_entropy of an empty bank is undefined")
        p = counts[counts > 0] / total
        return float(-(p * np.log(p)).sum() / np.log(self.num_classes))


def stream_entropy(class_counts: np.ndarray) -> float:
    """Normalized entropy of an arrival stream's class histogram (comparison oracle)."""
    counts = np.asarray(class_counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty stream")
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum() / np.log(len(counts)))
