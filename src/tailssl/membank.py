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
list of its slots, oldest first, whose length is the class size; records of a
class arrive in step order, so eviction pops the head. Free slots sit on a
stack.

Draws. A class draw is `Generator.choice`'s inverse-CDF recipe run in numpy
over a spec function: the probabilities restricted to the non-empty classes
and renormalised, their cumulative sum divided by its last entry, then the
first entry greater than one uniform. `_victim_exact` runs it over
`eviction_distribution` and `get` over `retrieval_distribution`, so their
classes equal `rng.choice(support, p=...)` given the same uniforms. P_in and
P_out depend only on a class size, so the bank also tabulates both for every
size 0..capacity once, each with the expression of its spec function
(`accept_probability` is Python float arithmetic, the eviction weights a numpy
power; the two round differently in the last bit). `_victim`, which the
writes call, is a shortcut over the table: it bisects the running sum of the
class weights at the uniform times their total. That running sum and the CDF
of `_victim_exact` each lie within about (2K + 6) * 2**-53 of the exact CDF,
relative to the total, so the two can pick different classes only for a
uniform that close to an edge; within 2**-30 of an edge `_victim` defers to
`_victim_exact`, and every victim and generator state stay the same. `get`
draws all n within-class positions with one `rng.integers` call after its n
class draws, and returns slot rows, which callers use to index `features` and
`labels`.

Writes come a batch at a time, all through `offer`. It runs a batch of
attempts in order, each using one uniform to accept and, when the bank is
full, one more to pick a victim. It draws the 2n uniforms its n attempts may
need as one block, which gives the same values as 2n scalar `rng.random()`
calls, then restores the saved generator state and calls `rng.random(used)`
for the ones it used. Rewinding with `bit_generator.advance(-unused)` instead
would not do: `advance` also drops the unused half of a 64-bit word that a
32-bit draw in `rng.integers` may leave buffered (the `has_uint32`/`uinteger`
fields of the state), and the next bounded integer draw would then differ.
Restoring the state keeps that buffer and works for any bit generator.
"""

from bisect import bisect_right
from itertools import accumulate

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
    """Reversed-sampling class probabilities: 1/M_k^lambda on non-empty classes, normalized.

    If every such weight underflows to 0 (a huge lambda), the lambda -> infinity
    limit: uniform over the non-empty classes of smallest estimated count.
    """
    estimated = np.asarray(estimated_counts, dtype=np.float64)
    nonempty = np.asarray(counts) > 0
    if (estimated < 1).any():
        raise ValueError("estimated counts must be clamped >= 1")
    if not nonempty.any():
        raise ValueError("no records to retrieve")
    weights = np.where(nonempty, estimated ** (-lam), 0.0)
    if weights.sum() == 0.0:
        weights = np.where(nonempty & (estimated == estimated[nonempty].min()), 1.0, 0.0)
    return weights / weights.sum()


class MemoryBank:
    """Exclusive-access mutable store; one logical writer, no internal locking.

    `p_in[c]` and `p_out[c]` are the accept probability and the eviction
    weight of a class holding c records, for c = 0..capacity.
    """

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
        self.p_in = [accept_probability(c, beta) for c in range(capacity + 1)]
        sizes = np.arange(1, capacity + 1, dtype=np.float64)
        self.p_out = [0.0] + (1.0 - sizes ** (-beta)).tolist()  # as in eviction_distribution
        self._weighted = any(self.p_out)  # else every victim draw falls back to the sizes
        self._fifo: list[list[int]] = [[] for _ in range(num_classes)]  # slots, oldest first
        self._free = list(range(capacity - 1, -1, -1))  # stack; slot 0 is used first
        self.evictions = 0  # records evicted since construction

    def __len__(self) -> int:
        return self.capacity - len(self._free)

    def counts(self) -> np.ndarray:
        return np.array([len(fifo) for fifo in self._fifo], dtype=np.int64)

    def offer(self, features: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> int:
        """Offer rows features[i] with labels[i] in order; returns how many were accepted.

        A row of class k is accepted with probability 1/C_k^beta (1 for an
        empty class); on a full bank an accept first evicts the oldest record
        of a class drawn by `_victim`. Victims and the generator state
        afterwards equal those of one `rng.random()` per attempt plus, per
        eviction, `rng.choice` over the renormalised `eviction_distribution`.
        """
        n = len(labels)
        if features.shape != (n, self.features.shape[1]):
            raise ValueError("features must have one row of feature_dim per label")
        if not n:
            return 0
        labels_list = labels.tolist()
        if min(labels_list) < 0 or max(labels_list) >= self.num_classes:
            raise ValueError(f"pseudo_label out of range for {self.num_classes} classes")
        saved = rng.bit_generator.state
        u = rng.random(2 * n).tolist()
        rng.bit_generator.state = saved
        p_in, fifo, free = self.p_in, self._fifo, self._free
        sizes = [len(f) for f in fifo]
        stored = len(self)
        used = 0
        writes: dict[int, int] = {}  # slot -> row of its last write
        for i, label in enumerate(labels_list):
            draw = u[used]
            used += 1
            if draw >= p_in[sizes[label]]:
                continue
            if free:
                slot = free.pop()
            else:
                victim = self._victim(sizes, u[used])
                used += 1
                slot = fifo[victim].pop(0)
                sizes[victim] -= 1
            fifo[label].append(slot)
            sizes[label] += 1
            writes[slot] = i
        rng.random(used)
        if writes:
            slots = np.fromiter(writes, dtype=np.int64, count=len(writes))
            rows = np.fromiter(writes.values(), dtype=np.int64, count=len(writes))
            self.features[slots] = features[rows]
            self.labels[slots] = labels[rows]
        evicted = used - n  # each attempt draws once, each eviction once more
        self.evictions += evicted
        return len(self) - stored + evicted  # an accept fills a free slot or evicts

    def _victim(self, sizes: list[int], u: float) -> int:
        """Victim class for the uniform u, given every class's size (not all 0).

        Bisects a running sum of the class weights (the table weights, or the
        sizes when every table weight is 0) at u times their total. Where that
        point lies within 2**-30 of the total from an edge of the running sum,
        rounding could tell the two recipes apart, so `_victim_exact` decides.
        """
        p_out = self.p_out
        prefix = list(accumulate([p_out[c] for c in sizes])) if self._weighted else [0.0]
        if prefix[-1] <= 0.0:
            prefix = list(accumulate(sizes))
        total = prefix[-1]
        x = u * total
        i = bisect_right(prefix, x)
        tol = total * 2.0**-30
        if i == len(prefix) or prefix[i] - x <= tol or (i and x - prefix[i - 1] <= tol):
            return self._victim_exact(sizes, u)
        return i

    def _victim_exact(self, sizes: list[int], u: float) -> int:
        """`_victim` by the recipe of `Generator.choice` over the renormalised
        `eviction_distribution`, restricted to the non-empty classes."""
        counts = np.array(sizes)
        support = np.flatnonzero(counts)
        probs = eviction_distribution(counts, self.beta)[support]
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        return int(support[cdf.searchsorted(u, side="right")])

    def get(
        self,
        estimated_counts: np.ndarray,
        n: int,
        lam: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw n slot rows with replacement, reversing the estimated distribution.

        Class k is chosen with probability proportional to 1/M_k^lambda over
        non-empty classes; within a class records are uniform. The class draws
        and the generator state match `rng.choice(support, size=n, p=...)`.
        Index `features`/`labels` with the result. It is empty only when n is
        0 or the bank is empty.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        estimated = np.asarray(estimated_counts, dtype=np.float64)
        if estimated.shape != (self.num_classes,):
            raise ValueError("estimated_counts must have one entry per class")
        if n == 0 or not len(self):
            return np.zeros(0, dtype=np.int64)
        counts = self.counts()
        support = np.flatnonzero(counts)
        probs = retrieval_distribution(estimated, counts, lam)[support]
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        classes = support[cdf.searchsorted(rng.random(n), side="right")]
        positions = rng.integers(0, counts[classes])
        fifo = self._fifo
        return np.array(
            [fifo[k][i] for k, i in zip(classes.tolist(), positions.tolist())], dtype=np.int64
        )

    def balance_entropy(self) -> float:
        """Shannon entropy of the in-memory class distribution, normalized by ln K."""
        if not len(self):
            raise ValueError("balance_entropy of an empty bank is undefined")
        return stream_entropy(self.counts())


def stream_entropy(class_counts: np.ndarray) -> float:
    """Normalized entropy of an arrival stream's class histogram (comparison oracle)."""
    counts = np.asarray(class_counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty stream")
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum() / np.log(len(counts)))
