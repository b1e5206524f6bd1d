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
class arrive in step order, so eviction pops the head. Slots fill in order: a
bank of n records holds them in slots 0..n-1, and a write takes slot n, or its
victim's oldest slot when the bank is full.

Draws. A class draw is `Generator.choice`'s inverse-CDF recipe run in numpy
over a spec function: the probabilities restricted to the non-empty classes
and renormalised, their cumulative sum divided by its last entry, then the
first entry greater than one uniform. `_choice` holds it; `_victim_exact`
runs it over `eviction_distribution`, and `get` over the probabilities of
`retrieval_distribution`, which it computes with the same expressions in one
pass over the weights (it calls the spec function for the fallback when
every weight underflows), so their classes equal `rng.choice(support, p=...)`
given the same uniforms.
P_in and P_out depend only on a class size, so the bank also tabulates both
for every size 0..capacity once, each with the expression of its spec function
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

Writes come a batch at a time, all through `offer`. Each attempt uses one
uniform to accept and, when the bank is full, one more to pick a victim.
Out of uniforms during attempt i, `offer` draws the n - i that attempts
i..n-1 are sure to use as one block, so the generator, a buffered half-word
included, ends where one `rng.random()` per draw would leave it.
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


def _choice(probs: np.ndarray, counts: np.ndarray, u):
    """The class of each uniform in u by `Generator.choice`'s recipe (see the module notes)."""
    support = counts.nonzero()[0]
    p = probs[support]
    cdf = (p / np.add.reduce(p)).cumsum()
    cdf /= cdf[-1]
    return support[cdf.searchsorted(u, side="right")]


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
        self.evictions = 0  # records evicted since construction

    def __len__(self) -> int:
        return sum(map(len, self._fifo))

    def counts(self) -> np.ndarray:
        return np.fromiter(map(len, self._fifo), dtype=np.int64, count=self.num_classes)

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
        p_in, fifo, capacity = self.p_in, self._fifo, self.capacity
        sizes = list(map(len, fifo))
        filled = stored = sum(sizes)
        evicted = 0
        ahead: list[float] = []  # uniforms drawn ahead, the next one last
        writes: dict[int, int] = {}  # slot -> row of its last write
        for i, label in enumerate(labels_list):
            if not ahead:  # attempts i..n-1 draw at least n - i more uniforms
                ahead = rng.random(n - i).tolist()[::-1]
            if ahead.pop() >= p_in[sizes[label]]:
                continue
            if filled < capacity:
                slot = filled
                filled += 1
            else:
                if not ahead:
                    ahead = rng.random(n - i).tolist()[::-1]
                victim = self._victim(sizes, ahead.pop())
                evicted += 1
                slot = fifo[victim].pop(0)
                sizes[victim] -= 1
            fifo[label].append(slot)
            sizes[label] += 1
            writes[slot] = i
        if writes:
            slots = np.fromiter(writes, dtype=np.int64, count=len(writes))
            rows = np.fromiter(writes.values(), dtype=np.int64, count=len(writes))
            self.features[slots] = features[rows]
            self.labels[slots] = labels[rows]
        self.evictions += evicted
        return filled - stored + evicted  # an accept fills a slot or evicts

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
        """`_victim` by `_choice` over the `eviction_distribution`."""
        counts = np.array(sizes)
        return int(_choice(eviction_distribution(counts, self.beta), counts, u))

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
        if np.logical_or.reduce(estimated < 1):
            raise ValueError("estimated counts must be clamped >= 1")
        if n == 0 or not len(self):
            return np.zeros(0, dtype=np.int64)
        counts = self.counts()
        # retrieval_distribution's weights and normalisation, its fallback if they sum to 0
        weights = np.where(counts > 0, estimated ** (-lam), 0.0)
        total = np.add.reduce(weights)
        probs = weights / total if total else retrieval_distribution(estimated, counts, lam)
        classes = _choice(probs, counts, rng.random(n))
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
    if len(counts) < 2:
        raise ValueError("normalized entropy needs at least 2 classes (ln 1 is 0)")
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty stream")
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum() / np.log(len(counts)))
