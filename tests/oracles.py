"""Independent straight-line re-implementations used as test oracles.

Loops and math.exp only; deliberately naive so they share no code path with
the package.
"""

import math

import numpy as np


def mlp_forward(params, batch):
    out = []
    for row in batch:
        h = list(row)
        for layer in params.encoder_layers:
            z = []
            for j in range(layer.w.shape[1]):
                acc = layer.b[j]
                for i in range(layer.w.shape[0]):
                    acc += h[i] * layer.w[i, j]
                z.append(max(acc, 0.0))
            h = z
        out.append(h)
    return np.array(out)


def linear(head, features):
    out = []
    for row in features:
        logits = []
        for j in range(head.w.shape[1]):
            acc = head.b[j]
            for i in range(head.w.shape[0]):
                acc += row[i] * head.w[i, j]
            logits.append(acc)
        out.append(logits)
    return np.array(out)


def softmax_row(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def ce_sum(logits, targets, weights, mask, divisor):
    """(1/divisor) * sum_i mask_i * w_i * H(target_i, softmax(logits_i))."""
    total = 0.0
    for i, row in enumerate(logits):
        if not mask[i]:
            continue
        p = softmax_row(row)
        total += -weights[i] * math.log(p[targets[i]])
    return total / divisor


def argmax_first(row):
    best, best_v = 0, row[0]
    for j, v in enumerate(row):
        if v > best_v:
            best, best_v = j, v
    return best


def ratio_weight(counts, cls, alpha):
    return (min(counts) / counts[cls]) ** alpha


def enqueue_each(bank, features, labels, rng):
    """Per-record bank writes: the reference for MemoryBank.offer.

    For each row in order, one uniform accepts it with probability 1/C_k^beta
    (1 for an empty class). When the bank is full, rng.choice over the
    renormalised eviction distribution (1 - 1/C_k^beta over non-empty classes,
    or C_k when every weight is 0) picks a victim class, whose oldest slot is
    freed and reused. Works on the bank's slot lists and arrays directly.
    Returns the number of rows accepted.
    """
    accepted = 0
    for feature, label in zip(features, labels):
        label = int(label)
        size = len(bank._fifo[label])
        if rng.random() >= (1.0 if size == 0 else float(size) ** (-bank.beta)):
            continue
        if not bank._free:
            counts = np.array([len(f) for f in bank._fifo], dtype=np.float64)
            nonempty = counts > 0
            weights = np.zeros_like(counts)
            weights[nonempty] = 1.0 - counts[nonempty] ** (-bank.beta)
            total = weights.sum()
            if total <= 0.0:
                weights, total = counts.copy(), counts.sum()
            probs = weights / total
            support = np.flatnonzero(counts)
            victim = int(rng.choice(support, p=probs[support] / probs[support].sum()))
            bank._free.append(bank._fifo[victim].pop(0))
            bank.evictions += 1
        slot = bank._free.pop()
        bank.features[slot] = feature
        bank.labels[slot] = label
        bank._fifo[label].append(slot)
        accepted += 1
    return accepted


def record_each(latest, counts, ids, labels):
    """Per-record ledger writes: the reference for PseudoLabelLedger.record_batch.

    `latest` maps id -> label and `counts` is the histogram of its values;
    both are updated in place, one (id, label) pair at a time.
    """
    for sid, label in zip(ids, labels):
        sid, label = int(sid), int(label)
        if sid in latest:
            counts[latest[sid]] -= 1
        counts[label] += 1
        latest[sid] = label
