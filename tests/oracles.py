"""Independent straight-line re-implementations used as test oracles.

The formula oracles use loops and math.exp only; deliberately naive so they
share no code path with the package. The per-record and per-term references
below them (`enqueue_each`, `record_each`, `step_per_term`, `load_dataset_rows`)
keep the package's earlier, simpler forms of its batched code, which must match
them bit for bit.
"""

import csv
import math

import numpy as np

from tailssl.data import CSV_SPLITS, Dataset, Split
from tailssl.errors import DatasetFormatError
from tailssl.numerics import weighted_masked_ce, zeros_like_params


def mlp_forward(params, batch):
    """Per-sample, per-unit loops: relu(x @ w + b) through every layer."""
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


def numeric_grads(loss_fn, params, h=1e-5):
    """Central finite differences over every parameter entry."""
    grads = zeros_like_params(params)
    flat, gf = params.flat, grads.flat
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return grads


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


def masked_ce(logits, targets, weights, mask, divisor):
    """One loss through weighted_masked_ce: each row's coefficient is its weight
    over divisor, 0 where masked. Returns (loss, dlogits)."""
    coef = np.where(mask, weights, 0.0) / float(divisor)
    terms, dlogits = weighted_masked_ce(logits, targets, coef)
    return float(-terms.sum()), dlogits


def softmax_rowwise(logits):
    """numerics.softmax as it was written with per-row reductions: the
    reference that the class-major row max must match bit for bit."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def weighted_masked_ce_rowwise(logits, targets, coef):
    """numerics.weighted_masked_ce as it was written with per-row reductions:
    the reference that the class-major row max must match bit for bit."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(len(targets))
    terms = coef * logp[rows, targets]
    dlogits = np.exp(logp)
    dlogits *= coef[:, None]
    dlogits[rows, targets] -= coef
    return terms, dlogits


def argmax_first(row):
    best, best_v = 0, row[0]
    for j, v in enumerate(row):
        if v > best_v:
            best, best_v = j, v
    return best


def ratio_weight(counts, cls, alpha):
    return (min(counts) / counts[cls]) ** alpha


def store(bank, feature, label):
    """Put one record of class label into slot len(bank) with no draw, as an
    accepted offer into a bank that is not full puts it; sets up test banks."""
    slot = len(bank)
    if slot == bank.capacity:
        raise ValueError("store needs a bank that is not full")
    bank.features[slot] = feature
    bank.labels[slot] = label
    bank._fifo[label].append(slot)


def enqueue_each(bank, features, labels, rng):
    """Per-record bank writes: the reference for MemoryBank.offer.

    For each row in order, one uniform accepts it with probability 1/C_k^beta
    (1 for an empty class). When the bank is full, rng.choice over the
    renormalised eviction distribution (1 - 1/C_k^beta over non-empty classes,
    or C_k when every weight is 0) picks a victim class, whose oldest slot takes
    the row; otherwise the row takes the next unused slot. Works on the bank's
    slot lists and arrays directly. Returns the number of rows accepted.
    """
    accepted = 0
    for feature, label in zip(features, labels):
        label = int(label)
        size = len(bank._fifo[label])
        if rng.random() >= (1.0 if size == 0 else float(size) ** (-bank.beta)):
            continue
        slot = sum(len(f) for f in bank._fifo)
        if slot == bank.capacity:
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
            slot = bank._fifo[victim].pop(0)
            bank.evictions += 1
        bank.features[slot] = feature
        bank.labels[slot] = label
        bank._fifo[label].append(slot)
        accepted += 1
    return accepted


def record_each(latest, counts, positions, labels):
    """Per-record ledger writes: the reference for PseudoLabelLedger.record_batch.

    `latest` holds each row's label (-1 = none) and `counts` the histogram of
    its labels; both are updated in place, one (position, label) pair at a time.
    """
    for pos, label in zip(positions, labels):
        pos, label = int(pos), int(label)
        if latest[pos] >= 0:
            counts[latest[pos]] -= 1
        counts[label] += 1
        latest[pos] = label


def _ce(logits, targets, weights, mask, divisor):
    n = len(logits)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    coef = np.where(mask, weights, 0.0) / float(divisor)
    loss = float(-(coef * logp[rows, targets]).sum())
    dlogits = np.exp(logp) * coef[:, None]
    dlogits[rows, targets] -= coef
    return loss, dlogits


def _head_term(head, grad, features, targets, weights, mask, scale=1.0):
    loss, dlogits = _ce(features @ head.w + head.b, targets, weights, mask, len(features))
    grad.w += scale * (features.T @ dlogits)
    grad.b += scale * dlogits.sum(axis=0)
    return loss, dlogits @ head.w.T


def _encode(params, x):
    inputs, preacts, h = [], [], x
    for layer in params.encoder_layers:
        inputs.append(h)
        z = h @ layer.w + layer.b
        preacts.append(z)
        h = np.maximum(z, 0.0)
    return h, (inputs, preacts)


def _encode_backward(params, cache, dfeatures, grads):
    inputs, preacts = cache
    d = dfeatures
    for i in reversed(range(len(inputs))):
        dz = d * (preacts[i] > 0.0)
        grads.encoder_layers[i].w += inputs[i].T @ dz
        grads.encoder_layers[i].b += dz.sum(axis=0)
        if i > 0:
            d = dz @ params.encoder_layers[i].w.T


def step_per_term(state, labeled_x, labeled_y, unlabeled_pos, unlabeled_x):
    """One training step with one encoder pass per view and one CE per head
    term: the reference for trainer.compute_step, bit for bit.

    Augments the labeled weak view, then the unlabeled weak and strong views,
    from state.rngs.augment; each of the five head losses is its own forward,
    CE and backward. Each gradient array adds its labeled, then strong-view,
    then memory term. The ledger, bank and bank generator are updated as the
    step does. Returns (dict of StepMetrics fields, gradient ModelParams).
    """
    from tailssl.data import strong_augment, weak_augment
    from tailssl.numerics import zeros_like_params
    from tailssl.util import round_half_up
    from tailssl.weighting import batch_weights

    cfg, p, rngs = state.cfg, state.params, state.rngs
    b = cfg.batch_size
    use_aux = cfg.mode == "bmb"
    use_unsup = cfg.mode in ("fixmatch", "bmb") and state.epoch >= cfg.warmup_epochs
    grads = zeros_like_params(p)
    ones = np.ones(b)
    full = np.ones(b, dtype=bool)

    feats_x, cache_x = _encode(p, weak_augment(labeled_x, cfg.augment, rngs.augment))
    loss_s_b, dfeat_x = _head_term(p.heads[0], grads.heads[0], feats_x, labeled_y, ones, full)
    loss_s_a = 0.0
    if use_aux:
        w_lab = batch_weights(state.labeled_class_counts, labeled_y, cfg.alpha)
        loss_s_a, dfeat_ax = _head_term(
            p.heads[1], grads.heads[1], feats_x, labeled_y, w_lab, full
        )
        if not cfg.aux_stopgrad:
            dfeat_x = dfeat_x + dfeat_ax
    _encode_backward(p, cache_x, dfeat_x, grads)

    loss_u_b = loss_u_a = loss_mem = mask_rate = accept_rate = 0.0
    if use_unsup:
        uw = weak_augment(unlabeled_x, cfg.augment, rngs.augment)
        us = strong_augment(unlabeled_x, cfg.augment, rngs.augment)
        feats_uw, _ = _encode(p, uw)
        logits_uw = feats_uw @ p.heads[0].w + p.heads[0].b
        z = np.exp(logits_uw - logits_uw.max(axis=1, keepdims=True))
        probs_b = z / z.sum(axis=1, keepdims=True)
        qhat_b = probs_b.argmax(axis=1)
        mask = probs_b.max(axis=1) >= cfg.tau
        mask_rate = float(mask.mean())

        feats_us, cache_us = _encode(p, us)
        loss_u_b, dfeat_us = _head_term(
            p.heads[0], grads.heads[0], feats_us, qhat_b, ones, mask, cfg.lambda_u
        )
        dfeat_us = dfeat_us * cfg.lambda_u
        if use_aux:
            qhat_a = (feats_uw @ p.heads[1].w + p.heads[1].b).argmax(axis=1)
            w_unl = batch_weights(state.ledger.estimated_counts(), qhat_a, cfg.alpha)
            loss_u_a, dfeat_au = _head_term(
                p.heads[1], grads.heads[1], feats_us, qhat_a, w_unl, mask, cfg.lambda_u
            )
            if not cfg.aux_stopgrad:
                dfeat_us = dfeat_us + cfg.lambda_u * dfeat_au
        _encode_backward(p, cache_us, dfeat_us, grads)

        if use_aux:
            confident = np.flatnonzero(mask)
            labels = qhat_a[confident]
            state.ledger.record_batch(unlabeled_pos[confident], labels)
            if cfg.memory_content == "both":
                offered = np.stack((feats_uw[confident], feats_us[confident]), axis=1)
                offered = offered.reshape(-1, feats_us.shape[1])
                labels = labels.repeat(2)
            else:
                offered = (feats_uw if cfg.memory_content == "weak" else feats_us)[confident]
            accepted = state.bank.offer(offered, labels, rngs.bank)
            accept_rate = accepted / len(labels) if len(labels) else 0.0
            rows = state.bank.get(
                state.ledger.estimated_counts(), round_half_up(cfg.get_fraction * b),
                cfg.lambda_sampling, rngs.bank,
            )
            if len(rows):
                loss_mem, _ = _head_term(
                    p.heads[1], grads.heads[1], state.bank.features[rows],
                    state.bank.labels[rows], np.ones(len(rows)),
                    np.ones(len(rows), dtype=bool), cfg.lambda_m,
                )

    loss_total = (
        loss_s_b + cfg.lambda_u * loss_u_b + loss_s_a + cfg.lambda_u * loss_u_a
        + cfg.lambda_m * loss_mem
    )
    metrics = dict(loss_s_b=loss_s_b, loss_u_b=loss_u_b, loss_s_a=loss_s_a, loss_u_a=loss_u_a,
                   loss_mem=loss_mem, loss_total=loss_total, mask_rate=mask_rate,
                   enqueue_accept_rate=accept_rate)
    return metrics, grads


def load_dataset_rows(csv_path, oracle_path=None, *, num_classes):
    """Row-by-row CSV reader: the reference for data.load_dataset.

    Each field goes through int() or float(); the first bad row raises
    DatasetFormatError at its line, except that a non-finite feature is looked
    for only once every row has passed the other checks.
    """
    ids = {"train": [], "test": []}
    xs = {"train": [], "test": []}
    ys = {"train": [], "test": []}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{csv_path}: empty file, missing header") from None
        if len(header) < 4 or header[:3] != ["id", "split", "label"]:
            raise DatasetFormatError(f"{csv_path}: bad header {header[:3]}")
        d = len(header) - 3
        if header != ["id", "split", "label"] + [f"f_{i}" for i in range(d)]:
            raise DatasetFormatError(f"{csv_path}: malformed feature columns in header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 3:
                raise DatasetFormatError(
                    f"{csv_path}:{lineno}: expected {d + 3} fields, got {len(row)}"
                )
            try:
                sid = int(row[0])
                label = int(row[2])
                feats = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise DatasetFormatError(f"{csv_path}:{lineno}: {exc}") from None
            split = row[1]
            if split not in CSV_SPLITS:
                raise DatasetFormatError(f"{csv_path}:{lineno}: unknown split {split!r}")
            if label < -1:
                raise DatasetFormatError(f"{csv_path}:{lineno}: label must be >= -1")
            if label >= num_classes:
                raise DatasetFormatError(
                    f"{csv_path}:{lineno}: label {label} >= num_classes {num_classes}"
                )
            if split == "test" and label < 0:
                raise DatasetFormatError(f"{csv_path}:{lineno}: test rows must be labeled")
            ids[split].append(sid)
            xs[split].append(feats)
            ys[split].append(label)

    def pack(split):
        if ids[split]:
            return (
                np.array(ids[split], dtype=np.int64),
                np.array(xs[split], dtype=np.float64),
                np.array(ys[split], dtype=np.int64),
            )
        return np.zeros(0, dtype=np.int64), np.zeros((0, d)), np.zeros(0, dtype=np.int64)

    tr_ids, tr_x, tr_y = pack("train")
    te_ids, te_x, te_y = pack("test")
    if not (np.isfinite(tr_x).all() and np.isfinite(te_x).all()):
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = enumerate(csv.reader(fh), start=1)
            next(rows)  # header
            bad = next(
                n for n, r in rows if r and not np.isfinite(np.array(r[3:], dtype=float)).all()
            )
        raise DatasetFormatError(f"{csv_path}:{bad}: non-finite feature")
    all_ids = np.concatenate([tr_ids, te_ids])
    if len(np.unique(all_ids)) != len(all_ids):
        raise DatasetFormatError(f"{csv_path}: duplicate sample ids")
    lab = tr_y >= 0
    dataset = Dataset(
        labeled=Split(tr_ids[lab], tr_x[lab], tr_y[lab]),
        unlabeled=Split(tr_ids[~lab], tr_x[~lab], tr_y[~lab]),
        test=Split(te_ids, te_x, te_y),
        num_classes=num_classes,
    )
    if oracle_path is not None:
        oracle = _oracle_label_rows(oracle_path, num_classes)
        missing = [int(i) for i in dataset.unlabeled.ids if int(i) not in oracle]
        if missing:
            raise DatasetFormatError(
                f"{oracle_path}: no true label for unlabeled id(s) {missing[:5]}"
            )
        truth = np.array([oracle[int(i)] for i in dataset.unlabeled.ids], dtype=np.int64)
        dataset.unlabeled_oracle_y = truth
        dataset.true_unlabeled_counts = np.bincount(truth, minlength=num_classes).astype(np.int64)
    return dataset


def _oracle_label_rows(path, num_classes):
    """Map sample id -> true label, one oracle row at a time."""
    labels = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "true_label"]:
            raise DatasetFormatError(f"{path}: bad oracle header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DatasetFormatError(
                    f"{path}:{lineno}: expected 2 fields (id, true_label), got {len(row)}"
                )
            try:
                sid, label = int(row[0]), int(row[1])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
            if not 0 <= label < num_classes:
                raise DatasetFormatError(
                    f"{path}:{lineno}: true label {label} outside [0, {num_classes})"
                )
            if sid in labels:
                raise DatasetFormatError(f"{path}:{lineno}: duplicate id {sid}")
            labels[sid] = label
    return labels
