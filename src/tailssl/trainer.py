"""End-to-end training loop with two classifier heads over a shared encoder.

The base head trains with plain supervised + confidence-gated consistency
losses and exists to shape the encoder; the auxiliary head additionally gets
adaptive per-sample weights and a memory loss over features re-sampled from
the class-rebalanced bank, and is the only head used at inference. Per step:

  1. weak-augment the labeled batch, score with both heads; plain CE for the
     base head, ratio-weighted CE for the auxiliary head;
  2. weak- and strong-augment the unlabeled batch; the base head's weak-view
     argmax and confidence provide the pseudo labels and the tau mask for the
     base consistency loss on the strong view; the auxiliary branch keeps the
     same mask but takes its pseudo labels from its own weak-view argmax and
     weights them by the reversed estimated-count ratio;
  3. every confident sample updates the label ledger and offers the configured
     feature view(s) to the memory bank;
  4. a fixed fraction of the batch is re-drawn from the bank (reversed
     sampling) and scored by the auxiliary head; this memory loss reaches only
     the auxiliary head because stored features are constants;
  5. total = L_s_base + lu*L_u_base + L_s_aux + lu*L_u_aux + lm*L_mem,
     one Adam step, one EMA update.

The step batches its numerics: one weak-augment draw covers the labeled and
unlabeled rows, one encoder pass runs the blocks labeled weak | unlabeled
strong | unlabeled weak, the stacked heads score every block at once, and one
CE call and one backward pass cover the labeled and strong-view losses of
both heads. Stacked passes give the values of one pass per block bit for bit
(see `numerics`), and each gradient array still adds its labeled, strong-view
and memory terms in that order, so the step equals one that runs each loss on
its own.

During warmup epochs every unlabeled term is dropped and the ledger/bank stay
untouched. Modes: "vanilla" = supervised base head only, "fixmatch" = base
head with consistency, "bmb" = the full two-head setup.

The loop owns all mutable state on a single logical thread; determinism comes
from four independent seeded streams (init, batch sampling, augmentation,
bank operations).
"""

from dataclasses import dataclass, field

import numpy as np

from .data import AugmentConfig, Dataset, strong_augment, weak_augment
from .errors import TrainingDivergedError
from .estimator import PseudoLabelLedger
from .membank import MemoryBank
from .metrics import (
    default_shot_thresholds,
    estimation_error,
    evaluate,
    shot_groups,
    with_groups,
)
from .numerics import (
    AdamState,
    EmaParams,
    ModelParams,
    adam_step,
    ema_update,
    encoder_backward,
    encoder_forward,
    head_backward,
    head_forward,
    init_adam,
    init_ema,
    init_params,
    softmax,
    weighted_masked_ce,
    zeros_like_params,
)
from .schema import bounded, check_fields
from .util import round_half_up, spawn_rngs
from .weighting import batch_weights

MODES = ("vanilla", "fixmatch", "bmb")
MEMORY_CONTENTS = ("weak", "strong", "both")


@dataclass(frozen=True)
class TrainConfig:
    num_classes: int
    input_dim: int
    hidden_sizes: tuple[int, ...] = bounded(
        (16, 8), items={"type": "integer", "minimum": 1}, minItems=1
    )
    mode: str = bounded("bmb", enum=list(MODES))
    tau: float = bounded(0.95, exclusiveMinimum=0, maximum=1)  # pseudo-label confidence threshold
    alpha: float = bounded(0.75, minimum=0)  # adaptive weight exponent
    beta: float = bounded(1.0, minimum=0)  # memory balance exponent
    lambda_sampling: float = bounded(0.75, minimum=0)  # reversed-sampling exponent
    lambda_u: float = bounded(1.0, minimum=0)  # consistency loss weight
    lambda_m: float = bounded(0.25, minimum=0)  # memory loss weight
    batch_size: int = bounded(64, minimum=1)
    memory_capacity: int = bounded(128, minimum=1)
    get_fraction: float = bounded(0.5, minimum=0, maximum=1)  # batch share re-drawn from memory
    memory_content: str = bounded("strong", enum=list(MEMORY_CONTENTS))
    warmup_epochs: int = bounded(5, minimum=0)
    epochs: int = bounded(60, minimum=0)
    iters_per_epoch: int = bounded(100, minimum=1)
    lr: float = bounded(0.002, exclusiveMinimum=0)
    ema_decay: float = bounded(0.999, minimum=0, maximum=1)
    adam_beta1: float = bounded(0.9, minimum=0, exclusiveMaximum=1)
    adam_beta2: float = bounded(0.999, minimum=0, exclusiveMaximum=1)
    adam_eps: float = bounded(1e-8, exclusiveMinimum=0)
    aux_stopgrad: bool = False  # stop auxiliary-head gradients before the encoder
    shot_many_min: int | None = None  # shot-group thresholds; None = tertiles of N_k
    shot_few_max: int | None = None
    seed: int = bounded(0, minimum=0)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        check_fields(self)
        if (self.shot_many_min is None) != (self.shot_few_max is None):
            raise ValueError("shot_many_min and shot_few_max must be set together or not at all")
        if self.shot_many_min is not None and self.shot_many_min <= self.shot_few_max:
            raise ValueError("shot_many_min must exceed shot_few_max")


@dataclass
class StepMetrics:
    loss_s_b: float
    loss_u_b: float
    loss_s_a: float
    loss_u_a: float
    loss_mem: float
    loss_total: float
    mask_rate: float
    enqueue_accept_rate: float


@dataclass
class RngStreams:
    batch: np.random.Generator
    augment: np.random.Generator
    bank: np.random.Generator


@dataclass
class TrainState:
    cfg: TrainConfig
    params: ModelParams
    ema: EmaParams
    adam: AdamState
    bank: MemoryBank
    ledger: PseudoLabelLedger
    labeled_class_counts: np.ndarray  # clamped >= 1, drives the labeled weights
    rngs: RngStreams
    grads: ModelParams  # compute_step's gradient buffer, cleared at the start of each step
    epoch: int = 0
    step: int = 0


def init_state(
    cfg: TrainConfig, labeled_class_counts: np.ndarray, num_unlabeled: int
) -> TrainState:
    """Fresh parameters, optimizer, bank and a ledger over num_unlabeled rows."""
    init_rng, batch_rng, augment_rng, bank_rng = spawn_rngs(cfg.seed, 4)
    params = init_params(cfg.input_dim, cfg.hidden_sizes, cfg.num_classes, init_rng)
    return TrainState(
        cfg=cfg,
        params=params,
        ema=init_ema(params, cfg.ema_decay),
        adam=init_adam(params, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps),
        bank=MemoryBank(cfg.memory_capacity, cfg.num_classes, cfg.beta, cfg.hidden_sizes[-1]),
        ledger=PseudoLabelLedger(cfg.num_classes, num_unlabeled),
        labeled_class_counts=np.maximum(np.asarray(labeled_class_counts, dtype=np.int64), 1),
        rngs=RngStreams(batch_rng, augment_rng, bank_rng),
        grads=zeros_like_params(params),
    )


def compute_step(
    state: TrainState,
    labeled_x: np.ndarray,
    labeled_y: np.ndarray,
    unlabeled_pos: np.ndarray,
    unlabeled_x: np.ndarray,
) -> tuple[StepMetrics, ModelParams]:
    """Forward/backward for one step: returns metrics and the total-loss gradient.

    Mutates the ledger and bank (confident-sample bookkeeping) but not the
    parameters; callers apply the optimizer step. The gradient is
    `state.grads`, so it stays valid until the next compute_step on the same
    state. The inputs are checked here, once; the layers below trust them.
    """
    cfg = state.cfg
    p = state.params
    b = cfg.batch_size
    use_aux = cfg.mode == "bmb"
    warm = state.epoch < cfg.warmup_epochs
    use_unsup = cfg.mode in ("fixmatch", "bmb") and not warm
    if len(labeled_x) != b or len(labeled_y) != b:
        raise ValueError("labeled batch size must equal cfg.batch_size")
    if labeled_y.min() < 0 or labeled_y.max() >= cfg.num_classes:
        raise ValueError(f"labeled_y outside [0, {cfg.num_classes})")
    if use_unsup and (len(unlabeled_x) != b or len(unlabeled_pos) != b):
        raise ValueError("unlabeled batch size (positions and rows) must equal cfg.batch_size")
    grads = state.grads
    grads.flat.fill(0.0)
    n_heads = 2 if use_aux else 1  # vanilla and fixmatch train the base head alone
    heads, grad_heads = p.heads[:n_heads], grads.heads[:n_heads]
    ones = np.ones(b)
    full = np.ones(b, dtype=bool)

    # (1) the weak views of the labeled and unlabeled rows in one draw, then
    # the strong view; blocks: labeled weak | unlabeled strong | unlabeled weak,
    # so the blocks that carry a loss come first
    aug, aug_rng = cfg.augment, state.rngs.augment
    if use_unsup:
        weak = weak_augment(np.concatenate((labeled_x, unlabeled_x)), aug, aug_rng)
        x = np.stack((weak[:b], strong_augment(unlabeled_x, aug, aug_rng), weak[b:]))
    else:
        x = weak_augment(labeled_x, aug, aug_rng)[None]
    feats, cache = encoder_forward(p, x)
    logits = head_forward(heads, feats)  # (head, block, row, class)

    # per head and loss block: CE targets and weights; per block: mask, scale
    targets, weights, masks, scales = [[labeled_y]], [[ones]], [full], [1.0]
    if use_aux:
        targets.append([labeled_y])
        weights.append([batch_weights(state.labeled_class_counts, labeled_y, cfg.alpha)])
    mask_rate = accept_rate = loss_mem = 0.0
    if use_unsup:
        # (2) pseudo labels and mask from the weak view (constants: no gradient
        # flows through that block)
        probs_b = softmax(logits[0, 2])
        conf = probs_b.max(axis=1)
        qhat_b = probs_b.argmax(axis=1)
        mask = conf >= cfg.tau
        mask_rate = int(np.count_nonzero(mask)) / b  # == mask.mean(), exactly
        targets[0].append(qhat_b)
        weights[0].append(ones)
        masks.append(mask)
        scales.append(cfg.lambda_u)
        if use_aux:
            qhat_a = logits[1, 2].argmax(axis=1)
            est_pre = state.ledger.estimated_counts()
            targets[1].append(qhat_a)
            weights[1].append(batch_weights(est_pre, qhat_a, cfg.alpha))

    # labeled and strong-view losses of both heads: one CE, one backward each
    n_loss = len(masks)
    losses, dlogits = weighted_masked_ce(
        logits[:, :n_loss], np.array(targets), np.array(weights), np.array(masks), b
    )
    dfeat = head_backward(heads, feats[:n_loss], dlogits, grad_heads, scales)
    block_scale = np.array(scales)[:, None, None]
    dfeat_enc = dfeat[0] * block_scale
    if use_aux and not cfg.aux_stopgrad:
        dfeat_enc += block_scale * dfeat[1]
    encoder_backward(p, cache, dfeat_enc, grads)
    table = np.zeros((2, 2))
    table[:n_heads, :n_loss] = losses
    (loss_s_b, loss_u_b), (loss_s_a, loss_u_a) = table.tolist()

    if use_unsup and use_aux:
        # (3) confident samples feed the ledger and the bank (auxiliary labels,
        # since those drive reversed sampling and the unlabeled weights); with
        # both views, each sample offers its weak then its strong feature
        feats_us, feats_uw = feats[1], feats[2]
        confident = np.flatnonzero(mask)
        labels = qhat_a[confident]
        state.ledger.record_batch(unlabeled_pos[confident], labels)
        if cfg.memory_content == "both":
            offered = np.stack((feats_uw[confident], feats_us[confident]), axis=1)
            offered = offered.reshape(-1, feats_us.shape[1])
            labels = labels.repeat(2)
        else:
            offered = (feats_uw if cfg.memory_content == "weak" else feats_us)[confident]
        accepted = state.bank.offer(offered, labels, state.rngs.bank)
        accept_rate = accepted / len(labels) if len(labels) else 0.0

        # (4) memory loss over re-sampled features; gradients reach only the
        # auxiliary head because the stored features are constants
        n_mem = round_half_up(cfg.get_fraction * b)
        rows = state.bank.get(
            state.ledger.estimated_counts(), n_mem, cfg.lambda_sampling, state.rngs.bank
        )
        if len(rows):
            loss_mem, _ = _head_loss(
                p.aux_head,
                grads.aux_head,
                state.bank.features[rows],
                state.bank.labels[rows],
                np.ones(len(rows)),
                np.ones(len(rows), dtype=bool),
                cfg.lambda_m,
            )

    # (5) total loss per the two-branch decomposition
    loss_total = (
        loss_s_b
        + cfg.lambda_u * loss_u_b
        + loss_s_a
        + cfg.lambda_u * loss_u_a
        + cfg.lambda_m * loss_mem
    )
    if not np.isfinite(loss_total):
        raise TrainingDivergedError(f"non-finite loss at step {state.step}", step=state.step)
    metrics = StepMetrics(
        loss_s_b=loss_s_b,
        loss_u_b=loss_u_b,
        loss_s_a=loss_s_a,
        loss_u_a=loss_u_a,
        loss_mem=loss_mem,
        loss_total=loss_total,
        mask_rate=mask_rate,
        enqueue_accept_rate=accept_rate,
    )
    return metrics, grads


def _head_loss(head, grad, features, targets, weights, mask, scale=1.0):
    """Mean-over-batch CE of one head: adds scale times its head gradients into
    grad and returns (loss, dfeatures), both unscaled."""
    logits = head_forward(head, features)
    loss, dlogits = weighted_masked_ce(logits, targets, weights, mask, len(features))
    return loss, head_backward(head, features, dlogits, grad, scale)


def train_step(
    state: TrainState,
    labeled_x: np.ndarray,
    labeled_y: np.ndarray,
    unlabeled_pos: np.ndarray,
    unlabeled_x: np.ndarray,
) -> StepMetrics:
    """One full optimization step: losses, gradients, Adam update, EMA update."""
    metrics, grads = compute_step(state, labeled_x, labeled_y, unlabeled_pos, unlabeled_x)
    try:
        adam_step(state.params, grads, state.adam, state.cfg.lr)
    except TrainingDivergedError as exc:
        raise TrainingDivergedError(str(exc) + f" at step {state.step}", step=state.step) from None
    ema_update(state.ema, state.params)
    state.step += 1
    return metrics


def predict(state: TrainState, x: np.ndarray) -> np.ndarray:
    """Class indices from the EMA parameters' inference head (auxiliary in bmb
    mode, base otherwise).

    Inputs are scored un-augmented; argmax ties break toward the smaller class
    index.
    """
    params = state.ema.params
    feats, _ = encoder_forward(params, x)
    head = params.aux_head if state.cfg.mode == "bmb" else params.base_head
    return head_forward(head, feats).argmax(axis=1)


def fit(
    data: Dataset,
    cfg: TrainConfig,
    callbacks: list | None = None,
) -> tuple[TrainState, list[dict]]:
    """Run cfg.epochs x cfg.iters_per_epoch steps over the dataset's splits.

    Batches are drawn uniformly with replacement each iteration. After every
    epoch the EMA parameters are evaluated on the test split and a record with
    accuracy, per-class recall, shot-group accuracy, bank entropy, estimated
    counts, and mean mask rate is appended to the returned log.
    """
    if len(data.labeled) == 0:
        raise ValueError("labeled split must be non-empty")
    counts = np.bincount(data.labeled.y, minlength=cfg.num_classes)
    state = init_state(cfg, counts, len(data.unlabeled))
    if cfg.shot_many_min is not None:
        thresholds = (cfg.shot_many_min, cfg.shot_few_max)
    else:
        thresholds = default_shot_thresholds(counts)
    groups = shot_groups(counts, *thresholds)
    needs_unlabeled = cfg.mode in ("fixmatch", "bmb")
    if needs_unlabeled and len(data.unlabeled) == 0:
        raise ValueError(f"mode={cfg.mode} requires a non-empty unlabeled split")

    log: list[dict] = []
    n_lab, n_unl = len(data.labeled), len(data.unlabeled)
    for epoch in range(cfg.epochs):
        state.epoch = epoch
        mask_rates = []
        loss_totals = []
        accept_rates = []
        for _ in range(cfg.iters_per_epoch):
            li = state.rngs.batch.integers(0, n_lab, size=cfg.batch_size)
            if needs_unlabeled:
                ui = state.rngs.batch.integers(0, n_unl, size=cfg.batch_size)
                u_x = data.unlabeled.x[ui]
            else:
                ui = np.zeros(0, dtype=np.int64)
                u_x = np.zeros((0, cfg.input_dim))
            m = train_step(state, data.labeled.x[li], data.labeled.y[li], ui, u_x)
            mask_rates.append(m.mask_rate)
            loss_totals.append(m.loss_total)
            accept_rates.append(m.enqueue_accept_rate)

        report = with_groups(
            evaluate(predict(state, data.test.x), data.test.y, cfg.num_classes),
            groups,
        )
        bank_entropy = state.bank.balance_entropy() if len(state.bank) else None
        record = {
            "epoch": epoch,
            "acc": report.top1,
            "avg_class_recall": report.avg_class_recall,
            "group_acc": report.group_acc,
            "bank_entropy": bank_entropy,
            "mask_rate": float(np.mean(mask_rates)),
            "per_class_recall": report.per_class_recall.tolist(),
            "confusion": report.confusion.tolist(),
            "loss_total_mean": float(np.mean(loss_totals)),
            "enqueue_accept_rate": float(np.mean(accept_rates)),
            "bank_counts": state.bank.counts().tolist(),
            "estimated_counts": state.ledger.estimated_counts().tolist(),
        }
        if data.true_unlabeled_counts is not None and state.ledger.counts.any():
            record["estimation_error"] = estimation_error(
                data.true_unlabeled_counts, state.ledger.estimated_counts()
            )
        log.append(record)
        for cb in callbacks or []:
            cb(state, record)
        state.epoch = epoch + 1
    return state, log
