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
strong | unlabeled weak, and the stacked heads score every block at once. The
bookkeeping of (3) and the memory draw of (4) run before any loss, so one CE
call covers every loss of the step: the labeled and strong-view rows of both
heads, then the memory rows, each loss the sum of its own segment of rows. One
stacked backward covers the labeled and strong-view losses, and the memory
rows' head backward follows the encoder's. Stacked passes give the values of
one pass per block bit for bit (see `numerics`), and each gradient array still
adds its labeled, strong-view and memory terms in that order, so the step
equals one that runs each loss on its own.

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
from .errors import ConfigError, TrainingDivergedError
from .estimator import PseudoLabelLedger
from .membank import MemoryBank
from .metrics import (
    default_shot_thresholds,
    estimation_error,
    evaluate,
    group_accuracy,
    shot_groups,
)
from .numerics import (
    AdamState,
    ModelParams,
    adam_step,
    ema_update,
    encoder_backward,
    encoder_forward,
    head_backward,
    head_forward,
    init_adam,
    init_params,
    row_max,
    softmax,
    weighted_masked_ce,
    zeros_like_params,
)
from .schema import MAX_SIZE, bounded, check_fields
from .util import round_half_up, spawn_rngs
from .weighting import batch_weights

MODES = ("vanilla", "fixmatch", "bmb")
# The encoder blocks each memory content offers to the bank, in order: block 1
# holds the unlabeled strong view, block 2 the unlabeled weak view
MEMORY_CONTENTS = {"weak": (2,), "strong": (1,), "both": (2, 1)}


@dataclass(frozen=True)
class TrainConfig:
    hidden_sizes: tuple[int, ...] = bounded(
        (16, 8), items={"type": "integer", "minimum": 1, "maximum": MAX_SIZE}, minItems=1
    )
    mode: str = bounded("bmb", enum=list(MODES))
    tau: float = bounded(0.95, exclusiveMinimum=0, maximum=1)  # pseudo-label confidence threshold
    alpha: float = bounded(0.75, minimum=0)  # adaptive weight exponent
    beta: float = bounded(1.0, minimum=0)  # memory balance exponent
    lambda_sampling: float = bounded(0.75, minimum=0)  # reversed-sampling exponent
    lambda_u: float = bounded(1.0, minimum=0)  # consistency loss weight
    lambda_m: float = bounded(0.25, minimum=0)  # memory loss weight
    batch_size: int = bounded(64, minimum=1, maximum=MAX_SIZE)
    memory_capacity: int = bounded(128, minimum=1, maximum=MAX_SIZE)
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
    ema: ModelParams  # EMA of params; predict scores with it
    adam: AdamState  # adam.step_count is the number of steps taken
    bank: MemoryBank
    ledger: PseudoLabelLedger
    labeled_class_counts: np.ndarray  # clamped >= 1, drives the labeled weights
    rngs: RngStreams
    grads: ModelParams  # compute_step's gradient buffer, cleared at the start of each step
    epoch: int = 0


def init_state(
    cfg: TrainConfig, input_dim: int, labeled_class_counts: np.ndarray, num_unlabeled: int
) -> TrainState:
    """Fresh parameters, optimizer, bank and a ledger over num_unlabeled rows,
    for inputs of width input_dim and K = len(labeled_class_counts) classes.

    Before any array is made, K < 2 or input_dim < 1 raises ValueError (a
    one-class bank's entropy would divide by ln 1 = 0), and a config that sizes
    an array past MAX_SIZE bytes raises ConfigError: the parameters, the bank's
    features, or the step's three encoder blocks of batch_size rows at the
    widest layer.
    """
    k = len(labeled_class_counts)
    if k < 2 or input_dim < 1:
        raise ValueError(f"need at least 2 classes and input width 1, got {k} and {input_dim}")
    dims = tuple(map(int, (input_dim, *cfg.hidden_sizes)))  # Python ints never overflow
    capacity, batch_size = int(cfg.memory_capacity), int(cfg.batch_size)
    for name, value, sized, values in (
        ("hidden_sizes", list(dims[1:]), "the parameters",
         ModelParams.size(dims, k)),
        ("memory_capacity", capacity, f"the bank's rows of width {dims[-1]}",
         capacity * dims[-1]),
        ("batch_size", batch_size, f"3 encoder blocks of width {max(dims)}",
         3 * batch_size * max(dims)),
    ):
        if values * 8 > MAX_SIZE:  # float64 bytes
            raise ConfigError(f"train {name} {value} sizes {sized}: "
                              f"{values} float64 values exceed {MAX_SIZE} bytes")
    init_rng, batch_rng, augment_rng, bank_rng = spawn_rngs(cfg.seed, 4)
    params = init_params(input_dim, cfg.hidden_sizes, k, init_rng)
    return TrainState(
        cfg=cfg,
        params=params,
        ema=params.copy(),
        adam=init_adam(params),
        bank=MemoryBank(cfg.memory_capacity, k, cfg.beta, cfg.hidden_sizes[-1]),
        ledger=PseudoLabelLedger(k, num_unlabeled),
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
    if np.minimum.reduce(labeled_y) < 0 or np.maximum.reduce(labeled_y) >= p.num_classes:
        raise ValueError(f"labeled_y outside [0, {p.num_classes})")
    if use_unsup and (len(unlabeled_x) != b or len(unlabeled_pos) != b):
        raise ValueError("unlabeled batch size (positions and rows) must equal cfg.batch_size")
    grads = state.grads
    grads.flat.fill(0.0)
    n_heads = 2 if use_aux else 1  # vanilla and fixmatch train the base head alone
    n_loss = 2 if use_unsup else 1  # loss blocks: labeled weak, then unlabeled strong
    heads = p.heads[:n_heads]

    # (1) the weak views of the labeled and unlabeled rows in one draw, then
    # the strong view; blocks: labeled weak | unlabeled strong | unlabeled weak,
    # so the blocks that carry a loss come first
    aug, aug_rng = cfg.augment, state.rngs.augment
    if use_unsup:
        weak = weak_augment(np.concatenate((labeled_x, unlabeled_x)), aug, aug_rng)
        x = np.empty((3, b, weak.shape[-1]))
        x[::2] = weak.reshape(2, b, -1)
        x[1] = strong_augment(unlabeled_x, aug, aug_rng)
    else:
        x = weak_augment(labeled_x, aug, aug_rng)[None]
    feats, cache = encoder_forward(p, x)
    logits = head_forward(heads, feats)  # (head, block, row, class)

    # the CE's targets and coefficients (weight over b, 0 where masked): the
    # loss blocks' rows of each head, then room for the memory rows
    n_rows = n_heads * n_loss * b
    n_mem = round_half_up(cfg.get_fraction * b) if use_unsup and use_aux else 0
    ce_targets = np.empty(n_rows + n_mem, dtype=np.int64)
    ce_coef = np.ones(n_rows + n_mem)
    targets = ce_targets[:n_rows].reshape(n_heads, n_loss, b)
    coef = ce_coef[:n_rows].reshape(n_heads, n_loss, b)
    targets[:, 0] = labeled_y
    if use_aux:
        coef[1, 0] = batch_weights(state.labeled_class_counts, labeled_y, cfg.alpha)
    mask_rate = accept_rate = loss_mem = 0.0
    rows = ()
    if use_unsup:
        # (2) pseudo labels and mask from the weak view (constants: no gradient
        # flows through that block)
        probs_b = softmax(logits[0, 2])
        mask = row_max(probs_b) >= cfg.tau
        mask_rate = int(np.count_nonzero(mask)) / b  # == mask.mean(), exactly
        targets[0, 1] = probs_b.argmax(axis=1)
        if use_aux:
            qhat_a = logits[1, 2].argmax(axis=1)
            targets[1, 1] = qhat_a
            coef[1, 1] = batch_weights(state.ledger.estimated_counts(), qhat_a, cfg.alpha)
        coef[:, 1] *= mask  # a masked row's coefficient becomes 0: the weights are finite
    coef /= b

    if use_unsup and use_aux:
        # (3) confident samples feed the ledger and the bank (auxiliary labels,
        # since those drive reversed sampling and the unlabeled weights); each
        # sample offers its feature of every block of the memory content, in order
        views = MEMORY_CONTENTS[cfg.memory_content]
        confident = mask.nonzero()[0]
        labels = qhat_a[confident]
        state.ledger.record_batch(unlabeled_pos[confident], labels)
        offered = feats[views, confident[:, None]].reshape(-1, feats.shape[-1])
        labels = labels.repeat(len(views))
        accepted = state.bank.offer(offered, labels, state.rngs.bank)
        accept_rate = accepted / len(labels) if len(labels) else 0.0

        # (4) a fixed fraction of the batch re-drawn from the bank
        rows = state.bank.get(
            state.ledger.estimated_counts(), n_mem, cfg.lambda_sampling, state.rngs.bank
        )

    # one CE over the loss blocks' rows of each head, then the memory rows,
    # which the auxiliary head scores; each loss sums its own segment
    n_ce = n_rows + len(rows)
    ce_logits = logits[:, :n_loss].reshape(n_rows, -1)
    if len(rows):
        mem_feats = state.bank.features[rows][None]  # one block, scored by the aux head alone
        ce_logits = np.concatenate((ce_logits, head_forward(p.heads[1:], mem_feats)[0, 0]))
        ce_targets[n_rows:] = state.bank.labels[rows]
        ce_coef[n_rows:] = 1.0 / len(rows)
    terms, dlogits = weighted_masked_ce(ce_logits, ce_targets[:n_ce], ce_coef[:n_ce])
    table = np.zeros((2, 2))
    table[:n_heads, :n_loss] = -np.add.reduce(terms[:n_rows].reshape(n_heads, n_loss, b), axis=-1)
    (loss_s_b, loss_u_b), (loss_s_a, loss_u_a) = table.tolist()

    # the loss blocks' gradients; block 1 of each head's dfeatures scaled by
    # lambda_u, and the heads' dfeatures added in head order (the auxiliary
    # head's only when its gradient reaches the encoder)
    dlogits_blocks = dlogits[:n_rows].reshape(n_heads, n_loss, b, -1)
    head_backward(feats[:n_loss], dlogits_blocks, grads.heads[:n_heads],
                  [1.0, cfg.lambda_u][:n_loss])
    n_enc = 1 if cfg.aux_stopgrad else n_heads  # heads whose loss reaches the encoder
    dfeat = dlogits_blocks[:n_enc] @ heads.w[:n_enc].mT[:, None]
    if use_unsup:
        dfeat[:, 1] *= cfg.lambda_u
    if n_enc == 2:
        dfeat[0] += dfeat[1]
    encoder_backward(p, cache, dfeat[0], grads)
    if len(rows):
        # the memory loss reaches only the auxiliary head: stored features are constants
        loss_mem = float(-np.add.reduce(terms[n_rows:]))
        head_backward(mem_feats, dlogits[None, None, n_rows:], grads.heads[1:], [cfg.lambda_m])

    # (5) total loss per the two-branch decomposition
    loss_total = (
        loss_s_b
        + cfg.lambda_u * loss_u_b
        + loss_s_a
        + cfg.lambda_u * loss_u_a
        + cfg.lambda_m * loss_mem
    )
    if not np.isfinite(loss_total):
        raise TrainingDivergedError(f"non-finite loss at step {state.adam.step_count}")
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


def train_step(
    state: TrainState,
    labeled_x: np.ndarray,
    labeled_y: np.ndarray,
    unlabeled_pos: np.ndarray,
    unlabeled_x: np.ndarray,
) -> StepMetrics:
    """One full optimization step: losses, gradients, Adam update, EMA update,
    each under the settings state.cfg holds when the step runs."""
    metrics, grads = compute_step(state, labeled_x, labeled_y, unlabeled_pos, unlabeled_x)
    cfg = state.cfg
    adam_step(state.params, grads, state.adam, cfg.lr, cfg.adam_beta1, cfg.adam_beta2,
              cfg.adam_eps)
    ema_update(state.ema, state.params, cfg.ema_decay)
    return metrics


def predict(state: TrainState, x: np.ndarray) -> np.ndarray:
    """Class indices from the EMA parameters' inference head (auxiliary in bmb
    mode, base otherwise).

    Inputs are scored un-augmented; argmax ties break toward the smaller class
    index.
    """
    ema = state.ema
    feats, _ = encoder_forward(ema, np.asarray(x)[None])
    head = ema.heads[1:] if state.cfg.mode == "bmb" else ema.heads[:1]
    return head_forward(head, feats)[0, 0].argmax(axis=1)


def fit(
    data: Dataset,
    cfg: TrainConfig,
    callbacks: list | None = None,
) -> tuple[TrainState, list[dict]]:
    """Run cfg.epochs x cfg.iters_per_epoch steps over the dataset's splits.

    Batches are drawn uniformly with replacement each iteration. After every
    epoch the EMA parameters are evaluated on the test split and a record with
    accuracy, per-class recall, shot-group accuracy, bank entropy, estimated
    counts, and mean mask rate is appended to the returned log. The dataset
    alone gives the class count K and the feature width. Splits of unequal
    widths or a labeled label outside [0, K) raise ValueError before any draw,
    and a test label outside [0, K) before the first step.
    """
    k, d = data.num_classes, data.labeled.x.shape[-1]
    widths = [split.x.shape[1:] for split in (data.labeled, data.unlabeled, data.test)]
    if widths != [(d,)] * 3:
        raise ValueError(f"dataset splits have feature widths {widths}, not one width")
    if len(data.labeled) == 0:
        raise ValueError("labeled split must be non-empty")
    if data.labeled.y.min() < 0 or data.labeled.y.max() >= k:
        raise ValueError(f"labeled labels outside [0, {k})")
    counts = data.labeled_class_counts()
    state = init_state(cfg, d, counts, len(data.unlabeled))
    if len(data.test) and (data.test.y.min() < 0 or data.test.y.max() >= k):
        raise ValueError(f"test labels outside [0, {k})")
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
                u_x = data.unlabeled.x[:0]
            m = train_step(state, data.labeled.x[li], data.labeled.y[li], ui, u_x)
            mask_rates.append(m.mask_rate)
            loss_totals.append(m.loss_total)
            accept_rates.append(m.enqueue_accept_rate)

        report = evaluate(predict(state, data.test.x), data.test.y, k)
        bank_entropy = state.bank.balance_entropy() if len(state.bank) else None
        with np.errstate(over="ignore"):  # finite losses can overflow a sum, not a mean
            loss_mean = np.mean(loss_totals)
            if np.isinf(loss_mean):
                loss_mean = np.sum(np.divide(loss_totals, len(loss_totals)))
        record = {
            "epoch": epoch,
            "acc": report.top1,
            "avg_class_recall": report.avg_class_recall,
            "group_acc": group_accuracy(report.confusion, groups),
            "bank_entropy": bank_entropy,
            "mask_rate": float(np.mean(mask_rates)),
            "per_class_recall": report.per_class_recall.tolist(),
            "confusion": report.confusion.tolist(),
            "loss_total_mean": float(loss_mean),
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
