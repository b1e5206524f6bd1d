"""Trainer: step semantics, loss composition, gating, gradient isolation, determinism."""

import ast
import copy
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    argmax_first,
    ce_sum,
    enqueue_each,
    linear,
    masked_ce,
    mlp_forward,
    ratio_weight,
    record_each,
    step_per_term,
    store,
)

from tailssl.config import field_schemas
from tailssl.data import (
    AugmentConfig,
    Dataset,
    DatasetSpec,
    Split,
    generate_dataset,
    load_dataset,
    save_dataset,
    strong_augment,
    weak_augment,
)
import tailssl.trainer as trainer_module
from tailssl.errors import TrainingDivergedError
from tailssl.numerics import adam_step, encoder_forward, head_forward, softmax
from tailssl.trainer import (
    TrainConfig,
    compute_step,
    fit,
    init_state,
    predict,
    train_step,
)
from tailssl.util import round_half_up

NO_AUG = AugmentConfig(weak_noise_sigma=0.0, strong_noise_sigma=0.0,
                       strong_dropout_prob=0.0, strong_scale_jitter=0.0)


def micro_cfg(**kw):
    base = dict(
        hidden_sizes=(4,),
        batch_size=4,
        memory_capacity=16,
        warmup_epochs=0,
        epochs=1,
        iters_per_epoch=2,
        tau=0.5,
        augment=NO_AUG,
        seed=5,
    )
    base.update(kw)
    return TrainConfig(**base)


def micro_batches(seed=0, b=4, d=3):
    rng = np.random.default_rng(seed)
    lab_x = rng.normal(size=(b, d))
    lab_y = rng.integers(0, 2, size=b)
    unl_pos = np.arange(100, 100 + b)
    unl_x = rng.normal(size=(b, d))
    return lab_x, lab_y, unl_pos, unl_x


# unlabeled rows of the states below; every position the tests pass is under it
NUM_UNLABELED = 1000


def make_state(cfg, labeled_counts=(6, 2), input_dim=3):
    return init_state(cfg, input_dim, np.array(labeled_counts), NUM_UNLABELED)


# ---------------------------------------------------------------------------
# Step semantics
# ---------------------------------------------------------------------------


def test_degenerate_weights_reduce_to_two_headed_supervised_ce():
    cfg = micro_cfg(lambda_u=0.0, lambda_m=0.0, alpha=0.0)
    state = make_state(cfg)
    lab_x, lab_y, unl_pos, unl_x = micro_batches()
    m = train_step(state, lab_x, lab_y, unl_pos, unl_x)
    assert m.loss_total == pytest.approx(m.loss_s_b + m.loss_s_a, abs=1e-12)


def test_warmup_epoch_drops_unsupervised_terms_and_freezes_bank():
    cfg = micro_cfg(warmup_epochs=2)
    state = make_state(cfg)
    lab_x, lab_y, unl_pos, unl_x = micro_batches()
    for _ in range(3):
        m = train_step(state, lab_x, lab_y, unl_pos, unl_x)
        assert m.loss_u_b == m.loss_u_a == m.loss_mem == 0.0
        assert m.mask_rate == 0.0
    assert len(state.bank) == 0
    assert state.ledger.counts.sum() == 0


def test_micro_step_matches_straight_line_recomputation():
    """Full-path oracle: every loss term recomputed with loops to 1e-10.

    Augmentations are zero-strength, so weak and strong views equal the raw
    inputs; the bank draw is replayed on a cloned bank with a cloned rng.
    """
    cfg = micro_cfg(lambda_u=0.7, lambda_m=0.9, alpha=1.5, lambda_sampling=1.0, tau=0.55)
    state = make_state(cfg, labeled_counts=(6, 2))
    lab_x, lab_y, unl_pos, unl_x = micro_batches(seed=3)

    # pre-populate memory and ledger so the memory loss is active
    rng = np.random.default_rng(9)
    for i in range(6):
        store(state.bank, np.abs(rng.normal(size=4)), i % 2)
    state.ledger.record_batch(500 + np.arange(6), np.arange(6) % 2)

    params = state.params.copy()
    oracle_bank = copy.deepcopy(state.bank)
    oracle_ledger = copy.deepcopy(state.ledger)
    bank_rng_state = state.rngs.bank.bit_generator.state

    metrics = train_step(state, lab_x, lab_y, unl_pos, unl_x)

    # ---- straight-line recomputation ----
    b = cfg.batch_size
    feats_x = mlp_forward(params, lab_x)
    logits_bx = linear(params.heads[0], feats_x)
    loss_s_b = ce_sum(logits_bx, list(lab_y), [1.0] * b, [True] * b, b)

    n_counts = [6, 2]
    w_lab = [ratio_weight(n_counts, int(y), cfg.alpha) for y in lab_y]
    logits_ax = linear(params.heads[1], feats_x)
    loss_s_a = ce_sum(logits_ax, list(lab_y), w_lab, [True] * b, b)

    feats_u = mlp_forward(params, unl_x)  # weak == strong == raw here
    logits_bu = linear(params.heads[0], feats_u)
    conf, qhat_b = [], []
    for row in logits_bu:
        m0 = max(row)
        exps = [math.exp(v - m0) for v in row]
        s = sum(exps)
        conf.append(max(exps) / s)
        qhat_b.append(argmax_first(row))
    mask = [c >= cfg.tau for c in conf]
    loss_u_b = ce_sum(logits_bu, qhat_b, [1.0] * b, mask, b)

    logits_au = linear(params.heads[1], feats_u)
    qhat_a = [argmax_first(row) for row in logits_au]
    est_pre = [max(c, 1) for c in oracle_ledger.counts]
    w_unl = [ratio_weight(est_pre, q, cfg.alpha) for q in qhat_a]
    loss_u_a = ce_sum(logits_au, qhat_a, w_unl, mask, b)

    # replay ledger/bank updates, then the reversed-sampling draw
    replay_rng = np.random.default_rng()
    replay_rng.bit_generator.state = bank_rng_state
    for j in range(b):
        if mask[j]:
            positions, labels = unl_pos[j:j + 1], qhat_a[j:j + 1]
            record_each(oracle_ledger.latest, oracle_ledger.counts, positions, labels)
            enqueue_each(oracle_bank, feats_u[j:j + 1], labels, replay_rng)
    n_mem = int(np.floor(cfg.get_fraction * b + 0.5))
    rows = oracle_bank.get(
        np.maximum(oracle_ledger.counts, 1), n_mem, cfg.lambda_sampling, replay_rng
    )
    logits_m = linear(params.heads[1], oracle_bank.features[rows])
    loss_mem = ce_sum(
        logits_m, oracle_bank.labels[rows].tolist(), [1.0] * len(rows),
        [True] * len(rows), len(rows),
    )

    total = (
        loss_s_b + cfg.lambda_u * loss_u_b + loss_s_a + cfg.lambda_u * loss_u_a
        + cfg.lambda_m * loss_mem
    )

    assert metrics.loss_s_b == pytest.approx(loss_s_b, abs=1e-10)
    assert metrics.loss_s_a == pytest.approx(loss_s_a, abs=1e-10)
    assert metrics.loss_u_b == pytest.approx(loss_u_b, abs=1e-10)
    assert metrics.loss_u_a == pytest.approx(loss_u_a, abs=1e-10)
    assert metrics.loss_mem == pytest.approx(loss_mem, abs=1e-10)
    assert metrics.loss_total == pytest.approx(total, abs=1e-10)
    assert metrics.mask_rate == sum(mask) / b


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_total_recomposes_every_step(seed):
    cfg = micro_cfg(lambda_u=0.8, lambda_m=0.4, alpha=1.0, seed=seed)
    state = make_state(cfg)
    rng = np.random.default_rng(seed + 40)
    for _ in range(10):
        lab_x = rng.normal(size=(4, 3))
        lab_y = rng.integers(0, 2, size=4)
        unl_x = rng.normal(size=(4, 3))
        positions = rng.integers(0, 50, size=4)
        m = train_step(state, lab_x, lab_y, positions, unl_x)
        want = (
            m.loss_s_b + cfg.lambda_u * m.loss_u_b + m.loss_s_a
            + cfg.lambda_u * m.loss_u_a + cfg.lambda_m * m.loss_mem
        )
        assert m.loss_total == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# Confidence gating
# ---------------------------------------------------------------------------


def crafted_confidence_state(tau=0.9):
    """Identity encoder (d=2), base head scaled so row confidence is controllable."""
    cfg = TrainConfig(
        hidden_sizes=(2,), batch_size=4,
        memory_capacity=8, warmup_epochs=0, tau=tau, augment=NO_AUG, seed=1,
    )
    state = make_state(cfg, labeled_counts=(3, 1), input_dim=2)
    enc = state.params.encoder_layers[0]
    enc.w[:] = np.eye(2)
    enc.b[:] = 0.0
    state.params.heads[0].w[:] = np.array([[8.0, -8.0], [-8.0, 8.0]])
    state.params.heads[0].b[:] = 0.0
    return cfg, state


def test_below_threshold_samples_touch_nothing():
    cfg, state = crafted_confidence_state(tau=0.9)
    # rows 0,1 -> high confidence (large margin); rows 2,3 -> logits ~equal
    unl_x = np.array([[3.0, 0.0], [0.0, 3.0], [0.05, 0.0], [0.0, 0.05]])
    unl_pos = np.array([10, 11, 12, 13])
    lab_x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
    lab_y = np.array([0, 1, 0, 1])
    m = train_step(state, lab_x, lab_y, unl_pos, unl_x)
    assert m.mask_rate == 0.5
    assert np.flatnonzero(state.ledger.latest >= 0).tolist() == [10, 11]  # 12, 13 never recorded
    assert len(state.bank) == 2
    stored_feats = [state.bank.features[r] for k in range(2) for r in state.bank._fifo[k]]
    for f in stored_feats:  # only the confident rows' features are cached
        assert f.max() == pytest.approx(3.0, abs=1e-12) or f.max() == 0.0


def test_masked_rows_contribute_zero_to_unsupervised_loss():
    cfg, state = crafted_confidence_state(tau=0.9)
    unl_conf = np.array([[3.0, 0.0], [0.0, 3.0], [0.05, 0.0], [0.0, 0.05]])
    lab_x = np.zeros((4, 2))
    lab_y = np.array([0, 1, 0, 1])
    before = copy.deepcopy(state)
    m_mixed = train_step(state, lab_x, lab_y, np.arange(4), unl_conf)

    # same crafted step but with the low-confidence rows replaced by copies of
    # the confident ones scaled to stay below threshold -> their term is zero,
    # so zeroing them out entirely must not change the unsupervised losses
    state2 = before
    unl_zero = unl_conf.copy()
    unl_zero[2:] = np.array([[0.01, 0.0], [0.0, 0.01]])
    m_zeroed = train_step(state2, lab_x, lab_y, np.arange(4), unl_zero)
    assert m_mixed.loss_u_b == pytest.approx(m_zeroed.loss_u_b, abs=1e-12)


def test_all_below_threshold_gives_zero_unsupervised_losses():
    cfg, state = crafted_confidence_state(tau=0.999999)
    lab_x, lab_y, unl_pos, unl_x = micro_batches(seed=8, d=2)
    m = train_step(state, lab_x, lab_y % 2, unl_pos, unl_x * 0.01)
    assert m.loss_u_b == 0.0 and m.loss_u_a == 0.0 and m.loss_mem == 0.0
    assert state.ledger.counts.sum() == 0 and len(state.bank) == 0


# ---------------------------------------------------------------------------
# Memory-loss gradient isolation
# ---------------------------------------------------------------------------


def replay_bookkeeping(before, lab_x, unl_pos, unl_x):
    """The step's ledger and bank writes, one record at a time, on `before`
    (a copy of the state taken just before compute_step): the views are
    recomputed from the same augmentation draws, every confident sample is
    recorded and offers its view(s) in order, then the memory draw follows."""
    cfg, p, rngs = before.cfg, before.params, before.rngs
    weak_augment(lab_x, cfg.augment, rngs.augment)
    feats_uw = encoder_forward(p, weak_augment(unl_x, cfg.augment, rngs.augment)[None])[0][0]
    feats_us = encoder_forward(p, strong_augment(unl_x, cfg.augment, rngs.augment)[None])[0][0]
    mask = softmax(head_forward(p.heads[:1], feats_uw[None])[0, 0]).max(axis=1) >= cfg.tau
    qhat_a = head_forward(p.heads[1:], feats_uw[None])[0, 0].argmax(axis=1)
    views = {"weak": [feats_uw], "strong": [feats_us], "both": [feats_uw, feats_us]}
    for j in np.flatnonzero(mask):
        record_each(before.ledger.latest, before.ledger.counts, unl_pos[j:j + 1], qhat_a[j:j + 1])
        for feats in views[cfg.memory_content]:
            enqueue_each(before.bank, feats[j:j + 1], qhat_a[j:j + 1], rngs.bank)
    n_mem = int(np.floor(cfg.get_fraction * cfg.batch_size + 0.5))
    before.bank.get(before.ledger.estimated_counts(), n_mem, cfg.lambda_sampling, rngs.bank)


@pytest.mark.parametrize("start", ["empty", "full"])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("memory_content", ["weak", "strong", "both"])
def test_step_bookkeeping_equals_per_record_loop(memory_content, beta, start):
    """Bank slots, features, labels and evictions, the ledger and the bank
    generator after each of four steps equal the per-record replay's; half of
    a 64-bit word is buffered in the generator before each step. All 8 samples are confident (K = 2, tau = 0.5), so a
    capacity-6 bank fills within the first step; positions repeat within a batch."""
    cfg = micro_cfg(memory_content=memory_content, beta=beta, memory_capacity=6,
                    batch_size=8, augment=AugmentConfig())
    state = make_state(cfg)
    if start == "full":
        rng = np.random.default_rng(17)
        for i in range(6):
            store(state.bank, rng.normal(size=4), i % 2)
    unl_pos = np.array([100, 101, 100, 102, 101, 100, 103, 104])
    for seed in range(4):
        lab_x, lab_y, _, unl_x = micro_batches(seed=20 + seed, b=8)
        bank_rng = state.rngs.bank
        bank_rng.integers(0, np.array([3, 1000])[: 1 + bank_rng.bit_generator.state["has_uint32"]])
        assert bank_rng.bit_generator.state["has_uint32"] == 1
        before = copy.deepcopy(state)
        compute_step(state, lab_x, lab_y, unl_pos, unl_x)
        replay_bookkeeping(before, lab_x, unl_pos, unl_x)
        for attr in ("_fifo", "evictions"):
            assert getattr(state.bank, attr) == getattr(before.bank, attr)
        np.testing.assert_array_equal(state.bank.features, before.bank.features)
        np.testing.assert_array_equal(state.bank.labels, before.bank.labels)
        np.testing.assert_array_equal(state.ledger.latest, before.ledger.latest)
        np.testing.assert_array_equal(state.ledger.counts, before.ledger.counts)
        assert bank_rng.bit_generator.state == before.rngs.bank.bit_generator.state
    assert state.bank.evictions > 0
    assert bank_rng.integers(0, 2**40, size=3).tolist() == (
        before.rngs.bank.integers(0, 2**40, size=3).tolist()
    )


# numpy sums fewer than 8 terms in sequence, 8 or more in eight accumulators
# and then the tail: memory-row counts on each side of those boundaries
@pytest.mark.parametrize("batch_size, n_mem", [(8, 4), (24, 1), (24, 7), (24, 8), (24, 13),
                                               (24, 24)])
@pytest.mark.parametrize("lambda_u", [1.0, 0.5, 0.7])
@pytest.mark.parametrize("memory_content", ["weak", "strong", "both"])
@pytest.mark.parametrize("aux_stopgrad", [False, True])
@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("mode", ["vanilla", "fixmatch", "bmb"])
def test_compute_step_equals_the_per_term_step_bit_for_bit(
    mode, warm, aux_stopgrad, memory_content, lambda_u, batch_size, n_mem
):
    """Five Adam steps on twin states: each step's gradient bytes, metrics and
    augment and bank generator states equal those of the per-term reference.
    Every sample is confident (K = 3, tau = 0.34), so the capacity-6 bank
    fills in the first step and later steps evict; each bmb step after warmup
    draws n_mem memory rows."""
    b = batch_size
    cfg = TrainConfig(hidden_sizes=(6, 4), batch_size=b,
                      mode=mode, memory_capacity=6, memory_content=memory_content,
                      aux_stopgrad=aux_stopgrad, lambda_u=lambda_u, lambda_m=0.7,
                      get_fraction=n_mem / b, beta=0.5, tau=0.34, warmup_epochs=1, seed=21)
    assert round_half_up(cfg.get_fraction * b) == n_mem
    state = make_state(cfg, labeled_counts=(9, 4, 2), input_dim=5)
    state.epoch = 0 if warm else 1
    twin = copy.deepcopy(state)
    rng = np.random.default_rng(22)
    for _ in range(5):
        lab_x, unl_x = rng.normal(size=(b, 5)), rng.normal(size=(b, 5))
        lab_y, positions = rng.integers(0, 3, size=b), rng.integers(0, 12, size=b)
        metrics, grads = compute_step(state, lab_x, lab_y, positions, unl_x)
        want, want_grads = step_per_term(twin, lab_x, lab_y, positions, unl_x)
        assert grads.flat.tobytes() == want_grads.flat.tobytes()
        assert dataclasses.asdict(metrics) == want
        assert all(type(v) is float for v in dataclasses.asdict(metrics).values())
        for name in ("augment", "bank"):
            assert (getattr(state.rngs, name).bit_generator.state
                    == getattr(twin.rngs, name).bit_generator.state)
        adam_step(state.params, grads, state.adam, cfg.lr, cfg.adam_beta1, cfg.adam_beta2,
                  cfg.adam_eps)
        adam_step(twin.params, want_grads, twin.adam, cfg.lr, cfg.adam_beta1, cfg.adam_beta2,
                  cfg.adam_eps)
    if mode == "bmb" and not warm:
        assert state.bank.evictions == twin.bank.evictions > 0


def test_memory_loss_gradients_reach_only_aux_head():
    cfg = micro_cfg(lambda_u=0.3, lambda_m=1.0, tau=0.5)
    state = make_state(cfg)
    rng = np.random.default_rng(11)
    for i in range(8):
        store(state.bank, np.abs(rng.normal(size=4)), i % 2)
    state.ledger.record_batch(900 + np.arange(8), np.arange(8) % 2)
    lab_x, lab_y, unl_pos, unl_x = micro_batches(seed=12)

    with_mem = copy.deepcopy(state)
    no_mem = copy.deepcopy(state)
    no_mem.cfg = micro_cfg(lambda_u=0.3, lambda_m=0.0, tau=0.5)

    m1, g1 = compute_step(with_mem, lab_x, lab_y, unl_pos, unl_x)
    m0, g0 = compute_step(no_mem, lab_x, lab_y, unl_pos, unl_x)
    assert m1.loss_mem > 0.0

    for a, b in zip(g1.encoder_layers, g0.encoder_layers):
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.b, b.b)
    np.testing.assert_array_equal(g1.heads[0].w, g0.heads[0].w)
    assert not np.allclose(g1.heads[1].w, g0.heads[1].w)


def test_memory_loss_matches_finite_differences_on_aux_head():
    """FD on the standalone memory loss: zero for encoder/base, exact for aux."""
    cfg = micro_cfg()
    state = make_state(cfg)
    rng = np.random.default_rng(13)
    records = [(rng.normal(size=4), int(rng.integers(2))) for _ in range(5)]
    feats = np.stack([f for f, _ in records])
    labels = np.array([k for _, k in records])

    def mem_loss():
        logits = head_forward(state.params.heads[1:], feats[None])[0, 0]
        loss, _ = masked_ce(
            logits, labels, np.ones(5), np.ones(5, dtype=bool), 5
        )
        return loss

    h = 1e-5
    for arr_name, arr in [
        ("enc.w", state.params.encoder_layers[0].w),
        ("base.w", state.params.heads[0].w),
    ]:
        flat = arr.reshape(-1)
        orig = flat[0]
        flat[0] = orig + h
        up = mem_loss()
        flat[0] = orig - h
        down = mem_loss()
        flat[0] = orig
        assert (up - down) / (2 * h) == pytest.approx(0.0, abs=1e-12), arr_name

    logits = head_forward(state.params.heads[1:], feats[None])[0, 0]
    _, dlogits = masked_ce(logits, labels, np.ones(5), np.ones(5, dtype=bool), 5)
    analytic_gw = feats.T @ dlogits
    flat = state.params.heads[1].w.reshape(-1)
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = mem_loss()
        flat[i] = orig - h
        down = mem_loss()
        flat[i] = orig
        fd[i] = (up - down) / (2 * h)
    np.testing.assert_allclose(analytic_gw.reshape(-1), fd, rtol=1e-5, atol=1e-9)


def test_aux_stopgrad_matches_fixmatch_encoder_gradients():
    lab_x, lab_y, unl_pos, unl_x = micro_batches(seed=14)
    g_stop = compute_step(
        make_state(micro_cfg(aux_stopgrad=True, lambda_m=0.0)), lab_x, lab_y, unl_pos, unl_x
    )[1]
    g_fix = compute_step(
        make_state(micro_cfg(mode="fixmatch")), lab_x, lab_y, unl_pos, unl_x
    )[1]
    for a, b in zip(g_stop.encoder_layers, g_fix.encoder_layers):
        np.testing.assert_allclose(a.w, b.w, atol=1e-14)
    np.testing.assert_allclose(g_stop.heads[0].w, g_fix.heads[0].w, atol=1e-14)


def test_diverged_training_raises_with_step():
    """The message ends with the number of steps taken before the divergence."""
    batches = micro_batches()
    for good_steps in (0, 3):
        state = make_state(micro_cfg())
        for _ in range(good_steps):
            train_step(state, *batches)
        state.params.heads[0].w[:] = np.nan
        with pytest.raises(TrainingDivergedError, match=f"^non-finite loss at step {good_steps}$"):
            train_step(state, *batches)


def test_non_finite_gradient_raises_with_adams_step_count():
    """A finite loss whose gradient overflows stops the step in Adam, whose
    message ends with the number of steps taken, and leaves the state as it was."""
    batches = micro_batches()
    for good_steps in (0, 3):
        state = make_state(micro_cfg())
        for _ in range(good_steps):
            train_step(state, *batches)
        # feature 0 of every row is tiny, and the heads read it with huge weights:
        # the logits stay finite, their gradient w.r.t. the feature overflows
        state.params.encoder_layers[-1].w[:, 0] = 0.0
        state.params.encoder_layers[-1].b[0] = 1e-307
        state.params.heads.w[:, 0] = [1e308, -1e308]
        params, ema = state.params.flat.copy(), state.ema.flat.copy()
        with pytest.raises(
            TrainingDivergedError, match=f"^non-finite gradient in Adam step at step {good_steps}$"
        ), np.errstate(over="ignore"):
            train_step(state, *batches)
        assert state.adam.step_count == good_steps
        assert np.array_equal(state.params.flat, params) and np.array_equal(state.ema.flat, ema)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_tie_breaks_toward_smallest_class():
    cfg = micro_cfg()
    state = make_state(cfg)
    for head in (state.params.heads[1], state.ema.heads[1]):
        head.w[:] = 0.0
        head.b[:] = 0.0
    x = np.random.default_rng(15).normal(size=(6, 3))
    assert np.all(predict(state, x) == 0)


def test_predict_sign_rule_fixture():
    cfg = TrainConfig(hidden_sizes=(2,), batch_size=4,
                      augment=NO_AUG, seed=2)
    state = make_state(cfg, labeled_counts=(1, 1), input_dim=2)
    enc = state.ema.encoder_layers[0]
    enc.w[:] = np.eye(2)
    enc.b[:] = 0.0
    state.ema.heads[1].w[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
    state.ema.heads[1].b[:] = 0.0
    x = np.array([[2.0, 1.0], [1.0, 2.0], [3.0, 0.0], [0.0, 0.1]])
    assert predict(state, x).tolist() == [0, 1, 0, 1]


def test_predict_invariant_to_constant_logit_shift():
    cfg = micro_cfg()
    state = make_state(cfg)
    x = np.random.default_rng(16).normal(size=(10, 3))
    before = predict(state, x)
    state.ema.heads[1].b += 37.5
    after = predict(state, x)
    assert np.array_equal(before, after)


def test_predict_uses_base_head_outside_bmb_mode():
    for mode in ("vanilla", "fixmatch"):
        cfg = micro_cfg(mode=mode, memory_capacity=1)
        state = make_state(cfg)
        state.ema.heads[0].w[:] = 0.0
        state.ema.heads[0].b[:] = np.array([0.0, 5.0])
        x = np.random.default_rng(17).normal(size=(5, 3))
        assert np.all(predict(state, x) == 1)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def tiny_dataset(seed=0):
    spec = DatasetSpec(num_classes=3, feature_dim=4, n1=20, m1=30, gamma_l=4,
                       gamma_u=4, test_per_class=6, geometry_seed=seed, sample_seed=seed + 1)
    return generate_dataset(spec)


def tiny_fit_cfg(**kw):
    base = dict(hidden_sizes=(8, 4), batch_size=8,
                memory_capacity=16, warmup_epochs=1, epochs=3, iters_per_epoch=5,
                tau=0.6, seed=7)
    base.update(kw)
    return TrainConfig(**base)


def test_fit_zero_epochs_returns_initial_state_and_empty_log():
    ds = tiny_dataset()
    state, log = fit(ds, tiny_fit_cfg(epochs=0))
    assert log == []
    assert state.adam.step_count == 0


def test_fit_is_deterministic():
    ds = tiny_dataset()
    s1, log1 = fit(ds, tiny_fit_cfg())
    s2, log2 = fit(ds, tiny_fit_cfg())
    assert log1 == log2
    assert np.array_equal(s1.params.flat, s2.params.flat)
    assert np.array_equal(s1.ema.flat, s2.ema.flat)


def test_fit_warmup_keeps_bank_and_ledger_empty():
    ds = tiny_dataset()
    seen = []

    def spy(state, record):
        seen.append((record["epoch"], len(state.bank), state.ledger.counts.sum()))

    fit(ds, tiny_fit_cfg(warmup_epochs=2, epochs=2), callbacks=[spy])
    assert seen == [(0, 0, 0), (1, 0, 0)]


def test_fit_fixmatch_mode_never_touches_aux_head_bank_or_ledger():
    ds = tiny_dataset()
    cfg = tiny_fit_cfg(mode="fixmatch", warmup_epochs=0)
    state, log = fit(ds, cfg)
    fresh = init_state(cfg, 4, ds.labeled_class_counts(), len(ds.unlabeled))
    assert np.array_equal(state.params.heads[1].w, fresh.params.heads[1].w)
    assert len(state.bank) == 0 and state.ledger.counts.sum() == 0
    assert all(r["bank_entropy"] is None for r in log)


def test_fit_epoch_log_schema_and_monotone_epochs():
    ds = tiny_dataset()
    state, log = fit(ds, tiny_fit_cfg())
    assert [r["epoch"] for r in log] == [0, 1, 2]
    for r in log:
        for key in ("acc", "avg_class_recall", "group_acc", "bank_entropy", "mask_rate"):
            assert key in r
        assert set(r["group_acc"]) == {"many", "medium", "few"}
    assert state.adam.step_count == 15


def test_fit_loss_mean_stays_finite_when_the_sum_overflows(monkeypatch):
    """With lambda_m 1e308 every step loss is finite but their sum is not: the epoch
    mean is then each loss over the count, with no overflow warning."""
    spec = DatasetSpec(num_classes=4, feature_dim=4, n1=20, m1=40, gamma_l=4, gamma_u=4,
                       test_per_class=10)
    cfg = TrainConfig(epochs=3, warmup_epochs=1, iters_per_epoch=5,
                      batch_size=8, hidden_sizes=(6,), memory_capacity=16, tau=0.26,
                      lambda_m=1e308)
    losses = []

    def recording_step(*args):
        metrics = train_step(*args)
        losses.append(metrics.loss_total)
        return metrics

    monkeypatch.setattr(trainer_module, "train_step", recording_step)
    _, log = fit(generate_dataset(spec), cfg)
    per_epoch = np.array(losses).reshape(cfg.epochs, cfg.iters_per_epoch)
    assert np.isfinite(per_epoch).all()
    assert log[0]["loss_total_mean"] == np.mean(per_epoch[0])  # warmup: np.mean as before
    for epoch in (1, 2):
        assert (per_epoch[epoch] / 8).sum() > np.finfo(np.float64).max / 8  # np.mean overflows
        assert log[epoch]["loss_total_mean"] == np.sum(per_epoch[epoch] / cfg.iters_per_epoch)


def test_fit_requires_labeled_data_and_unlabeled_for_ssl_modes():
    ds = tiny_dataset()
    empty = Split(np.zeros(0, dtype=np.int64), np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        fit(Dataset(empty, ds.unlabeled, ds.test, ds.num_classes), tiny_fit_cfg())
    with pytest.raises(ValueError):
        fit(Dataset(ds.labeled, empty, ds.test, ds.num_classes), tiny_fit_cfg())
    # vanilla mode trains happily without unlabeled data
    no_unlabeled = Dataset(ds.labeled, empty, ds.test, ds.num_classes)
    state, log = fit(no_unlabeled, tiny_fit_cfg(mode="vanilla", epochs=1))
    assert len(log) == 1


def test_readme_library_quickstart_runs_as_printed(capsys):
    """The README's quickstart block, run verbatim, so the documented API cannot drift."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    top1, avg_class_recall = map(float, capsys.readouterr().out.split())
    assert top1 == namespace["report"].top1 and 0 < avg_class_recall <= 1
    assert len(namespace["log"]) == TrainConfig().epochs


def no_step(*args):
    raise AssertionError("fit took a step")


def test_one_train_config_fits_datasets_of_any_class_count_and_width():
    """The dataset alone sizes the encoder's input, the heads, the bank and the ledger."""
    cfg = tiny_fit_cfg(epochs=1)
    for k, d in ((3, 4), (5, 7)):
        spec = DatasetSpec(num_classes=k, feature_dim=d, n1=20, m1=30, gamma_l=4, gamma_u=4,
                           test_per_class=6)
        state, log = fit(generate_dataset(spec), cfg)
        assert len(log[0]["per_class_recall"]) == k
        assert state.params.heads.w.shape == (2, cfg.hidden_sizes[-1], k)
        assert state.params.input_dim == d
        assert state.bank.num_classes == state.ledger.num_classes == k


def test_fit_refuses_splits_of_unequal_width(monkeypatch):
    """A test split wider than the training splits would fail only in predict,
    after a full epoch; fit refuses it before any step."""
    monkeypatch.setattr(trainer_module, "train_step", no_step)
    ds = generate_dataset(DatasetSpec(num_classes=4, feature_dim=6, n1=40, m1=0, gamma_l=30))
    wide = generate_dataset(DatasetSpec(num_classes=4, feature_dim=7, n1=40, m1=0, gamma_l=30))
    cfg = TrainConfig(mode="vanilla", epochs=3, iters_per_epoch=20, batch_size=4)
    with pytest.raises(ValueError, match=r"feature widths \[\(6,\), \(6,\), \(7,\)\]"):
        fit(dataclasses.replace(ds, test=wide.test), cfg)


@pytest.mark.parametrize("bad", [3, -1])
def test_fit_refuses_a_labeled_label_outside_the_classes_before_any_step(monkeypatch, bad):
    """A label equal to K once failed in compute_step partway through an epoch."""
    monkeypatch.setattr(trainer_module, "train_step", no_step)
    ds = tiny_dataset()
    y = ds.labeled.y.copy()
    y[-1] = bad
    labeled = Split(ds.labeled.ids, ds.labeled.x, y)
    with pytest.raises(ValueError, match=r"labeled labels outside \[0, 3\)"):
        fit(dataclasses.replace(ds, labeled=labeled), tiny_fit_cfg())


@pytest.mark.parametrize("bad", [3, -1])
def test_fit_refuses_a_test_label_outside_the_classes_before_any_step(monkeypatch, bad):
    """A test label equal to K once trained a full epoch and then failed in evaluate."""
    monkeypatch.setattr(trainer_module, "train_step", no_step)
    ds = tiny_dataset()
    y = ds.test.y.copy()
    y[0] = bad
    test = Split(ds.test.ids, ds.test.x, y)
    with pytest.raises(ValueError, match=r"test labels outside \[0, 3\)"):
        fit(dataclasses.replace(ds, test=test), tiny_fit_cfg())


def test_fit_refuses_a_one_class_dataset_before_any_step(monkeypatch):
    """A one-class bank's entropy would divide by ln 1 = 0."""
    monkeypatch.setattr(trainer_module, "train_step", no_step)
    ds = tiny_dataset()
    first = ds.labeled.y == 0
    labeled = Split(ds.labeled.ids[first], ds.labeled.x[first], ds.labeled.y[first])
    with pytest.raises(ValueError, match="need at least 2 classes and input width 1, got 1 and 4"):
        fit(dataclasses.replace(ds, labeled=labeled, num_classes=1), tiny_fit_cfg())


@pytest.mark.parametrize("k, input_dim", [(1, 3), (0, 3), (2, 0)])
def test_init_state_refuses_fewer_than_two_classes_or_an_empty_input(k, input_dim):
    with pytest.raises(ValueError, match=f"got {k} and {input_dim}$"):
        init_state(micro_cfg(), input_dim, np.ones(k, dtype=np.int64), NUM_UNLABELED)


@pytest.mark.parametrize("offset, accepted", [(1, True), (0, True), (-1, False)],
                         ids=["inside", "on", "past"])
@pytest.mark.parametrize("field", ["num_classes", "feature_dim"])
def test_init_state_takes_the_class_count_and_width_a_dataset_spec_takes(field, offset, accepted):
    """fit sizes the model from the dataset, so init_state's least K and input
    width are DatasetSpec's schema minimums: each value around the bound passes
    both or neither."""
    sizes = {"num_classes": 3, "feature_dim": 4}
    sizes[field] = field_schemas(DatasetSpec)[field]["minimum"] + offset
    k, d = sizes["num_classes"], sizes["feature_dim"]
    outcomes = []
    for build in (lambda: DatasetSpec(num_classes=k, feature_dim=d, n1=5, m1=5),
                  lambda: init_state(micro_cfg(), d, np.ones(k, dtype=np.int64), NUM_UNLABELED)):
        try:
            build()
        except ValueError:
            outcomes.append(False)
        else:
            outcomes.append(True)
    assert outcomes == [accepted, accepted]


def test_train_step_reads_every_setting_from_the_current_config():
    """Adam's constants and the EMA decay live in TrainConfig alone: a state
    whose cfg is swapped before a step steps exactly like one built under the
    new config."""
    c1 = micro_cfg(mode="vanilla")
    c2 = dataclasses.replace(c1, ema_decay=0.5, adam_beta1=0.8, adam_beta2=0.99, adam_eps=1e-3)
    a, b = make_state(c1), make_state(c2)
    a.cfg = c2
    batches = micro_batches(seed=3)
    train_step(a, *batches)
    train_step(b, *batches)
    for name in ("params", "ema"):
        assert getattr(a, name).flat.tobytes() == getattr(b, name).flat.tobytes()
    assert a.adam.first_moment.tobytes() == b.adam.first_moment.tobytes()
    assert a.adam.second_moment.tobytes() == b.adam.second_moment.tobytes()
    assert a.adam.step_count == b.adam.step_count == 1


def test_fit_counts_labeled_classes_over_the_configured_classes(tmp_path):
    """A loaded CSV whose labeled and test rows lack the last configured class
    still gives that class a labeled count, clamped to 1."""
    csv_path = tmp_path / "dataset.csv"
    save_dataset(tiny_dataset(), csv_path)
    ds = load_dataset(csv_path, num_classes=4)
    assert ds.labeled_class_counts().tolist() == [20, 10, 5, 0]
    state, log = fit(ds, tiny_fit_cfg(epochs=1))
    assert state.labeled_class_counts.tolist() == [20, 10, 5, 1]
    assert len(log[0]["per_class_recall"]) == 4


def test_compute_step_rejects_short_unlabeled_positions():
    """Every sample is confident here (K = 2, tau = 0.5), so each needs a row position."""
    lab_x, lab_y, unl_pos, unl_x = micro_batches(seed=15)
    state = make_state(micro_cfg())
    with pytest.raises(ValueError, match="unlabeled batch size"):
        compute_step(state, lab_x, lab_y, unl_pos[:2], unl_x)
    assert len(state.bank) == 0 and state.ledger.counts.sum() == 0


@pytest.mark.parametrize("bad", [2, -1])
def test_compute_step_rejects_labeled_label_outside_classes(bad):
    lab_x, lab_y, unl_pos, unl_x = micro_batches(seed=16)
    lab_y[1] = bad
    for mode in ("bmb", "vanilla"):
        with pytest.raises(ValueError, match="labeled_y outside"):
            compute_step(make_state(micro_cfg(mode=mode)), lab_x, lab_y, unl_pos, unl_x)


def test_train_config_validation():
    with pytest.raises(ValueError):
        micro_cfg(mode="nope")
    with pytest.raises(ValueError):
        micro_cfg(tau=0.0)
    with pytest.raises(ValueError):
        micro_cfg(get_fraction=1.5)
    with pytest.raises(ValueError):
        micro_cfg(memory_content="medium")


# sha256 of the epoch log below, recorded before the bank moved to arrays; any
# change to the training arithmetic or to an RNG draw changes it
EVICTING_FIT_LOG_SHA256 = "3aa3a1c5ce7c339e62e90304b98b4555a04a7803c2ddc0759e9977640de12084"


def test_fit_epoch_log_fingerprint_is_pinned():
    """A small bmb fit whose beta=0 bank evicts on every insert once full."""
    spec = DatasetSpec(num_classes=4, feature_dim=6, n1=40, m1=120, gamma_l=3, gamma_u=3,
                       test_per_class=20, geometry_seed=31, sample_seed=32, separation=3.0)
    cfg = TrainConfig(hidden_sizes=(16, 8), batch_size=32,
                      mode="bmb", beta=0.0, memory_content="both", memory_capacity=64,
                      warmup_epochs=1, epochs=6, iters_per_epoch=30, tau=0.6, seed=3)
    state, log = fit(generate_dataset(spec), cfg)
    assert sum(log[-1]["bank_counts"]) == cfg.memory_capacity
    assert log[-1]["enqueue_accept_rate"] == 1.0
    text = json.dumps(log, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EVICTING_FIT_LOG_SHA256


def pinned_fit(beta, memory_content, capacity, **overrides):
    spec = DatasetSpec(num_classes=4, feature_dim=6, n1=40, m1=120, gamma_l=3, gamma_u=3,
                       test_per_class=20, geometry_seed=31, sample_seed=32, separation=3.0)
    settings = dict(hidden_sizes=(16, 8), batch_size=32,
                    mode="bmb", beta=beta, memory_content=memory_content,
                    memory_capacity=capacity, warmup_epochs=1, epochs=6, iters_per_epoch=30,
                    tau=0.6, seed=3)
    cfg = TrainConfig(**{**settings, **overrides})
    state, log = fit(generate_dataset(spec), cfg)
    return state, hashlib.sha256(json.dumps(log, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "beta, capacity, evictions, sha256",
    [
        (1.0, 16, 866, "2777f2c4548413f71ff5fb5d4a508d0e50a031215ebe8a9a5b6ebbb1514d6c4c"),
        (0.5, 24, 1716, "bba55d81782f798b1c6ce00f77e06f7b6ef3fd62cce2196de98512d54c2315d5"),
    ],
    ids=["beta-1", "beta-0.5"],
)
def test_fit_epoch_log_fingerprint_is_pinned_with_eviction_weights(
    beta, capacity, evictions, sha256
):
    """Small bmb fits whose beta > 0 bank draws victims by 1 - 1/C_k^beta; the
    hashes were recorded before the bank's draws were tabulated."""
    state, digest = pinned_fit(beta, "both", capacity)
    assert state.bank.evictions == evictions
    assert digest == sha256


@pytest.mark.parametrize(
    "memory_content, beta, capacity, evictions, sha256",
    [
        ("weak", 0.5, 24, 876, "aa227e906359a74b1758281303fac3e80ee7c45979e97ad62b89bfccddb850f1"),
        ("strong", 0.0, 64, 2626,
         "bc06bbb2a1a4cde3c7695ba57f6c39e8adcfe49cf6405fd45c4bb833815d0f76"),
        ("strong", 1.0, 16, 457,
         "85b476cfd2b7d025899b37061d21d0434c8468ae7f22cda51386a7e4c2b535a1"),
    ],
    ids=["weak-beta-0.5", "strong-beta-0", "strong-beta-1"],
)
def test_fit_epoch_log_fingerprint_is_pinned_per_feature_view(
    memory_content, beta, capacity, evictions, sha256
):
    """The pinned fits above offer both views; these offer one. Hashes and
    eviction counts were recorded while the bank still enqueued one record
    per call."""
    state, digest = pinned_fit(beta, memory_content, capacity)
    assert state.bank.evictions == evictions
    assert digest == sha256


@pytest.mark.parametrize(
    "overrides, evictions, sha256",
    [
        ({"mode": "fixmatch"}, 0,
         "595df9c5787b9e34e16a74e25d7c6aabe963a5c7c08e90b3d1294261b242b5de"),
        ({"mode": "vanilla"}, 0,
         "a75282281caa6c5d57d6b334d85317e683a4ebceae143b5a52a2e19d578e5cbc"),
        ({"aux_stopgrad": True}, 437,
         "2f9b41fce207257988138c6348378b2541d84487598a80f4f24ec4d21f5ed251"),
        ({"lambda_u": 0.7}, 433,
         "9571e23789cd66c75efe8c09a723a1c901db7366e3246fb75ad37233cd37e126"),
    ],
    ids=["fixmatch", "vanilla", "bmb-aux-stopgrad", "bmb-lambda-u-0.7"],
)
def test_fit_epoch_log_fingerprint_is_pinned_per_mode(overrides, evictions, sha256):
    """The pinned fits above are all plain bmb; these cover the other modes, the
    stop-gradient branch and a consistency weight that is not a power of two,
    so scaling a sum and summing scaled terms round differently. Recorded while
    the step still ran one encoder pass per view and one CE call per head term."""
    state, digest = pinned_fit(1.0, "strong", 16, **overrides)
    assert state.bank.evictions == evictions
    assert digest == sha256


def test_fit_does_not_read_the_oracle_labels():
    """The unlabeled rows' true labels are for evaluation only: a bmb fit past
    warmup logs the same epochs with them and without them."""
    spec = DatasetSpec(num_classes=4, feature_dim=6, n1=40, m1=120, gamma_l=3, gamma_u=3,
                       test_per_class=20, geometry_seed=31, sample_seed=32, separation=3.0)
    ds = generate_dataset(spec)
    blind = dataclasses.replace(ds, unlabeled_oracle_y=None)
    assert ds.unlabeled_oracle_y is not None and blind.true_unlabeled_counts is not None
    cfg = TrainConfig(hidden_sizes=(16, 8), batch_size=32,
                      memory_capacity=16, warmup_epochs=1, epochs=3, iters_per_epoch=30,
                      tau=0.6, seed=3)
    digests = []
    for data in (ds, blind):
        state, log = fit(data, cfg)
        assert state.ledger.counts.sum() > 0 and "estimation_error" in log[-1]
        digests.append(hashlib.sha256(json.dumps(log, sort_keys=True).encode()).hexdigest())
    assert digests[0] == digests[1]


def test_fit_keys_the_ledger_by_unlabeled_row():
    ds = tiny_dataset()
    state, _ = fit(ds, tiny_fit_cfg(warmup_epochs=0, tau=0.4))
    latest = state.ledger.latest
    assert len(latest) == len(ds.unlabeled) and state.ledger.counts.sum() > 0
    assert np.array_equal(np.bincount(latest[latest >= 0], minlength=3), state.ledger.counts)


# ---------------------------------------------------------------------------
# Trace points
# ---------------------------------------------------------------------------

# The benchmark tracer (bench/tracing.py) times layers by patching these
# trainer globals and skips a name that is gone, so its spans would read 0.
TRACED_TRAINER_GLOBALS = (
    "train_step", "predict", "evaluate", "weak_augment", "strong_augment",
    "encoder_forward", "encoder_backward", "head_forward", "head_backward",
    "weighted_masked_ce", "batch_weights", "adam_step", "ema_update", "zeros_like_params",
)


@pytest.mark.parametrize("name", TRACED_TRAINER_GLOBALS)
def test_traced_name_is_a_trainer_global(name):
    assert callable(getattr(trainer_module, name, None))


def bench_traced_trainer_globals():
    """The keys of TRAINER_GLOBALS in bench/tracing.py, read with ast: the tracer
    itself is not imported."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRAINER_GLOBALS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("bench/tracing.py assigns no TRAINER_GLOBALS")


def test_every_name_the_bench_traces_is_a_trainer_global():
    names = bench_traced_trainer_globals()
    assert sorted(names) == sorted(TRACED_TRAINER_GLOBALS)
    assert [n for n in names if not callable(getattr(trainer_module, n, None))] == []


def count_layer_calls(monkeypatch, state, batches):
    """compute_step's calls of each traced layer, and its metrics."""
    calls = dict.fromkeys(
        ("weak_augment", "strong_augment", "encoder_forward", "encoder_backward",
         "head_forward", "head_backward", "weighted_masked_ce", "batch_weights"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(trainer_module, name, counted(name, getattr(trainer_module, name)))
    metrics, _ = compute_step(state, *batches)
    return calls, metrics


def test_bmb_step_calls_its_layers_through_the_trainer_globals(monkeypatch):
    state = make_state(micro_cfg(tau=0.01))
    for i in range(8):
        store(state.bank, np.ones(4), i % 2)
    calls, metrics = count_layer_calls(monkeypatch, state, micro_batches(seed=13))
    assert metrics.loss_mem > 0.0
    # one CE over every loss row; heads: the stacked pass and the memory rows;
    # weights: the labeled and the unlabeled auxiliary targets
    assert calls == {"weak_augment": 1, "strong_augment": 1, "encoder_forward": 1,
                     "encoder_backward": 1, "head_forward": 2, "head_backward": 2,
                     "weighted_masked_ce": 1, "batch_weights": 2}


@pytest.mark.parametrize("overrides, strong, weights", [
    pytest.param(dict(mode="fixmatch"), 1, 0, id="fixmatch"),
    pytest.param(dict(warmup_epochs=1), 0, 1, id="bmb-warmup"),
    pytest.param(dict(tau=1.0), 1, 2, id="bmb-empty-bank"),
    pytest.param(dict(get_fraction=0.0), 1, 2, id="bmb-no-memory-rows"),
])
def test_step_without_memory_rows_makes_one_head_pass(monkeypatch, overrides, strong, weights):
    state = make_state(micro_cfg(**{"tau": 0.01, **overrides}))
    calls, metrics = count_layer_calls(monkeypatch, state, micro_batches(seed=13))
    assert metrics.loss_mem == 0.0
    assert calls == {"weak_augment": 1, "strong_augment": strong, "encoder_forward": 1,
                     "encoder_backward": 1, "head_forward": 1, "head_backward": 1,
                     "weighted_masked_ce": 1, "batch_weights": weights}
