"""Trainer: step semantics, loss composition, gating, gradient isolation, determinism."""

import copy
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from oracles import (
    argmax_first,
    ce_sum,
    enqueue_each,
    linear,
    mlp_forward,
    ratio_weight,
    record_each,
    step_per_term,
)

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

NO_AUG = AugmentConfig(weak_noise_sigma=0.0, strong_noise_sigma=0.0,
                       strong_dropout_prob=0.0, strong_scale_jitter=0.0)


def micro_cfg(**kw):
    base = dict(
        num_classes=2,
        input_dim=3,
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
    unl_ids = np.arange(100, 100 + b)
    unl_x = rng.normal(size=(b, d))
    return lab_x, lab_y, unl_ids, unl_x


def make_state(cfg, labeled_counts=(6, 2)):
    return init_state(cfg, np.array(labeled_counts))


# ---------------------------------------------------------------------------
# Step semantics
# ---------------------------------------------------------------------------


def test_degenerate_weights_reduce_to_two_headed_supervised_ce():
    cfg = micro_cfg(lambda_u=0.0, lambda_m=0.0, alpha=0.0)
    state = make_state(cfg)
    lab_x, lab_y, unl_ids, unl_x = micro_batches()
    m = train_step(state, lab_x, lab_y, unl_ids, unl_x)
    assert m.loss_total == pytest.approx(m.loss_s_b + m.loss_s_a, abs=1e-12)


def test_warmup_epoch_drops_unsupervised_terms_and_freezes_bank():
    cfg = micro_cfg(warmup_epochs=2)
    state = make_state(cfg)
    lab_x, lab_y, unl_ids, unl_x = micro_batches()
    for _ in range(3):
        m = train_step(state, lab_x, lab_y, unl_ids, unl_x)
        assert m.loss_u_b == m.loss_u_a == m.loss_mem == 0.0
        assert m.mask_rate == 0.0
    assert len(state.bank) == 0
    assert state.ledger.total() == 0


def test_micro_step_matches_straight_line_recomputation():
    """Full-path oracle: every loss term recomputed with loops to 1e-10.

    Augmentations are zero-strength, so weak and strong views equal the raw
    inputs; the bank draw is replayed on a cloned bank with a cloned rng.
    """
    cfg = micro_cfg(lambda_u=0.7, lambda_m=0.9, alpha=1.5, lambda_sampling=1.0, tau=0.55)
    state = make_state(cfg, labeled_counts=(6, 2))
    lab_x, lab_y, unl_ids, unl_x = micro_batches(seed=3)

    # pre-populate memory and ledger so the memory loss is active
    rng = np.random.default_rng(9)
    for i in range(6):
        state.bank.insert(np.abs(rng.normal(size=4)), i % 2)
    state.ledger.record_batch(500 + np.arange(6), np.arange(6) % 2)

    params = state.params.copy()
    oracle_bank = copy.deepcopy(state.bank)
    oracle_ledger = copy.deepcopy(state.ledger)
    bank_rng_state = state.rngs.bank.bit_generator.state

    metrics = train_step(state, lab_x, lab_y, unl_ids, unl_x)

    # ---- straight-line recomputation ----
    b = cfg.batch_size
    feats_x = mlp_forward(params, lab_x)
    logits_bx = linear(params.base_head, feats_x)
    loss_s_b = ce_sum(logits_bx, list(lab_y), [1.0] * b, [True] * b, b)

    n_counts = [6, 2]
    w_lab = [ratio_weight(n_counts, int(y), cfg.alpha) for y in lab_y]
    logits_ax = linear(params.aux_head, feats_x)
    loss_s_a = ce_sum(logits_ax, list(lab_y), w_lab, [True] * b, b)

    feats_u = mlp_forward(params, unl_x)  # weak == strong == raw here
    logits_bu = linear(params.base_head, feats_u)
    conf, qhat_b = [], []
    for row in logits_bu:
        m0 = max(row)
        exps = [math.exp(v - m0) for v in row]
        s = sum(exps)
        conf.append(max(exps) / s)
        qhat_b.append(argmax_first(row))
    mask = [c >= cfg.tau for c in conf]
    loss_u_b = ce_sum(logits_bu, qhat_b, [1.0] * b, mask, b)

    logits_au = linear(params.aux_head, feats_u)
    qhat_a = [argmax_first(row) for row in logits_au]
    est_pre = [max(c, 1) for c in oracle_ledger.counts]
    w_unl = [ratio_weight(est_pre, q, cfg.alpha) for q in qhat_a]
    loss_u_a = ce_sum(logits_au, qhat_a, w_unl, mask, b)

    # replay ledger/bank updates, then the reversed-sampling draw
    replay_rng = np.random.default_rng()
    replay_rng.bit_generator.state = bank_rng_state
    for j in range(b):
        if mask[j]:
            ids, labels = unl_ids[j:j + 1], qhat_a[j:j + 1]
            record_each(oracle_ledger.latest, oracle_ledger.counts, ids, labels)
            enqueue_each(oracle_bank, feats_u[j:j + 1], labels, replay_rng)
    n_mem = int(np.floor(cfg.get_fraction * b + 0.5))
    rows = oracle_bank.get(
        np.maximum(oracle_ledger.counts, 1), n_mem, cfg.lambda_sampling, replay_rng
    )
    logits_m = linear(params.aux_head, oracle_bank.features[rows])
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
        ids = rng.integers(0, 50, size=4)
        m = train_step(state, lab_x, lab_y, ids, unl_x)
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
        num_classes=2, input_dim=2, hidden_sizes=(2,), batch_size=4,
        memory_capacity=8, warmup_epochs=0, tau=tau, augment=NO_AUG, seed=1,
    )
    state = make_state(cfg, labeled_counts=(3, 1))
    enc = state.params.encoder_layers[0]
    enc.w[:] = np.eye(2)
    enc.b[:] = 0.0
    state.params.base_head.w[:] = np.array([[8.0, -8.0], [-8.0, 8.0]])
    state.params.base_head.b[:] = 0.0
    return cfg, state


def test_below_threshold_samples_touch_nothing():
    cfg, state = crafted_confidence_state(tau=0.9)
    # rows 0,1 -> high confidence (large margin); rows 2,3 -> logits ~equal
    unl_x = np.array([[3.0, 0.0], [0.0, 3.0], [0.05, 0.0], [0.0, 0.05]])
    unl_ids = np.array([10, 11, 12, 13])
    lab_x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
    lab_y = np.array([0, 1, 0, 1])
    m = train_step(state, lab_x, lab_y, unl_ids, unl_x)
    assert m.mask_rate == 0.5
    assert set(state.ledger.latest) == {10, 11}  # 12, 13 never recorded
    assert len(state.bank) == 2
    stored_feats = [state.bank.features[r] for k in range(2) for r in state.bank.rows(k)]
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
    lab_x, lab_y, unl_ids, unl_x = micro_batches(seed=8, d=2)
    m = train_step(state, lab_x, lab_y % 2, unl_ids, unl_x * 0.01)
    assert m.loss_u_b == 0.0 and m.loss_u_a == 0.0 and m.loss_mem == 0.0
    assert state.ledger.total() == 0 and len(state.bank) == 0


# ---------------------------------------------------------------------------
# Memory-loss gradient isolation
# ---------------------------------------------------------------------------


def replay_bookkeeping(before, lab_x, unl_ids, unl_x):
    """The step's ledger and bank writes, one record at a time, on `before`
    (a copy of the state taken just before compute_step): the views are
    recomputed from the same augmentation draws, every confident sample is
    recorded and offers its view(s) in order, then the memory draw follows."""
    cfg, p, rngs = before.cfg, before.params, before.rngs
    weak_augment(lab_x, cfg.augment, rngs.augment)
    feats_uw, _ = encoder_forward(p, weak_augment(unl_x, cfg.augment, rngs.augment))
    feats_us, _ = encoder_forward(p, strong_augment(unl_x, cfg.augment, rngs.augment))
    mask = softmax(head_forward(p.base_head, feats_uw)).max(axis=1) >= cfg.tau
    qhat_a = head_forward(p.aux_head, feats_uw).argmax(axis=1)
    views = {"weak": [feats_uw], "strong": [feats_us], "both": [feats_uw, feats_us]}
    for j in np.flatnonzero(mask):
        record_each(before.ledger.latest, before.ledger.counts, unl_ids[j:j + 1], qhat_a[j:j + 1])
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
    capacity-6 bank fills within the first step; ids repeat within a batch."""
    cfg = micro_cfg(memory_content=memory_content, beta=beta, memory_capacity=6,
                    batch_size=8, augment=AugmentConfig())
    state = make_state(cfg)
    if start == "full":
        rng = np.random.default_rng(17)
        for i in range(6):
            state.bank.insert(rng.normal(size=4), i % 2)
    unl_ids = np.array([100, 101, 100, 102, 101, 100, 103, 104])
    for seed in range(4):
        lab_x, lab_y, _, unl_x = micro_batches(seed=20 + seed, b=8)
        bank_rng = state.rngs.bank
        bank_rng.integers(0, np.array([3, 1000])[: 1 + bank_rng.bit_generator.state["has_uint32"]])
        assert bank_rng.bit_generator.state["has_uint32"] == 1
        before = copy.deepcopy(state)
        compute_step(state, lab_x, lab_y, unl_ids, unl_x)
        replay_bookkeeping(before, lab_x, unl_ids, unl_x)
        for attr in ("_fifo", "_free", "evictions"):
            assert getattr(state.bank, attr) == getattr(before.bank, attr)
        np.testing.assert_array_equal(state.bank.features, before.bank.features)
        np.testing.assert_array_equal(state.bank.labels, before.bank.labels)
        assert state.ledger.latest == before.ledger.latest
        np.testing.assert_array_equal(state.ledger.counts, before.ledger.counts)
        assert bank_rng.bit_generator.state == before.rngs.bank.bit_generator.state
    assert state.bank.evictions > 0
    assert bank_rng.integers(0, 2**40, size=3).tolist() == (
        before.rngs.bank.integers(0, 2**40, size=3).tolist()
    )


@pytest.mark.parametrize("lambda_u", [1.0, 0.5, 0.7])
@pytest.mark.parametrize("memory_content", ["weak", "strong", "both"])
@pytest.mark.parametrize("aux_stopgrad", [False, True])
@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("mode", ["vanilla", "fixmatch", "bmb"])
def test_compute_step_equals_the_per_term_step_bit_for_bit(
    mode, warm, aux_stopgrad, memory_content, lambda_u
):
    """Five Adam steps on twin states: each step's gradient bytes, metrics and
    augment and bank generator states equal those of the per-term reference.
    Every sample is confident (K = 3, tau = 0.34), so the capacity-6 bank
    fills in the first step and later steps evict."""
    cfg = TrainConfig(num_classes=3, input_dim=5, hidden_sizes=(6, 4), batch_size=8,
                      mode=mode, memory_capacity=6, memory_content=memory_content,
                      aux_stopgrad=aux_stopgrad, lambda_u=lambda_u, lambda_m=0.7,
                      beta=0.5, tau=0.34, warmup_epochs=1, seed=21)
    state = make_state(cfg, labeled_counts=(9, 4, 2))
    state.epoch = 0 if warm else 1
    twin = copy.deepcopy(state)
    rng = np.random.default_rng(22)
    for _ in range(5):
        lab_x, unl_x = rng.normal(size=(8, 5)), rng.normal(size=(8, 5))
        lab_y, ids = rng.integers(0, 3, size=8), rng.integers(0, 12, size=8)
        metrics, grads = compute_step(state, lab_x, lab_y, ids, unl_x)
        want, want_grads = step_per_term(twin, lab_x, lab_y, ids, unl_x)
        assert grads.flat.tobytes() == want_grads.flat.tobytes()
        assert dataclasses.asdict(metrics) == want
        assert all(type(v) is float for v in dataclasses.asdict(metrics).values())
        for name in ("augment", "bank"):
            assert (getattr(state.rngs, name).bit_generator.state
                    == getattr(twin.rngs, name).bit_generator.state)
        adam_step(state.params, grads, state.adam, cfg.lr)
        adam_step(twin.params, want_grads, twin.adam, cfg.lr)
    if mode == "bmb" and not warm:
        assert state.bank.evictions == twin.bank.evictions > 0


def test_memory_loss_gradients_reach_only_aux_head():
    cfg = micro_cfg(lambda_u=0.3, lambda_m=1.0, tau=0.5)
    state = make_state(cfg)
    rng = np.random.default_rng(11)
    for i in range(8):
        state.bank.insert(np.abs(rng.normal(size=4)), i % 2)
    state.ledger.record_batch(900 + np.arange(8), np.arange(8) % 2)
    lab_x, lab_y, unl_ids, unl_x = micro_batches(seed=12)

    with_mem = copy.deepcopy(state)
    no_mem = copy.deepcopy(state)
    no_mem.cfg = micro_cfg(lambda_u=0.3, lambda_m=0.0, tau=0.5)

    m1, g1 = compute_step(with_mem, lab_x, lab_y, unl_ids, unl_x)
    m0, g0 = compute_step(no_mem, lab_x, lab_y, unl_ids, unl_x)
    assert m1.loss_mem > 0.0

    for a, b in zip(g1.encoder_layers, g0.encoder_layers):
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.b, b.b)
    np.testing.assert_array_equal(g1.base_head.w, g0.base_head.w)
    assert not np.allclose(g1.aux_head.w, g0.aux_head.w)


def test_memory_loss_matches_finite_differences_on_aux_head():
    """FD on the standalone memory loss: zero for encoder/base, exact for aux."""
    from tailssl.numerics import head_forward, weighted_masked_ce

    cfg = micro_cfg()
    state = make_state(cfg)
    rng = np.random.default_rng(13)
    records = [(rng.normal(size=4), int(rng.integers(2))) for _ in range(5)]
    feats = np.stack([f for f, _ in records])
    labels = np.array([k for _, k in records])

    def mem_loss():
        logits = head_forward(state.params.aux_head, feats)
        loss, _ = weighted_masked_ce(
            logits, labels, np.ones(5), np.ones(5, dtype=bool), 5
        )
        return loss

    h = 1e-5
    for arr_name, arr in [
        ("enc.w", state.params.encoder_layers[0].w),
        ("base.w", state.params.base_head.w),
    ]:
        flat = arr.reshape(-1)
        orig = flat[0]
        flat[0] = orig + h
        up = mem_loss()
        flat[0] = orig - h
        down = mem_loss()
        flat[0] = orig
        assert (up - down) / (2 * h) == pytest.approx(0.0, abs=1e-12), arr_name

    logits = head_forward(state.params.aux_head, feats)
    _, dlogits = weighted_masked_ce(logits, labels, np.ones(5), np.ones(5, dtype=bool), 5)
    analytic_gw = feats.T @ dlogits
    flat = state.params.aux_head.w.reshape(-1)
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
    lab_x, lab_y, unl_ids, unl_x = micro_batches(seed=14)
    g_stop = compute_step(
        make_state(micro_cfg(aux_stopgrad=True, lambda_m=0.0)), lab_x, lab_y, unl_ids, unl_x
    )[1]
    g_fix = compute_step(
        make_state(micro_cfg(mode="fixmatch")), lab_x, lab_y, unl_ids, unl_x
    )[1]
    for a, b in zip(g_stop.encoder_layers, g_fix.encoder_layers):
        np.testing.assert_allclose(a.w, b.w, atol=1e-14)
    np.testing.assert_allclose(g_stop.base_head.w, g_fix.base_head.w, atol=1e-14)


def test_diverged_training_raises_with_step():
    cfg = micro_cfg()
    state = make_state(cfg)
    state.params.base_head.w[:] = np.nan
    lab_x, lab_y, unl_ids, unl_x = micro_batches()
    with pytest.raises(TrainingDivergedError):
        train_step(state, lab_x, lab_y, unl_ids, unl_x)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_tie_breaks_toward_smallest_class():
    cfg = micro_cfg()
    state = make_state(cfg)
    for head in (state.params.aux_head, state.ema.params.aux_head):
        head.w[:] = 0.0
        head.b[:] = 0.0
    x = np.random.default_rng(15).normal(size=(6, 3))
    assert np.all(predict(state, x) == 0)


def test_predict_sign_rule_fixture():
    cfg = TrainConfig(num_classes=2, input_dim=2, hidden_sizes=(2,), batch_size=4,
                      augment=NO_AUG, seed=2)
    state = make_state(cfg, labeled_counts=(1, 1))
    enc = state.ema.params.encoder_layers[0]
    enc.w[:] = np.eye(2)
    enc.b[:] = 0.0
    state.ema.params.aux_head.w[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
    state.ema.params.aux_head.b[:] = 0.0
    x = np.array([[2.0, 1.0], [1.0, 2.0], [3.0, 0.0], [0.0, 0.1]])
    assert predict(state, x).tolist() == [0, 1, 0, 1]


def test_predict_invariant_to_constant_logit_shift():
    cfg = micro_cfg()
    state = make_state(cfg)
    x = np.random.default_rng(16).normal(size=(10, 3))
    before = predict(state, x)
    state.ema.params.aux_head.b += 37.5
    after = predict(state, x)
    assert np.array_equal(before, after)


def test_predict_uses_base_head_outside_bmb_mode():
    for mode in ("vanilla", "fixmatch"):
        cfg = micro_cfg(mode=mode, memory_capacity=1)
        state = make_state(cfg)
        state.ema.params.base_head.w[:] = 0.0
        state.ema.params.base_head.b[:] = np.array([0.0, 5.0])
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
    base = dict(num_classes=3, input_dim=4, hidden_sizes=(8, 4), batch_size=8,
                memory_capacity=16, warmup_epochs=1, epochs=3, iters_per_epoch=5,
                tau=0.6, seed=7)
    base.update(kw)
    return TrainConfig(**base)


def test_fit_zero_epochs_returns_initial_state_and_empty_log():
    ds = tiny_dataset()
    state, log = fit(ds, tiny_fit_cfg(epochs=0))
    assert log == []
    assert state.step == 0


def test_fit_is_deterministic():
    ds = tiny_dataset()
    s1, log1 = fit(ds, tiny_fit_cfg())
    s2, log2 = fit(ds, tiny_fit_cfg())
    assert log1 == log2
    assert np.array_equal(s1.params.flat, s2.params.flat)
    assert np.array_equal(s1.ema.params.flat, s2.ema.params.flat)


def test_fit_warmup_keeps_bank_and_ledger_empty():
    ds = tiny_dataset()
    seen = []

    def spy(state, record):
        seen.append((record["epoch"], len(state.bank), state.ledger.total()))

    fit(ds, tiny_fit_cfg(warmup_epochs=2, epochs=2), callbacks=[spy])
    assert seen == [(0, 0, 0), (1, 0, 0)]


def test_fit_fixmatch_mode_never_touches_aux_head_bank_or_ledger():
    ds = tiny_dataset()
    cfg = tiny_fit_cfg(mode="fixmatch", warmup_epochs=0)
    state, log = fit(ds, cfg)
    fresh = init_state(cfg, ds.labeled_class_counts())
    assert np.array_equal(state.params.aux_head.w, fresh.params.aux_head.w)
    assert len(state.bank) == 0 and state.ledger.total() == 0
    assert all(r["bank_entropy"] is None for r in log)


def test_fit_epoch_log_schema_and_monotone_epochs():
    ds = tiny_dataset()
    state, log = fit(ds, tiny_fit_cfg())
    assert [r["epoch"] for r in log] == [0, 1, 2]
    for r in log:
        for key in ("acc", "avg_class_recall", "group_acc", "bank_entropy", "mask_rate"):
            assert key in r
        assert set(r["group_acc"]) == {"many", "medium", "few"}
    assert state.step == 15


def test_fit_requires_labeled_data_and_unlabeled_for_ssl_modes():
    ds = tiny_dataset()
    empty = Split(np.zeros(0, dtype=np.int64), np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        fit(Dataset(empty, ds.unlabeled, ds.test), tiny_fit_cfg())
    with pytest.raises(ValueError):
        fit(Dataset(ds.labeled, empty, ds.test), tiny_fit_cfg())
    # vanilla mode trains happily without unlabeled data
    state, log = fit(Dataset(ds.labeled, empty, ds.test), tiny_fit_cfg(mode="vanilla", epochs=1))
    assert len(log) == 1


def test_fit_counts_labeled_classes_over_the_configured_classes(tmp_path):
    """A loaded CSV whose labeled and test rows lack the last configured class
    still gives that class a labeled count, clamped to 1."""
    csv_path = tmp_path / "dataset.csv"
    save_dataset(tiny_dataset(), csv_path)
    ds = load_dataset(csv_path, num_classes=4)
    assert ds.labeled_class_counts().tolist() == [20, 10, 5]
    state, log = fit(ds, tiny_fit_cfg(num_classes=4, epochs=1))
    assert state.labeled_class_counts.tolist() == [20, 10, 5, 1]
    assert len(log[0]["per_class_recall"]) == 4


def test_compute_step_rejects_short_unlabeled_ids():
    """Every sample is confident here (K = 2, tau = 0.5), so each needs an id."""
    lab_x, lab_y, unl_ids, unl_x = micro_batches(seed=15)
    state = make_state(micro_cfg())
    with pytest.raises(ValueError, match="unlabeled batch size"):
        compute_step(state, lab_x, lab_y, unl_ids[:2], unl_x)
    assert len(state.bank) == 0 and state.ledger.total() == 0


@pytest.mark.parametrize("bad", [2, -1])
def test_compute_step_rejects_labeled_label_outside_classes(bad):
    lab_x, lab_y, unl_ids, unl_x = micro_batches(seed=16)
    lab_y[1] = bad
    for mode in ("bmb", "vanilla"):
        with pytest.raises(ValueError, match="labeled_y outside"):
            compute_step(make_state(micro_cfg(mode=mode)), lab_x, lab_y, unl_ids, unl_x)


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
    cfg = TrainConfig(num_classes=4, input_dim=6, hidden_sizes=(16, 8), batch_size=32,
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
    settings = dict(num_classes=4, input_dim=6, hidden_sizes=(16, 8), batch_size=32,
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


def test_bmb_step_calls_its_layers_through_the_trainer_globals(monkeypatch):
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
    state = make_state(micro_cfg(tau=0.01))
    for i in range(8):
        state.bank.insert(np.ones(4), i % 2)
    metrics, _ = compute_step(state, *micro_batches(seed=13))
    assert metrics.loss_mem > 0.0
    # CE: the stacked labeled/strong-view call and the memory term; weights:
    # the labeled and the unlabeled auxiliary targets
    assert calls == {"weak_augment": 1, "strong_augment": 1, "encoder_forward": 1,
                     "encoder_backward": 1, "head_forward": 2, "head_backward": 2,
                     "weighted_masked_ce": 2, "batch_weights": 2}
