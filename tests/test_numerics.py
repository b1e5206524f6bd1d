"""Numerics: forward oracles, analytic-vs-finite-difference gradients, Adam, EMA."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _encode_backward,
    linear,
    masked_ce,
    mlp_forward,
    numeric_grads,
    softmax_rowwise,
    weighted_masked_ce_rowwise,
)

from tailssl.cli import load_model, save_model
from tailssl.errors import ConfigError, TrainingDivergedError
from tailssl.numerics import (
    LinearLayer,
    ModelParams,
    adam_step,
    ema_update,
    encoder_backward,
    encoder_forward,
    head_backward,
    head_forward,
    init_adam,
    init_params,
    named_arrays,
    row_max,
    softmax,
    weighted_masked_ce,
    zeros_like_params,
)

RNG = np.random.default_rng
ADAM = dict(beta1=0.9, beta2=0.999, eps=1e-8)  # the Adam constants TrainConfig defaults to


def tiny_params(d=3, hidden=(4, 3), k=2, seed=0):
    return init_params(d, hidden, k, RNG(seed))


def stack_of_one(layer):
    """A 2-D layer as a stack of one head; its arrays are views of the layer's."""
    return LinearLayer(layer.w[None], layer.b[None])


# ---------------------------------------------------------------------------
# Straight-line oracles (independent re-implementations, loops and math.exp)
# ---------------------------------------------------------------------------


def oracle_ce(logits, targets, weights, mask, divisor):
    total = 0.0
    for i, row in enumerate(logits):
        if not mask[i]:
            continue
        m = max(row)
        denom = sum(math.exp(v - m) for v in row)
        logp = (row[targets[i]] - m) - math.log(denom)
        total += -weights[i] * logp
    return total / divisor


def assert_grads_close(analytic, numeric, rtol, atol=1e-8):
    np.testing.assert_allclose(analytic.flat, numeric.flat, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def test_encoder_zero_weights_gives_bias_pattern():
    params = tiny_params()
    for layer in params.encoder_layers:
        layer.w[:] = 0.0
        layer.b[:] = np.abs(layer.b)  # nonnegative so the ReLU passes it through
    batch = RNG(1).normal(size=(5, 3))
    feats = encoder_forward(params, batch[None])[0][0]
    want = params.encoder_layers[-1].b
    assert np.allclose(feats, np.tile(want, (5, 1)))


def test_encoder_identity_layer_passes_nonnegative_batch():
    params = ModelParams.zeros((3, 3), 2)
    params.encoder_layers[0].w[:] = np.eye(3)
    batch = np.abs(RNG(2).normal(size=(4, 3)))
    feats = encoder_forward(params, batch[None])[0][0]
    assert np.array_equal(feats, batch)


def test_encoder_matches_straight_line_oracle():
    params = tiny_params(d=5, hidden=(6, 4), k=3, seed=3)
    batch = RNG(4).normal(size=(3, 5))
    feats = encoder_forward(params, batch[None])[0][0]
    np.testing.assert_allclose(feats, mlp_forward(params, batch), atol=1e-12)


def test_encoder_rejects_wrong_input_dim():
    params = tiny_params(d=3)
    with pytest.raises(ValueError):
        encoder_forward(params, np.zeros((2, 4)))


def test_head_zero_weights_gives_bias_rows():
    head = LinearLayer(np.zeros((4, 3)), np.array([0.5, -1.0, 2.0]))
    logits = head_forward(stack_of_one(head), RNG(5).normal(size=(6, 4))[None])[0, 0]
    assert np.allclose(logits, np.tile(head.b, (6, 1)))


def test_head_one_hot_weights_select_feature_column():
    w = np.zeros((4, 2))
    w[2, 0] = 1.0  # logit 0 reads feature 2
    w[0, 1] = 1.0  # logit 1 reads feature 0
    head = LinearLayer(w, np.zeros(2))
    feats = RNG(6).normal(size=(5, 4))
    logits = head_forward(stack_of_one(head), feats[None])[0, 0]
    assert np.allclose(logits[:, 0], feats[:, 2])
    assert np.allclose(logits[:, 1], feats[:, 0])


def test_head_matches_straight_line_oracle():
    head = LinearLayer(RNG(7).normal(size=(4, 3)), RNG(8).normal(size=3))
    feats = RNG(9).normal(size=(5, 4))
    logits = head_forward(stack_of_one(head), feats[None])[0, 0]
    np.testing.assert_allclose(logits, linear(head, feats), atol=1e-12)


def test_head_rejects_dim_mismatch():
    head = LinearLayer(np.zeros((4, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        head_forward(head, np.zeros((2, 5)))


def test_passes_reject_bare_rows_and_unstacked_heads():
    """Every pass takes row blocks (B, n, d), and every head is a stack (H, d, K)."""
    params = tiny_params(d=3, k=2)
    rows = RNG(10).normal(size=(4, 3))
    with pytest.raises(ValueError):
        encoder_forward(params, rows)
    with pytest.raises(ValueError):
        encoder_forward(params, np.zeros((1, 2, 4)))  # blocks of the wrong input dim
    feats, cache = encoder_forward(params, rows[None])
    with pytest.raises(ValueError):
        head_forward(params.heads, feats[0])
    with pytest.raises(ValueError):
        head_forward(params.heads, np.zeros((1, 2, params.feature_dim + 1)))
    with pytest.raises(ValueError):
        head_forward(params.heads[0], feats)
    grads = zeros_like_params(params)
    with pytest.raises(ValueError):
        head_backward(feats[0], np.zeros((2, 4, 2)), grads.heads, [1.0])
    with pytest.raises(ValueError):
        encoder_backward(params, cache, np.zeros((4, params.feature_dim)), grads)
    assert np.all(grads.flat == 0)


# ---------------------------------------------------------------------------
# Weighted masked cross-entropy
# ---------------------------------------------------------------------------


def test_ce_uniform_logits_is_log_k():
    for k in (2, 5, 11):
        logits = np.full((4, k), 1.7)
        loss, _ = masked_ce(
            logits, np.zeros(4, dtype=int), np.ones(4), np.ones(4, dtype=bool), 4
        )
        assert loss == pytest.approx(math.log(k), abs=1e-12)


def test_ce_all_masked_gives_zero_loss_and_gradient():
    logits = RNG(10).normal(size=(4, 3))
    loss, dlogits = masked_ce(
        logits, np.array([0, 1, 2, 1]), np.ones(4), np.zeros(4, dtype=bool), 4
    )
    assert loss == 0.0
    assert np.array_equal(dlogits, np.zeros_like(logits))


def test_ce_matches_oracle_and_finite_differences():
    rng = RNG(11)
    logits = rng.normal(size=(5, 4))
    targets = rng.integers(0, 4, size=5)
    weights = rng.uniform(0.2, 2.0, size=5)
    mask = np.array([True, False, True, True, False])
    loss, dlogits = masked_ce(logits, targets, weights, mask, 5)
    assert loss == pytest.approx(oracle_ce(logits, targets, weights, mask, 5), abs=1e-12)

    h = 1e-5
    for i in range(5):
        for j in range(4):
            pert = logits.copy()
            pert[i, j] += h
            up = oracle_ce(pert, targets, weights, mask, 5)
            pert[i, j] -= 2 * h
            down = oracle_ce(pert, targets, weights, mask, 5)
            fd = (up - down) / (2 * h)
            assert dlogits[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_ce_shift_invariance():
    rng = RNG(12)
    logits = rng.normal(size=(6, 3))
    targets = rng.integers(0, 3, size=6)
    mask = np.ones(6, dtype=bool)
    base, _ = masked_ce(logits, targets, np.ones(6), mask, 6)
    shifted, _ = masked_ce(logits + 13.7, targets, np.ones(6), mask, 6)
    assert shifted == pytest.approx(base, abs=1e-10)


def test_ce_weight_scaling_is_exactly_linear():
    rng = RNG(13)
    logits = rng.normal(size=(4, 3))
    targets = rng.integers(0, 3, size=4)
    weights = rng.uniform(0.5, 1.5, size=4)
    mask = np.array([True, True, False, True])
    loss1, d1 = masked_ce(logits, targets, weights, mask, 4)
    c = 3.0
    loss2, d2 = masked_ce(logits, targets, c * weights, mask, 4)
    assert loss2 == pytest.approx(c * loss1, rel=1e-15)
    np.testing.assert_allclose(d2, c * d1, rtol=1e-15, atol=1e-16)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_ce_segment_sums_equal_one_call_per_segment(data):
    """Rows cut into contiguous segments: each segment's loss, -(sum of its
    terms), and its dlogits rows have the bytes of a call on that segment alone."""
    n = data.draw(st.integers(1, 300), label="rows")
    k = data.draw(st.integers(2, 12), label="classes")
    cuts = data.draw(st.sets(st.integers(1, n - 1), max_size=8), label="cuts") if n > 1 else set()
    rng = RNG(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    logits = rng.normal(scale=3.0, size=(n, k))
    targets = rng.integers(0, k, size=n)
    coef = np.where(rng.random(n) < 0.8, rng.uniform(0.1, 2.0, size=n), 0.0) / n
    terms, dlogits = weighted_masked_ce(logits, targets, coef)
    bounds = [0, *sorted(cuts), n]
    for lo, hi in zip(bounds, bounds[1:]):
        alone_terms, alone_dlogits = weighted_masked_ce(
            logits[lo:hi].copy(), targets[lo:hi].copy(), coef[lo:hi].copy()
        )
        assert (-terms[lo:hi].sum()).tobytes() == (-alone_terms.sum()).tobytes()
        assert dlogits[lo:hi].tobytes() == alone_dlogits.tobytes()


def awkward_logits(rng, n, k):
    """(n, k) logits whose rows are, at random: plain; all <= 0 with a max of
    0 held by +0.0 and -0.0 at random; plain with some entries set to +-0.0;
    or of magnitude up to 1e307."""
    logits = rng.normal(scale=3.0, size=(n, k))
    kind = rng.integers(0, 4, size=n)
    zeros = np.where(rng.random((n, k)) < 0.5, 0.0, -0.0)
    some = rng.random((n, k)) < 0.4
    some[np.arange(n), rng.integers(0, k, size=n)] = True  # at least one zero per row
    logits[kind == 1] = -np.abs(logits[kind == 1])
    put = (kind[:, None] == 1) | (kind[:, None] == 2)
    logits[put & some] = zeros[put & some]
    big = kind == 3
    logits[big] *= 10.0 ** rng.uniform(100, 307, size=(int(big.sum()), 1))
    return logits


def same_bytes(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_class_major_row_max_keeps_the_rowwise_bits(data):
    """row_max, softmax and the CE against their per-row expressions, byte for
    byte, on rows that mix +0.0 and -0.0, rows whose max is 0 and rows of
    large magnitude."""
    n = data.draw(st.integers(1, 300), label="rows")
    k = data.draw(st.integers(2, 12), label="classes")
    rng = RNG(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    logits = awkward_logits(rng, n, k)
    targets = rng.integers(0, k, size=n)
    coef = np.where(rng.random(n) < 0.8, rng.uniform(0.1, 2.0, size=n), 0.0) / n
    assert same_bytes(row_max(logits), logits.max(axis=1))
    assert same_bytes(softmax(logits), softmax_rowwise(logits))
    for got, want in zip(weighted_masked_ce(logits, targets, coef),
                         weighted_masked_ce_rowwise(logits, targets, coef)):
        assert same_bytes(got, want)


def test_row_max_keeps_the_sign_of_a_zero_max():
    """A max over +0.0 and -0.0 is whichever the reduction keeps; row_max
    keeps the one the per-row reduce keeps, for every arrangement of them."""
    zeros = (0.0, -0.0)
    rows = np.array([[a, b, c] for a in zeros for b in zeros for c in (*zeros, -1.0)])
    for width in (3, 9, 17):
        logits = np.tile(rows, (1, width // 3))
        assert same_bytes(row_max(logits), logits.max(axis=1))


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def full_loss(params, batch, targets, weights, mask, head_name):
    feats, _ = encoder_forward(params, batch[None])
    head = params.heads[:1] if head_name == "base" else params.heads[1:]
    logits = head_forward(head, feats)[0, 0]
    loss, _ = masked_ce(logits, targets, weights, mask, len(batch))
    return loss


def analytic_full_grads(params, batch, targets, weights, mask, head_name):
    feats, cache = encoder_forward(params, batch[None])
    head = params.heads[:1] if head_name == "base" else params.heads[1:]
    logits = head_forward(head, feats)[0, 0]
    _, dlogits = masked_ce(logits, targets, weights, mask, len(batch))
    grads = zeros_like_params(params)
    target = grads.heads[:1] if head_name == "base" else grads.heads[1:]
    head_backward(feats, dlogits[None, None], target, [1.0])
    encoder_backward(params, cache, dlogits[None] @ head.w[0].T, grads)
    return grads


def test_zero_upstream_gradient_gives_zero_param_gradients():
    params = tiny_params(seed=14)
    batch = RNG(15).normal(size=(3, 3))
    feats, cache = encoder_forward(params, batch[None])
    grads = zeros_like_params(params)
    encoder_backward(params, cache, np.zeros_like(feats), grads)
    assert np.all(grads.flat == 0)


def test_single_sample_backward_matches_finite_differences():
    params = tiny_params(d=4, hidden=(5, 3), k=3, seed=16)
    batch = RNG(17).normal(size=(1, 4))
    targets = np.array([2])
    weights = np.ones(1)
    mask = np.ones(1, dtype=bool)
    analytic = analytic_full_grads(params, batch, targets, weights, mask, "base")
    numeric = numeric_grads(lambda: full_loss(params, batch, targets, weights, mask, "base"), params)
    assert_grads_close(analytic, numeric, rtol=1e-5, atol=1e-9)


def test_encoder_gradients_add_across_losses():
    params = tiny_params(d=4, hidden=(5, 3), k=3, seed=18)
    batch = RNG(19).normal(size=(4, 4))
    t1 = np.array([0, 1, 2, 0])
    t2 = np.array([2, 2, 1, 0])
    ones = np.ones(4)
    mask = np.ones(4, dtype=bool)
    g_base = analytic_full_grads(params, batch, t1, ones, mask, "base")
    g_aux = analytic_full_grads(params, batch, t2, ones, mask, "aux")

    # joint backward: one encoder pass fed by the sum of head dfeatures
    feats, cache = encoder_forward(params, batch[None])
    _, d1 = masked_ce(head_forward(params.heads[:1], feats)[0, 0], t1, ones, mask, 4)
    _, d2 = masked_ce(head_forward(params.heads[1:], feats)[0, 0], t2, ones, mask, 4)
    scratch = zeros_like_params(params)
    head_backward(feats, d1[None, None], scratch.heads[:1], [1.0])
    head_backward(feats, d2[None, None], scratch.heads[1:], [1.0])
    df1, df2 = d1 @ params.heads.w[0].T, d2 @ params.heads.w[1].T
    joint = zeros_like_params(params)
    encoder_backward(params, cache, (df1 + df2)[None], joint)
    for sep_b, sep_a, j in zip(g_base.encoder_layers, g_aux.encoder_layers, joint.encoder_layers):
        np.testing.assert_allclose(sep_b.w + sep_a.w, j.w, atol=1e-13)
        np.testing.assert_allclose(sep_b.b + sep_a.b, j.b, atol=1e-13)


def test_backward_rejects_mismatched_cache():
    params = tiny_params(seed=20)
    _, cache = encoder_forward(params, RNG(21).normal(size=(3, 3))[None])
    with pytest.raises(ValueError):
        encoder_backward(
            params, cache, np.zeros((1, 2, params.feature_dim)), zeros_like_params(params)
        )


def test_encoder_backward_masks_by_activation_as_the_oracle_masks_by_preactivation():
    """The cache keeps activations only: max(z, 0) > 0 exactly where z > 0, so
    the backward pass gives the pre-activation oracle's bytes at +-0.0, NaN,
    +-inf and subnormals, NaN gradients included."""
    params = tiny_params(d=3, hidden=(4, 4), k=2, seed=32)
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, -5e-324]
    rng = RNG(33)
    x = rng.normal(size=(6, 3))
    preacts = [rng.permutation(np.resize(specials, 24)).reshape(6, 4) for _ in range(2)]
    preacts[1][:, 0] = rng.normal(size=6)  # finite values too
    dfeat = rng.normal(size=(6, 4))
    acts = [np.maximum(z, 0.0) for z in preacts]
    want, got = zeros_like_params(params), zeros_like_params(params)
    with np.errstate(invalid="ignore"):
        _encode_backward(params, ([x, acts[0]], preacts), dfeat, want)
        encoder_backward(params, [a[None] for a in (x, *acts)], dfeat[None], got)
    assert np.isnan(want.flat).any() and np.isinf(want.flat).any()
    assert same_bytes(got.flat, want.flat)


def test_head_backward_adds_scaled_gradients_into_the_buffer():
    feats = RNG(24).normal(size=(5, 4))
    dlogits = RNG(25).normal(size=(5, 3))
    grad = LinearLayer(RNG(26).normal(size=(4, 3)), RNG(27).normal(size=3))
    want_w, want_b = grad.w.copy(), grad.b.copy()
    for scale in (0.5, 2.0):
        want_w += scale * (feats.T @ dlogits)
        want_b += scale * dlogits.sum(axis=0)
        returned = head_backward(feats[None], dlogits[None, None], stack_of_one(grad), [scale])
        assert returned is None  # the features' gradient is the caller's to compute
    np.testing.assert_array_equal(grad.w, want_w)
    np.testing.assert_array_equal(grad.b, want_b)
    with pytest.raises(ValueError):
        head_backward(feats[None], dlogits[None, None, :, :2], stack_of_one(grad), [1.0])


def test_encoder_backward_adds_both_passes_into_one_buffer():
    params = tiny_params(d=4, hidden=(5, 3), k=3, seed=28)
    passes = []
    for seed in (29, 30):
        feats, cache = encoder_forward(params, RNG(seed).normal(size=(6, 4))[None])
        passes.append((cache, RNG(seed + 100).normal(size=feats.shape)))
    alone = []
    for cache, dfeat in passes:
        alone.append(zeros_like_params(params))
        encoder_backward(params, cache, dfeat, alone[-1])
    grads = zeros_like_params(params)
    grads.flat[:] = RNG(31).normal(size=grads.flat.shape)
    want = grads.flat + alone[0].flat + alone[1].flat
    for cache, dfeat in passes:
        encoder_backward(params, cache, dfeat, grads)
    np.testing.assert_array_equal(grads.flat, want)  # heads keep their start values too


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_randomized_gradient_suite(seed):
    """Full-path gradients match central differences (h=1e-5) at rtol 1e-4."""
    rng = RNG(100 + seed)
    d = int(rng.integers(2, 8))
    k = int(rng.integers(2, 5))
    b = int(rng.integers(1, 5))
    hidden = tuple(int(h) for h in rng.integers(2, 7, size=2))
    params = init_params(d, hidden, k, rng)
    batch = rng.normal(size=(b, d))
    targets = rng.integers(0, k, size=b)
    weights = rng.uniform(0.1, 2.0, size=b)
    mask = rng.random(b) < 0.8
    for head_name in ("base", "aux"):
        analytic = analytic_full_grads(params, batch, targets, weights, mask, head_name)
        numeric = numeric_grads(
            lambda: full_loss(params, batch, targets, weights, mask, head_name), params
        )
        assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-8)


# ---------------------------------------------------------------------------
# Adam and EMA
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params_and_moments_untouched():
    params = tiny_params(seed=22)
    before = params.copy()
    state = init_adam(params)
    adam_step(params, zeros_like_params(params), state, lr=0.1, **ADAM)
    np.testing.assert_array_equal(params.flat, before.flat)
    assert np.all(state.first_moment == 0)
    assert state.step_count == 1


def test_adam_single_step_matches_hand_executed_update():
    params = tiny_params(seed=23)
    before = params.copy()
    grads = zeros_like_params(params)
    grads.flat += RNG(24).normal(size=grads.flat.shape)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    state = init_adam(params)
    adam_step(params, grads, state, lr, b1, b2, eps)
    p, prev, g = params.flat, before.flat, grads.flat
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    want = prev - lr * mhat / (np.sqrt(vhat) + eps)
    np.testing.assert_allclose(p, want, atol=1e-15)
    # after one step the update magnitude is lr*|g|/(|g|+eps)
    np.testing.assert_allclose(np.abs(p - prev), lr * np.abs(g) / (np.abs(g) + eps), atol=1e-15)


def test_adam_two_identical_runs_are_bitwise_identical():
    def run():
        params = tiny_params(seed=25)
        state = init_adam(params)
        rng = RNG(26)
        for _ in range(5):
            grads = zeros_like_params(params)
            grads.flat += rng.normal(size=grads.flat.shape)
            adam_step(params, grads, state, lr=0.05, **ADAM)
        return params

    assert np.array_equal(run().flat, run().flat)


def test_adam_rejects_non_finite_gradients():
    params = tiny_params(seed=27)
    grads = zeros_like_params(params)
    grads.heads[0].w[0, 0] = np.nan
    with pytest.raises(TrainingDivergedError):
        adam_step(params, grads, init_adam(params), lr=0.01, **ADAM)


def test_adam_non_finite_gradient_updates_nothing():
    params = tiny_params(seed=34)
    state = init_adam(params)
    grads = zeros_like_params(params)
    grads.flat += RNG(35).normal(size=grads.flat.shape)
    adam_step(params, grads, state, lr=0.01, **ADAM)  # moments are non-zero from here on
    before = params.copy()
    m, v = state.first_moment.copy(), state.second_moment.copy()
    grads.heads[1].b[-1] = np.nan  # last entry of flat: every other array precedes it
    with pytest.raises(TrainingDivergedError):
        adam_step(params, grads, state, lr=0.01, **ADAM)
    np.testing.assert_array_equal(params.flat, before.flat)
    np.testing.assert_array_equal(state.first_moment, m)
    np.testing.assert_array_equal(state.second_moment, v)
    assert state.step_count == 1


def test_ema_decay_endpoints_and_update():
    params = tiny_params(seed=28)
    ema = params.copy()
    shifted = params.copy()
    shifted.flat += 1.0
    ema_update(ema, shifted, decay=0.0)  # decay 0 -> ema equals tracked params
    np.testing.assert_array_equal(ema.flat, shifted.flat)

    ema = params.copy()
    ema_update(ema, shifted, decay=1.0)  # decay 1 -> ema never moves
    np.testing.assert_array_equal(ema.flat, params.flat)


def test_ema_standard_decay_value():
    params = tiny_params(seed=29)
    params.flat[:] = 0.0
    ema = params.copy()
    ones = params.copy()
    ones.flat[:] = 1.0
    ema_update(ema, ones, decay=0.999)
    np.testing.assert_allclose(ema.flat, 0.001, atol=1e-15)


def test_softmax_rows_sum_to_one():
    p = softmax(RNG(30).normal(size=(7, 5)) * 10)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0)


# ---------------------------------------------------------------------------
# Flat parameter layout
# ---------------------------------------------------------------------------


def test_flat_index_writes_exactly_one_named_element_in_named_order():
    params = tiny_params(d=3, hidden=(4, 3), k=2, seed=31)
    names = [name for name, _ in named_arrays(params)]
    assert names == ["enc0.w", "enc0.b", "enc1.w", "enc1.b", "base.w", "aux.w", "base.b", "aux.b"]
    # row-major order within each array, arrays in named_arrays order
    expected = [(name, idx) for name, arr in named_arrays(params) for idx in np.ndindex(arr.shape)]
    assert len(expected) == params.flat.size
    for i, want in enumerate(expected):
        before = {name: arr.copy() for name, arr in named_arrays(params)}
        orig = params.flat[i]
        params.flat[i] = orig + 1.0
        changed = [
            (name, tuple(int(j) for j in idx))
            for name, arr in named_arrays(params)
            for idx in zip(*np.nonzero(arr != before[name]))
        ]
        assert changed == [want]
        params.flat[i] = orig


def test_from_flat_rejects_wrong_length_and_dtype():
    dims, k = (3, 4), 2
    size = ModelParams.size(dims, k)
    assert size == (3 + 1) * 4 + 2 * (4 + 1) * 2
    for bad in (np.zeros(size - 1), np.zeros(size + 1), np.zeros(size, dtype=np.float32)):
        with pytest.raises(ValueError):
            ModelParams.from_flat(bad, dims, k)


def test_copy_and_zeros_like_share_the_layout_but_not_the_memory():
    params = tiny_params(seed=36)
    for other in (params.copy(), zeros_like_params(params)):
        assert other.dims == params.dims and other.flat.shape == params.flat.shape
        assert not np.shares_memory(other.flat, params.flat)
        for (_, a), (_, b) in zip(named_arrays(other), named_arrays(params)):
            assert np.shares_memory(a, other.flat) and a.shape == b.shape


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
def test_deepcopy_and_pickle_keep_the_arrays_views_of_flat(clone):
    params = tiny_params(seed=40)
    twin = clone(params)
    assert np.array_equal(twin.flat, params.flat)
    assert not np.shares_memory(twin.flat, params.flat)
    twin.flat += 1.0  # an optimizer step on the copy must reach its forward pass
    for (_, a), (_, b) in zip(named_arrays(twin), named_arrays(params)):
        np.testing.assert_array_equal(a, b + 1.0)


def test_save_load_model_round_trips_flat_exactly(tmp_path):
    params = tiny_params(d=3, hidden=(4, 3), k=2, seed=37)
    ema = tiny_params(d=3, hidden=(4, 3), k=2, seed=38)
    path = tmp_path / "model.npz"
    save_model(path, params, ema)
    with np.load(path) as data:
        assert sorted(data.files) == sorted(
            f"{prefix}/{name}" for prefix in ("params", "ema") for name, _ in named_arrays(params)
        )
    raw_back, ema_back = load_model(path, (4, 3), 3, 2)
    assert np.array_equal(raw_back.flat, params.flat)
    assert np.array_equal(ema_back.flat, ema.flat)


def test_load_model_reads_an_archive_in_the_per_head_member_order(tmp_path):
    """Archives written while each head was its own block of flat list base.w,
    base.b, aux.w, aux.b; members load by name, whatever their order."""
    order = ["enc0.w", "enc0.b", "enc1.w", "enc1.b", "base.w", "base.b", "aux.w", "aux.b"]
    models = {"params": tiny_params(d=3, hidden=(4, 3), k=2, seed=41),
              "ema": tiny_params(d=3, hidden=(4, 3), k=2, seed=42)}
    arrays = {}
    for prefix, model in models.items():
        named = dict(named_arrays(model))
        arrays.update({f"{prefix}/{name}": named[name].copy() for name in order})
    path = tmp_path / "model.npz"
    np.savez(path, **arrays)
    with np.load(path) as data:
        assert data.files == list(arrays)
    for prefix, back in zip(models, load_model(path, (4, 3), 3, 2)):
        for name, view in named_arrays(back):
            assert np.array_equal(view, arrays[f"{prefix}/{name}"])
        assert np.array_equal(back.flat, models[prefix].flat)


def test_load_model_rejects_arrays_the_config_lacks(tmp_path):
    deeper = tiny_params(d=3, hidden=(4, 4), k=2, seed=39)
    path = tmp_path / "model.npz"
    save_model(path, deeper, deeper)
    with pytest.raises(ConfigError, match="enc1.b is not part of the configured model"):
        load_model(path, (4,), 3, 2)
