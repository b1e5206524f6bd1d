"""Adaptive weights: ratio form, range, monotonicity, scale invariance."""

import numpy as np
import pytest
from oracles import ratio_weight

from tailssl.weighting import batch_weights


def weight(counts, y, alpha):
    """The weight of one sample of class y, through the batch form."""
    return batch_weights(counts, np.array([y]), alpha)[0]


def test_labeled_weight_direct_ratio():
    counts = np.array([100, 10])
    assert weight(counts, 0, 1.0) == pytest.approx(0.1, abs=1e-15)
    assert weight(counts, 1, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_alpha_zero_gives_unit_weights():
    counts = np.array([500, 50, 3])
    for y in range(3):
        assert weight(counts, y, 0.0) == 1.0


def test_labeled_weight_sqrt_case():
    # (10/100)^0.5, arbitrary-precision value
    assert weight(np.array([100, 10]), 0, 0.5) == pytest.approx(
        0.31622776601683794, abs=1e-12
    )


def test_unlabeled_weight_cases():
    assert weight(np.array([50, 5]), 0, 1.0) == pytest.approx(0.1, abs=1e-15)
    equal = np.array([7, 7, 7])
    assert all(weight(equal, q, 1.3) == 1.0 for q in range(3))
    # (2/8)^0.75, arbitrary-precision value
    assert weight(np.array([64, 8, 2]), 1, 0.75) == pytest.approx(
        0.3535533905932738, abs=1e-12
    )


def test_weights_in_unit_interval_and_rarest_is_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(2, 12))
        counts = rng.integers(1, 10_000, size=k)
        alpha = float(rng.uniform(0, 3))
        w = batch_weights(counts, np.arange(k), alpha)
        assert np.all(w > 0) and np.all(w <= 1)
        assert w[int(np.argmin(counts))] == 1.0


def test_weight_monotone_in_class_count():
    alpha = 0.7
    base = np.array([10, 40])
    w_small = weight(base, 1, alpha)
    w_big = weight(np.array([10, 400]), 1, alpha)
    assert w_big <= w_small


def test_weight_scale_invariance():
    counts = np.array([120, 30, 6])
    for c in (2, 10, 1000):
        for q in range(3):
            assert weight(counts * c, q, 0.8) == pytest.approx(
                weight(counts, q, 0.8), rel=1e-12
            )


def test_weight_nonincreasing_in_alpha_for_non_rarest_class():
    counts = np.array([90, 9])
    weights = [weight(counts, 0, a) for a in (0.0, 0.25, 0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(weights, weights[1:]))


def test_empty_labels_give_empty_weights():
    assert batch_weights(np.array([5, 7]), np.zeros(0, dtype=np.int64), 1.0).shape == (0,)


def test_batch_weights_matches_scalar_form():
    counts = np.array([33, 11, 2])
    labels = np.array([0, 2, 1, 1, 0])
    w = batch_weights(counts, labels, 0.9)
    want = [ratio_weight(counts.tolist(), int(y), 0.9) for y in labels]
    np.testing.assert_allclose(w, want, rtol=1e-15)
