"""Dense feedforward numerics with manual backprop.

Everything here is float64 numpy: an MLP encoder with ReLU activations, two
linear classifier heads on the shared feature space, weighted/masked softmax
cross-entropy with exact analytic gradients, Adam, and EMA parameter tracking.
All operations are deterministic functions of their inputs; the test suite
checks every gradient path against central finite differences.
"""

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import TrainingDivergedError


@dataclass
class LinearLayer:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)

    def copy(self) -> "LinearLayer":
        return LinearLayer(self.w.copy(), self.b.copy())


@dataclass
class ModelParams:
    """Shared MLP encoder plus base and auxiliary linear heads.

    Gradients reuse this container: a gradient tree has the same shapes as the
    parameter tree it differentiates.
    """

    encoder_layers: list[LinearLayer]
    base_head: LinearLayer
    aux_head: LinearLayer

    @property
    def input_dim(self) -> int:
        return self.encoder_layers[0].w.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.encoder_layers[-1].w.shape[1]

    @property
    def num_classes(self) -> int:
        return self.base_head.w.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(
            [layer.copy() for layer in self.encoder_layers],
            self.base_head.copy(),
            self.aux_head.copy(),
        )


def iter_arrays(params: ModelParams) -> Iterator[np.ndarray]:
    """All parameter arrays in a fixed order (encoder layers, base head, aux head)."""
    for layer in params.encoder_layers:
        yield layer.w
        yield layer.b
    for head in (params.base_head, params.aux_head):
        yield head.w
        yield head.b


def named_arrays(params: ModelParams) -> Iterator[tuple[str, np.ndarray]]:
    for i, layer in enumerate(params.encoder_layers):
        yield f"enc{i}.w", layer.w
        yield f"enc{i}.b", layer.b
    yield "base.w", params.base_head.w
    yield "base.b", params.base_head.b
    yield "aux.w", params.aux_head.w
    yield "aux.b", params.aux_head.b


def init_params(
    input_dim: int,
    hidden_sizes: tuple[int, ...],
    num_classes: int,
    rng: np.random.Generator,
) -> ModelParams:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] for weights and biases."""
    if not hidden_sizes:
        raise ValueError("encoder needs at least one layer")

    def make(fan_in: int, fan_out: int) -> LinearLayer:
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=fan_out)
        return LinearLayer(w, b)

    dims = (input_dim,) + tuple(hidden_sizes)
    layers = [make(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    feature_dim = dims[-1]
    return ModelParams(layers, make(feature_dim, num_classes), make(feature_dim, num_classes))


def zeros_like_params(params: ModelParams) -> ModelParams:
    def z(layer: LinearLayer) -> LinearLayer:
        return LinearLayer(np.zeros_like(layer.w), np.zeros_like(layer.b))

    return ModelParams(
        [z(layer) for layer in params.encoder_layers],
        z(params.base_head),
        z(params.aux_head),
    )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


@dataclass
class EncoderCache:
    """Per-layer inputs and pre-activations, enough for an exact backward pass."""

    inputs: list[np.ndarray]
    preacts: list[np.ndarray]


def encoder_forward(params: ModelParams, batch: np.ndarray) -> tuple[np.ndarray, EncoderCache]:
    """ReLU MLP forward. Returns (features, cache); features = relu of the last layer."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.input_dim:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with input dim {params.input_dim}"
        )
    inputs, preacts = [], []
    h = batch
    for layer in params.encoder_layers:
        inputs.append(h)
        z = h @ layer.w + layer.b
        preacts.append(z)
        h = np.maximum(z, 0.0)
    return h, EncoderCache(inputs, preacts)


def head_forward(head: LinearLayer, features: np.ndarray) -> np.ndarray:
    if features.ndim != 2 or features.shape[1] != head.w.shape[0]:
        raise ValueError(
            f"features shape {features.shape} incompatible with head input dim {head.w.shape[0]}"
        )
    return features @ head.w + head.b


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def weighted_masked_ce(
    logits: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    mask: np.ndarray,
    divisor: int,
) -> tuple[float, np.ndarray]:
    """Per-row weighted, masked cross-entropy averaged over a fixed divisor.

    loss = (1/divisor) * sum_i mask_i * weight_i * H(target_i, softmax(logits_i)).
    The divisor stays the nominal batch size even when the mask removes rows.
    Returns the loss and its exact gradient w.r.t. the logits; masked rows get
    a zero gradient row.
    """
    logits = np.asarray(logits, dtype=np.float64)
    n, k = logits.shape
    targets = np.asarray(targets)
    weights = np.asarray(weights, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if not (len(targets) == len(weights) == len(mask) == n):
        raise ValueError("targets/weights/mask must match logits rows")
    if divisor <= 0:
        raise ValueError("divisor must be positive")
    if n and (targets.min() < 0 or targets.max() >= k):
        raise ValueError(f"target index out of range for {k} classes")

    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    coef = np.where(mask, weights, 0.0) / float(divisor)
    loss = float(-(coef * logp[rows, targets]).sum())
    dlogits = np.exp(logp) * coef[:, None]
    dlogits[rows, targets] -= coef
    return loss, dlogits


def head_backward(
    head: LinearLayer, features: np.ndarray, dlogits: np.ndarray
) -> tuple[LinearLayer, np.ndarray]:
    """Gradients of a linear head: returns (head grads, dfeatures)."""
    if dlogits.shape != (features.shape[0], head.w.shape[1]):
        raise ValueError("dlogits shape does not match head output")
    gw = features.T @ dlogits
    gb = dlogits.sum(axis=0)
    dfeatures = dlogits @ head.w.T
    return LinearLayer(gw, gb), dfeatures


def encoder_backward(
    params: ModelParams, cache: EncoderCache, dfeatures: np.ndarray
) -> list[LinearLayer]:
    """Backprop dfeatures through the cached encoder pass; exact ReLU subgradient at 0 is 0."""
    if len(cache.inputs) != len(params.encoder_layers):
        raise ValueError("cache does not match encoder depth")
    if dfeatures.shape != (cache.inputs[0].shape[0], params.feature_dim):
        raise ValueError("dfeatures shape does not match cached forward pass")
    grads: list[LinearLayer] = [None] * len(params.encoder_layers)  # type: ignore[list-item]
    d = dfeatures
    for i in reversed(range(len(params.encoder_layers))):
        layer = params.encoder_layers[i]
        dz = d * (cache.preacts[i] > 0.0)
        grads[i] = LinearLayer(cache.inputs[i].T @ dz, dz.sum(axis=0))
        if i > 0:
            d = dz @ layer.w.T
    return grads


# ---------------------------------------------------------------------------
# Optimizer and EMA
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    first_moment: ModelParams
    second_moment: ModelParams
    step_count: int
    beta1: float
    beta2: float
    eps: float


def init_adam(
    params: ModelParams, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
) -> AdamState:
    return AdamState(zeros_like_params(params), zeros_like_params(params), 0, beta1, beta2, eps)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState, lr: float) -> None:
    """Standard Adam with bias correction, in place. p -= lr * mhat / (sqrt(vhat) + eps)."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(
        iter_arrays(params),
        iter_arrays(grads),
        iter_arrays(state.first_moment),
        iter_arrays(state.second_moment),
    ):
        if not np.isfinite(g).all():
            raise TrainingDivergedError("non-finite gradient in Adam step")
        # overflow here only happens en route to divergence, which the loss
        # check reports with a step number; keep the update itself quiet
        with np.errstate(over="ignore", invalid="ignore"):
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * np.square(g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


@dataclass
class EmaParams:
    """Shadow copy of the tracked parameters, updated as decay*ema + (1-decay)*params."""

    params: ModelParams
    decay: float


def init_ema(params: ModelParams, decay: float) -> EmaParams:
    if not 0.0 <= decay <= 1.0:
        raise ValueError("ema decay must lie in [0, 1]")
    return EmaParams(params.copy(), decay)


def ema_update(ema: EmaParams, params: ModelParams) -> None:
    d = ema.decay
    for e, p in zip(iter_arrays(ema.params), iter_arrays(params)):
        e *= d
        e += (1.0 - d) * p
