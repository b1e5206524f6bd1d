"""Dense feedforward numerics with manual backprop.

Everything here is float64 numpy: an MLP encoder with ReLU activations, two
linear classifier heads on the shared feature space, weighted/masked softmax
cross-entropy with exact analytic gradients, Adam, and EMA parameter tracking.
The backward passes return no gradient arrays: they add into views of a
gradient buffer that the caller owns, so several loss terms can share one
buffer. All operations are deterministic functions of their inputs; the test
suite checks every gradient path against central finite differences.
"""

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import TrainingDivergedError


@dataclass
class LinearLayer:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)


@dataclass
class ModelParams:
    """Shared MLP encoder plus base and auxiliary linear heads.

    Every array is a view into one float64 vector `flat`. Gradients reuse this
    container, and the Adam moments and the EMA share the same layout.
    """

    flat: np.ndarray
    encoder_layers: list[LinearLayer]
    base_head: LinearLayer
    aux_head: LinearLayer

    @classmethod
    def from_flat(cls, flat: np.ndarray, dims: tuple[int, ...], num_classes: int) -> "ModelParams":
        """Views into flat: encoder layers, base head, aux head; per layer row-major w, then b."""
        size = cls.size(dims, num_classes)
        if flat.dtype != np.float64 or flat.shape != (size,):
            raise ValueError(f"need {size} float64 parameters, got {flat.dtype} {flat.shape}")
        heads = [(dims[-1], num_classes)] * 2
        layers, pos = [], 0
        for fan_in, fan_out in [*zip(dims, dims[1:]), *heads]:
            end = pos + fan_in * fan_out
            w = flat[pos:end].reshape(fan_in, fan_out)
            layers.append(LinearLayer(w, flat[end : end + fan_out]))
            pos = end + fan_out
        return cls(flat, layers[:-2], layers[-2], layers[-1])

    @staticmethod
    def size(dims: tuple[int, ...], num_classes: int) -> int:
        """Length of flat for encoder widths dims = (input_dim, *hidden_sizes)."""
        return sum((i + 1) * o for i, o in zip(dims, dims[1:])) + 2 * (dims[-1] + 1) * num_classes

    @classmethod
    def zeros(cls, dims: tuple[int, ...], num_classes: int) -> "ModelParams":
        return cls.from_flat(np.zeros(cls.size(dims, num_classes)), dims, num_classes)

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim,) + tuple(layer.w.shape[1] for layer in self.encoder_layers)

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
        return ModelParams.from_flat(self.flat.copy(), self.dims, self.num_classes)

    def __reduce__(self):
        # copy.deepcopy and pickle would otherwise detach each array from flat
        return ModelParams.from_flat, (self.flat, self.dims, self.num_classes)


def named_arrays(params: ModelParams) -> Iterator[tuple[str, np.ndarray]]:
    """(name, view) for every array, in flat order."""
    names = [f"enc{i}" for i in range(len(params.encoder_layers))] + ["base", "aux"]
    for name, layer in zip(names, [*params.encoder_layers, params.base_head, params.aux_head]):
        yield f"{name}.w", layer.w
        yield f"{name}.b", layer.b


def init_params(
    input_dim: int,
    hidden_sizes: tuple[int, ...],
    num_classes: int,
    rng: np.random.Generator,
) -> ModelParams:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] for weights and biases."""
    if not hidden_sizes:
        raise ValueError("encoder needs at least one layer")
    params = ModelParams.zeros((input_dim,) + tuple(hidden_sizes), num_classes)
    for layer in [*params.encoder_layers, params.base_head, params.aux_head]:
        bound = 1.0 / np.sqrt(layer.w.shape[0])
        layer.w[...] = rng.uniform(-bound, bound, size=layer.w.shape)
        layer.b[...] = rng.uniform(-bound, bound, size=layer.b.shape)
    return params


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams.from_flat(np.zeros_like(params.flat), params.dims, params.num_classes)


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
    return weighted_masked_ce_unchecked(logits, targets, weights, mask, divisor)


def weighted_masked_ce_unchecked(
    logits: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    mask: np.ndarray,
    divisor: int,
) -> tuple[float, np.ndarray]:
    """`weighted_masked_ce` for inputs already known to be valid: float64
    logits (n, k), n targets in [0, k), n float64 weights, n bools, divisor > 0."""
    n = len(logits)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    coef = np.where(mask, weights, 0.0) / float(divisor)
    loss = float(-(coef * logp[rows, targets]).sum())
    dlogits = np.exp(logp) * coef[:, None]
    dlogits[rows, targets] -= coef
    return loss, dlogits


def head_backward(
    head: LinearLayer, features: np.ndarray, dlogits: np.ndarray, grad: LinearLayer,
    scale: float = 1.0,
) -> np.ndarray:
    """Add scale times the linear head's gradients into grad; returns dfeatures (unscaled)."""
    if dlogits.shape != (features.shape[0], head.w.shape[1]):
        raise ValueError("dlogits shape does not match head output")
    grad.w += scale * (features.T @ dlogits)
    grad.b += scale * dlogits.sum(axis=0)
    return dlogits @ head.w.T


def encoder_backward(
    params: ModelParams, cache: EncoderCache, dfeatures: np.ndarray, grads: ModelParams
) -> None:
    """Backprop dfeatures through the cached encoder pass, adding each layer's
    gradients into grads.encoder_layers; exact ReLU subgradient at 0 is 0."""
    if len(cache.inputs) != len(params.encoder_layers):
        raise ValueError("cache does not match encoder depth")
    if dfeatures.shape != (cache.inputs[0].shape[0], params.feature_dim):
        raise ValueError("dfeatures shape does not match cached forward pass")
    d = dfeatures
    for i in reversed(range(len(params.encoder_layers))):
        dz = d * (cache.preacts[i] > 0.0)
        grads.encoder_layers[i].w += cache.inputs[i].T @ dz
        grads.encoder_layers[i].b += dz.sum(axis=0)
        if i > 0:
            d = dz @ params.encoder_layers[i].w.T


# ---------------------------------------------------------------------------
# Optimizer and EMA
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    first_moment: np.ndarray  # same layout as ModelParams.flat
    second_moment: np.ndarray
    step_count: int
    beta1: float
    beta2: float
    eps: float


def init_adam(
    params: ModelParams, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
) -> AdamState:
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat), 0, beta1, beta2, eps)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState, lr: float) -> None:
    """Standard Adam with bias correction, in place. p -= lr * mhat / (sqrt(vhat) + eps).

    A non-finite gradient raises before anything is updated.
    """
    g = grads.flat
    if not np.isfinite(g).all():
        raise TrainingDivergedError("non-finite gradient in Adam step")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    m, v = state.first_moment, state.second_moment
    # overflow here only happens en route to divergence, which the loss
    # check reports with a step number; keep the update itself quiet
    with np.errstate(over="ignore", invalid="ignore"):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        params.flat -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


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
    ema.params.flat *= d
    ema.params.flat += (1.0 - d) * params.flat
