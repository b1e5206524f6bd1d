"""Dense feedforward numerics with manual backprop.

Everything here is float64 numpy: an MLP encoder with ReLU activations, two
linear classifier heads on the shared feature space, weighted/masked softmax
cross-entropy with exact analytic gradients, Adam, and EMA parameter tracking.
The state is arrays and a step counter alone (the EMA is a ModelParams, Adam
keeps its two moments and a step count); every setting arrives as an argument.
The backward passes return no gradient arrays: they add into views of a
gradient buffer that the caller owns, so several loss terms can share one
buffer. The head backward takes the features, the logits' gradient, the
heads' gradient stack and one scale per block, and leaves the gradient w.r.t.
its features to the callers whose loss reaches the encoder. The encoder's
cache is its activations alone, the input and every layer's ReLU output, the
last of which is the features; the encoder backward takes its ReLU mask from
them, so callers must not write into the features before that pass. All
operations are deterministic functions of their inputs; the test suite checks
every gradient path against central finite differences.

Row blocks and head stacks. Every pass takes its rows as blocks, (B, n, d),
and every head is a stack of layers, w (H, d, K) and b (H, K); one block or
one head is a stack of one. The encoder runs every block, the stacked head
scores every block with every head, and the backward passes add each block's
gradients in block order. numpy's stacked and broadcast matmuls compute each
block with the same BLAS call as a 2-D matmul of that block, and a reduction
over the last axis or over the rows of a block adds in the same order as on
the block alone, so a stacked pass gives bit for bit the values of one pass
per block.

Rows and segments. The CE scores rows, (n, K) logits, and returns one term per
row; a loss is the negated sum of the terms of its own contiguous segment of
rows. A segment's sum adds in the same order as a call on that segment alone,
so one call carries every loss of a step bit for bit.

Row maxima and row sums. numpy reduces each short row of an (n, K) array in
its own inner loop, so a row-wise reduction over a few hundred rows of ten
classes costs several times the arithmetic. A row max is taken over a
class-major copy instead (`row_max`): one elementwise max across K rows of n
values. A max is the same whatever its order, except for the sign of a zero
max over both +0.0 and -0.0, so rows whose max is 0 keep the row-wise reduce
and every max keeps its bits. Row sums stay row-wise: numpy adds a row in a
pairwise order, and no class-major sum that reproduces that order is cheaper.
"""

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import TrainingDivergedError


@dataclass
class LinearLayer:
    w: np.ndarray  # (fan_in, fan_out), or (H, fan_in, fan_out) for H stacked layers
    b: np.ndarray  # (fan_out,), or (H, fan_out)

    def __getitem__(self, index) -> "LinearLayer":
        """Views of one stacked layer (an int index) or of a range of them (a slice)."""
        return LinearLayer(self.w[index], self.b[index])


@dataclass
class ModelParams:
    """Shared MLP encoder plus base and auxiliary linear heads.

    Every array is a view into one float64 vector `flat`. Gradients and the
    EMA are ModelParams too, and the Adam moments share the same layout.
    `heads` stacks both heads: heads[0] is the base head, heads[1] the
    auxiliary head.
    """

    flat: np.ndarray
    encoder_layers: list[LinearLayer]
    heads: LinearLayer

    @classmethod
    def from_flat(cls, flat: np.ndarray, dims: tuple[int, ...], num_classes: int) -> "ModelParams":
        """Views into flat, each row-major: per encoder layer w, then b; then the
        stacked heads' w (2, d, K), then their b (2, K)."""
        size = cls.size(dims, num_classes)
        if flat.dtype != np.float64 or flat.shape != (size,):
            raise ValueError(f"need {size} float64 parameters, got {flat.dtype} {flat.shape}")
        layers, pos = [], 0
        for fan_in, fan_out in zip(dims, dims[1:]):
            end = pos + fan_in * fan_out
            w = flat[pos:end].reshape(fan_in, fan_out)
            layers.append(LinearLayer(w, flat[end : end + fan_out]))
            pos = end + fan_out
        end = pos + 2 * dims[-1] * num_classes
        heads = LinearLayer(flat[pos:end].reshape(2, dims[-1], num_classes),
                            flat[end:].reshape(2, num_classes))
        return cls(flat, layers, heads)

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
        return self.heads.w.shape[-1]

    def copy(self) -> "ModelParams":
        return ModelParams.from_flat(self.flat.copy(), self.dims, self.num_classes)

    def __reduce__(self):
        # copy.deepcopy and pickle would otherwise detach each array from flat
        return ModelParams.from_flat, (self.flat, self.dims, self.num_classes)


def named_arrays(params: ModelParams) -> Iterator[tuple[str, np.ndarray]]:
    """(name, view) for every array, in flat order."""
    for i, layer in enumerate(params.encoder_layers):
        yield f"enc{i}.w", layer.w
        yield f"enc{i}.b", layer.b
    for field in ("w", "b"):
        for name, array in zip(("base", "aux"), getattr(params.heads, field)):
            yield f"{name}.{field}", array


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
    for layer in [*params.encoder_layers, params.heads[0], params.heads[1]]:
        bound = 1.0 / np.sqrt(layer.w.shape[0])
        layer.w[...] = rng.uniform(-bound, bound, size=layer.w.shape)
        layer.b[...] = rng.uniform(-bound, bound, size=layer.b.shape)
    return params


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams.from_flat(np.zeros_like(params.flat), params.dims, params.num_classes)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def encoder_forward(params: ModelParams, batch: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """ReLU MLP forward of row blocks (B, n, D).

    Returns (features, cache); features (B, n, d) = relu of the last layer,
    and cache = [input, h_1, ..., h_L] holds every layer's activation, so
    cache[-1] is features itself. A backward pass reads the activations, so
    callers must not write into the features before it.
    """
    h = np.asarray(batch, dtype=np.float64)
    if h.ndim != 3 or h.shape[-1] != params.input_dim:
        raise ValueError(
            f"batch shape {h.shape} is not row blocks of input dim {params.input_dim}"
        )
    cache = [h]
    for layer in params.encoder_layers:
        h = np.maximum(h @ layer.w + layer.b, 0.0)
        cache.append(h)
    return h, cache


def head_forward(heads: LinearLayer, features: np.ndarray) -> np.ndarray:
    """Logits (H, B, n, K): every head of the stack (H, d, K) scores every
    block of features (B, n, d)."""
    if heads.w.ndim != 3 or features.ndim != 3 or features.shape[-1] != heads.w.shape[-2]:
        raise ValueError(
            f"features shape {features.shape} is not row blocks for heads {heads.w.shape}"
        )
    return features @ heads.w[:, None] + heads.b[:, None, None]


def row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=1) of a C-contiguous (n, k) array, bit for bit.

    The max runs over a class-major copy: one reduce across k rows of n
    values instead of n reduces of k values. A row whose max is 0 may hold
    both +0.0 and -0.0, and which one wins depends on the order of the
    reduction; those rows take the row-wise reduce.
    """
    m = np.maximum.reduce(np.ascontiguousarray(a.T), axis=0)
    if not np.logical_and.reduce(m):  # a zero max
        zero = m == 0.0
        m[zero] = np.maximum.reduce(a[zero], axis=1)
    return m


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - row_max(logits)[:, None])
    return e / np.add.reduce(e, axis=1, keepdims=True)


def weighted_masked_ce(
    logits: np.ndarray, targets: np.ndarray, coef: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row weighted cross-entropy terms and their exact gradient.

    Row i's term is coef_i * log softmax(logits_i)[target_i]. A loss over a
    segment of rows is -(terms[segment].sum()); its coef is each row's weight
    over the loss's divisor, which stays the nominal batch size even when a
    mask removes rows, and 0 for a masked row. Returns the terms and dlogits,
    the exact gradient of -terms.sum() w.r.t. the logits; a row with coef 0
    gets a zero gradient row.

    Nothing is checked: the caller passes float64 logits (n, k), integer
    targets (n,) in [0, k) and float64 coef (n,).
    """
    n, k = logits.shape
    logp = logits - row_max(logits)[:, None]
    logp -= np.log(np.add.reduce(np.exp(logp), axis=1, keepdims=True))
    picked = np.arange(0, n * k, k) + targets  # flat index of each row's target
    terms = coef * logp.take(picked)
    dlogits = np.exp(logp)
    dlogits *= coef[:, None]
    dlogits.reshape(-1)[picked] -= coef
    return terms, dlogits


def head_backward(
    features: np.ndarray, dlogits: np.ndarray, grad: LinearLayer, scales: Sequence[float]
) -> None:
    """Add scales[j] times block j's gradients of the stacked heads into grad,
    blocks in order.

    features (B, n, d) and dlogits (H, B, n, K) are the input and the output
    gradient of `head_forward`; grad is the (H, d, K) stack that receives the
    heads' gradients, and scales has one entry per block. The gradient w.r.t.
    the features, dlogits @ heads.w.mT[:, None], is left to the caller, which
    computes it only for features that the loss reaches the encoder through.
    """
    logits_shape = grad.w.shape[:1] + features.shape[:-1] + grad.w.shape[-1:]
    if features.ndim != 3 or dlogits.shape != logits_shape:
        raise ValueError("dlogits shape does not match head output")
    _add_blocks(grad, features.mT @ dlogits, np.add.reduce(dlogits, axis=-2), scales)


def _add_blocks(
    grad: LinearLayer, gw: np.ndarray, gb: np.ndarray, scales: Sequence[float]
) -> None:
    """grad += scales[j] times block j of (gw, gb), for j in order; the block
    axis is gw's third and gb's second from last."""
    for j, s in enumerate(scales):
        if s == 1.0:  # 1.0 * x == x, so skip the product
            grad.w += gw[..., j, :, :]
            grad.b += gb[..., j, :]
        else:
            grad.w += s * gw[..., j, :, :]
            grad.b += s * gb[..., j, :]


def encoder_backward(
    params: ModelParams, cache: list[np.ndarray], dfeatures: np.ndarray, grads: ModelParams
) -> None:
    """Backprop dfeatures through the cached encoder pass, adding each layer's
    gradients into grads.encoder_layers; exact ReLU subgradient at 0 is 0.

    dfeatures (B', n, d) covers the cached pass's first B' blocks, and each
    layer adds their gradients in block order. The ReLU mask is taken from
    the activation: max(z, 0) > 0 exactly where z > 0, NaN and -0.0 included.
    """
    if len(cache) != len(params.encoder_layers) + 1:
        raise ValueError("cache does not match encoder depth")
    blocks = len(dfeatures)
    if dfeatures.shape != cache[0][:blocks].shape[:-1] + (params.feature_dim,):
        raise ValueError("dfeatures shape does not match cached forward pass")
    scales = [1.0] * blocks
    d = dfeatures
    for i in reversed(range(len(params.encoder_layers))):
        dz = d * (cache[i + 1][:blocks] > 0.0)
        gw = cache[i][:blocks].mT @ dz
        _add_blocks(grads.encoder_layers[i], gw, np.add.reduce(dz, axis=-2), scales)
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


def init_adam(params: ModelParams) -> AdamState:
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat), 0)


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState,
    lr: float, beta1: float, beta2: float, eps: float,
) -> None:
    """Standard Adam with bias correction, in place. p -= lr * mhat / (sqrt(vhat) + eps).

    A non-finite gradient raises before anything is updated, the step count
    included, naming the count of steps taken.
    """
    g = grads.flat
    if not np.logical_and.reduce(np.isfinite(g)):
        raise TrainingDivergedError(f"non-finite gradient in Adam step at step {state.step_count}")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    m, v = state.first_moment, state.second_moment
    # overflow here only happens en route to divergence, which the loss
    # check reports with a step number; keep the update itself quiet
    with np.errstate(over="ignore", invalid="ignore"):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        params.flat -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def ema_update(ema: ModelParams, params: ModelParams, decay: float) -> None:
    """ema = decay * ema + (1 - decay) * params, in place."""
    ema.flat *= decay
    ema.flat += (1.0 - decay) * params.flat
