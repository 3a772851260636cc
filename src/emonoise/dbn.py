"""Restricted Boltzmann Machines stacked into a deep belief classifier.

The first RBM has Gaussian (unit-variance) visible units because its inputs
are z-scored real-valued feature vectors; upper RBMs are Bernoulli on both
sides. Pretraining is greedy layerwise contrastive divergence; supervised
fine-tuning unrolls the stack into a sigmoid feedforward net with a softmax
head and backpropagates mean cross-entropy.

Callers pass raw feature vectors: pretrain_dbn fits the input z-score and
stores it with the stack; fine_tune z-scores its rows once, before the
first epoch, and forward those of every call. Every training routine is a
pure function of its inputs and the seed it is given: repeated runs produce
bit-identical parameters. A warm training step allocates no weight-sized
array: a CD update is one GEMM over stacked, pre-scaled statistics and five
passes over the weights, and fine-tuning's gradients come out already
scaled by the learning rate, into buffers allocated once. Those passes, and
every sigmoid, run over row blocks of about 256 KB (``_row_blocks``), so
each block is read from memory once and passed over in cache; every
element still sees the same operations in the same order. Products with a
transposed weight matrix are formed as (W @ X.T).T, which OpenBLAS runs
faster than X @ W.T, to the same bits; the allocating reference tests,
which keep X @ W.T, check that.

Training keeps each weight matrix in one float32 array, from its draw to
the end of fine-tuning, and makes it float64 at one point only: the
``freeze`` at the end of ``fine_tune``.

- ``pretrain_dbn`` draws each layer's weights into a float32 ``RbmState``
  a row block at a time, and ``train_rbm`` advances it in place. While a
  layer trains, the live arrays are its input activations, its state
  (weights, momentum and gradient buffers) and the parameters of the
  layers below. ``train_rbm`` releases the momentum and gradient buffers
  before the next layer's activations are built.
- ``pretrain_dbn`` returns the states with a float32 head and the float64
  standardization as a ``DbnState``. ``fine_tune`` updates those same
  weight, bias and head arrays in place, next to one velocity and one
  gradient buffer per parameter. It releases both before it freezes the
  state into the float64 ``Dbn``, the only model training builds.

``Rbm`` and ``Dbn`` hold float64 only: they convert whatever arrays they
are given, so the trained parameters are float32-representable float64
values, as are the ``DBN1`` file, ``forward`` and the standardization.
A returned model is never written again, so it is safe for concurrent
read-only inference. ``hidden_probs`` and ``visible_recon`` take an
``RbmState`` and float32 rows, and neither cast nor check them.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from ._files import atomic_open

GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"

N_LABELS = 7

# bytes of each array that one row block of the training step's elementwise passes covers
_BLOCK_BYTES = 1 << 18

_MODEL_MAGIC = b"DBN1"
_MODEL_VERSION = 1
_KIND_CODES = {GAUSSIAN: 0, BERNOULLI: 1}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}


class ModelFormatError(ValueError):
    """Model file is malformed: bad magic, wrong version, or truncated."""


def _sigmoid_inplace(z: np.ndarray) -> np.ndarray:
    """Overwrite the floating array ``z`` with sigmoid(z) in its own dtype.

    The stable form exp(min(z, 0)) / (1 + exp(-|z|)): neither exp can
    overflow. One exp: with e = exp(-|z|), exp(min(z, 0)) is max(z >= 0, e),
    since e <= 1 and e is exp(z) where z < 0; NaN stays NaN. It runs over
    row blocks (``_row_blocks``) with one block-sized scratch buffer, so an
    activation matrix needs no scratch of its own size.
    """
    den = None
    for (block,) in _row_blocks(z):
        # the first block's scratch, sliced for the ragged last one
        den = np.empty_like(block) if den is None else den[: len(block)]
        np.abs(block, out=den)
        np.negative(den, out=den)
        np.exp(den, out=den)
        np.greater_equal(block, 0.0, out=block)
        np.maximum(block, den, out=block)
        den += 1.0
        block /= den
    return z


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer hyperparameters; the seed is passed to each training routine.

    The paper leaves all of these open, so they are ordinary config: CD-1,
    momentum SGD with a small weight decay during pretraining, and plain
    momentum SGD on cross-entropy for fine-tuning of the whole stack.
    """

    cd_steps: int = 1
    learning_rate_pretrain: float = 0.01
    learning_rate_pretrain_gaussian: float = 0.001
    learning_rate_finetune: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 2e-4
    batch_size: int = 64
    epochs_pretrain: int = 30
    epochs_finetune: int = 50

    def __post_init__(self) -> None:
        if self.cd_steps < 1:
            raise ValueError("cd_steps must be at least 1")
        for name in ("learning_rate_pretrain", "learning_rate_pretrain_gaussian",
                     "learning_rate_finetune", "weight_decay"):
            # a chained comparison, so that NaN fails it; inf would train to NaN weights
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs_pretrain < 0 or self.epochs_finetune < 0:
            raise ValueError("epoch counts must be nonnegative")


@dataclass(frozen=True)
class Rbm:
    """One energy-model layer: weights (n_visible, n_hidden) plus biases, all float64."""

    weights: np.ndarray
    visible_bias: np.ndarray
    hidden_bias: np.ndarray
    visible_kind: str = BERNOULLI

    def __post_init__(self) -> None:
        w, vb, hb = (np.asarray(p, dtype=np.float64)
                     for p in (self.weights, self.visible_bias, self.hidden_bias))
        if w.ndim != 2 or vb.shape != (w.shape[0],) or hb.shape != (w.shape[1],):
            raise ValueError("inconsistent RBM parameter shapes")
        if not (np.isfinite(w).all() and np.isfinite(vb).all() and np.isfinite(hb).all()):
            raise ValueError("RBM parameters must be finite")
        if self.visible_kind not in _KIND_CODES:
            raise ValueError(f"unknown visible_kind {self.visible_kind!r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "visible_bias", vb)
        object.__setattr__(self, "hidden_bias", hb)

    @property
    def n_visible(self) -> int:
        return self.weights.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.weights.shape[1]


@dataclass
class Dbn:
    """Stacked RBMs plus a float64 softmax head and input standardization.

    ``input_mean``/``input_std`` hold the per-dimension z-score parameters
    fitted on training features. The head and the standardization must be
    finite and every ``input_std`` entry positive, so a model can never
    score every input as NaN.
    """

    rbms: list[Rbm]
    softmax_weights: np.ndarray
    softmax_bias: np.ndarray
    input_mean: np.ndarray
    input_std: np.ndarray

    def __post_init__(self) -> None:
        if not self.rbms:
            raise ValueError("a Dbn needs at least one RBM")
        for i, rbm in enumerate(self.rbms):
            expected = GAUSSIAN if i == 0 else BERNOULLI
            if rbm.visible_kind != expected:
                raise ValueError(f"RBM {i} must have {expected} visible units")
            if i and rbm.n_visible != self.rbms[i - 1].n_hidden:
                raise ValueError("adjacent RBM layer sizes do not chain")
        self.softmax_weights = np.asarray(self.softmax_weights, dtype=np.float64)
        self.softmax_bias = np.asarray(self.softmax_bias, dtype=np.float64)
        top = self.rbms[-1].n_hidden
        if self.softmax_weights.shape != (top, self.softmax_bias.shape[0]):
            raise ValueError("softmax head does not match the top RBM layer")
        if not (np.isfinite(self.softmax_weights).all() and np.isfinite(self.softmax_bias).all()):
            raise ValueError("softmax head must be finite")
        for name in ("input_mean", "input_std"):
            val = np.asarray(getattr(self, name), dtype=np.float64)
            if val.shape != (self.rbms[0].n_visible,):
                raise ValueError(f"{name} must have one entry per input dimension")
            if not np.isfinite(val).all():
                raise ValueError(f"{name} must be finite")
            setattr(self, name, val)
        if not (self.input_std > 0).all():
            raise ValueError("input_std must be positive")

    @property
    def n_labels(self) -> int:
        return self.softmax_bias.shape[0]


class RbmState:
    """One RBM's mutable float32 training arrays, advanced in place by cd_update.

    Holds the parameters, their momentum buffers, one weight-sized buffer
    for the scaled CD statistic (reused as the weight-decay scratch) and the
    two stacks that statistic is one GEMM over, all float32, so a warm
    training step allocates no weight-sized array. The stacks start empty
    and grow to twice the largest batch seen. A float32 parameter array is
    taken over as it is, so the state trains it in place; any other is cast
    into a new one. ``train_rbm`` sets the momentum, gradient and stack
    buffers to None once its epochs are done: only the parameters live on,
    for the next layer's activations and for ``fine_tune``. ``freeze``
    returns the current parameters as a new, validated float64 Rbm.
    """

    def __init__(self, weights, visible_bias, hidden_bias, visible_kind: str = BERNOULLI) -> None:
        self.visible_kind = visible_kind
        self.weights = np.asarray(weights, dtype=np.float32)
        self.visible_bias = np.asarray(visible_bias, dtype=np.float32)
        self.hidden_bias = np.asarray(hidden_bias, dtype=np.float32)
        self.velocity_weights = np.zeros_like(self.weights)
        self.velocity_visible_bias = np.zeros_like(self.visible_bias)
        self.velocity_hidden_bias = np.zeros_like(self.hidden_bias)
        self.grad = np.empty_like(self.weights)
        self.stack_visible = np.empty((0, self.n_visible), dtype=np.float32)
        self.stack_hidden = np.empty((0, self.n_hidden), dtype=np.float32)

    @property
    def n_visible(self) -> int:
        return self.weights.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.weights.shape[1]

    def freeze(self) -> Rbm:
        return Rbm(self.weights, self.visible_bias, self.hidden_bias,
                   visible_kind=self.visible_kind)


@dataclass
class DbnState:
    """A pretrained stack in training form: what pretrain_dbn returns and fine_tune trains.

    ``rbms`` are the layers' RbmStates, their CD buffers released; the head
    is float32 and the standardization float64, as a Dbn stores it.
    ``fine_tune`` updates the layers' weights and hidden biases and the head
    in place; ``freeze`` upcasts them into a new, validated Dbn.
    """

    rbms: list[RbmState]
    softmax_weights: np.ndarray
    softmax_bias: np.ndarray
    input_mean: np.ndarray
    input_std: np.ndarray

    def freeze(self) -> Dbn:
        return Dbn([r.freeze() for r in self.rbms], self.softmax_weights, self.softmax_bias,
                   input_mean=self.input_mean, input_std=self.input_std)


def _row_blocks(*arrays: np.ndarray):
    """Matching leading-axis slices of same-shaped arrays, about _BLOCK_BYTES of each."""
    first = arrays[0]
    step = max(1, _BLOCK_BYTES * len(first) // max(1, first.nbytes))
    for start in range(0, len(first), step):
        yield tuple(a[start : start + step] for a in arrays)


def hidden_probs(state: RbmState, v: np.ndarray) -> np.ndarray:
    """P(h_j = 1 | v) = sigmoid(hidden_bias + v @ W) for float32 rows ``v``, in float32."""
    pre = v @ state.weights
    pre += state.hidden_bias
    return _sigmoid_inplace(pre)


def visible_recon(state: RbmState, h: np.ndarray) -> np.ndarray:
    """Reconstruct visibles from float32 hidden rows ``h``, in float32.

    Bernoulli units give probabilities sigmoid(visible_bias + h @ W.T);
    Gaussian units give the mean visible_bias + h @ W.T of the unit-variance
    model. The product is formed as (W @ h.T).T, so a batch comes back as a
    column-major array.
    """
    pre = (state.weights @ h.T).T
    pre += state.visible_bias
    return _sigmoid_inplace(pre) if state.visible_kind == BERNOULLI else pre


def _sample(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # draws float64 whatever the dtype of probs: a float32 draw would consume
    # another random stream
    return (rng.random(probs.shape) < probs).astype(probs.dtype)


def cd_update(state: RbmState, batch, cfg: TrainConfig, rng: np.random.Generator) -> float:
    """One CD-k parameter update on a minibatch, applied to ``state`` in place.

    Positive statistics come from (v0, hidden_probs(v0)). The chain draws
    hidden states as Bernoulli samples; visible reconstructions use
    probabilities for statistics and samples to continue the chain
    (Gaussian visibles use the mean throughout, with no sampling noise).
    The weight step lr*((v0'p0 - vk'pk)/B - decay*W) is taken in this
    order: one GEMM [v0; vk]' [(lr/B)*p0; -(lr/B)*pk] over the state's
    stacks into ``grad``, then velocity *= momentum, velocity += grad,
    grad = (lr*decay)*W, velocity -= grad and W += velocity, five passes
    over weight-sized arrays that run block by block over rows
    (``_row_blocks``). The biases take lr times their mean
    statistic into their momentum buffers. Returns the mean squared error
    between v0 and the first reconstruction.
    """
    v0 = np.atleast_2d(np.asarray(batch, dtype=state.weights.dtype))
    if v0.shape[0] == 0:
        raise ValueError("cd_update needs a nonempty batch")
    if v0.shape[1] != state.n_visible:
        raise ValueError(f"batch rows have {v0.shape[1]} entries, want {state.n_visible}")
    n = v0.shape[0]
    lr = (
        cfg.learning_rate_pretrain_gaussian
        if state.visible_kind == GAUSSIAN
        else cfg.learning_rate_pretrain
    )

    p0 = hidden_probs(state, v0)
    h = _sample(p0, rng)
    v1 = None
    v_stat = None
    for step in range(cfg.cd_steps):
        v_stat = visible_recon(state, h)
        if step == 0:
            v1 = v_stat
        if step + 1 < cfg.cd_steps:
            v_chain = _sample(v_stat, rng) if state.visible_kind == BERNOULLI else v_stat
            h = _sample(hidden_probs(state, v_chain), rng)
    pk = hidden_probs(state, v_stat)

    if state.stack_visible.shape[0] < 2 * n:
        state.stack_visible = np.empty((2 * n, state.n_visible), dtype=np.float32)
        state.stack_hidden = np.empty((2 * n, state.n_hidden), dtype=np.float32)
    stack_v, stack_h = state.stack_visible[: 2 * n], state.stack_hidden[: 2 * n]
    stack_v[:n] = v0
    stack_v[n:] = v_stat
    np.multiply(p0, lr / n, out=stack_h[:n])
    np.multiply(pk, -lr / n, out=stack_h[n:])
    np.matmul(stack_v.T, stack_h, out=state.grad)
    for w, velocity, grad in _row_blocks(state.weights, state.velocity_weights, state.grad):
        velocity *= cfg.momentum
        velocity += grad
        np.multiply(w, lr * cfg.weight_decay, out=grad)
        velocity -= grad
        w += velocity
    state.velocity_visible_bias *= cfg.momentum
    state.velocity_visible_bias += lr * (v0 - v_stat).mean(axis=0)
    state.velocity_hidden_bias *= cfg.momentum
    state.velocity_hidden_bias += lr * (p0 - pk).mean(axis=0)

    state.visible_bias += state.velocity_visible_bias
    state.hidden_bias += state.velocity_hidden_bias
    return float(np.mean(np.square(v0 - v1)))


def _init_state(n_visible: int, n_hidden: int, kind: str, rng: np.random.Generator) -> RbmState:
    """A new RbmState: weights 0.01 * N(0, 1), zero biases.

    The weights are drawn in float64 one row block at a time and cast into
    the float32 array, so no weight-sized float64 array exists. The random
    stream and the values are those of one (n_visible, n_hidden) draw,
    scaled by 0.01 and cast.
    """
    weights = np.empty((n_visible, n_hidden), dtype=np.float32)
    for (rows,) in _row_blocks(weights):
        draw = rng.standard_normal(rows.shape)
        draw *= 0.01
        rows[...] = draw
    return RbmState(weights, np.zeros(n_visible, dtype=np.float32),
                    np.zeros(n_hidden, dtype=np.float32), kind)


def _minibatches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train_rbm(state: RbmState, data: np.ndarray, cfg: TrainConfig,
              rng: np.random.Generator) -> RbmState:
    """Run epochs_pretrain epochs of CD over shuffled minibatches, advancing ``state`` in place.

    Returns ``state``, its parameters trained and its momentum, gradient
    and stack buffers set to None: nothing trains it by CD again, and at
    1000x2000 the two weight-sized buffers hold 16 MB that the next layer's
    activations and state would otherwise be built next to.
    """
    for _ in range(cfg.epochs_pretrain):
        for idx in _minibatches(data.shape[0], cfg.batch_size, rng):
            cd_update(state, data[idx], cfg, rng)
    state.velocity_weights = state.velocity_visible_bias = state.velocity_hidden_bias = None
    state.grad = state.stack_visible = state.stack_hidden = None
    return state


def fit_standardization(train_features):
    """Per-dimension mean and population std of training feature vectors.

    Dimensions with zero spread get std clamped to 1 (with a warning) so
    z-scoring maps them to exactly 0.
    """
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("standardization needs a nonempty 2-D feature array")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    flat = std == 0.0
    if flat.any():
        warnings.warn(
            f"{int(flat.sum())} feature dimension(s) are constant; clamping their std to 1"
        )
        std = np.where(flat, 1.0, std)
    return mean, std


def pretrain_dbn(data, hidden_sizes, cfg: TrainConfig, seed: int) -> DbnState:
    """Greedy layerwise pretraining on raw feature vectors.

    Fits the z-score on ``data``, stores it in the returned DbnState and
    pretrains on the standardized rows. ``hidden_sizes`` lists each hidden
    width, e.g. the paper's (1000, 1000, 2000); the input width is that of
    ``data``. Each RBM is trained on the deterministic hidden probabilities
    of the one below it; the softmax head over N_LABELS classes is randomly
    initialized (seeded normal, sd 0.01). ``seed`` fixes every draw.
    Everything stays float32: the standardized rows are cast once, each
    layer's weights are drawn into its RbmState (``_init_state``), and
    ``train_rbm`` returns that state with only its parameters left, which
    give the next layer its activations. While a layer trains, its input
    activations, its state and the parameters below it are alive. The head
    is drawn in float64 and cast, as the weights are. ``fine_tune``
    continues these arrays and freezes them into the float64 Dbn.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("pretraining data must be a nonempty 2-D array")
    sizes = [data.shape[1], *hidden_sizes]
    if len(sizes) < 2:
        raise ValueError("hidden_sizes needs at least one hidden size")
    mean, std = fit_standardization(data)

    rng = np.random.default_rng(seed)
    states: list[RbmState] = []
    activations = ((data - mean) / std).astype(np.float32)
    for i, (n_vis, n_hid) in enumerate(zip(sizes[:-1], sizes[1:])):
        kind = GAUSSIAN if i == 0 else BERNOULLI
        states.append(train_rbm(_init_state(n_vis, n_hid, kind, rng), activations, cfg, rng))
        if i + 2 < len(sizes):
            activations = hidden_probs(states[-1], activations)

    head = (0.01 * rng.standard_normal((sizes[-1], N_LABELS))).astype(np.float32)
    return DbnState(states, head, np.zeros(N_LABELS, dtype=np.float32), mean, std)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _forward_activations(layers, head, z: np.ndarray):
    """Every layer's activations, ``z`` first, and the head's logits for standardized rows ``z``.

    ``layers`` lists (W, hidden bias). Backpropagation needs them all;
    ``forward``, which needs only the last, has its own loop.
    """
    activations = [z]
    for w, c in layers:
        pre = activations[-1] @ w
        pre += c
        activations.append(_sigmoid_inplace(pre))
    logits = activations[-1] @ head[0] + head[1]
    return activations, logits


def forward(dbn: Dbn, x) -> np.ndarray:
    """Class probabilities for raw (unstandardized) input rows, or for one 1-D row.

    A deterministic float64 mean-field pass: z-score, sigmoid layers,
    softmax head with max-subtraction. Output rows sum to 1. Each layer's
    activations are dropped once the next layer's are built, so at most two
    are alive at a time; the arithmetic is that of ``_forward_activations``
    on the z-scored rows, to the bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != dbn.rbms[0].n_visible:
        raise ValueError(f"input rows have {x.shape[-1]} entries, want {dbn.rbms[0].n_visible}")
    act = (x - dbn.input_mean) / dbn.input_std
    for rbm in dbn.rbms:
        act = act @ rbm.weights
        act += rbm.hidden_bias
        _sigmoid_inplace(act)
    return np.exp(_log_softmax(act @ dbn.softmax_weights + dbn.softmax_bias))


def _loss_and_grads(layers, head, z: np.ndarray, labels: np.ndarray, step: float, d_weights):
    """Mean cross-entropy and its gradient for every parameter, times ``step``.

    ``z`` holds standardized rows. ``layers`` lists each sigmoid layer's
    (W, hidden bias) and ``head`` is the softmax (W, bias). ``step``/n is
    folded into the logits' gradient, so every gradient comes out scaled by
    ``step`` with no pass of its own.
    ``d_weights`` holds one array per layer weight and one for the head's,
    of their shapes and dtype; the weight gradients are written into them.
    Returns (loss, [(dW_1, dc_1), ...], (dWs, dbs)).
    """
    activations, logits = _forward_activations(layers, head, z)
    log_probs = _log_softmax(logits)
    n = z.shape[0]
    loss = -float(log_probs[np.arange(n), labels].mean())

    d_logits = np.exp(log_probs)
    d_logits[np.arange(n), labels] -= 1.0
    d_logits *= step / n

    top = activations[-1]
    d_head = (np.matmul(top.T, d_logits, out=d_weights[-1]), d_logits.sum(axis=0))
    d_layers: list[tuple[np.ndarray, np.ndarray]] = []
    # (W @ X.T).T rather than X @ W.T: faster, same bits (see the module docstring)
    delta = (head[0] @ d_logits.T).T
    for i in range(len(layers) - 1, -1, -1):
        act = activations[i + 1]
        dz = delta * act
        dz *= 1.0 - act
        d_layers.append((np.matmul(activations[i].T, dz, out=d_weights[i]), dz.sum(axis=0)))
        if i:
            delta = (layers[i][0] @ dz.T).T
    d_layers.reverse()
    return loss, d_layers, d_head


def fine_tune(state: DbnState, data, labels, cfg: TrainConfig, seed: int) -> Dbn:
    """Supervised fine-tuning of a pretrained stack: momentum SGD on mean cross-entropy.

    ``data`` holds raw feature vectors; ``labels`` are integer class
    indices; ``seed`` fixes the minibatch order. The rows are cast to
    float32 and z-scored once, before the first epoch, as (x - mean) / std
    with the state's standardization cast to float32; ``data`` itself is
    not written. The loop continues ``state``'s float32 arrays in place:
    each layer's weights and hidden bias and the head. Next to them it
    allocates one velocity per parameter and one gradient buffer per
    weight matrix, so at most three float32 copies of each weight matrix
    are alive. Gradients come out of ``_loss_and_grads`` already scaled by
    the learning rate, so each step makes three passes over every
    parameter (velocity *= momentum, velocity -= gradient, parameter +=
    velocity), block by block over rows (``_row_blocks``), and allocates
    no weight-sized array. The velocities and gradients are released, then
    ``state`` is frozen: the returned Dbn holds the trained arrays upcast
    to float64, the visible biases and the standardization.
    """
    x = np.asarray(data, dtype=np.float32)
    y = np.asarray(labels, dtype=np.int64)
    n_labels = state.softmax_bias.shape[0]
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("fine-tuning data must be a nonempty 2-D array")
    if y.shape != (x.shape[0],):
        raise ValueError("labels must align one-to-one with data rows")
    if y.min() < 0 or y.max() >= n_labels:
        raise ValueError(f"labels must lie in [0, {n_labels - 1}]")

    f32 = np.float32
    layers = [(r.weights, r.hidden_bias) for r in state.rbms]
    head = (state.softmax_weights, state.softmax_bias)
    x = (x - state.input_mean.astype(f32)) / state.input_std.astype(f32)
    # the head first, then each layer's (W, c), as the gradients are listed below
    params = [*head, *(p for layer in layers for p in layer)]
    velocities = [np.zeros_like(p) for p in params]
    d_weights = [np.empty_like(w) for w, _ in layers] + [np.empty_like(head[0])]

    rng = np.random.default_rng(seed)
    lr = cfg.learning_rate_finetune
    for _ in range(cfg.epochs_finetune):
        for idx in _minibatches(x.shape[0], cfg.batch_size, rng):
            _, d_layers, d_head = _loss_and_grads(layers, head, x[idx], y[idx], lr, d_weights)
            grads = [*d_head, *(g for layer in d_layers for g in layer)]
            for arrays in zip(params, velocities, grads):
                for param, velocity, grad in _row_blocks(*arrays):
                    velocity *= cfg.momentum
                    velocity -= grad
                    param += velocity
    # release the velocities and gradient buffers before the float64 copy is
    # built below: with them alive, that copy would be the training stage's peak
    velocities = d_weights = d_layers = d_head = grads = None
    # freezing upcasts and checks that training left the weights and the head finite
    return state.freeze()


def _pack_f64(arr: np.ndarray) -> np.ndarray:
    # a float64 model array is written from its own buffer: no copy of the
    # 24 MB a paper-width model takes
    return np.ascontiguousarray(arr, dtype="<f8")


def save_model(dbn: Dbn, path) -> None:
    """Serialize a Dbn; load_model reproduces every parameter bit-exactly."""
    parts = [_MODEL_MAGIC, struct.pack("<II", _MODEL_VERSION, len(dbn.rbms))]
    for rbm in dbn.rbms:
        parts.append(struct.pack("<QQB", rbm.n_visible, rbm.n_hidden, _KIND_CODES[rbm.visible_kind]))
        parts.append(_pack_f64(rbm.weights))
        parts.append(_pack_f64(rbm.visible_bias))
        parts.append(_pack_f64(rbm.hidden_bias))
    parts.append(_pack_f64(dbn.softmax_weights))
    parts.append(_pack_f64(dbn.softmax_bias))
    parts.append(_pack_f64(dbn.input_mean))
    parts.append(_pack_f64(dbn.input_std))
    with atomic_open(path, "wb") as fh:
        fh.writelines(parts)


def load_model(path) -> Dbn:
    """Read a model written by save_model.

    Each array is read from the file straight into its own buffer, so the
    model is held once, not also as the file's bytes. Every length the file
    declares is checked against the file's size before its array is
    allocated: a truncated or corrupt file raises ModelFormatError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(12)
        if header[:4] != _MODEL_MAGIC:
            raise ModelFormatError(f"{path}: bad model magic")
        if len(header) < 12:
            raise ModelFormatError(f"{path}: truncated model header")
        version, n_layers = struct.unpack_from("<II", header, 4)
        if version != _MODEL_VERSION:
            raise ModelFormatError(f"{path}: unsupported model version {version}")

        def read_f64(count: int) -> np.ndarray:
            if count * 8 > size - fh.tell():
                raise ModelFormatError(f"{path}: truncated model file")
            out = np.empty(count, dtype="<f8")
            if fh.readinto(out) != out.nbytes:  # the file shrank while being read
                raise ModelFormatError(f"{path}: truncated model file")
            return out

        rbms: list[Rbm] = []
        for _ in range(n_layers):
            layer_header = fh.read(17)
            if len(layer_header) < 17:
                raise ModelFormatError(f"{path}: truncated model file")
            rows, cols, kind_code = struct.unpack("<QQB", layer_header)
            if kind_code not in _KIND_NAMES:
                raise ModelFormatError(f"{path}: unknown visible kind code {kind_code}")
            weights = read_f64(rows * cols).reshape(rows, cols)
            rbms.append(
                Rbm(weights, read_f64(rows), read_f64(cols), visible_kind=_KIND_NAMES[kind_code])
            )
        if not rbms:
            raise ModelFormatError(f"{path}: model has no layers")

        # the head width is implied: remaining = 8*(top*k + k + 2*n_input)
        top, n_input = rbms[-1].n_hidden, rbms[0].n_visible
        remaining = size - fh.tell()
        if (remaining % 8 or (remaining // 8 - 2 * n_input) % (top + 1)
                or remaining // 8 <= 2 * n_input):
            raise ModelFormatError(f"{path}: truncated model file")
        n_labels = (remaining // 8 - 2 * n_input) // (top + 1)
        softmax_weights = read_f64(top * n_labels).reshape(top, n_labels)
        softmax_bias = read_f64(n_labels)
        mean = read_f64(n_input)
        std = read_f64(n_input)
    return Dbn(rbms, softmax_weights, softmax_bias, input_mean=mean, input_std=std)
