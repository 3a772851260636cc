"""Restricted Boltzmann Machines stacked into a deep belief classifier.

The first RBM has Gaussian (unit-variance) visible units because its inputs
are z-scored real-valued feature vectors; upper RBMs are Bernoulli on both
sides. Pretraining is greedy layerwise contrastive divergence; supervised
fine-tuning unrolls the stack into a sigmoid feedforward net with a softmax
head and backpropagates mean cross-entropy.

Callers pass raw feature vectors: pretrain_dbn fits the input z-score and
stores it with the stack; fine_tune z-scores its rows once, before the
first epoch, and forward those of every call, all with one expression
(``_standardized``: float64, then one cast to float32). Every training
routine is a pure function of its inputs and the seed it is given:
repeated runs produce bit-identical parameters. A warm training step
allocates no weight-sized array: each weight matrix's momentum update runs
inside OpenBLAS (``_blas``). The GEMM that forms its CD statistic or
gradient writes it straight into its velocity, with the old velocity
scaled by the momentum (GEMM's ``beta``), and axpy applies the weight
decay and adds the velocity to the weights, on OpenBLAS's threads. No
weight-sized gradient is ever held; the biases update in NumPy. Every
sigmoid runs over row blocks of about 256 KB (``_row_blocks``), so each
block is read from memory once and passed over in cache. Products with a
transposed weight matrix are formed as (W @ X.T).T, which OpenBLAS runs
faster than X @ W.T.

The model is float32 from training to scoring: each weight matrix is
drawn into one float32 array, and that array is trained, saved, loaded
and scored with. Only the input standardization is float64.

- ``pretrain_dbn`` draws each layer's weights into a float32 ``RbmState``
  a row block at a time, and ``train_rbm`` advances it in place. While a
  layer trains, the live arrays are one activation matrix (its input), its
  state (weights, momentum buffers and the batch-sized stacks each CD step
  works in) and the parameters of the layers below. ``train_rbm`` releases
  the momentum buffers and stacks before the next layer's activations are
  built. A layer no wider than its input writes its activations over that
  input, a row block at a time (``_next_activations``), so only a wider
  layer's activations are ever built next to its input.
- ``pretrain_dbn`` returns a ``Dbn`` of the states' weights and hidden
  biases (the visible biases serve CD only and are dropped), a float32
  head and the float64 standardization. ``fine_tune`` updates those same
  arrays in place, next to one velocity per parameter, and returns the
  model.
- ``save_model`` writes a ``DBN2`` file: the layers and the head as
  float32, the standardization as float64. ``load_model`` refuses the
  float64 ``DBN1`` files of earlier versions and asks for the train stage
  to be run again.
- ``forward`` z-scores in float64, casts the rows to float32 once, runs
  the layers and the head in float32 and takes the softmax in float64, so
  each row of probabilities sums to 1 to float64 rounding.

A model that ``fine_tune`` or ``load_model`` returns is never written
again, so it is safe for concurrent read-only inference. ``hidden_probs``
and ``visible_recon`` take an ``RbmState`` and float32 rows, and neither
cast nor check them.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import _blas
from ._files import atomic_open
from .config import TrainConfig

GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"

N_LABELS = 7

# bytes of each array that one row block of the sigmoid and the weight draw covers
_BLOCK_BYTES = 1 << 18

# the last byte is the format version; DBN1 held every array in float64
_MODEL_MAGIC = b"DBN2"


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


class Layer(NamedTuple):
    """One sigmoid layer of a Dbn: float32 weights (inputs, units) and hidden bias."""

    weights: np.ndarray
    hidden_bias: np.ndarray


@dataclass
class Dbn:
    """Float32 sigmoid layers and softmax head, and the float64 input standardization.

    ``rbms`` lists the layers, input side first, as ``Layer``s; each was
    pretrained as an RBM. ``input_mean``/``input_std`` hold the
    per-dimension z-score parameters fitted on training features. The
    layers and the head must be float32 arrays and are taken over as they
    are, so ``fine_tune`` trains the model's own arrays; the
    standardization is cast to float64. The layers, the head and the
    standardization must be finite and every ``input_std`` entry positive,
    so a model can never score every input as NaN.
    """

    rbms: list[Layer]
    softmax_weights: np.ndarray
    softmax_bias: np.ndarray
    input_mean: np.ndarray
    input_std: np.ndarray

    def __post_init__(self) -> None:
        if not self.rbms:
            raise ValueError("a Dbn needs at least one layer")
        for i, (w, c) in enumerate(self.rbms):
            if w.ndim != 2 or c.shape != (w.shape[1],):
                raise ValueError(f"layer {i} has inconsistent parameter shapes")
            if i and w.shape[0] != self.rbms[i - 1].weights.shape[1]:
                raise ValueError("adjacent layer sizes do not chain")
            if not (np.isfinite(w).all() and np.isfinite(c).all()):
                raise ValueError(f"layer {i} parameters must be finite")
        top = self.rbms[-1].weights.shape[1]
        if self.softmax_weights.shape != (top, self.softmax_bias.shape[0]):
            raise ValueError("softmax head does not match the top layer")
        if not (np.isfinite(self.softmax_weights).all() and np.isfinite(self.softmax_bias).all()):
            raise ValueError("softmax head must be finite")
        for name in ("input_mean", "input_std"):
            val = np.asarray(getattr(self, name), dtype=np.float64)
            if val.shape != (self.n_inputs,):
                raise ValueError(f"{name} must have one entry per input dimension")
            if not np.isfinite(val).all():
                raise ValueError(f"{name} must be finite")
            setattr(self, name, val)
        if not (self.input_std > 0).all():
            raise ValueError("input_std must be positive")

    @property
    def n_inputs(self) -> int:
        return self.rbms[0].weights.shape[0]

    @property
    def n_labels(self) -> int:
        return self.softmax_bias.shape[0]


class RbmState:
    """One RBM's mutable float32 training arrays, advanced in place by cd_update.

    Holds the parameters, their momentum buffers and the two stacks that
    the scaled CD statistic is one GEMM over, all float32. The GEMM writes
    the statistic into the weights' momentum buffer, so a warm training
    step allocates no weight-sized array. The step's batch, p0 and pk are
    computed into the stacks too (see ``cd_update``). The stacks start
    empty and grow to twice the largest batch seen. The float32 parameter
    arrays are taken over as they are, so the state trains them in place.
    ``train_rbm`` sets the momentum and stack buffers to None once its
    epochs are done: only the parameters live on. The next layer's
    activations are built from them, and the weights and hidden bias
    become a ``Layer`` of the model ``pretrain_dbn`` returns.
    """

    def __init__(self, weights, visible_bias, hidden_bias, visible_kind: str = BERNOULLI) -> None:
        self.visible_kind = visible_kind
        self.weights = weights
        self.visible_bias = visible_bias
        self.hidden_bias = hidden_bias
        self.velocity_weights = np.zeros_like(self.weights)
        self.velocity_visible_bias = np.zeros_like(self.visible_bias)
        self.velocity_hidden_bias = np.zeros_like(self.hidden_bias)
        self.stack_visible = np.empty((0, self.n_visible), dtype=np.float32)
        self.stack_hidden = np.empty((0, self.n_hidden), dtype=np.float32)

    @property
    def n_visible(self) -> int:
        return self.weights.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.weights.shape[1]


def _row_blocks(*arrays: np.ndarray):
    """Matching row slices of arrays with one row count, about _BLOCK_BYTES of the first."""
    first = arrays[0]
    step = max(1, _BLOCK_BYTES * len(first) // max(1, first.nbytes))
    for start in range(0, len(first), step):
        yield tuple(a[start : start + step] for a in arrays)


def hidden_probs(state: RbmState, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """P(h_j = 1 | v) = sigmoid(hidden_bias + v @ W) for float32 rows ``v``, in float32.

    Written into ``out`` where one is given: a C-order float32 array of the
    result's shape that does not overlap ``v``.
    """
    pre = np.matmul(v, state.weights, out=out)
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
    """One CD-k parameter update on a minibatch of rows, applied to ``state`` in place.

    Positive statistics come from (v0, hidden_probs(v0)). The chain draws
    hidden states as Bernoulli samples; visible reconstructions use
    probabilities for statistics and samples to continue the chain
    (Gaussian visibles use the mean throughout, with no sampling noise).
    The weight step lr*((v0'p0 - vk'pk)/B - decay*W) is taken in this
    order, all in OpenBLAS (``_blas``): one GEMM [v0; vk]' [(lr/B)*p0;
    -(lr/B)*pk] over the state's stacks, added to momentum * velocity in
    the velocity itself, then velocity += (-lr*decay)*W and W += velocity,
    two axpy calls. The biases take lr times their mean statistic into
    their momentum buffers. Returns the mean squared error between v0 and
    the first reconstruction.

    The step works in the stacks: the batch is cast into the visible
    stack's first half, and p0 and pk are computed straight into the two
    halves of the hidden one, which are then scaled in place for the GEMM.
    The hidden-bias statistic p0 - pk goes through the last hidden sample's
    buffer, and the visible-bias statistic and the error come from one
    C-order difference v0 - vk (v0 - v1 for the error when k > 1).
    """
    n = len(batch)
    lr = (
        cfg.learning_rate_pretrain_gaussian
        if state.visible_kind == GAUSSIAN
        else cfg.learning_rate_pretrain
    )
    if state.stack_visible.shape[0] < 2 * n:
        state.stack_visible = np.empty((2 * n, state.n_visible), dtype=np.float32)
        state.stack_hidden = np.empty((2 * n, state.n_hidden), dtype=np.float32)
    stack_v, stack_h = state.stack_visible[: 2 * n], state.stack_hidden[: 2 * n]
    v0, p0, pk = stack_v[:n], stack_h[:n], stack_h[n:]
    v0[...] = batch

    hidden_probs(state, v0, out=p0)
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
    hidden_probs(state, v_stat, out=pk)
    stack_v[n:] = v_stat

    state.velocity_hidden_bias *= cfg.momentum
    state.velocity_hidden_bias += lr * np.subtract(p0, pk, out=h).mean(axis=0)
    diff = v0 - stack_v[n:]
    state.velocity_visible_bias *= cfg.momentum
    state.velocity_visible_bias += lr * diff.mean(axis=0)
    if v1 is not v_stat:
        np.subtract(v0, v1, out=diff)
    err = float(np.mean(np.square(diff, out=diff)))

    p0 *= lr / n
    pk *= -lr / n
    _blas.gemm(stack_v, stack_h, 1.0, cfg.momentum, state.velocity_weights)
    _blas.axpy(-lr * cfg.weight_decay, state.weights, state.velocity_weights)
    _blas.axpy(1.0, state.velocity_weights, state.weights)
    state.visible_bias += state.velocity_visible_bias
    state.hidden_bias += state.velocity_hidden_bias
    return err


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

    Returns ``state``, its parameters trained and its momentum and stack
    buffers set to None: nothing trains it by CD again, and at 1000x2000
    the weights' momentum buffer holds 8 MB that the next layer's
    activations and state would otherwise be built next to.
    """
    for _ in range(cfg.epochs_pretrain):
        for idx in _minibatches(data.shape[0], cfg.batch_size, rng):
            cd_update(state, data[idx], cfg, rng)
    state.velocity_weights = state.velocity_visible_bias = state.velocity_hidden_bias = None
    state.stack_visible = state.stack_hidden = None
    return state


def fit_standardization(train_features):
    """Per-dimension mean and population std of training feature vectors.

    Dimensions with zero spread get std clamped to 1 (with a warning) so
    z-scoring maps them to exactly 0.
    """
    x = np.asarray(train_features, dtype=np.float64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    flat = std == 0.0
    if flat.any():
        warnings.warn(
            f"{int(flat.sum())} feature dimension(s) are constant; clamping their std to 1"
        )
        std = np.where(flat, 1.0, std)
    return mean, std


def _standardized(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Float32 z-scores of float64 rows ``x``: (x - mean) / std in float64, cast once.

    The one expression pretraining, fine-tuning and ``forward`` all
    standardize with, so each sees the same first-layer inputs to the bit.
    """
    return ((x - mean) / std).astype(np.float32)


def _next_activations(state: RbmState, v: np.ndarray) -> np.ndarray:
    """``hidden_probs(state, v)`` for C-order rows ``v``, written over ``v`` where it fits.

    Where the layer is no wider than its input, each block of about
    _BLOCK_BYTES of input rows (``_row_blocks``) goes through one
    ``hidden_probs`` call, and its output rows are copied into the flat
    prefix of ``v``'s buffer: output row r ends before input row r does,
    so it only overwrites rows already consumed. The result is a view of
    that buffer and ``v`` is spent. A wider layer gets a new array.

    OpenBLAS's SkylakeX kernels give the blocks the bits of one product
    over all rows. Its Haswell kernels round a product by its row count,
    so there the blocks differ from it by up to about 10 float32 eps.
    """
    n, n_hid = v.shape[0], state.n_hidden
    if n_hid > v.shape[1]:
        return hidden_probs(state, v)
    out = v.reshape(-1)[: n * n_hid].reshape(n, n_hid)
    for rows, out_rows in _row_blocks(v, out):
        out_rows[...] = hidden_probs(state, rows)
    return out


def pretrain_dbn(data, hidden_sizes, cfg: TrainConfig, seed: int) -> Dbn:
    """Greedy layerwise pretraining on raw feature vectors.

    Fits the z-score on ``data``, stores it in the returned Dbn and
    pretrains on the standardized rows. ``hidden_sizes`` lists each hidden
    width, e.g. the paper's (1000, 1000, 2000); the input width is that of
    ``data``. Each RBM is trained on the deterministic hidden probabilities
    of the one below it; the softmax head over N_LABELS classes is randomly
    initialized (seeded normal, sd 0.01). ``seed`` fixes every draw.
    Everything stays float32: the rows are z-scored and cast once
    (``_standardized``), each layer's weights are drawn into its RbmState
    (``_init_state``), and ``train_rbm`` returns that state with only its
    parameters left, which give the next layer its activations. While a
    layer trains, its input activations, its state and the parameters
    below it are alive. A layer no wider than its input computes its
    activations over that input's buffer (``_next_activations``), so the
    paper's 1000-1000 pair holds one activation matrix, not two; a wider
    layer's activations are a new array. The head is drawn in float64 and
    cast, as the weights are. The returned model holds each state's
    weights and hidden bias, and ``fine_tune`` trains these arrays in place.
    """
    data = np.asarray(data, dtype=np.float64)
    sizes = [data.shape[1], *hidden_sizes]
    mean, std = fit_standardization(data)

    rng = np.random.default_rng(seed)
    states: list[RbmState] = []
    activations = _standardized(data, mean, std)
    for i, (n_vis, n_hid) in enumerate(zip(sizes[:-1], sizes[1:])):
        kind = GAUSSIAN if i == 0 else BERNOULLI
        states.append(train_rbm(_init_state(n_vis, n_hid, kind, rng), activations, cfg, rng))
        if i + 2 < len(sizes):
            activations = _next_activations(states[-1], activations)

    head = (0.01 * rng.standard_normal((sizes[-1], N_LABELS))).astype(np.float32)
    return Dbn([Layer(s.weights, s.hidden_bias) for s in states], head,
               np.zeros(N_LABELS, dtype=np.float32), mean, std)


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
    """Float64 class probabilities for raw (unstandardized) input rows, or for one 1-D row.

    A deterministic mean-field pass. The rows are z-scored in float64 and
    cast to float32 once; the sigmoid layers and the head run in float32,
    and the softmax of the logits, with max-subtraction, in float64, so each
    row sums to 1 to float64 rounding. Each layer's activations are dropped
    once the next layer's are built, so at most two are alive at a time;
    the logits are those of ``_forward_activations`` on the cast rows, to
    the bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != dbn.n_inputs:
        raise ValueError(f"input rows have {x.shape[-1]} entries, want {dbn.n_inputs}")
    act = _standardized(x, dbn.input_mean, dbn.input_std)
    for w, c in dbn.rbms:
        act = act @ w
        act += c
        _sigmoid_inplace(act)
    logits = act @ dbn.softmax_weights
    logits += dbn.softmax_bias
    return np.exp(_log_softmax(logits.astype(np.float64)))


def _fine_tune_step(layers, head, velocities, z: np.ndarray, labels: np.ndarray, step: float,
                    momentum: float) -> None:
    """One momentum SGD step on the mean cross-entropy of standardized rows ``z``, in place.

    ``layers`` lists each sigmoid layer's (W, hidden bias) and ``head`` is
    the softmax (W, bias); ``velocities`` holds one (weight, bias) velocity
    pair per layer and a last one for the head. Each parameter p with
    gradient g takes v = momentum*v - step*g, then p += v. ``step``/n is
    folded into the logits' gradient, and the gradients are backpropagated
    from the head down. Each weight's velocity is one GEMM (``_blas.gemm``,
    alpha -1, beta momentum) and one axpy adds it to the weights, after
    those weights have given the layer below its backward delta, so every
    gradient is that of the parameters the step started from. The biases
    take the same update in NumPy. The sigmoid derivative a(1 - a) takes
    1 - a in a's own buffer, which nothing reads after that delta.
    """
    activations, logits = _forward_activations(layers, head, z)
    n = z.shape[0]
    dz = np.exp(_log_softmax(logits))
    dz[np.arange(n), labels] -= 1.0
    dz *= step / n
    # the head, then each layer from the top; activations[i] is the input of each
    for i in range(len(layers), -1, -1):
        w, bias = head if i == len(layers) else layers[i]
        velocity_w, velocity_bias = velocities[i]
        _blas.gemm(activations[i], dz, -1.0, momentum, velocity_w)
        velocity_bias *= momentum
        velocity_bias -= dz.sum(axis=0)
        bias += velocity_bias
        if i:
            act = activations[i]
            # (W @ X.T).T rather than X @ W.T: faster (see the module docstring)
            dz = (w @ dz.T).T * act
            dz *= np.subtract(1.0, act, out=act)
        _blas.axpy(1.0, velocity_w, w)


def fine_tune(model: Dbn, data, labels, cfg: TrainConfig, seed: int) -> Dbn:
    """Supervised fine-tuning of a pretrained model: momentum SGD on mean cross-entropy.

    ``data`` holds raw feature vectors; ``labels`` are integer class
    indices; ``seed`` fixes the minibatch order. The rows are z-scored and
    cast to float32 once, before the first epoch (``_standardized``);
    ``data`` itself is not written. The loop trains ``model``'s float32
    arrays in place: each layer's weights and hidden bias and the head.
    Next to them it allocates one velocity per parameter, so two float32
    copies of each weight matrix are alive. Each step
    (``_fine_tune_step``) writes every weight gradient, scaled by the
    learning rate, straight into its velocity and allocates no
    weight-sized array. The velocities are released, and the model is
    returned once its parameters are checked to be finite.
    """
    x = _standardized(np.asarray(data, dtype=np.float64), model.input_mean, model.input_std)
    y = np.asarray(labels, dtype=np.int64)

    layers = model.rbms
    head = (model.softmax_weights, model.softmax_bias)
    velocities = [(np.zeros_like(w), np.zeros_like(c)) for w, c in (*layers, head)]

    rng = np.random.default_rng(seed)
    for _ in range(cfg.epochs_finetune):
        for idx in _minibatches(x.shape[0], cfg.batch_size, rng):
            _fine_tune_step(layers, head, velocities, x[idx], y[idx],
                            cfg.learning_rate_finetune, cfg.momentum)
    # release the velocities before the check below, so its temporaries
    # are not built next to them
    velocities = None
    # a new Dbn of the same arrays: its validation checks training left them finite
    return replace(model)


def save_model(dbn: Dbn, path) -> None:
    """Write a Dbn as a DBN2 file; load_model reproduces every parameter bit-exactly.

    Little-endian: the magic, the layer and label counts (``<II``), then
    each layer's input and unit counts (``<QQ``), float32 weights and
    hidden bias, then the float32 head weights and bias and the float64
    input mean and std. Each array is written from its own buffer: no copy
    of the 12 MB a paper-width model takes.
    """
    parts = [_MODEL_MAGIC, struct.pack("<II", len(dbn.rbms), dbn.n_labels)]
    for w, c in dbn.rbms:
        parts += [struct.pack("<QQ", *w.shape), np.ascontiguousarray(w, dtype="<f4"),
                  np.ascontiguousarray(c, dtype="<f4")]
    parts += [np.ascontiguousarray(dbn.softmax_weights, dtype="<f4"),
              np.ascontiguousarray(dbn.softmax_bias, dtype="<f4"),
              np.ascontiguousarray(dbn.input_mean, dtype="<f8"),
              np.ascontiguousarray(dbn.input_std, dtype="<f8")]
    with atomic_open(path, "wb") as fh:
        fh.writelines(parts)


def load_model(path) -> Dbn:
    """Read a model written by save_model.

    Each array is read from the file straight into its own buffer, so the
    model is held once, not also as the file's bytes. Every length the file
    declares is checked against the file's size before its array is
    allocated: a truncated or corrupt file raises ModelFormatError. So do
    a label count other than N_LABELS and a file of another format version,
    such as the float64 DBN1 files of earlier versions; the train stage
    writes a new one.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(12)
        if header[:4] != _MODEL_MAGIC:
            if header[:3] != _MODEL_MAGIC[:3]:
                raise ModelFormatError(f"{path}: bad model magic")
            raise ModelFormatError(
                f"{path}: unsupported model version {header[3:4].decode(errors='replace')!r}, "
                f"this version reads {_MODEL_MAGIC.decode()} files; run the train stage again")
        if len(header) < 12:
            raise ModelFormatError(f"{path}: truncated model header")
        n_layers, n_labels = struct.unpack_from("<II", header, 4)
        if not n_layers or n_labels != N_LABELS:
            raise ModelFormatError(f"{path}: model has no layers or not {N_LABELS} labels")

        def read(count: int, dtype: str) -> np.ndarray:
            out_type = np.dtype(dtype)
            if count * out_type.itemsize > size - fh.tell():
                raise ModelFormatError(f"{path}: truncated model file")
            out = np.empty(count, dtype=out_type)
            if fh.readinto(out) != out.nbytes:  # the file shrank while being read
                raise ModelFormatError(f"{path}: truncated model file")
            return out

        layers = []
        for _ in range(n_layers):
            layer_header = fh.read(16)
            if len(layer_header) < 16:
                raise ModelFormatError(f"{path}: truncated model file")
            rows, cols = struct.unpack("<QQ", layer_header)
            layers.append(Layer(read(rows * cols, "<f4").reshape(rows, cols), read(cols, "<f4")))
        top, n_input = layers[-1].weights.shape[1], layers[0].weights.shape[0]
        softmax_weights = read(top * n_labels, "<f4").reshape(top, n_labels)
        softmax_bias = read(n_labels, "<f4")
        mean = read(n_input, "<f8")
        std = read(n_input, "<f8")
        if fh.tell() != size:
            raise ModelFormatError(f"{path}: {size - fh.tell()} bytes after the model")
    return Dbn(layers, softmax_weights, softmax_bias, input_mean=mean, input_std=std)
