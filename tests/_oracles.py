"""Independent reference computations the tests check the library against.

Everything here is deliberately brute force (matrix DFT, exhaustive state
enumeration, central finite differences) and shares no code with the
implementations it verifies. The sigmoid, CD and fine-tuning references
compute in the dtype of the arrays they are given, so they check the
float32 trainer when given float32 arrays; the pretraining reference
chains them in float32. The evaluation reference is the
exception: it checks the spectral-domain mixing of ``pipeline.evaluate``
against the time-domain path, so it is built from ``mix_at_snr``, ``mfcc``,
``segment_features`` and ``forward``, which other tests verify.
"""

import math
from pathlib import Path

import numpy as np

from emonoise.audio import mix_at_snr, read_wav
from emonoise.dbn import N_LABELS, forward
from emonoise.dsp import mfcc, segment_features
from emonoise.pipeline import noise_offset_for


def reference_resample(x, source, target, ns):
    """Outputs ``ns`` of the windowed-sinc resampling of ``x`` from source to target Hz.

    One output at a time: its exact source position q + r/up from
    divmod(n*down, up), then a plain sum of x[k] times a Hann window and a
    sinc over every k within half the kernel width (32 zero crossings over
    the cutoff), x[k] = 0 outside the clip.
    """
    x = np.asarray(x, dtype=np.float64)
    g = math.gcd(source, target)
    up, down = target // g, source // g
    cutoff = min(1.0, target / source)
    half_width = 32.0 / cutoff
    out = np.zeros(len(ns))
    for i, n in enumerate(ns):
        q, r = divmod(n * down, up)
        frac = r / up
        for k in range(q + math.ceil(frac - half_width), q + math.floor(frac + half_width) + 1):
            if not 0 <= k < x.size:
                continue
            delta = (q - k) + frac
            u = math.pi * cutoff * delta
            sinc = 1.0 if u == 0.0 else math.sin(u) / u
            window = 0.5 * (1.0 + math.cos(math.pi * delta / half_width))
            out[i] += x[k] * cutoff * sinc * window
    return out


def reference_noise_window(noise, length, offset):
    """The noise window by gather: sample i is noise.samples[(offset + i) % len(noise)]."""
    idx = (offset + np.arange(length)) % len(noise)
    return noise.samples[idx]


def naive_dft(x):
    """O(N^2) discrete Fourier transform, e^{-2*pi*i*k*n/N} convention."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    return x @ np.exp(-2j * np.pi * np.outer(k, k) / n).T


def reference_frame_spectra(samples, cfg):
    """Complex rfft of each frame, built frame by frame on a copy.

    Copies the frames out of the signal, pre-emphasizes each one in place
    (its first sample kept), multiplies by the Hamming window and lets
    ``np.fft.rfft`` zero-pad to ``fft_size``.
    """
    x = np.asarray(samples, dtype=np.float64)
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.frame_len)[:: cfg.hop].copy()
    frames[:, 1:] -= cfg.preemph * frames[:, :-1]
    n = cfg.frame_len
    if n > 1:
        window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    else:
        window = np.ones(1)
    return np.fft.rfft(frames * window, n=cfg.fft_size)


def binary_states(n):
    """All 2^n binary vectors as a (2^n, n) float array, LSB first."""
    return ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(np.float64)


def rbm_joint_unnormalized(weights, visible_bias, hidden_bias):
    """exp(-E(v, h)) for every joint state of a Bernoulli RBM.

    Returns (V, H, table) where table[i, j] = exp(-E(V[i], H[j])) with
    E(v, h) = -b.v - c.h - v.W.h.
    """
    n_vis, n_hid = weights.shape
    v_states = binary_states(n_vis)
    h_states = binary_states(n_hid)
    energy = -(
        (v_states @ visible_bias)[:, None]
        + (h_states @ hidden_bias)[None, :]
        + v_states @ weights @ h_states.T
    )
    return v_states, h_states, np.exp(-energy)


def rbm_loglik_grad(weights, visible_bias, hidden_bias, data):
    """Exact gradient of the mean data log-likelihood of a Bernoulli RBM.

    Data term uses the analytic conditional p(h|v); the model term is an
    exhaustive expectation over all joint states.
    """
    data = np.asarray(data, dtype=np.float64)
    p_h = 1.0 / (1.0 + np.exp(-(data @ weights + hidden_bias)))
    data_w = data.T @ p_h / data.shape[0]
    data_b = data.mean(axis=0)
    data_c = p_h.mean(axis=0)

    v_states, h_states, table = rbm_joint_unnormalized(weights, visible_bias, hidden_bias)
    joint = table / table.sum()
    model_w = v_states.T @ joint @ h_states
    model_b = joint.sum(axis=1) @ v_states
    model_c = joint.sum(axis=0) @ h_states
    return data_w - model_w, data_b - model_b, data_c - model_c


def central_difference(fn, array, epsilon=1e-5):
    """Central finite-difference gradient of fn w.r.t. every array entry."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        original = array[ix]
        array[ix] = original + epsilon
        hi = fn()
        array[ix] = original - epsilon
        lo = fn()
        array[ix] = original
        grad[ix] = (hi - lo) / (2.0 * epsilon)
        it.iternext()
    return grad


def reference_sigmoid(x):
    """Two-branch logistic: 1/(1+e^-x) where x >= 0, e^x/(1+e^x) elsewhere."""
    x = np.asarray(x)
    with np.errstate(over="ignore", invalid="ignore"):
        from_pos = 1.0 / (1.0 + np.exp(-x))
        ex = np.exp(x)
        from_neg = ex / (1.0 + ex)
    return np.where(x >= 0, from_pos, from_neg)


def reference_cd_update(params, velocity, gaussian, batch, cfg, rng):
    """One CD-k step that allocates every intermediate and returns new arrays.

    ``params`` is (W, visible bias, hidden bias); ``velocity`` is the same
    triple of momentum buffers, updated in place. Returns the new params and
    the mean squared error of the first reconstruction. Computes in the dtype
    of W; samples are drawn as float64 uniforms whatever that dtype.
    """
    w, b, c = params
    v0 = np.atleast_2d(np.asarray(batch, dtype=w.dtype))
    n = v0.shape[0]
    lr = cfg.learning_rate_pretrain_gaussian if gaussian else cfg.learning_rate_pretrain

    def up(v):
        return reference_sigmoid(v @ w + c)

    def down(h):
        pre = h @ w.T + b
        return pre if gaussian else reference_sigmoid(pre)

    def sample(p):
        return (rng.random(p.shape) < p).astype(p.dtype)

    p0 = up(v0)
    h = sample(p0)
    for step in range(cfg.cd_steps):
        v_stat = down(h)
        if step == 0:
            v1 = v_stat
        if step + 1 < cfg.cd_steps:
            h = sample(up(v_stat if gaussian else sample(v_stat)))
    pk = up(v_stat)

    # the scaled statistic is one product over the stacked positive and
    # negative phases, then momentum, the statistic and the decay, in turn
    grad = np.vstack([v0, v_stat]).T @ np.vstack([p0 * (lr / n), pk * (-lr / n)])
    vw, vb, vc = velocity
    vw *= cfg.momentum
    vw += grad
    vw -= w * (lr * cfg.weight_decay)
    vb *= cfg.momentum
    vb += lr * (v0 - v_stat).mean(axis=0)
    vc *= cfg.momentum
    vc += lr * (p0 - pk).mean(axis=0)
    return (w + vw, b + vb, c + vc), float(np.mean(np.square(v0 - v1)))


def _reference_batches(n, batch_size, rng):
    order = rng.permutation(n)
    return [order[start : start + batch_size] for start in range(0, n, batch_size)]


def reference_train_rbm(params, gaussian, data, cfg, rng):
    """epochs_pretrain epochs of reference_cd_update over shuffled minibatches."""
    velocity = tuple(np.zeros_like(p) for p in params)
    for _ in range(cfg.epochs_pretrain):
        for idx in _reference_batches(data.shape[0], cfg.batch_size, rng):
            params, _ = reference_cd_update(params, velocity, gaussian, data[idx], cfg, rng)
    return params


def reference_pretrain_dbn(data, hidden_sizes, cfg, seed):
    """Greedy layerwise pretraining built from reference_train_rbm, in float32.

    One default_rng(seed) is drawn from in order: each layer's weights
    (normal, sd 0.01, drawn in float64 and cast to float32), that layer's
    reference_train_rbm on the float32 activations, and last the float64
    head (normal, sd 0.01). The first layer is Gaussian and sees the
    z-scored data; each later one sees reference_sigmoid(act @ W + c) of
    the layer below. ``data`` must have no constant column. Returns
    ([(W, visible bias, hidden bias), ...], head weights).
    """
    x = np.asarray(data, dtype=np.float64)
    act = ((x - x.mean(axis=0)) / x.std(axis=0)).astype(np.float32)
    rng = np.random.default_rng(seed)
    sizes = [x.shape[1], *hidden_sizes]
    layers = []
    for i, (n_vis, n_hid) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = (0.01 * rng.standard_normal((n_vis, n_hid))).astype(np.float32)
        params = (w, np.zeros(n_vis, dtype=np.float32), np.zeros(n_hid, dtype=np.float32))
        w, b, c = reference_train_rbm(params, i == 0, act, cfg, rng)
        layers.append((w, b, c))
        act = reference_sigmoid(act @ w + c)
    return layers, 0.01 * rng.standard_normal((sizes[-1], N_LABELS))


def reference_finetune_grads(layers, head, mean, std, x, labels, step):
    """Mean cross-entropy gradients of the unrolled sigmoid net and softmax head, times ``step``.

    ``layers`` is a list of (W, hidden bias); ``head`` is (W, bias). The
    rows are z-scored in the dtype of ``x``, ``mean`` and ``std`` and then
    cast to that of the head. The logits' gradient is scaled by step/n, so
    every gradient carries the step. Returns ([(dW, dc), ...], (dW_head,
    db_head)).
    """
    activations = [((x - mean) / std).astype(head[0].dtype)]
    for w, c in layers:
        activations.append(reference_sigmoid(activations[-1] @ w + c))
    logits = activations[-1] @ head[0] + head[1]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    n = x.shape[0]
    d_logits = np.exp(log_probs)
    d_logits[np.arange(n), labels] -= 1.0
    d_logits *= step / n

    d_head = (activations[-1].T @ d_logits, d_logits.sum(axis=0))
    d_layers = []
    delta = d_logits @ head[0].T
    for i in range(len(layers) - 1, -1, -1):
        act = activations[i + 1]
        dz = delta * act * (1.0 - act)
        d_layers.append((activations[i].T @ dz, dz.sum(axis=0)))
        if i:
            delta = dz @ layers[i][0].T
    d_layers.reverse()
    return d_layers, d_head


def reference_fine_tune(layers, head, mean, std, x, labels, cfg, seed):
    """Momentum SGD on reference_finetune_grads at step lr, new arrays at every step.

    Returns (layers, head) after epochs_finetune epochs.
    """
    layers = list(layers)
    vel_layers = [(np.zeros_like(w), np.zeros_like(c)) for w, c in layers]
    vel_head = (np.zeros_like(head[0]), np.zeros_like(head[1]))
    rng = np.random.default_rng(seed)
    lr = cfg.learning_rate_finetune
    for _ in range(cfg.epochs_finetune):
        for idx in _reference_batches(x.shape[0], cfg.batch_size, rng):
            d_layers, d_head = reference_finetune_grads(
                layers, head, mean, std, x[idx], labels[idx], lr
            )
            for i, ((w, c), (vw, vc), (dw, dc)) in enumerate(
                zip(layers, vel_layers, d_layers)
            ):
                vw *= cfg.momentum
                vw -= dw
                vc *= cfg.momentum
                vc -= dc
                layers[i] = (w + vw, c + vc)
            vw, vb = vel_head
            vw *= cfg.momentum
            vw -= d_head[0]
            vb *= cfg.momentum
            vb -= d_head[1]
            head = (head[0] + vw, head[1] + vb)
    return layers, head


def reference_forward(model, x):
    """Class probabilities in float64 throughout: the model's float32 parameters
    upcast, reference_sigmoid layers and a plain softmax."""
    act = (np.asarray(x, dtype=np.float64) - model.input_mean) / model.input_std
    for w, c in model.rbms:
        act = reference_sigmoid(act @ w.astype(np.float64) + c.astype(np.float64))
    logits = act @ model.softmax_weights.astype(np.float64) + model.softmax_bias
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_condition_segments(config, clip, name, noises):
    """Segment vectors of one utterance under every condition, one array each.

    Clean first, then each category in ``noises`` order at every SNR in
    ascending order; each noisy condition is its own time-domain mixture.
    """
    out = [segment_features(mfcc(clip, config.mfcc), config.segment)]
    for noise in noises.values():
        offset = noise_offset_for(config.seed, name, len(noise))
        for snr_db in sorted(config.snrs_db):
            mixed = mix_at_snr(clip, noise, snr_db, offset)
            out.append(segment_features(mfcc(mixed, config.mfcc), config.segment))
    return out


def reference_evaluate(model, entries, config, noises):
    """Per-condition confusions and segment accuracies, one ``forward`` call per condition.

    The entries' WAVs must be at the pipeline rate. Returns (confusions of
    shape (conditions, 7, 7), [segment accuracy per condition]); each
    utterance's label is the most frequent segment label, ties to the lowest.
    """
    confusions = hits = totals = None
    for entry in entries:
        clip = read_wav(entry.path)
        assert clip.sample_rate_hz == config.sample_rate_hz
        per_condition = reference_condition_segments(config, clip, Path(entry.path).name, noises)
        if confusions is None:
            confusions = np.zeros((len(per_condition), N_LABELS, N_LABELS), dtype=np.int64)
            hits, totals = [0] * len(per_condition), [0] * len(per_condition)
        for i, segments in enumerate(per_condition):
            preds = np.argmax(forward(model, segments), axis=-1)
            hits[i] += int(np.sum(preds == int(entry.label)))
            totals[i] += preds.size
            vote = int(np.argmax(np.bincount(preds, minlength=N_LABELS)))
            confusions[i, int(entry.label), vote] += 1
    return confusions, [h / t for h, t in zip(hits, totals)]
