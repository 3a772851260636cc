import copy
import ctypes
import inspect
import math
import os
import struct
import tracemalloc
import weakref
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    binary_states,
    central_difference,
    rbm_loglik_grad,
    reference_cd_update,
    reference_fine_tune,
    reference_pretrain_dbn,
    reference_sigmoid,
    reference_train_rbm,
)
from emonoise import _blas
from emonoise import dbn as dbn_module
from emonoise.config import RunConfig
from emonoise.dbn import (
    BERNOULLI,
    GAUSSIAN,
    Dbn,
    Layer,
    ModelFormatError,
    RbmState,
    TrainConfig,
    _forward_activations,
    _log_softmax,
    _fine_tune_step,
    _standardized,
    cd_update,
    fine_tune,
    fit_standardization,
    forward,
    hidden_probs,
    load_model,
    pretrain_dbn,
    save_model,
    train_rbm,
    visible_recon,
)


class RbmParams(NamedTuple):
    """An RBM's float64 parameters, which the tests build float32 training states from."""

    weights: np.ndarray
    visible_bias: np.ndarray
    hidden_bias: np.ndarray
    visible_kind: str = BERNOULLI


def random_rbm(n_vis, n_hid, kind=BERNOULLI, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    return RbmParams(
        weights=scale * rng.standard_normal((n_vis, n_hid)),
        visible_bias=scale * rng.standard_normal(n_vis),
        hidden_bias=scale * rng.standard_normal(n_hid),
        visible_kind=kind,
    )


def zero_rbm(n_vis, n_hid, kind=BERNOULLI):
    return RbmParams(np.zeros((n_vis, n_hid)), np.zeros(n_vis), np.zeros(n_hid), visible_kind=kind)


def f32_ones(n):
    return np.ones(n, dtype=np.float32)


def state_of(rbm):
    """A float32 training copy of ``rbm``; its float64 arrays are cast, never shared."""
    f32 = np.float32
    return RbmState(rbm.weights.astype(f32), rbm.visible_bias.astype(f32),
                    rbm.hidden_bias.astype(f32), rbm.visible_kind)


def training_copy(dbn):
    """A copy of ``dbn`` for fine_tune to train in place, leaving ``dbn`` as it was."""
    return copy.deepcopy(dbn)


class TestHiddenProbs:
    def test_zero_parameters_give_half(self):
        np.testing.assert_array_equal(hidden_probs(state_of(zero_rbm(3, 4)), f32_ones(3)),
                                      np.full(4, 0.5))

    def test_one_by_one(self):
        state = state_of(RbmParams(np.array([[1.0]]), np.zeros(1), np.zeros(1)))
        got = hidden_probs(state, f32_ones(1))
        assert got.dtype == np.float32
        assert got[0] == reference_sigmoid(np.float32(1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hidden_probs(state_of(zero_rbm(3, 4)), f32_ones(5))

    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_sigmoid_symmetry(self, x):
        pos, neg = dbn_module._sigmoid_inplace(np.array([x, -x]))
        assert neg == pytest.approx(1.0 - pos, abs=1e-12)

    def test_batch_shape(self):
        out = hidden_probs(state_of(zero_rbm(3, 4)), np.zeros((5, 3), dtype=np.float32))
        assert out.shape == (5, 4)

    # the sigmoid runs in its input's dtype; training and forward pass float32.
    # exp(-745) is subnormal and exp(-746) is 0 in float64; exp(-88.7) and
    # exp(-104) in float32
    @pytest.mark.parametrize("dtype, magnitudes, seed", [
        (np.float64, [0.0, 5e-324, 709.78, 710.0, 745.0, 746.0, 1e308, np.inf], 0),
        (np.float32, [0.0, np.finfo(np.float32).smallest_subnormal,
                      3 * np.finfo(np.float32).smallest_subnormal, 88.7, 104.0, np.inf], 1),
    ], ids=["float64", "float32"])
    def test_sigmoid_matches_two_branch_reference(self, dtype, magnitudes, seed):
        x = np.array([sign * m for m in magnitudes for sign in (1.0, -1.0)] + [np.nan])
        x = np.concatenate([x, np.random.default_rng(seed).standard_normal(1000) * 40.0])
        x = x.astype(dtype)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = dbn_module._sigmoid_inplace(x.copy())
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, reference_sigmoid(x))

    # 300x700 spans 4 row blocks in float32 and 7 in float64, the last one
    # ragged; the column-major copy is how visible_recon returns a batch
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_over_row_blocks_matches_reference(self, dtype, order):
        x = np.random.default_rng(2).standard_normal((300, 700)) * 40.0
        x[5, :3] = [np.inf, -np.inf, np.nan]
        x = np.asarray(x, dtype=dtype, order=order)
        want = reference_sigmoid(x)
        got = x.copy(order="K")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            tracemalloc.start()
            try:
                dbn_module._sigmoid_inplace(got)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(got, want)
        # one block of scratch (whole rows, at most _BLOCK_BYTES) plus the
        # iteration buffers numpy allocates for strided views, 8192 elements
        # per operand; a scratch the size of x would take 840 KB or 1.7 MB
        assert peak < 2 * dbn_module._BLOCK_BYTES


class TestVisibleRecon:
    def test_zero_parameters_bernoulli(self):
        np.testing.assert_array_equal(visible_recon(state_of(zero_rbm(3, 4)), f32_ones(4)),
                                      np.full(3, 0.5))

    def test_zero_parameters_gaussian(self):
        np.testing.assert_array_equal(
            visible_recon(state_of(zero_rbm(3, 4, GAUSSIAN)), f32_ones(4)), np.zeros(3)
        )

    def test_gaussian_linear_map(self):
        rbm = RbmParams(np.array([[1.0], [2.0]]), np.zeros(2), np.zeros(1), visible_kind=GAUSSIAN)
        got = visible_recon(state_of(rbm), f32_ones(1))
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, [1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            visible_recon(state_of(zero_rbm(3, 4)), f32_ones(3))


def rbm_params(rbm):
    return rbm.weights, rbm.visible_bias, rbm.hidden_bias


def as_f32(arrays):
    """The float32 casts training starts from."""
    return tuple(np.asarray(a, dtype=np.float32) for a in arrays)


def rounded(a):
    """``a`` after the float32 round trip an untrained parameter makes."""
    return np.asarray(a).astype(np.float32).astype(np.float64)


def assert_params_equal(rbm, params):
    for got, want in zip(rbm_params(rbm), params):
        np.testing.assert_array_equal(got, want)


EPS32 = float(np.finfo(np.float32).eps)

# The fused CD update takes the decay in an axpy, which OpenBLAS runs as a
# fused multiply-add, and GEMM adds the statistic to momentum * velocity
# without rounding the statistic first, so CD-trained parameters are no
# longer bit-identical to the allocating reference. On OpenBLAS's Haswell
# and SkylakeX kernels, at one and two threads, they differ by at most
# 1.2 eps * (1 + |reference|).
CD_TOL = 2 * EPS32


def openblas_corename():
    """The kernel set OpenBLAS chose for this CPU, such as "SkylakeX"; None where none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for lib in libs:
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(lib), name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def assert_close(got, want, tol):
    """|got - want| <= tol * (1 + |want|) elementwise: ``tol`` relative, and absolute near 0."""
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


# fine-tuning's tolerance on a net with a 300x700 layer, where rounding
# differences compound over more products than at 4-3-3-3
FINE_TUNE_TOL = 128 * EPS32


def assert_params_close(rbm, params, tol=CD_TOL):
    for got, want in zip(rbm_params(rbm), params):
        assert_close(got, want, tol)


class TestCdUpdate:
    def test_zero_learning_rate_changes_nothing(self):
        rbm = random_rbm(4, 3, seed=1)
        cfg = TrainConfig(learning_rate_pretrain=0.0, learning_rate_pretrain_gaussian=0.0,
                          weight_decay=0.0)
        state = state_of(rbm)
        cd_update(state, binary_states(4)[:5], cfg, np.random.default_rng(0))
        assert_params_equal(state, as_f32(rbm_params(rbm)))
        assert not state.velocity_weights.any() and not state.velocity_hidden_bias.any()

    def test_repeated_call_is_bit_identical(self):
        rbm = random_rbm(4, 3, seed=2)
        batch = binary_states(4)[3:9]
        cfg = TrainConfig()
        a, b = state_of(rbm), state_of(rbm)
        ea = cd_update(a, batch, cfg, np.random.default_rng(7))
        eb = cd_update(b, batch, cfg, np.random.default_rng(7))
        assert ea == eb
        assert_params_equal(a, rbm_params(b))

    def test_reconstruction_error_decreases_on_repeated_pattern(self):
        rbm = random_rbm(3, 2, seed=11, scale=0.1)
        pattern = np.tile([1.0, 0.0, 1.0], (8, 1))
        cfg = TrainConfig(learning_rate_pretrain=0.2, momentum=0.5, weight_decay=0.0)
        rng = np.random.default_rng(13)
        state = state_of(rbm)
        errors = [cd_update(state, pattern, cfg, rng) for _ in range(50)]
        assert np.mean(errors[-10:]) < np.mean(errors[:10])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cd_update(state_of(zero_rbm(3, 2)), np.zeros((4, 5)), TrainConfig(),
                      np.random.default_rng(0))

    def test_cd1_direction_correlates_with_exact_gradient(self):
        # expected CD-1 step (lr 1, no momentum/decay) vs the enumerated
        # log-likelihood gradient on a fixed small instance
        rbm = random_rbm(3, 3, seed=21, scale=0.7)
        data = np.array([[1, 0, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.float64)
        cfg = TrainConfig(learning_rate_pretrain=1.0, momentum=0.0, weight_decay=0.0)
        acc_w = np.zeros_like(rbm.weights)
        acc_b = np.zeros_like(rbm.visible_bias)
        acc_c = np.zeros_like(rbm.hidden_bias)
        n_chains = 10_000
        for i in range(n_chains):
            state = state_of(rbm)
            cd_update(state, data, cfg, np.random.default_rng(1000 + i))
            acc_w += state.weights - rbm.weights
            acc_b += state.visible_bias - rbm.visible_bias
            acc_c += state.hidden_bias - rbm.hidden_bias
        grad_w, grad_b, grad_c = rbm_loglik_grad(
            rbm.weights, rbm.visible_bias, rbm.hidden_bias, data
        )
        assert np.all(np.isfinite(grad_w))
        inner = (
            np.vdot(acc_w / n_chains, grad_w)
            + np.vdot(acc_b / n_chains, grad_b)
            + np.vdot(acc_c / n_chains, grad_c)
        )
        assert inner > 0.0

    # 300x700 float32 weights span several of the update's 256 KB row blocks,
    # the last one ragged; 6x5 fits in one
    @pytest.mark.parametrize("kind, shape", [
        (GAUSSIAN, (6, 5)), (BERNOULLI, (6, 5)), (GAUSSIAN, (300, 700)), (BERNOULLI, (300, 700)),
    ], ids=["gaussian", "bernoulli", "gaussian-300x700", "bernoulli-300x700"])
    @pytest.mark.parametrize("cd_steps", [1, 2])
    def test_matches_allocating_reference(self, kind, shape, cd_steps):
        n_vis = shape[0]
        rbm = random_rbm(*shape, kind=kind, seed=31, scale=0.4)
        rng = np.random.default_rng(32)
        data = rng.random((9, n_vis)) if kind == BERNOULLI else rng.standard_normal((9, n_vis))
        cfg = TrainConfig(cd_steps=cd_steps, learning_rate_pretrain=0.3,
                          learning_rate_pretrain_gaussian=0.05)
        state = state_of(rbm)
        params = as_f32(rbm_params(rbm))
        velocity = tuple(np.zeros_like(p) for p in params)
        rng_new, rng_ref = np.random.default_rng(33), np.random.default_rng(33)
        for step in range(4):
            batch = data[2 * step : 2 * step + 3]
            err = cd_update(state, batch, cfg, rng_new)
            params, want_err = reference_cd_update(
                params, velocity, kind == GAUSSIAN, batch.astype(np.float32), cfg, rng_ref
            )
            assert err == pytest.approx(want_err, rel=CD_TOL, abs=0)
            assert_params_close(state, params)
            for got, want in zip((state.velocity_weights, state.velocity_visible_bias,
                                  state.velocity_hidden_bias), velocity):
                assert_close(got, want, CD_TOL)


    def test_warm_step_allocates_less_than_one_weight_matrix(self):
        # at the default batch of 64 the stacks are reused after the first
        # call, and p0, pk and the batch itself live in them; the float64
        # draw of the hidden sample is the largest temporary
        cfg = TrainConfig()
        state = state_of(random_rbm(300, 400, seed=34, scale=0.01))
        batch = np.random.default_rng(35).random((cfg.batch_size, 300))
        rng = np.random.default_rng(36)
        cd_update(state, batch, cfg, rng)
        stacks = state.stack_visible, state.stack_hidden
        tracemalloc.start()
        try:
            cd_update(state, batch, cfg, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.weights.nbytes
        # a smaller batch works in the same stacks
        cd_update(state, batch[:9], cfg, rng)
        assert state.stack_visible is stacks[0] and state.stack_hidden is stacks[1]

    @pytest.mark.parametrize("kind", [GAUSSIAN, BERNOULLI])
    def test_without_openblas_matches_openblas(self, kind, monkeypatch):
        # where _blas finds no OpenBLAS, the update runs in NumPy: the same
        # steps, with the statistic and the decay each rounded on its own
        rbm = random_rbm(300, 700, kind=kind, seed=37, scale=0.1)
        data = np.random.default_rng(38).random((12, 300))
        cfg = TrainConfig(learning_rate_pretrain=0.3, learning_rate_pretrain_gaussian=0.05)
        states = []
        for blas in (_blas._openblas(), None):
            monkeypatch.setattr(_blas, "_openblas", lambda blas=blas: blas)
            state, rng = state_of(rbm), np.random.default_rng(39)
            for step in range(3):
                cd_update(state, data[4 * step : 4 * step + 4], cfg, rng)
            states.append(state)
        with_blas, numpy_body = states
        assert_params_close(with_blas, rbm_params(numpy_body))
        assert_close(with_blas.velocity_weights, numpy_body.velocity_weights, CD_TOL)


class TestTrainRbm:
    @pytest.mark.parametrize("kind", [GAUSSIAN, BERNOULLI])
    def test_ragged_last_minibatch_matches_reference(self, kind):
        rbm = random_rbm(5, 7, kind=kind, seed=41, scale=0.3)
        data = np.random.default_rng(42).random((10, 5))
        cfg = TrainConfig(epochs_pretrain=3, batch_size=4, cd_steps=2)
        state = state_of(rbm)
        layer = train_rbm(state, data, cfg, np.random.default_rng(43))
        want = reference_train_rbm(as_f32(rbm_params(rbm)), kind == GAUSSIAN,
                                   data.astype(np.float32), cfg, np.random.default_rng(43))
        # the returned Layer is the state's own trained arrays, not a copy
        assert isinstance(layer, Layer)
        assert layer.weights is state.weights and layer.hidden_bias is state.hidden_bias
        assert state.visible_kind == kind
        assert_params_close(state, want)

    def test_calls_module_cd_update_once_per_minibatch(self, monkeypatch):
        # perfbench/tracing.py times CD steps by wrapping the module-global name
        calls = []
        real = dbn_module.cd_update

        def counting(*args, **kwargs):
            calls.append(args[1].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(dbn_module, "cd_update", counting)
        n, cfg = 10, TrainConfig(epochs_pretrain=3, batch_size=4)
        train_rbm(state_of(random_rbm(5, 3)), np.zeros((n, 5)), cfg, np.random.default_rng(0))
        assert len(calls) == cfg.epochs_pretrain * math.ceil(n / cfg.batch_size)
        assert calls == [4, 4, 2] * cfg.epochs_pretrain

    def test_signatures_the_tracer_reads(self):
        assert list(inspect.signature(train_rbm).parameters) == ["state", "data", "cfg", "rng",
                                                                 "below"]
        assert list(inspect.signature(fine_tune).parameters) == ["model", "data", "labels", "cfg",
                                                                 "seed"]


def small_dbn(seed=5, n_in=4, hidden=(3, 3, 3), n_labels=7, scale=0.6):
    """A model of float32 parameters drawn in float64, and a float64 standardization."""
    rng = np.random.default_rng(seed)
    f32 = np.float32
    sizes = [n_in, *hidden]
    layers = []
    for nv, nh in zip(sizes[:-1], sizes[1:]):
        weights = scale * rng.standard_normal((nv, nh))
        rng.standard_normal(nv)  # a visible bias, which the model does not keep
        layers.append(Layer(weights.astype(f32), (scale * rng.standard_normal(nh)).astype(f32)))
    return Dbn(
        rbms=layers,
        softmax_weights=(scale * rng.standard_normal((sizes[-1], n_labels))).astype(f32),
        softmax_bias=(scale * rng.standard_normal(n_labels)).astype(f32),
        input_mean=0.1 * rng.standard_normal(n_in),
        input_std=np.full(n_in, 1.3),
    )


class TestPretrain:
    def test_paper_topology_shapes(self):
        data = np.random.default_rng(0).standard_normal((20, 13))
        cfg = TrainConfig(epochs_pretrain=0)
        model = pretrain_dbn(data, [1000, 1000, 2000], cfg, seed=1)
        shapes = [r.weights.shape for r in model.rbms]
        assert shapes == [(13, 1000), (1000, 1000), (1000, 2000)]
        assert model.softmax_weights.shape == (2000, 7)

    def test_zero_epochs_retains_seeded_initialization(self):
        # the 300x700 layer is drawn over 4 row blocks, the last one ragged;
        # its values and the stream after it are those of one draw
        data = np.random.default_rng(0).standard_normal((10, 13))
        cfg = TrainConfig(epochs_pretrain=0)
        model = pretrain_dbn(data, [8, 300, 700], cfg, seed=99)
        replay = np.random.default_rng(99)
        for rbm, (nv, nh) in zip(model.rbms, [(13, 8), (8, 300), (300, 700)], strict=True):
            assert rbm.weights.dtype == np.float32
            np.testing.assert_array_equal(
                rbm.weights, rounded(0.01 * replay.standard_normal((nv, nh)))
            )
            assert not rbm.hidden_bias.any()
        np.testing.assert_array_equal(
            model.softmax_weights, rounded(0.01 * replay.standard_normal((700, 7)))
        )
        mean, std = fit_standardization(data)
        np.testing.assert_array_equal(model.input_mean, mean)
        np.testing.assert_array_equal(model.input_std, std)

    def test_same_seed_same_parameters(self):
        data = np.random.default_rng(4).standard_normal((30, 5))
        cfg = TrainConfig(epochs_pretrain=3, batch_size=8)
        a = pretrain_dbn(data, [6, 6, 8], cfg, seed=12)
        b = pretrain_dbn(data, [6, 6, 8], cfg, seed=12)
        for ra, rb in zip(a.rbms, b.rbms):
            np.testing.assert_array_equal(ra.weights, rb.weights)
            np.testing.assert_array_equal(ra.hidden_bias, rb.hidden_bias)
        np.testing.assert_array_equal(a.softmax_weights, b.softmax_weights)

    def test_matches_stack_reference(self):
        data = np.random.default_rng(7).standard_normal((30, 5))
        cfg = TrainConfig(epochs_pretrain=2, batch_size=8, cd_steps=2, learning_rate_pretrain=0.3,
                          learning_rate_pretrain_gaussian=0.05)
        model = pretrain_dbn(data, [6, 4, 8], cfg, seed=8)
        layers, head = reference_pretrain_dbn(data, [6, 4, 8], cfg, seed=8)
        # the model keeps each layer's weights and hidden bias; CD alone reads the visible bias
        for layer, (w, _, c) in zip(model.rbms, layers, strict=True):
            assert_close(layer.weights, w, CD_TOL)
            assert_close(layer.hidden_bias, c, CD_TOL)
        np.testing.assert_array_equal(model.softmax_weights, rounded(head))
        assert not model.softmax_bias.any()
        mean, std = fit_standardization(data)
        np.testing.assert_array_equal(model.input_mean, mean)
        np.testing.assert_array_equal(model.input_std, std)

    def test_empty_hidden_sizes_rejected(self):
        # train_model passes the hidden sizes of a RunConfig, which refuses an empty list
        with pytest.raises(ValueError, match="hidden_sizes must be a nonempty list"):
            RunConfig(hidden_sizes=())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaves_data_unchanged(self, dtype):
        # np.asarray hands back the caller's own array when its dtype already matches
        data = np.random.default_rng(9).standard_normal((20, 5)).astype(dtype)
        before = data.copy()
        pretrain_dbn(data, [6, 4], TrainConfig(epochs_pretrain=1, batch_size=8), seed=10)
        np.testing.assert_array_equal(data, before)

    # rows chosen so the last minibatch of 64 is ragged
    @pytest.mark.parametrize("n_vis, n_hid, n", [
        (1000, 1000, 200), (512, 256, 300), (300, 299, 500), (64, 1, 2100), (13, 1000, 5100),
    ])
    def test_next_activations_match_hidden_probs(self, n_vis, n_hid, n, monkeypatch):
        # the activations the next layer trains on are its minibatches'
        # rows of hidden_probs over all rows, carried up by train_rbm
        cfg = TrainConfig(epochs_pretrain=1, batch_size=64)
        assert n > cfg.batch_size and n % cfg.batch_size
        state = state_of(random_rbm(n_vis, n_hid, seed=n_vis + n_hid, scale=0.1))
        v = np.random.default_rng(n).random((n, n_vis), dtype=np.float32)
        whole = hidden_probs(state, v.copy())
        orders, batches = [], []

        def ordered(n, batch_size, rng, _real=dbn_module._minibatches):
            for idx in _real(n, batch_size, rng):
                orders.append(idx)
                yield idx

        monkeypatch.setattr(dbn_module, "_minibatches", ordered)
        monkeypatch.setattr(dbn_module, "cd_update",
                            lambda state, batch, *args: batches.append(batch.copy()))
        upper = state_of(random_rbm(n_hid, 2, seed=n))
        train_rbm(upper, v, cfg, np.random.default_rng(0), [state])
        assert len(batches) == len(orders) == -(-n // cfg.batch_size)
        assert sorted(np.concatenate(orders)) == list(range(n))
        # OpenBLAS's SkylakeX kernels give a minibatch the bits of one whole
        # product; its Haswell kernels round them differently, by up to 10.5
        # eps measured
        tol = 0.0 if openblas_corename() == "SkylakeX" else 32 * EPS32
        for idx, batch in zip(orders, batches):
            assert batch.dtype == np.float32 and batch.shape == (len(idx), n_hid)
            assert_close(batch, whole[idx], tol)

    def test_upper_layers_train_on_batches_carried_up_from_z(self, monkeypatch):
        # 13-64-64-32 on 100 rows at batch 32: the last batch of each epoch
        # has 4 rows. Every layer's CD batch is its rows of z carried up
        # through the trained layers below, with no activation matrix built
        data = np.random.default_rng(63).standard_normal((100, 13))
        cfg = TrainConfig(epochs_pretrain=2, batch_size=32)
        orders, batches = [], []  # appended to in step: one order per CD call

        def ordered(n, batch_size, rng, _real=dbn_module._minibatches):
            for idx in _real(n, batch_size, rng):
                orders.append(idx)
                yield idx

        def recorded(state, batch, *args, _real=dbn_module.cd_update):
            batches.append((state.weights, batch.copy()))
            return _real(state, batch, *args)

        monkeypatch.setattr(dbn_module, "_minibatches", ordered)
        monkeypatch.setattr(dbn_module, "cd_update", recorded)
        model = pretrain_dbn(data, [64, 64, 32], cfg, seed=64)
        assert len(batches) == len(orders) == 3 * cfg.epochs_pretrain * 4
        assert [len(b) for _, b in batches[-4:]] == [32, 32, 32, 4]
        # the kernels that round a product by its row count allow the
        # tolerance measured on them, up to 10.5 eps
        tol = 0.0 if openblas_corename() == "SkylakeX" else 32 * EPS32
        below = _standardized(data, *fit_standardization(data))
        for layer in model.rbms:
            seen = [(idx, batch) for idx, (w, batch) in zip(orders, batches) if w is layer.weights]
            assert len(seen) == 4 * cfg.epochs_pretrain
            for idx, batch in seen:
                assert batch.dtype == np.float32
                assert_close(batch, below[idx], tol)
            below = hidden_probs(layer, below)


class TestForward:
    def test_zero_head_is_uniform(self):
        model = small_dbn()
        model.softmax_weights = np.zeros_like(model.softmax_weights)
        model.softmax_bias = np.zeros_like(model.softmax_bias)
        np.testing.assert_allclose(forward(model, np.zeros(4)), np.full(7, 1 / 7), atol=1e-15)

    def test_probabilities_sum_to_one(self):
        model = small_dbn(seed=8)
        x = np.random.default_rng(1).standard_normal((20, 4))
        probs = forward(model, x)
        assert probs.shape == (20, 7)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_logit_shift_invariance(self):
        model = small_dbn(seed=9)
        x = np.random.default_rng(2).standard_normal(4)
        base = forward(model, x)
        model.softmax_bias = model.softmax_bias + np.float32(37.5)
        # the shifted float32 bias is rounded to float32's spacing at 37.5, 4e-6
        np.testing.assert_allclose(forward(model, x), base, rtol=0, atol=1e-5)

    def test_unset_standardization_rejected(self):
        model = small_dbn()
        with pytest.raises(ValueError, match="input_mean"):
            Dbn(model.rbms, model.softmax_weights, model.softmax_bias,
                input_mean=None, input_std=model.input_std)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forward(small_dbn(), np.zeros(5))

    def test_matches_training_forward_pass(self):
        model = small_dbn(seed=10, n_in=13, hidden=(40, 30, 50))
        x = np.random.default_rng(4).standard_normal((60, 13))
        z = ((x - model.input_mean) / model.input_std).astype(np.float32)
        _, logits = _forward_activations(model.rbms, (model.softmax_weights, model.softmax_bias),
                                         z)
        assert logits.dtype == np.float32
        np.testing.assert_array_equal(forward(model, x),
                                      np.exp(_log_softmax(logits.astype(np.float64))))

    def test_one_row_matches_row_zero_of_a_batch(self):
        model = small_dbn(seed=12, n_in=13, hidden=(40, 30, 50))
        x = np.random.default_rng(6).standard_normal((60, 13))
        probs = forward(model, x[0])
        assert probs.shape == (7,)
        # one row runs as a float32 matrix-vector product, which may sum in
        # another order than the batch's GEMM: the rows differ by about 1e-8
        np.testing.assert_allclose(probs, forward(model, x)[0], rtol=0, atol=1e-6)

    def test_holds_two_activations_at_a_time(self):
        # a pass that kept all four hidden layers alive, as backpropagation
        # needs, would peak near five of these float32 blocks with the sigmoid scratch
        model = small_dbn(seed=11, n_in=13, hidden=(200, 200, 200, 200))
        x = np.random.default_rng(5).standard_normal((400, 13))
        block = x.shape[0] * 200 * 4
        tracemalloc.start()
        try:
            forward(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * block


class TestFineTune:
    def test_zero_epochs_is_identity(self):
        model = small_dbn(seed=14)
        x = np.random.default_rng(3).standard_normal((10, 4))
        y = np.arange(10) % 7
        tuned = fine_tune(training_copy(model), x, y, TrainConfig(epochs_finetune=0), seed=0)
        for before, after in zip(model.rbms, tuned.rbms):
            np.testing.assert_array_equal(before.weights, after.weights)
        np.testing.assert_array_equal(model.softmax_weights, tuned.softmax_weights)
        np.testing.assert_array_equal(model.softmax_bias, tuned.softmax_bias)

    def test_gradients_match_finite_differences(self):
        # in float64, where central differences at 1e-5 are accurate: a step
        # computes in the dtype of the parameters it is given, and _blas runs
        # float64 operands through its NumPy body. With momentum 0 and step 1,
        # each velocity after one step is minus its parameter's gradient
        model = small_dbn(seed=15)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((12, 4))
        y = rng.integers(0, 7, size=12)
        layers = [Layer(w.astype(np.float64), c.astype(np.float64)) for w, c in model.rbms]
        head = (model.softmax_weights.astype(np.float64), model.softmax_bias.astype(np.float64))
        z = (x - model.input_mean) / model.input_std

        def loss():
            _, logits = _forward_activations(layers, head, z)
            return -float(np.mean(_log_softmax(logits)[np.arange(12), y]))

        stepped = copy.deepcopy((layers, head))
        velocities = [(np.zeros_like(w), np.zeros_like(c)) for w, c in (*layers, head)]
        _fine_tune_step(*stepped, velocities, z, y, 1.0, 0.0)
        checks = [(p, -v) for pair, vel in zip((*layers, head), velocities, strict=True)
                  for p, v in zip(pair, vel)]
        for array, analytic in checks:
            numeric = central_difference(loss, array, epsilon=1e-5)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_training_reduces_cross_entropy(self):
        rng = np.random.default_rng(17)
        centers = 4.0 * rng.standard_normal((7, 4))
        x = np.vstack([centers[k] + 0.3 * rng.standard_normal((12, 4)) for k in range(7)])
        y = np.repeat(np.arange(7), 12)
        model = small_dbn(seed=18, scale=0.1)
        model.input_mean = x.mean(axis=0)
        model.input_std = x.std(axis=0)

        def mean_ce(m):
            probs = forward(m, x)
            return -float(np.mean(np.log(probs[np.arange(len(y)), y])))

        after_one = fine_tune(training_copy(model), x, y,
                              TrainConfig(epochs_finetune=1, batch_size=16), seed=3)
        after_fifty = fine_tune(training_copy(model), x, y,
                                TrainConfig(epochs_finetune=50, batch_size=16), seed=3)
        assert mean_ce(after_fifty) < mean_ce(after_one)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaves_data_unchanged(self, dtype):
        # np.asarray hands back the caller's own array when its dtype already matches
        data = np.random.default_rng(27).standard_normal((20, 4)).astype(dtype)
        before = data.copy()
        fine_tune(training_copy(small_dbn(seed=28)), data, np.arange(20) % 7,
                  TrainConfig(epochs_finetune=2, batch_size=8), seed=29)
        np.testing.assert_array_equal(data, before)

    # GEMM adds each gradient to momentum * velocity without rounding the
    # gradient first; over this test's 12 steps at learning rate 0.5 those
    # one-rounding differences grow to at most 0.6 eps * (1 + |reference|)
    # at 4-3-3-3 and 85 at 4-300-700 on OpenBLAS's Haswell and SkylakeX
    # kernels, at one and two threads
    @pytest.mark.parametrize("hidden, tol", [((3, 3, 3), EPS32), ((300, 700), FINE_TUNE_TOL)],
                             ids=["4-3-3-3", "4-300-700"])
    def test_matches_allocating_reference(self, hidden, tol):
        model = small_dbn(seed=24, scale=0.5, hidden=hidden)
        rng = np.random.default_rng(25)
        x = rng.standard_normal((23, 4))
        y = rng.integers(0, 7, size=23)
        def params(m):
            return [p for layer in m.rbms for p in layer] + [m.softmax_weights, m.softmax_bias]

        cfg = TrainConfig(epochs_finetune=4, batch_size=8, learning_rate_finetune=0.5)
        state = training_copy(model)
        tuned = fine_tune(state, x, y, cfg, seed=26)
        layers, head = reference_fine_tune(
            [as_f32((r.weights, r.hidden_bias)) for r in model.rbms],
            as_f32((model.softmax_weights, model.softmax_bias)),
            model.input_mean, model.input_std, x, y, cfg, 26,
        )
        assert isinstance(tuned, Dbn)
        for rbm, (w, c) in zip(tuned.rbms, layers, strict=True):
            assert_close(rbm.weights, w, tol)
            assert_close(rbm.hidden_bias, c, tol)
        assert_close(tuned.softmax_weights, head[0], tol)
        assert_close(tuned.softmax_bias, head[1], tol)
        # the given model's own arrays were trained, and are returned with no copy
        for a, b in zip(params(state), params(tuned), strict=True):
            assert a.dtype == np.float32 and a is b

    def test_without_openblas_matches_openblas(self, monkeypatch):
        model = small_dbn(seed=64, scale=0.5, hidden=(300, 700))
        rng = np.random.default_rng(65)
        x = rng.standard_normal((23, 4))
        y = rng.integers(0, 7, size=23)
        cfg = TrainConfig(epochs_finetune=4, batch_size=8, learning_rate_finetune=0.5)
        with_blas = fine_tune(training_copy(model), x, y, cfg, seed=66)
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
        numpy_body = fine_tune(training_copy(model), x, y, cfg, seed=66)
        for got, want in zip(with_blas.rbms, numpy_body.rbms, strict=True):
            assert_close(got.weights, want.weights, FINE_TUNE_TOL)
            assert_close(got.hidden_bias, want.hidden_bias, FINE_TUNE_TOL)
        assert_close(with_blas.softmax_weights, numpy_body.softmax_weights, FINE_TUNE_TOL)
        assert_close(with_blas.softmax_bias, numpy_body.softmax_bias, FINE_TUNE_TOL)

    def test_warm_step_allocates_less_than_one_weight_matrix(self):
        # each weight gradient is written into its velocity by GEMM; a small
        # batch keeps the batch-sized temporaries well below one weight matrix
        model = small_dbn(seed=67, n_in=13, hidden=(300, 400), scale=0.05)
        layers, head = model.rbms, (model.softmax_weights, model.softmax_bias)
        velocities = [(np.zeros_like(w), np.zeros_like(c)) for w, c in (*layers, head)]
        z = np.random.default_rng(68).standard_normal((16, 13)).astype(np.float32)
        y = np.arange(16) % 7
        _fine_tune_step(layers, head, velocities, z, y, 0.1, 0.9)
        tracemalloc.start()
        try:
            _fine_tune_step(layers, head, velocities, z[:9], y[:9], 0.1, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < layers[1].weights.nbytes

    def test_same_seed_same_result(self):
        model = small_dbn(seed=22)
        x = np.random.default_rng(23).standard_normal((30, 4))
        y = np.arange(30) % 7
        cfg = TrainConfig(epochs_finetune=5, batch_size=8)
        a = fine_tune(training_copy(model), x, y, cfg, seed=6)
        b = fine_tune(training_copy(model), x, y, cfg, seed=6)
        np.testing.assert_array_equal(a.softmax_weights, b.softmax_weights)
        for ra, rb in zip(a.rbms, b.rbms):
            np.testing.assert_array_equal(ra.weights, rb.weights)


class TestPredict:
    def prob_model(self, bias):
        model = small_dbn(seed=30, n_in=2, hidden=(3,))
        model.softmax_weights = np.zeros_like(model.softmax_weights)
        model.softmax_bias = np.asarray(bias, dtype=np.float32)
        return model

    def test_picks_most_probable(self):
        probs = np.array([0.1, 0.4, 0.1, 0.1, 0.1, 0.1, 0.1])
        model = self.prob_model(np.log(probs))
        x = np.array([0.3, -0.2])
        # the log-probabilities are rounded to float32 as the head's bias
        np.testing.assert_allclose(forward(model, x), probs, rtol=1e-6)
        assert np.argmax(forward(model, x)) == 1

    def test_tie_breaks_to_lowest_index(self):
        model = self.prob_model([0.0, 0.0, 5.0, 0.0, 0.0, 5.0, 0.0])
        assert np.argmax(forward(model, np.array([0.3, -0.2]))) == 2

    def test_all_uniform_gives_label_zero(self):
        model = self.prob_model(np.zeros(7))
        assert np.argmax(forward(model, np.array([0.3, -0.2]))) == 0

    @given(st.lists(st.integers(-8, 8), min_size=2, max_size=7))
    @settings(max_examples=100, deadline=None)
    def test_argmax_invariant_under_monotone_transforms(self, logits):
        z = np.array(logits, dtype=np.float64)
        base = np.argmax(z)
        shifted = z - z.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        assert np.argmax(probs) == base
        for transform in (lambda v: 2.0 * v, lambda v: v + 3.0, lambda v: v**3):
            assert np.argmax(transform(z)) == base


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = small_dbn(seed=40)
        path = tmp_path / "model.dbn"
        save_model(model, path)
        loaded = load_model(path)
        assert len(loaded.rbms) == len(model.rbms)
        for a, b in zip(model.rbms, loaded.rbms):
            assert b.weights.dtype == b.hidden_bias.dtype == np.float32
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.hidden_bias, b.hidden_bias)
        assert loaded.input_mean.dtype == loaded.input_std.dtype == np.float64
        np.testing.assert_array_equal(model.softmax_weights, loaded.softmax_weights)
        np.testing.assert_array_equal(model.softmax_bias, loaded.softmax_bias)
        np.testing.assert_array_equal(model.input_mean, loaded.input_mean)
        np.testing.assert_array_equal(model.input_std, loaded.input_std)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dbn"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        # a DBN1 header: the float64 format of earlier versions, version 1, one layer
        path = tmp_path / "v1.dbn"
        path.write_bytes(b"DBN1" + struct.pack("<II", 1, 1) + b"\x00" * 64)
        with pytest.raises(ModelFormatError,
                           match="unsupported model version '1'.*run the train stage again"):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda blob: blob + b"\x00", "1 bytes after the model"),
        (lambda blob: blob[:8] + struct.pack("<I", 0) + blob[12:], "no layers or not 7 labels"),
        (lambda blob: blob[:8] + struct.pack("<I", 9) + blob[12:], "no layers or not 7 labels"),
    ], ids=["trailing_byte", "no_labels", "nine_labels"])
    def test_counts_that_do_not_match_the_file_rejected(self, tmp_path, edit, message):
        path = tmp_path / "model.dbn"
        save_model(small_dbn(seed=47), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = small_dbn(seed=41)
        path = tmp_path / "t.dbn"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    @pytest.mark.parametrize("name, index, value, message", [
        ("softmax_weights", (0, 0), np.nan, "softmax head must be finite"),
        ("softmax_bias", 3, np.inf, "softmax head must be finite"),
        ("input_mean", 1, np.nan, "input_mean must be finite"),
        ("input_std", 2, 0.0, "input_std must be positive"),
        ("input_std", 0, -1.0, "input_std must be positive"),
        ("input_std", 3, np.inf, "input_std must be finite"),
    ])
    def test_nonfinite_head_or_standardization_rejected(self, tmp_path, name, index, value,
                                                        message):
        # forward would score every row NaN, and argmax would label it 0
        model = small_dbn(seed=45)
        getattr(model, name)[index] = value
        path = tmp_path / "bad.dbn"
        save_model(model, path)
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_trained_model_round_trips_bit_exact(self, tmp_path):
        data = np.random.default_rng(46).standard_normal((24, 4))
        cfg = TrainConfig(epochs_pretrain=2, epochs_finetune=2, batch_size=8)
        model = fine_tune(pretrain_dbn(data, [5, 6], cfg, seed=47), data, np.arange(24) % 7,
                          cfg, seed=48)
        path = tmp_path / "trained.dbn"
        save_model(model, path)
        blob = path.read_bytes()
        save_model(load_model(path), path)
        assert path.read_bytes() == blob

    def test_file_holds_the_float32_arrays_training_produced(self, tmp_path):
        data = np.random.default_rng(61).standard_normal((24, 4))
        cfg = TrainConfig(epochs_pretrain=2, epochs_finetune=2, batch_size=8)
        model = fine_tune(pretrain_dbn(data, [5, 6], cfg, seed=62), data, np.arange(24) % 7,
                          cfg, seed=63)
        path = tmp_path / "trained.dbn"
        save_model(model, path)
        loaded = load_model(path)
        trained = [a for layer in model.rbms for a in layer] + [model.softmax_weights,
                                                                 model.softmax_bias]
        stored = [a for layer in loaded.rbms for a in layer] + [loaded.softmax_weights,
                                                                 loaded.softmax_bias]
        for want, got in zip(trained, stored, strict=True):
            assert want.dtype == got.dtype == np.float32
            assert want.tobytes() == got.tobytes()
        # 12-byte header, 16 per layer, 4 per parameter and 8 per standardization entry
        n_params = sum(a.size for a in trained)
        assert path.stat().st_size == 12 + 16 * 2 + 4 * n_params + 8 * 2 * 4

    def test_declared_size_beyond_the_file_rejected(self, tmp_path):
        # the first layer's row count is checked against the file before anything is allocated
        path = tmp_path / "huge.dbn"
        save_model(small_dbn(seed=42), path)
        blob = bytearray(path.read_bytes())
        blob[12:20] = (1 << 40).to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_load_holds_the_model_once(self, tmp_path):
        # each array is read into its own buffer; reading the whole file first doubles the peak
        model = small_dbn(seed=44, hidden=(300, 300))
        path = tmp_path / "model.dbn"
        save_model(model, path)
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (path.stat().st_size - 12)

    def test_save_copies_no_parameter(self, tmp_path):
        # the file is written from the arrays' own buffers; a paper-width model is 12 MB
        model = small_dbn(seed=49, hidden=(300, 300))
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "model.dbn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.rbms[1].weights.nbytes // 4

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.dbn"
        save_model(small_dbn(seed=43), path)
        before = path.read_bytes()

        def fail_replace(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError, match="no space"):
            save_model(small_dbn(seed=44), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.dbn"]


class TestFloat32Training:
    """Training state and the model are float32; the standardization is float64."""

    def test_state_is_float32(self):
        state = state_of(random_rbm(5, 4, seed=50))
        buffers = [state.weights, state.visible_bias, state.hidden_bias, state.velocity_weights,
                   state.velocity_visible_bias, state.velocity_hidden_bias,
                   state.stack_visible, state.stack_hidden]
        assert [b.dtype for b in buffers] == [np.float32] * len(buffers)
        # the CD statistic goes straight into the velocity: no weight-sized gradient buffer
        assert not hasattr(state, "grad")
        layer = train_rbm(state, np.random.default_rng(52).random((9, 5)),
                          TrainConfig(epochs_pretrain=2, batch_size=4),
                          np.random.default_rng(53))
        assert [a.dtype for a in layer] == [np.float32] * 2

    def test_train_rbm_keeps_no_state_alive(self):
        # the next layer's state and fine-tuning's velocities are built
        # without the trained state's momentum buffers and stacks
        state = state_of(random_rbm(5, 4, seed=51))
        ref = weakref.ref(state)
        layer = train_rbm(state, np.random.default_rng(52).random((9, 5)),
                          TrainConfig(epochs_pretrain=2, batch_size=4),
                          np.random.default_rng(53))
        del state
        assert ref() is None
        assert layer.weights.shape == (5, 4) and layer.hidden_bias.shape == (4,)

    def test_float32_arrays_are_taken_over(self):
        w, b, c = (np.zeros(shape, dtype=np.float32) for shape in ((3, 2), 3, 2))
        state = RbmState(w, b, c)
        assert state.weights is w and state.visible_bias is b and state.hidden_bias is c

    def test_pretrain_and_fine_tune_return_float32(self):
        data = np.random.default_rng(54).standard_normal((20, 4))
        cfg = TrainConfig(epochs_pretrain=2, epochs_finetune=2, batch_size=8)
        pretrained = pretrain_dbn(data, [5, 6], cfg, seed=55)
        arrays = [a for layer in pretrained.rbms for a in layer]
        arrays += [pretrained.softmax_weights, pretrained.softmax_bias]
        assert [a.dtype for a in arrays] == [np.float32] * len(arrays)
        # the standardization is fitted and kept in float64, never rounded
        mean, std = fit_standardization(data)
        np.testing.assert_array_equal(pretrained.input_mean, mean)
        np.testing.assert_array_equal(pretrained.input_std, std)

        tuned = fine_tune(pretrained, data, np.arange(20) % 7, cfg, seed=56)
        # fine-tuning trained the pretrained arrays in place
        tuned_arrays = [a for layer in tuned.rbms for a in layer]
        tuned_arrays += [tuned.softmax_weights, tuned.softmax_bias]
        assert all(a is b for a, b in zip(arrays, tuned_arrays, strict=True))
        np.testing.assert_array_equal(tuned.input_mean, mean)
        np.testing.assert_array_equal(tuned.input_std, std)
        assert forward(tuned, data).dtype == np.float64

    def test_training_holds_one_copy_of_each_weight_matrix(self):
        # 13-500-1000 at batch 16: the 500x1000 layer's float32 weights are
        # 2 MB over 8 row blocks, its input activations 1 MB. Training holds
        # the weights and their velocity; a weight-sized gradient buffer
        # would add 2 MB, drawing the weights in float64 4 MB, and so would
        # fine-tuning next to a float64 copy of the pretrained model
        n, widths = 512, [500, 1000]
        rng = np.random.default_rng(58)
        data = rng.standard_normal((n, 13))
        labels = np.arange(n) % 7
        cfg = TrainConfig(epochs_pretrain=1, epochs_finetune=1, batch_size=16)
        largest = widths[0] * widths[1] * 4
        activations = n * widths[0] * 4
        # minibatch-sized temporaries, the CD stacks and the input rows took 0.6 MB
        slack = 3 << 19
        tracemalloc.start()
        try:
            fine_tune(pretrain_dbn(data, widths, cfg, seed=59), data, labels, cfg, seed=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < activations + 2 * largest + slack

    def test_pretraining_holds_no_activation_matrix(self):
        # 13-256-256-16: each upper layer's minibatches are carried up from
        # the z-scored rows, so no 4 MB matrix of 4096x256 activations is
        # built. The peak took 1.3 MB: the 256x256 state, the z-scored input,
        # batch-sized activations and temporaries
        n, widths = 4096, [256, 256, 16]
        data = np.random.default_rng(61).standard_normal((n, 13))
        cfg = TrainConfig(epochs_pretrain=1, batch_size=32)
        activations = n * widths[0] * 4
        tracemalloc.start()
        try:
            pretrain_dbn(data, widths, cfg, seed=62)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < activations

    def test_models_take_float32_parameters_over_and_cast_the_standardization(self):
        model = small_dbn(seed=57)
        # float32 arrays are taken over as they are, so fine_tune trains the model's own
        taken = Dbn(model.rbms, model.softmax_weights, model.softmax_bias,
                    input_mean=model.input_mean.astype(np.float32),
                    input_std=model.input_std.astype(np.float32))
        assert taken.rbms[0].weights is model.rbms[0].weights
        assert taken.softmax_weights is model.softmax_weights
        assert taken.input_mean.dtype == taken.input_std.dtype == np.float64


class TestConfigValidation:
    def test_momentum_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate_finetune=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["learning_rate_pretrain", "learning_rate_pretrain_gaussian",
                                      "learning_rate_finetune", "weight_decay"])
    def test_nonfinite_rate_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_cd_steps_positive(self):
        with pytest.raises(ValueError):
            TrainConfig(cd_steps=0)

    def test_dbn_rejects_unchained_sizes(self):
        f32 = np.float32
        first = Layer(np.zeros((4, 3), f32), np.zeros(3, f32))
        second = Layer(np.zeros((5, 2), f32), np.zeros(2, f32))
        with pytest.raises(ValueError, match="do not chain"):
            Dbn([first, second], np.zeros((2, 7), f32), np.zeros(7, f32), np.zeros(4), np.ones(4))

    def test_dbn_rejects_nonfinite_layers(self):
        layer = (np.zeros((4, 3)), np.array([0.0, np.nan, 0.0]))
        with pytest.raises(ValueError, match="layer 0 parameters must be finite"):
            Dbn([layer], np.zeros((3, 7)), np.zeros(7), np.zeros(4), np.ones(4))
