import ctypes

import numpy as np
import pytest

from emonoise import _blas

EPS32 = float(np.finfo(np.float32).eps)


def operand(rng, shape, layout):
    """A float32 array of ``shape`` in C order, Fortran order, or as a strided view.

    The strided view is every other column of a wider array, a layout OpenBLAS
    is not handed, so it takes the NumPy body.
    """
    if layout == "strided":
        return rng.standard_normal((shape[0], 2 * shape[1])).astype(np.float32)[:, ::2]
    return np.asarray(rng.standard_normal(shape), dtype=np.float32, order=layout)


def gemm_bound(a, b, alpha, beta, c):
    """The float32 rounding bound of alpha * a.T @ b + beta * c over k products, elementwise."""
    k = a.shape[0]
    magnitude = abs(alpha) * (np.abs(a.T).astype(np.float64) @ np.abs(b)) + abs(beta) * np.abs(c)
    return (k + 2) * EPS32 * magnitude


class TestGemm:
    # 64 rows is a full minibatch stack; 23 a ragged last one, taken as the
    # first rows of the full stack as cd_update does
    @pytest.mark.parametrize("rows", [64, 23])
    @pytest.mark.parametrize("layout_c", ["C", "F"])
    @pytest.mark.parametrize("layout_b", ["C", "F", "strided"])
    @pytest.mark.parametrize("layout_a", ["C", "F", "strided"])
    def test_matches_numpy(self, layout_a, layout_b, layout_c, rows):
        rng = np.random.default_rng(1)
        a = operand(rng, (64, 30), layout_a)[:rows]
        b = operand(rng, (64, 70), layout_b)[:rows]
        c = operand(rng, (30, 70), layout_c)
        before = c.copy()
        want = -1.0 * (a.T.astype(np.float64) @ b) + 0.9 * before
        _blas.gemm(a, b, -1.0, 0.9, c)
        assert c.dtype == np.float32
        assert np.all(np.abs(c - want) <= gemm_bound(a, b, -1.0, 0.9, before))

    def test_float64_takes_the_numpy_body(self):
        rng = np.random.default_rng(2)
        a, b, c = (rng.standard_normal(shape) for shape in ((9, 4), (9, 5), (4, 5)))
        want = c * 0.5
        want += 2.0 * (a.T @ b)
        _blas.gemm(a, b, 2.0, 0.5, c)
        np.testing.assert_array_equal(c, want)

    def test_without_openblas_takes_the_numpy_body(self, monkeypatch):
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
        rng = np.random.default_rng(3)
        a, b, c = (operand(rng, shape, "C") for shape in ((9, 4), (9, 5), (4, 5)))
        want = c * np.float32(0.5)
        want += 2.0 * (a.T @ b)
        _blas.gemm(a, b, 2.0, 0.5, c)
        np.testing.assert_array_equal(c, want)

    def test_empty_batch_scales_c(self):
        # k = 0: the product is empty and only beta * c remains
        c = np.ones((3, 4), dtype=np.float32)
        _blas.gemm(np.empty((0, 3), np.float32), np.empty((0, 4), np.float32), 1.0, 0.5, c)
        np.testing.assert_array_equal(c, np.full((3, 4), 0.5))

    @pytest.mark.parametrize("shapes", [((9, 4), (8, 5), (4, 5)), ((9, 4), (9, 5), (5, 4))],
                             ids=["inner", "output"])
    def test_mismatched_shapes_rejected(self, shapes):
        # the pointers reach OpenBLAS unchecked, so the shapes are checked first
        a, b, c = (np.zeros(shape, dtype=np.float32) for shape in shapes)
        with pytest.raises(ValueError, match="gemm shapes"):
            _blas.gemm(a, b, 1.0, 0.0, c)


class TestAxpy:
    @pytest.mark.parametrize("layout_x, layout_y", [("C", "C"), ("F", "F"), ("C", "F"),
                                                    ("strided", "C")])
    def test_matches_numpy(self, layout_x, layout_y):
        rng = np.random.default_rng(4)
        x = operand(rng, (300, 70), layout_x)[:23]
        y = operand(rng, (300, 70), layout_y)[:23]
        want = y.astype(np.float64) - 0.3 * x
        bound = 2 * EPS32 * (np.abs(y) + 0.3 * np.abs(x))
        _blas.axpy(-0.3, x, y)
        assert np.all(np.abs(y - want) <= bound)

    def test_one_adds_exactly(self):
        # W += velocity: a sum of two float32 values, rounded once as NumPy's
        rng = np.random.default_rng(5)
        x, y = (rng.standard_normal(1000).astype(np.float32) for _ in range(2))
        want = y + x
        _blas.axpy(1.0, x, y)
        np.testing.assert_array_equal(y, want)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="axpy shapes"):
            _blas.axpy(1.0, np.zeros(4, np.float32), np.zeros(5, np.float32))


class TestOpenBlas:
    def test_integer_width_follows_the_symbol(self):
        # 64_ symbols are the ILP64 builds, whose sizes are int64
        for _, _, suffix, blas_int in _blas._SYMBOL_SETS:
            assert blas_int is (ctypes.c_int64 if suffix == "64_" else ctypes.c_int)

    def test_pinned_restores_the_thread_count(self):
        blas = _blas._openblas()
        if blas is None:
            pytest.skip("no OpenBLAS found in this process")
        before = blas.get_threads()
        with pytest.raises(RuntimeError), _blas.pinned() as had:
            assert had == before and blas.get_threads() == 1
            raise RuntimeError
        assert blas.get_threads() == before
