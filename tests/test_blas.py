import ctypes

import numpy as np
import pytest

from emonoise import _blas

EPS32 = float(np.finfo(np.float32).eps)


def operand(rng, shape, layout):
    """A float32 array of ``shape`` in C order, Fortran order, or as a strided view.

    Only C order is handed to OpenBLAS; the Fortran-order array and the
    strided view, every other column of a wider array, take the NumPy body.
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


@pytest.fixture
def recording(monkeypatch):
    """The sgemm and saxpy calls made through a stand-in for numpy's OpenBLAS."""
    calls = []
    fake = _blas._OpenBlas(None, None, lambda *args: calls.append(("sgemm", args)),
                           lambda *args: calls.append(("saxpy", args)))
    monkeypatch.setattr(_blas, "_openblas", lambda: fake)
    return calls


# the layouts that take the NumPy body, each made from a C-order float32 array
OTHER_LAYOUTS = {
    "F": np.asfortranarray,
    "strided": lambda x: np.repeat(x, 2, axis=1)[:, ::2],
    "float64": lambda x: x.astype(np.float64),
}


def read_only(x):
    x.flags.writeable = False
    return x


class TestDispatch:
    """C-order float32 operands reach OpenBLAS; every other layout takes the NumPy body."""

    def test_c_order_float32_gemm_reaches_sgemm(self, recording):
        a, b, c = (np.zeros(shape, np.float32) for shape in ((9, 4), (9, 5), (4, 5)))
        _blas.gemm(a, b, -1.0, 0.9, c)
        assert recording == [("sgemm", (
            _blas._ROW_MAJOR, _blas._TRANS, _blas._NO_TRANS, 4, 5, 9, -1.0,
            a.ctypes.data, 4, b.ctypes.data, 5, 0.9, c.ctypes.data, 5))]

    def test_c_order_float32_axpy_reaches_saxpy(self, recording):
        x, y = (np.zeros((4, 5), np.float32) for _ in range(2))
        _blas.axpy(0.5, x, y)
        assert recording == [("saxpy", (20, 0.5, x.ctypes.data, 1, y.ctypes.data, 1))]

    @pytest.mark.parametrize("name", ["a", "b", "c"])
    @pytest.mark.parametrize("layout", OTHER_LAYOUTS)
    def test_other_gemm_operands_take_the_numpy_body(self, recording, layout, name):
        rng = np.random.default_rng(6)
        ops = {n: operand(rng, shape, "C") for n, shape in zip("abc", ((9, 4), (9, 5), (4, 5)))}
        ops[name] = OTHER_LAYOUTS[layout](ops[name])
        a, b, c = ops.values()
        want = 0.5 * c + 2.0 * (a.T.astype(np.float64) @ b)
        _blas.gemm(a, b, 2.0, 0.5, c)
        np.testing.assert_allclose(c, want, rtol=1e-5, atol=1e-5)
        assert recording == []

    @pytest.mark.parametrize("name", ["x", "y"])
    @pytest.mark.parametrize("layout", OTHER_LAYOUTS)
    def test_other_axpy_operands_take_the_numpy_body(self, recording, layout, name):
        rng = np.random.default_rng(7)
        ops = {n: operand(rng, (6, 5), "C") for n in "xy"}
        ops[name] = OTHER_LAYOUTS[layout](ops[name])
        x, y = ops.values()
        want = y + 0.5 * x.astype(np.float64)
        _blas.axpy(0.5, x, y)
        np.testing.assert_allclose(y, want, rtol=1e-6, atol=1e-6)
        assert recording == []

    def test_read_only_output_is_not_written_through_its_pointer(self, recording):
        # a read-only c or y never reaches OpenBLAS: the NumPy body refuses to write it
        a, b, c = (np.zeros(shape, np.float32) for shape in ((9, 4), (9, 5), (4, 5)))
        with pytest.raises(ValueError, match="read-only"):
            _blas.gemm(a, b, 1.0, 0.5, read_only(c))
        with pytest.raises(ValueError, match="read-only"):
            _blas.axpy(1.0, a, read_only(np.zeros_like(a)))
        assert recording == []


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
