"""numpy's OpenBLAS, reached through ctypes: its thread count, sgemm and saxpy.

numpy bundles OpenBLAS but exposes neither its thread count nor GEMM's
``beta`` and ``axpy``, which let training's momentum updates run inside
BLAS, on its threads. ``_openblas`` finds the loaded library once, from
the process's memory map, and binds four of its symbols: numpy's prefixed
64-bit-integer ones, the plain 64-bit-integer ones or the plain ``int``
ones, whichever it has.

``gemm`` and ``axpy`` call OpenBLAS for float32 operands laid out in
C or Fortran order. For any other dtype or layout, or where no OpenBLAS is
found (not Linux, or another BLAS), they run the same arithmetic in NumPy.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import NamedTuple

import numpy as np

# CBLAS enum values
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112

# (thread-function prefix, CBLAS prefix, suffix, integer type of the CBLAS sizes);
# the thread functions take and return a C int in every build
_SYMBOL_SETS = (
    ("scipy_openblas", "scipy_cblas", "64_", ctypes.c_int64),
    ("openblas", "cblas", "64_", ctypes.c_int64),
    ("openblas", "cblas", "", ctypes.c_int),
)


class _OpenBlas(NamedTuple):
    get_threads: object
    set_threads: object
    sgemm: object
    saxpy: object


@functools.cache
def _openblas() -> _OpenBlas | None:
    """The loaded OpenBLAS's thread get/set, sgemm and saxpy, or None where none is found.

    Looks for a mapped library whose path names OpenBLAS, and in it for one
    of ``_SYMBOL_SETS`` with all four functions.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:  # no /proc: not Linux
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for threads, cblas, suffix, blas_int in _SYMBOL_SETS:
            found = [getattr(handle, name, None) for name in (
                f"{threads}_get_num_threads{suffix}", f"{threads}_set_num_threads{suffix}",
                f"{cblas}_sgemm{suffix}", f"{cblas}_saxpy{suffix}")]
            if None in found:
                continue
            get, put, sgemm, saxpy = found
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            sgemm.argtypes = (ctypes.c_int, ctypes.c_int, ctypes.c_int,
                              blas_int, blas_int, blas_int, ctypes.c_float,
                              ctypes.c_void_p, blas_int, ctypes.c_void_p, blas_int,
                              ctypes.c_float, ctypes.c_void_p, blas_int)
            sgemm.restype = None
            saxpy.argtypes = (blas_int, ctypes.c_float, ctypes.c_void_p, blas_int,
                              ctypes.c_void_p, blas_int)
            saxpy.restype = None
            return _OpenBlas(get, put, sgemm, saxpy)
    return None


@contextlib.contextmanager
def pinned():
    """OpenBLAS pinned to one thread for the block; yields how many it had, 1 if none is found.

    The count is restored when the block exits, also on an error.
    """
    blas = _openblas()
    if blas is None:
        yield 1
        return
    n_threads = blas.get_threads()
    blas.set_threads(1)
    try:
        yield n_threads
    finally:
        blas.set_threads(n_threads)


def _float32_layout(x: np.ndarray):
    """(transposed, leading dimension) of a 2-D float32 array in row-major CBLAS terms.

    None for another dtype, or a layout that is neither C nor Fortran order.
    """
    if x.dtype != np.float32:
        return None
    if x.flags.c_contiguous:
        return False, max(1, x.shape[1])
    if x.flags.f_contiguous:
        return True, max(1, x.shape[0])
    return None


def gemm(a: np.ndarray, b: np.ndarray, alpha: float, beta: float, c: np.ndarray) -> None:
    """c = alpha * a.T @ b + beta * c, written into ``c``; ``c`` must not overlap a or b.

    ``a`` is (k, m), ``b`` is (k, n) and ``c`` is (m, n). OpenBLAS's sgemm
    scales ``c`` by ``beta`` and then adds the product, so ``c`` needs no
    product-sized temporary. A Fortran-order ``c`` is computed as its
    transpose, ``c.T = alpha * b.T @ a + beta * c.T``.
    """
    (k, m), (k_b, n) = a.shape, b.shape
    if k_b != k or c.shape != (m, n):
        raise ValueError(f"gemm shapes {a.shape}.T @ {b.shape} -> {c.shape} do not match")
    if c.flags.f_contiguous and not c.flags.c_contiguous:
        a, b, c, (m, n) = b, a, c.T, (n, m)
    blas = _openblas()
    layouts = _float32_layout(a), _float32_layout(b), _float32_layout(c)
    if blas is None or None in layouts or not c.flags.writeable:
        c *= beta
        c += alpha * (a.T @ b)
        return
    (a_t, lda), (b_t, ldb), (_, ldc) = layouts
    # op(A) = a.T: a C-order a is transposed in place, a Fortran-order one is a.T already
    blas.sgemm(_ROW_MAJOR, _NO_TRANS if a_t else _TRANS, _TRANS if b_t else _NO_TRANS,
               m, n, k, alpha, a.ctypes.data, lda, b.ctypes.data, ldb, beta, c.ctypes.data, ldc)


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> None:
    """y += alpha * x, in place; ``x`` and ``y`` have one shape and must not overlap."""
    if x.shape != y.shape:
        raise ValueError(f"axpy shapes {x.shape} and {y.shape} differ")
    blas = _openblas()
    same_order = (x.flags.c_contiguous and y.flags.c_contiguous
                  or x.flags.f_contiguous and y.flags.f_contiguous)
    if (blas is None or not same_order or x.dtype != np.float32 or y.dtype != np.float32
            or not y.flags.writeable):
        y += alpha * x
        return
    blas.saxpy(y.size, alpha, x.ctypes.data, 1, y.ctypes.data, 1)
