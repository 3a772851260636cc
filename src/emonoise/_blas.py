"""numpy's OpenBLAS, reached through ctypes: its thread count, sgemm and saxpy.

numpy bundles OpenBLAS but exposes neither its thread count nor GEMM's
``beta`` and ``axpy``, which let training's momentum updates run inside
BLAS, on its threads. ``_openblas`` finds the loaded library once, from
the process's memory map, and binds four of its symbols: numpy's prefixed
64-bit-integer ones, the plain 64-bit-integer ones or the plain ``int``
ones, whichever it has.

``gemm`` and ``axpy`` call OpenBLAS for C-order float32 operands, the only
layout training passes. For any other dtype or layout, or where no OpenBLAS
is found (not Linux, or another BLAS), they run the same arithmetic in NumPy.
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


def _c_float32(*arrays: np.ndarray) -> bool:
    """Whether every array is C-order float32, the one layout handed to OpenBLAS."""
    return all(x.dtype == np.float32 and x.flags.c_contiguous for x in arrays)


def gemm(a: np.ndarray, b: np.ndarray, alpha: float, beta: float, c: np.ndarray) -> None:
    """c = alpha * a.T @ b + beta * c, written into ``c``; ``c`` must not overlap a or b.

    ``a`` is (k, m), ``b`` is (k, n) and ``c`` is (m, n). OpenBLAS's sgemm
    scales ``c`` by ``beta`` and then adds the product, so ``c`` needs no
    product-sized temporary. It runs for C-order float32 operands and a
    writable ``c``; any other operands take the NumPy body.
    """
    (k, m), (k_b, n) = a.shape, b.shape
    if k_b != k or c.shape != (m, n):
        raise ValueError(f"gemm shapes {a.shape}.T @ {b.shape} -> {c.shape} do not match")
    blas = _openblas()
    if blas is None or not _c_float32(a, b, c) or not c.flags.writeable:
        c *= beta
        c += alpha * (a.T @ b)
        return
    # op(A) = a.T: sgemm reads the C-order (k, m) a transposed
    blas.sgemm(_ROW_MAJOR, _TRANS, _NO_TRANS, m, n, k, alpha, a.ctypes.data, max(1, m),
               b.ctypes.data, max(1, n), beta, c.ctypes.data, max(1, n))


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> None:
    """y += alpha * x, in place; ``x`` and ``y`` have one shape and must not overlap."""
    if x.shape != y.shape:
        raise ValueError(f"axpy shapes {x.shape} and {y.shape} differ")
    blas = _openblas()
    if blas is None or not _c_float32(x, y) or not y.flags.writeable:
        y += alpha * x
        return
    blas.saxpy(y.size, alpha, x.ctypes.data, 1, y.ctypes.data, 1)
