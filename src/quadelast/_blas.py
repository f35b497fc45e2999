"""One BLAS thread within a context.

numpy's bundled OpenBLAS runs a large enough product on all the host's
threads.  On a shared 2-vCPU host the second thread is sometimes not
scheduled, and a batch of such products then stalls: the trace factor's
batched Cholesky, inverse and products took 0.24 and 0.57 s instead of
0.033-0.035 s in 2 of 6 fresh processes at bdm1 n = 32, and 0.033-0.040 s
in 8 of 8 on one thread.  The thread count is set through the functions
OpenBLAS exports, found with ctypes in the library a package bundles
(the technique of threadpoolctl); where no such library is found,
nothing changes.
"""

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np

__all__ = ["one_blas_thread", "openblas_controls"]


def openblas_controls(package) -> list:
    """``(set, get)`` thread-count functions of the OpenBLAS copy that a
    package bundles beside itself (``numpy.libs`` for numpy).  The symbols
    carry the build's prefix, its BLAS name with '_' for '-', and the
    suffix '64_' of a 64-bit-integer build, both read from the package's
    build record.  A build that bundles no OpenBLAS, or keeps no such
    record, gives none."""
    try:
        blas = package.show_config(
            mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # no record, as before numpy 1.26
        return []
    prefix = blas["name"].replace("-", "_") + "_"
    suffix = "64_" if "USE64BITINT" in blas.get(
        "openblas configuration", "") else ""
    names = [f"{prefix}{verb}_num_threads{suffix}" for verb in ("set", "get")]
    controls = []
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        if all(hasattr(handle, name) for name in names):
            set_threads, get_threads = map(handle.__getattr__, names)
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            controls.append((set_threads, get_threads))
    return controls


@functools.cache
def _numpy_controls() -> tuple:
    return tuple(openblas_controls(np))


@contextlib.contextmanager
def one_blas_thread(controls=None):
    """Run the block with numpy's bundled OpenBLAS, or each copy in
    ``controls``, on one thread, and restore the thread counts after it."""
    controls = _numpy_controls() if controls is None else controls
    counts = [get() for _, get in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, counts):
            set_threads(count)
