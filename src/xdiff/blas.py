"""One OpenBLAS thread for every process that imports xdiff.

OpenBLAS splits a matrix product across its threads, and the split
decides the order in which the partial sums are added.  Trained weights
therefore differ between one and two threads, and on a small network
the second thread only spins.  ``pin`` runs first thing when ``xdiff``
is imported.  Before numpy loads, it sets ``OPENBLAS_NUM_THREADS=1``,
which OpenBLAS reads when it loads.  Once numpy is loaded, it calls the
loaded OpenBLAS's own setter through ``ctypes``; where it finds none
(numpy built against another BLAS, or a layout it does not know) it
warns once and leaves the thread count as it is.

This module imports no numpy of its own, so that the pin can precede it.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys
import warnings

# scipy-openblas builds prefix every symbol and add 64_ for 64-bit ints.
_SYMBOL_FORMS = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")


def _openblas_function(name: str):
    """The function ``name`` ("set_num_threads", ...) of the OpenBLAS
    that the imported numpy loaded, or None."""
    numpy = sys.modules.get("numpy")
    if numpy is None or not getattr(numpy, "__file__", None):
        return None
    root = os.path.dirname(numpy.__file__)
    # numpy's wheels bundle OpenBLAS in numpy.libs/ beside the package on
    # Linux and in numpy/.dylibs/ on macOS
    for libs in (os.path.join(root, os.pardir, "numpy.libs"), os.path.join(root, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for form in _SYMBOL_FORMS:
                fn = getattr(lib, form.format(name), None)
                if fn is not None:
                    return fn
    return None


def pin() -> None:
    """Make numpy's OpenBLAS run on one thread (see the module docstring)."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if "numpy" not in sys.modules:
        return
    setter = _openblas_function("set_num_threads")
    if setter is None:
        warnings.warn(
            "numpy was imported before xdiff and its OpenBLAS thread setter was "
            "not found; the BLAS thread count is left as it is, and trained "
            "weights depend on it (set OPENBLAS_NUM_THREADS=1 before starting "
            "Python to pin it)",
            RuntimeWarning,
            stacklevel=3,
        )
        return
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)


def threads() -> int | None:
    """The thread count of numpy's OpenBLAS, or None where it is unknown."""
    getter = _openblas_function("get_num_threads")
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return int(getter())


def core() -> str | None:
    """The CPU kernel family numpy's OpenBLAS dispatched to, or None."""
    getter = _openblas_function("get_corename")
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_char_p
    return getter().decode()
