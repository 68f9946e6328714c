"""Kernel backend selection.

The compiled extension (`qsigns._kernels_cy`) is used when it is
importable; the pure-Python kernels are the fallback, so the package
works from a source tree with no compiler.
"""

from __future__ import annotations

try:
    from . import _kernels_cy as _impl

    _name = "cython"
except ImportError:
    from . import _kernels_py as _impl  # type: ignore[no-redef]

    _name = "python"

mul_dense = _impl.mul_dense
invert_dense = _impl.invert_dense
mul_sparse = _impl.mul_sparse
div_sparse = _impl.div_sparse


def backend_name() -> str:
    """Which kernel implementation is active: 'python' or 'cython'."""
    return _name
