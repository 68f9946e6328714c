"""Kernel backend selection.

The compiled extension (`qsigns._kernels_cy`) is used when it is
importable; the pure-Python kernels are the fallback, so the package
works from a source tree with no compiler.  `pow_sparse` has no compiled
counterpart and always comes from the pure-Python kernels.  No package
code calls `invert_dense` any more; it stays exported as the reference
inversion.
"""

from __future__ import annotations

from . import _kernels_py

try:
    from . import _kernels_cy as _impl

    _name = "cython"
except ImportError:
    _impl = _kernels_py  # type: ignore[assignment]

    _name = "python"

mul_dense = _impl.mul_dense
invert_dense = _impl.invert_dense
mul_sparse = _impl.mul_sparse
div_sparse = _impl.div_sparse
pow_sparse = _kernels_py.pow_sparse


def backend_name() -> str:
    """Which kernel implementation is active: 'python' or 'cython'."""
    return _name
