"""The fused batch query kernel (DESIGN.md §11).

Every batch query on the REncoder family (``query_range_many`` /
``query_point_many``, and through them ``RangeFilter.query_many``, the
SSTable, LSM and service batch reads) runs on one engine: the fused
numpy kernel in :mod:`repro.core.kernels.fused`.  It does the dyadic
decomposition, hash mixing and RBF bit tests in one pass over
preallocated uint64 arrays — a probe is ``k`` single-word gathers (plus
the mirror-root word when the hash-prefix level is stored), never a
materialised Bitmap Tree.

The scalar ``query_range`` / ``query_point`` descent is the oracle: the
property suites in ``tests/test_batch_query.py`` and
``tests/test_kernels.py`` assert the kernel bit-identical to it for
every variant and edge geometry.
"""

from __future__ import annotations

from repro.core.kernels.fused import NumpyKernel

__all__ = ["get_kernel"]


def get_kernel(filt) -> NumpyKernel:
    """The fused kernel bound to ``filt``, built once and cached on it.

    The cache is dropped by ``_finalise_levels`` (the only operation
    that changes the level plan the kernel's tables bake in).  Inserts
    keep it: the kernel reads the RBF array at call time.
    """
    kernel = getattr(filt, "_kernel_cache", None)
    if kernel is None:
        kernel = filt._kernel_cache = NumpyKernel(filt)
    return kernel
