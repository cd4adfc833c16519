"""The fused binary64 fast plane.

:class:`FastPlaneContext` is a drop-in :class:`~repro.core.opmode.FPContext`
that executes every operation as plain vectorized numpy on binary64 data —
no operand re-quantisation, no per-op counter updates, no runtime locks, no
label/location bookkeeping.  Each arithmetic method is a direct ufunc call,
so the only remaining per-op cost is the method dispatch itself; kernels
that want to shed even that check the :attr:`FastPlaneContext.fused` flag
and call the pre-fused numpy kernels in :mod:`repro.kernels.fused` — or,
for the whole compressible flux stack (EOS, wave speeds, Riemann solvers,
block updates), the fused pipeline of :mod:`repro.kernels.flux`, which
additionally threads preallocated scratch buffers
(:mod:`repro.kernels.scratch`) and batches same-shaped AMR blocks.  The
kernels are shared with the truncating fast plane; this context hands
them the identity rounding hook (:attr:`FastPlaneContext.rounder`).

The contract — and the reason the plane may be substituted silently for a
non-truncating instrumented context — is **bitwise identity**: for binary64
inputs every method returns exactly the bits the instrumented
:class:`~repro.core.opmode.FullPrecisionContext` would return, because both
evaluate the same ufuncs in the same order (reductions included, which go
through ``ufunc.reduce`` on both planes).  The plane is therefore only ever
selected for contexts that neither truncate nor record (see
:mod:`repro.kernels.dispatch`); truncating contexts move to the truncating
plane of :mod:`repro.kernels.trunc` instead, and shadow contexts *are* the
measurement and always stay on the instrumented plane.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.opmode import FullPrecisionContext
from ..core.runtime import RaptorRuntime
from .trunc import EXACT

__all__ = ["FastPlaneContext"]


class FastPlaneContext(FullPrecisionContext):
    """Plain-numpy binary64 execution with zero per-op instrumentation.

    Subclasses :class:`FullPrecisionContext` so call sites that dispatch on
    context type (``isinstance(ctx, FullPrecisionContext)``, ``truncating``,
    ``ShadowContext`` checks) treat it exactly like the full-precision
    context it replaces.  ``count_ops`` / ``track_memory`` are forced off:
    nothing this context executes reaches the runtime counters.
    """

    name = "fp64-fast"
    plane = "fast"
    fused = True
    #: the identity rounding hook of the fused kernels
    rounder = EXACT

    def __init__(
        self,
        runtime: Optional[RaptorRuntime] = None,
        module: Optional[str] = None,
    ) -> None:
        super().__init__(runtime=runtime, count_ops=False, track_memory=False, module=module)

    # -- generic paths (anything not overridden below) -----------------------
    def _apply(self, ufunc, inputs, label):
        return ufunc(*inputs)

    def _reduce(self, ufunc, a, axis, label):
        return ufunc.reduce(np.asarray(a, dtype=np.float64), axis=axis)

    # -- binary arithmetic: direct ufunc calls, no label, no recording -------
    def add(self, a, b, label=""):
        return np.add(a, b)

    def sub(self, a, b, label=""):
        return np.subtract(a, b)

    def mul(self, a, b, label=""):
        return np.multiply(a, b)

    def div(self, a, b, label=""):
        return np.divide(a, b)

    def power(self, a, b, label=""):
        return np.power(a, b)

    def maximum(self, a, b, label=""):
        return np.maximum(a, b)

    def minimum(self, a, b, label=""):
        return np.minimum(a, b)

    def copysign(self, a, b, label=""):
        return np.copysign(a, b)

    # -- unary arithmetic -----------------------------------------------------
    def neg(self, a, label=""):
        return np.negative(a)

    def abs(self, a, label=""):
        return np.abs(a)

    def sqrt(self, a, label=""):
        return np.sqrt(a)

    def exp(self, a, label=""):
        return np.exp(a)

    def log(self, a, label=""):
        return np.log(a)

    def log10(self, a, label=""):
        return np.log10(a)

    def sin(self, a, label=""):
        return np.sin(a)

    def cos(self, a, label=""):
        return np.cos(a)

    def tanh(self, a, label=""):
        return np.tanh(a)

    def square(self, a, label=""):
        return np.square(a)

    def reciprocal(self, a, label=""):
        return np.reciprocal(a)

    # -- composites / reductions ----------------------------------------------
    def fma(self, a, b, c, label=""):
        return np.add(np.multiply(a, b), c)

    def dot(self, a, b, label=""):
        # mul + add-tree, exactly like the instrumented plane (which reduces
        # the product through np.add.reduce)
        prod = np.multiply(np.asarray(a).ravel(), np.asarray(b).ravel())
        return np.add.reduce(prod)

    def sum(self, a, axis=None, label=""):
        return np.add.reduce(np.asarray(a, dtype=np.float64), axis=axis)

    def max(self, a, axis=None, label=""):
        return np.maximum.reduce(np.asarray(a, dtype=np.float64), axis=axis)

    def min(self, a, axis=None, label=""):
        return np.minimum.reduce(np.asarray(a, dtype=np.float64), axis=axis)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return "FastPlaneContext(binary64, fused)"
