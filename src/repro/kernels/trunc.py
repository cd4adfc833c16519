"""The fused truncating plane: the rounding hooks of the single-source kernels.

The fused kernels of :mod:`repro.kernels.fused`, :mod:`repro.kernels.flux`,
:mod:`repro.kernels.bubble` and :mod:`repro.kernels.eos` are written once.
Every kernel takes a rounding hook ``q`` and calls it after each arithmetic
op, the way RAPTOR's compiler pass puts a truncate hook at every
floating-point op of one kernel source.  This module provides the two hooks
and the context the dispatch layer routes eligible truncating contexts
onto:

* :data:`EXACT` (:class:`ExactRounder`) — the identity, used by the
  binary64 fast plane: ``q(a)`` and ``q.lift`` return their input object,
  ``q.const``/``q.dyn`` return their argument, so a kernel evaluates
  exactly the ufuncs it would evaluate without the hook;
* :class:`Rounder` — :func:`repro.core.quantize.quantize` rounding, in
  place (``out=``), at **exactly the op boundaries** the instrumented
  plane rounds at — truncation only, no counters; its literals come from
  the same :func:`~repro.core.quantize.quantize_const` cache as
  ``TruncatedContext.const``;
* :class:`TruncFastPlaneContext` — the truncating context that carries a
  :class:`Rounder` onto the fused kernels (counting or not: a counting one
  records exactly what the instrumented context records, and its
  :meth:`~TruncFastPlaneContext.counted` operators run fused and charge a
  per-context memoised instrumented tally).

Bit-identity contract
---------------------
The reference semantics are those of an *optimized*
:class:`~repro.core.opmode.TruncatedContext` (``optimized=True``): every
FLOP is evaluated in binary64 and its **result** is quantised to the
context's format/rounding; operands are assumed to already be
representable (they are, as long as every value in the region was produced
by the same context — the same contract the optimized instrumented path
relies on).  The kernels reproduce that op stream term for term:

* The hook is called after every ``add``/``sub``/``mul``/``div``/
  ``sqrt``/``square`` — the same boundaries ``TruncatedContext._apply``
  rounds at.
* ``maximum``/``minimum``/``abs``/``negative``/``where``/constant fills are
  *closed* over representable operands: quantising their result is the
  identity, so the kernels skip it.  This is never applied to arithmetic
  ops, whose results can fall between representable values.
* Constants go through ``q.const`` exactly like ``TruncatedContext.const``:
  derived constants (``gamma - 1.0``, ``1.0 / 6.0``, ``dt / dx``…) are
  computed in binary64 *first* and then quantised, matching the
  instrumented call sites.
* Predicates compare the same values the instrumented path compares:
  sign agreement in minmod uses the *quantised* product, HLL/HLLC region
  selection uses the *quantised* wave speeds, magnitude comparison uses
  the raw operands (``abs`` being quantise-closed).
"""
from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from ..core.fpformat import FPFormat
from ..core.opmode import FPContext, TruncatedContext
from ..core.quantize import RoundingMode, quantize, quantize_const
from ..core.runtime import RaptorRuntime
from .scratch import Workspace
from .scratch import out_accessor as _o

__all__ = [
    "EXACT",
    "ExactRounder",
    "Rounder",
    "TruncFastPlaneContext",
    "counted",
]

# ---------------------------------------------------------------------------
# the rounding hooks
# ---------------------------------------------------------------------------
class ExactRounder:
    """The binary64 hook: the identity at every op boundary.

    ``q(a)`` and :meth:`lift` return the input object itself (no copy, no
    scratch buffer), :meth:`const`/:meth:`dyn` return their argument, so a
    kernel run with this hook evaluates exactly the ufuncs on exactly the
    operands it would evaluate with no hook at all.
    """

    __slots__ = ()
    #: scratch-key prefix (binary64 evaluations use the bare call-site keys)
    key: Tuple = ()
    #: batch-group signature of the hydro solver's per-level stacking
    sig: Tuple = ("b64",)

    def bind(self, ws: Optional[Workspace]) -> "ExactRounder":
        return self

    def __call__(self, arr):
        return arr

    def lift(self, arr, key=()):
        return arr

    def const(self, x):
        return x

    def dyn(self, x):
        return x


#: the shared identity hook — the default ``q`` of every fused kernel
EXACT = ExactRounder()


class Rounder:
    """The truncating hook: round to one (format, rounding) at op boundaries.

    ``q(a)`` rounds ``a`` in place (scratch/fresh buffers only, never views
    of caller data); :meth:`lift` rounds a caller-owned array into the
    scratch buffer ``key``; :meth:`const` is the cached twin of
    ``TruncatedContext.const`` for literals and :meth:`dyn` the uncached one
    for per-step scalars.  Kernels :meth:`bind` the hook to their workspace
    so :meth:`lift` targets are scratch-buffered too.
    """

    __slots__ = ("fmt", "rounding", "ws")
    #: scratch-key prefix: truncated and binary64 evaluations live in one
    #: workspace at once (the blended M - l cells of the bubble) never alias
    key: Tuple = ("T",)

    def __init__(self, fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN,
                 ws: Optional[Workspace] = None) -> None:
        self.fmt = fmt
        self.rounding = rounding
        self.ws = ws

    @property
    def sig(self) -> Tuple:
        """Batch-group signature: only same-format, same-rounding blocks stack."""
        return ("trunc", self.fmt.exp_bits, self.fmt.man_bits, self.rounding)

    def bind(self, ws: Optional[Workspace]) -> "Rounder":
        """This hook with its :meth:`lift` buffers in ``ws``."""
        return self if ws is self.ws else Rounder(self.fmt, self.rounding, ws)

    def __call__(self, arr: np.ndarray) -> np.ndarray:
        return quantize(arr, self.fmt, self.rounding, out=arr)

    def lift(self, arr: np.ndarray, key=()) -> np.ndarray:
        """``arr`` rounded into the scratch buffer ``key`` — the twin of a
        ``ctx.const(array)`` region-entry conversion."""
        out = _o(self.ws)(key, np.shape(arr))
        return quantize(arr, self.fmt, self.rounding, out=out)

    def const(self, x: float) -> float:
        """Cached quantised literal — the twin of ``TruncatedContext.const``
        (both read :func:`repro.core.quantize.quantize_const`)."""
        return quantize_const(x, self.fmt, self.rounding)

    def dyn(self, x: float) -> float:
        """Uncached quantised scalar for per-step values (``dt/dx``…)."""
        return float(quantize(x, self.fmt, self.rounding))


# ---------------------------------------------------------------------------
# the truncating fast-plane context
# ---------------------------------------------------------------------------
class TruncFastPlaneContext(TruncatedContext):
    """A truncating context living on the fused fast plane.

    Carries the point's :class:`~repro.core.fpformat.FPFormat`, rounding
    mode and counters (``count_ops``/``track_memory``; ``track_errors`` is
    forced off — per-op error statistics need the op-by-op stream).
    Inherits the optimized ``TruncatedContext`` op-by-op semantics — and
    its recording — verbatim for any code path without a fused kernel,
    so every operation, fused or not, is bit-identical to the instrumented
    plane and every op it runs op-by-op is counted exactly as there.

    A non-counting context sets the ``fused`` flag, like the binary64
    :class:`~repro.kernels.fast.FastPlaneContext`: solvers then call the
    fused kernels with ``q=ctx.rounder``, a :class:`Rounder` for this format
    and rounding.  A counting context leaves ``fused`` off, so the
    per-stage shortcuts still run (and count) op-by-op.  Whole operators
    whose instrumented op stream depends on shapes and scheme settings
    only — the hydro block update, the bubble's advection, diffusion and
    level-set transport, the cellular pressure lookup — run through
    :meth:`counted` instead: fused on :attr:`sibling`, charged the
    memoised instrumented tally.  The Newton EOS inversion, whose
    iteration count depends on the data, learns one tally per iteration
    part the same way and then :meth:`charge`\\ s it per iteration (see
    :func:`repro.eos.newton.invert_energy`).
    """

    plane = "fast"

    def __init__(
        self,
        fmt: FPFormat,
        runtime=None,
        module: Optional[str] = None,
        rounding: str = RoundingMode.NEAREST_EVEN,
        count_ops: bool = False,
        track_memory: bool = False,
    ) -> None:
        super().__init__(
            fmt,
            runtime=runtime,
            module=module,
            optimized=True,
            count_ops=count_ops,
            track_memory=track_memory,
            track_errors=False,
            rounding=rounding,
        )
        self.name = f"e{fmt.exp_bits}m{fmt.man_bits}-fast"
        self.rounder = Rounder(fmt, rounding)
        self.fused = not (count_ops or track_memory)
        #: the non-counting, ``fused`` twin that operators with a known
        #: tally run on (the context itself when it records nothing)
        self.sibling = self if self.fused else TruncFastPlaneContext(
            fmt, runtime=self.runtime, module=module, rounding=rounding
        )
        #: memo key -> the (ops, bytes) the instrumented op stream records
        self.tallies: Dict[Hashable, Tuple[int, int]] = {}

    @classmethod
    def from_context(cls, ctx: TruncatedContext) -> "TruncFastPlaneContext":
        """Clone an eligible instrumented truncating context onto the plane."""
        return cls(ctx.fmt, runtime=ctx.runtime, module=ctx.module, rounding=ctx.rounding,
                   count_ops=ctx.count_ops, track_memory=ctx.track_memory)

    # -- counted fused operators --------------------------------------------
    def counted(self, key: Hashable, op: Callable[[FPContext], Any]) -> Any:
        """``op``'s result, counted as the instrumented plane counts it.

        ``op(c)`` must evaluate one operator under the context ``c`` it is
        given — op-by-op on an instrumented context, through the fused
        kernels on a ``fused`` one — and ``key`` must name everything its
        instrumented op stream depends on besides the values (operator,
        field shapes, scheme settings; format and rounding are this
        context's).  The first call per key :meth:`learn`\\ s the tally;
        later ones run ``op`` fused on :attr:`sibling` and :meth:`charge`
        it.  Both results are bit-identical to the instrumented plane's.
        """
        if key not in self.tallies:
            return self.learn(key, op)
        self.charge(key)
        return op(self.sibling)

    def learn(self, key: Hashable, op: Callable[[FPContext], Any]) -> Any:
        """Run ``op`` op-by-op on an instrumented twin counting into a
        private runtime, memoise its (ops, bytes) under ``key`` and charge
        them."""
        twin = TruncatedContext(
            self.fmt, runtime=RaptorRuntime("tally"), module=self.module,
            count_ops=self.count_ops, track_memory=self.track_memory, rounding=self.rounding,
        )
        result = op(twin)
        self.tallies[key] = (twin.runtime.ops.truncated, twin.runtime.mem.truncated)
        self.charge(key)
        return result

    def charge(self, key: Hashable) -> None:
        """Record the memoised tally of ``key`` on this context's runtime."""
        ops, nbytes = self.tallies[key]
        self.runtime.record_truncated_ops(ops, module=self.module)
        self.runtime.record_truncated_bytes(nbytes)

    def describe(self) -> str:
        counters = "no counters" if self.fused else "counting"
        return (
            f"TruncFastPlaneContext(e{self.fmt.exp_bits}m{self.fmt.man_bits}, "
            f"rounding={self.rounding}, fused truncating kernels, {counters})"
        )


def counted(ctx: FPContext, key: Hashable, op: Callable[[FPContext], Any]) -> Any:
    """``op(ctx)``, through :meth:`TruncFastPlaneContext.counted` when
    ``ctx`` is a counting fast-plane context (the only kind that is on the
    fast plane but not ``fused``)."""
    if ctx.plane == "fast" and not ctx.fused:
        return ctx.counted(key, op)
    return op(ctx)
