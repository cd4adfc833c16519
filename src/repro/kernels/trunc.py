"""The fused truncating plane: the rounding hooks of the single-source kernels.

The fused kernels of :mod:`repro.kernels.fused`, :mod:`repro.kernels.flux`
and :mod:`repro.kernels.bubble` are written once.  Every kernel takes a
rounding hook ``q`` and calls it after each arithmetic op, the way
RAPTOR's compiler pass puts a truncate hook at every floating-point op of
one kernel source.  This module provides the two hooks and the context the
dispatch layer routes eligible truncating contexts onto:

* :data:`EXACT` (:class:`ExactRounder`) — the identity, used by the
  binary64 fast plane: ``q(a)`` and ``q.lift`` return their input object,
  ``q.const``/``q.dyn`` return their argument, so a kernel evaluates
  exactly the ufuncs it would evaluate without the hook;
* :class:`Rounder` — vectorised :func:`repro.core.quantize.quantize`
  rounding at **exactly the op boundaries** the instrumented plane rounds
  at, in place through :func:`quantize_into` — truncation only, no
  counters;
* :class:`TruncFastPlaneContext` — the truncating context that carries a
  :class:`Rounder` onto the fused kernels (counting or not: a counting one
  records exactly what the instrumented context records).

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

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.fpformat import FPFormat
from ..core.opmode import TruncatedContext
from ..core.quantize import RoundingMode, quantize
from .scratch import Workspace
from .scratch import out_accessor as _o

__all__ = [
    "EXACT",
    "ExactRounder",
    "Rounder",
    "TruncFastPlaneContext",
    "quantize_into",
]

#: scratch key family reserved for :func:`quantize_into` intermediates —
#: no quantisation scratch survives a call, so one family is shared by
#: every call site (kernel buffers use their own keys and never collide)
_QZ = "qz"

#: per-format scalar cache: (exp_bits, man_bits) -> (emin, man_bits, max_value)
#: — the FPFormat properties recompute these from the bias on every access,
#: which is measurable at quantise-per-op call rates
_FMT_CACHE: Dict[Tuple[int, int], Tuple[int, int, float]] = {}


def _fmt_scalars(fmt: FPFormat) -> Tuple[int, int, float]:
    key = (fmt.exp_bits, fmt.man_bits)
    v = _FMT_CACHE.get(key)
    if v is None:
        v = (fmt.emin, fmt.man_bits, fmt.max_value)
        _FMT_CACHE[key] = v
    return v


# ---------------------------------------------------------------------------
# buffered quantisation
# ---------------------------------------------------------------------------
def quantize_into(
    arr: np.ndarray,
    fmt: FPFormat,
    rounding: str = RoundingMode.NEAREST_EVEN,
    ws: Optional[Workspace] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`repro.core.quantize.quantize`, bit-identical, with scratch.

    Evaluates the same decompose/round/recompose formulas as ``quantize``
    on **all** lanes (every step is element-wise, so finite lanes see the
    same bits as the compressed-subset original; non-finite and zero lanes
    are restored from ``arr`` at the end), writing every intermediate into
    preallocated workspace buffers instead of allocating ~a dozen
    temporaries per call.  ``out`` may be ``arr`` itself (the hot in-place
    case: all reads of ``arr`` precede the single masked write) or any
    non-overlapping array; ``None`` allocates a fresh result.
    """
    if rounding not in RoundingMode.ALL:
        raise ValueError(f"unknown rounding mode: {rounding!r}")
    arr = np.asarray(arr, dtype=np.float64)
    shp = arr.shape
    if fmt.is_fp64() and rounding == RoundingMode.NEAREST_EVEN:
        if out is None:
            return arr.copy()
        if out is not arr:
            np.copyto(out, arr)
        return out

    if ws is None:
        # no workspace: fall back to fresh buffers (frexp/ldexp need real
        # out arrays — the chain reads them back)
        o = lambda key, shape, dtype=np.float64: np.empty(shape, np.dtype(dtype))
    else:
        o = _o(ws)
    fmt_emin, fmt_man_bits, fmt_max_value = _fmt_scalars(fmt)
    finite = np.isfinite(arr, out=o((_QZ, "fin"), shp, bool))
    mask = np.not_equal(arr, 0.0, out=o((_QZ, "msk"), shp, bool))
    np.logical_and(finite, mask, out=finite)
    if not finite.any():
        if out is None:
            return arr.copy()
        if out is not arr:
            np.copyto(out, arr)
        return out

    sign = np.signbit(arr, out=o((_QZ, "sgn"), shp, bool))
    mag = np.abs(arr, out=o((_QZ, "mag"), shp))

    # The formulas run on non-finite lanes too (restored below), so ldexp
    # overflow / frexp-of-inf warnings that the compressed original never
    # sees must be silenced; the finite-lane values are unaffected.
    with np.errstate(over="ignore", invalid="ignore"):
        m = o((_QZ, "m"), shp)
        e = o((_QZ, "e"), shp, np.int32)
        np.frexp(mag, m, e)
        E = np.subtract(e, 1, out=e)
        prec = np.subtract(fmt_emin, E, out=o((_QZ, "p"), shp, np.int32))
        np.maximum(prec, 0, out=prec)
        np.subtract(fmt_man_bits, prec, out=prec)
        p1 = np.add(prec, 1, out=o((_QZ, "p1"), shp, np.int32))
        scaled = np.ldexp(m, p1, out=m)
        if rounding == RoundingMode.NEAREST_EVEN:
            rounded = np.rint(scaled, out=scaled)
        elif rounding == RoundingMode.TOWARD_ZERO:
            rounded = np.trunc(scaled, out=scaled)
        elif rounding == RoundingMode.UP:
            other = np.floor(scaled, out=o((_QZ, "aux"), shp))
            rounded = np.ceil(scaled, out=scaled)
            np.copyto(rounded, other, where=sign)
        else:  # DOWN
            other = np.ceil(scaled, out=o((_QZ, "aux"), shp))
            rounded = np.floor(scaled, out=scaled)
            np.copyto(rounded, other, where=sign)
        expo = np.subtract(E, prec, out=E)
        q = np.ldexp(rounded, expo, out=rounded)
        neg = np.negative(q, out=o((_QZ, "aux"), shp))
        np.copyto(q, neg, where=sign)

        absq = np.abs(q, out=o((_QZ, "aux"), shp))
        over = np.greater(absq, fmt_max_value, out=mask)
        if over.any():
            if rounding == RoundingMode.TOWARD_ZERO:
                clamp = np.copysign(fmt_max_value, q, out=absq)
                np.copyto(q, clamp, where=over)
            elif rounding == RoundingMode.UP:
                pos = np.logical_not(sign, out=o((_QZ, "b2"), shp, bool))
                np.logical_and(over, pos, out=pos)
                np.copyto(q, np.inf, where=pos)
                np.logical_and(over, sign, out=over)
                np.copyto(q, -fmt_max_value, where=over)
            elif rounding == RoundingMode.DOWN:
                neg_over = np.logical_and(over, sign, out=o((_QZ, "b2"), shp, bool))
                np.copyto(q, -np.inf, where=neg_over)
                pos = np.logical_not(sign, out=o((_QZ, "b3"), shp, bool))
                np.logical_and(over, pos, out=pos)
                np.copyto(q, fmt_max_value, where=pos)
            else:
                clamp = np.copysign(np.inf, q, out=absq)
                np.copyto(q, clamp, where=over)

        zero = np.equal(q, 0.0, out=mask)
        np.logical_and(zero, sign, out=zero)
        np.copyto(q, -0.0, where=zero)

    if out is None:
        out = arr.copy()
    elif out is not arr:
        np.copyto(out, arr)
    np.copyto(out, q, where=finite)
    return out


#: quantised scalar constants, keyed by (format, rounding, value) —
#: bounded: only the literal stencil/EOS constants land here (per-step
#: values like dt/dx go through the uncached ``Rounder.dyn``)
_CONST_CACHE: Dict[Tuple[int, int, str, float], float] = {}


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
    so the quantisation intermediates are scratch-buffered too.
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
        """This hook with its quantisation scratch in ``ws``."""
        return self if ws is self.ws else Rounder(self.fmt, self.rounding, ws)

    def __call__(self, arr: np.ndarray) -> np.ndarray:
        return quantize_into(arr, self.fmt, self.rounding, self.ws, out=arr)

    def lift(self, arr: np.ndarray, key=()) -> np.ndarray:
        """``arr`` rounded into the scratch buffer ``key`` — the twin of a
        ``ctx.const(array)`` region-entry conversion."""
        out = _o(self.ws)(key, np.shape(arr))
        return quantize_into(arr, self.fmt, self.rounding, self.ws, out=out)

    def const(self, x: float) -> float:
        """Cached quantised literal — the twin of ``TruncatedContext.const``."""
        key = (self.fmt.exp_bits, self.fmt.man_bits, self.rounding, x)
        v = _CONST_CACHE.get(key)
        if v is None:
            v = float(quantize(x, self.fmt, self.rounding))
            _CONST_CACHE[key] = v
        return v

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
    its recording — verbatim for any code path without a fused kernel (the
    incomp advection tail, level-set transport, diffusion…), so every
    operation, fused or not, is bit-identical to the instrumented plane and
    every op it runs op-by-op is counted exactly as there.

    A non-counting context sets the ``fused`` flag, like the binary64
    :class:`~repro.kernels.fast.FastPlaneContext`: solvers then call the
    fused kernels with ``q=ctx.rounder``, a :class:`Rounder` for this format
    and rounding.  A counting context leaves ``fused`` off, so the
    per-stage shortcuts still run (and count) op-by-op; only the hydro
    solver, whose whole-block op stream is data-independent, runs it on the
    fused pipeline and charges the instrumented tally (see
    ``HydroSolver.advance_block``).
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

    @classmethod
    def from_context(cls, ctx: TruncatedContext) -> "TruncFastPlaneContext":
        """Clone an eligible instrumented truncating context onto the plane."""
        return cls(ctx.fmt, runtime=ctx.runtime, module=ctx.module, rounding=ctx.rounding,
                   count_ops=ctx.count_ops, track_memory=ctx.track_memory)

    def describe(self) -> str:
        counters = "no counters" if self.fused else "counting"
        return (
            f"TruncFastPlaneContext(e{self.fmt.exp_bits}m{self.fmt.man_bits}, "
            f"rounding={self.rounding}, fused truncating kernels, {counters})"
        )
