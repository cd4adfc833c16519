"""Kernel-plane selection: which execution plane a context runs on.

The kernel plane decides *how* a numerics context executes, never *what* it
computes:

* ``"instrumented"`` — every context stays on the classic op-by-op plane
  (:mod:`repro.core.opmode` / :mod:`repro.core.memmode`): per-op counter
  updates, truncation, error tracking, shadow values.  Bit-for-bit the
  pre-kernel-plane behaviour, counters included.
* ``"fast"`` — binary64 contexts become the
  :class:`~repro.kernels.fast.FastPlaneContext` and optimized truncating
  contexts (counting or not) become the
  :class:`~repro.kernels.trunc.TruncFastPlaneContext`; the solvers route
  their hot paths through the pre-fused kernels of
  :mod:`repro.kernels.fused` / :mod:`repro.kernels.flux`
  (scratch-buffered and block-batched) with the context's rounding hook;
  the bubble solver routes its advection/diffusion/level-set operators
  through :mod:`repro.kernels.bubble` the same way.  States are
  bit-identical (the fused planes evaluate the same ufunc expression
  trees, quantised at the same op boundaries).  A *counting* truncating
  context keeps its counters: it is not ``fused``, so it runs op-by-op
  (and counts exactly) everywhere except the operators whose op stream
  depends on shapes and scheme settings only — the hydro block update,
  the bubble's advection, diffusion and level-set transport, and each
  iteration of the cellular Newton EOS inversion
  (:mod:`repro.kernels.eos`) plus its pressure lookup.  Those run fused
  and charge the op/byte tally of the instrumented stream, memoised per
  context (:meth:`~repro.kernels.trunc.TruncFastPlaneContext.counted`).
  Error-tracking, naive (``optimized=False``) and shadow contexts are the
  measurement itself and always remain instrumented.  A counting binary64
  context is substituted too, but its counters then read zero, which is
  reported with a :class:`UserWarning`.
* ``"auto"`` (default) — the fused planes only where the counters come out
  unchanged: every context ``"fast"`` moves except counting binary64
  contexts, so reported counters are byte-identical to the instrumented
  plane.

Reference runs are the special case: the experiment engine never consumes
their counters (point metrics come exclusively from the point runs, and
references are compared by state), so it resolves ``"auto"`` to ``"fast"``
for reference tasks (:func:`reference_plane`) — the cold-sweep hot path
runs fused by default, and a fast-plane reference simply carries zeroed
counters in its snapshot.
"""
from __future__ import annotations

import warnings

from ..core.opmode import FPContext, FullPrecisionContext, TruncatedContext
from .fast import FastPlaneContext
from .trunc import TruncFastPlaneContext

__all__ = [
    "PLANES",
    "DEFAULT_PLANE",
    "validate_plane",
    "is_fast_eligible",
    "is_trunc_fast_eligible",
    "select_context",
    "reference_plane",
]

#: the kernel planes a policy / spec may request
PLANES = ("instrumented", "fast", "auto")

#: plane used when nothing is requested explicitly
DEFAULT_PLANE = "auto"


def validate_plane(plane: str) -> str:
    """Check a plane name and return it (fail fast at spec-validation time)."""
    if plane not in PLANES:
        raise ValueError(f"unknown kernel plane {plane!r}; choose from {PLANES}")
    return plane


def is_fast_eligible(ctx: FPContext) -> bool:
    """Whether the binary64 fast plane preserves ``ctx``'s semantics bit
    for bit.

    True exactly for plain binary64 contexts: a (subclass of)
    :class:`FullPrecisionContext` that does not truncate.  Truncated and
    shadow contexts perform the measurement and are never substituted.
    """
    return isinstance(ctx, FullPrecisionContext) and not ctx.truncating


def is_trunc_fast_eligible(ctx: FPContext) -> bool:
    """Whether the truncating fast plane preserves ``ctx``'s semantics *and*
    its counters bit for bit.

    True exactly for optimized op-mode :class:`TruncatedContext`\\ s that
    do not track errors; ``count_ops``/``track_memory`` carry over to the
    :class:`TruncFastPlaneContext`.  Per-op error statistics need the
    op-by-op stream; shadow (mem-mode) contexts are not
    ``TruncatedContext`` subclasses and are excluded structurally; the
    naive (``optimized=False``) path re-quantises every operand, which the
    fused kernels do not reproduce.
    """
    return isinstance(ctx, TruncatedContext) and ctx.optimized and not ctx.track_errors


def select_context(ctx: FPContext, plane: str = DEFAULT_PLANE) -> FPContext:
    """The context that should actually execute, given the requested plane.

    Returns ``ctx`` itself whenever substitution would change semantics
    (error-tracking, naive and shadow contexts, the ``"instrumented"``
    plane) or record different counters under ``"auto"``.  An explicit
    ``plane="fast"`` request on a *counting* binary64 context substitutes
    anyway (states stay bit-identical) but warns that the counters will
    read zero.
    """
    validate_plane(plane)
    if plane == "instrumented" or isinstance(ctx, (FastPlaneContext, TruncFastPlaneContext)):
        return ctx
    if is_trunc_fast_eligible(ctx):
        # optimized truncating context: the fused truncating plane keeps its
        # states and counters bit-identical under both "fast" and "auto"
        return TruncFastPlaneContext.from_context(ctx)
    if not is_fast_eligible(ctx):
        return ctx
    if ctx.count_ops or ctx.track_memory:
        if plane == "auto":
            return ctx
        # explicit "fast" on a counting binary64 context: honour the
        # request, but the caller loses its op/mem counters — say so
        warnings.warn(
            f"plane='fast' substitutes the non-counting fast plane for a "
            f"counting binary64 context (module={ctx.module!r}): its op/mem "
            f"counters will read zero; request plane='auto' to keep counting "
            f"contexts instrumented",
            UserWarning,
            stacklevel=2,
        )
    return FastPlaneContext(runtime=ctx.runtime, module=ctx.module)


def reference_plane(plane: str) -> str:
    """The plane a full-precision *reference* run executes on.

    The engine never consumes reference counters — references are compared
    by state — so ``"auto"`` resolves to ``"fast"``; only an explicit
    ``"instrumented"`` request keeps the counting reference path (needed
    when the reference's own op counts are the object of study).
    """
    validate_plane(plane)
    return "instrumented" if plane == "instrumented" else "fast"
