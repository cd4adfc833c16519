"""Preallocated scratch workspaces for the fused fast planes.

The fused kernels of :mod:`repro.kernels.fused` and
:mod:`repro.kernels.flux` — shared by the binary64 and the truncating fast
plane, whose rounding hook quantises in place through the same workspace —
are straight-line numpy; without help every call
allocates a fresh temporary per ufunc, and on sweep-scale 8x8 AMR blocks
that allocation churn is a measurable fraction of the hot loop.  A
:class:`Workspace` removes it: kernels request named output buffers via
:meth:`Workspace.out` and thread them through ``out=``, so after the first
call over a given block shape the whole flux pipeline runs with zero
allocations.

Buffers are keyed by ``(key, shape, dtype)`` where ``key`` encodes the call
site (typically ``(axis, stage, name)``), so the same workspace serves both
sweep directions, every variable and every batched block shape at once, and
is reused across substeps and steps.  A workspace is *scratch*: no buffer's
content is assumed to survive between kernel invocations, and every fused
kernel produces bit-identical results with or without one (``out=`` never
changes ufunc rounding, and the kernels never write into caller-owned
arrays).

Workspaces are deliberately cheap to drop: pickling or deep-copying one
(e.g. when a solver crosses a process boundary) yields a fresh, empty
workspace.

Two environment switches gate the fast-plane optimisations that build on
this module (both default to *on*; they exist for benchmarking and
debugging, the results are bit-identical either way):

* ``RAPTOR_FAST_NO_SCRATCH=1`` — fused kernels run without preallocated
  buffers (every temporary freshly allocated, as before PR 5);
* ``RAPTOR_FAST_NO_BATCH=1`` — the hydro solver advances AMR blocks one at
  a time instead of stacking same-shaped blocks into one batched kernel
  invocation per level;
* ``RAPTOR_FAST_NO_GRID=1`` — the fused grid plane (:mod:`repro.kernels.
  grid`: precomputed guard-fill plans, batched ``compute_dt``, stacked
  regrid estimators, scratch-buffered bubble paddings) is disabled and the
  per-block Python reference paths run instead;
* ``RAPTOR_FAST_NO_BUBBLE=1`` — the fused bubble plane
  (:mod:`repro.kernels.bubble`: scratch-buffered advection/diffusion/
  level-set/projection twins of the incompressible solver) is disabled and
  the op-by-op context paths run instead.
"""
from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "Workspace",
    "NULL_WORKSPACE",
    "out_accessor",
    "scratch_enabled",
    "batching_enabled",
    "grid_plane_enabled",
    "bubble_plane_enabled",
    "make_workspace",
]


def _env_truthy(value) -> bool:
    """Interpret an environment-variable value as a boolean switch (same
    convention as ``repro.parallel.executor``: anything but an explicit
    falsy spelling counts as set)."""
    if value is None:
        return False
    return value.strip().lower() not in ("", "0", "false", "no", "off")


def scratch_enabled() -> bool:
    """Whether fused kernels should use preallocated scratch buffers."""
    return not _env_truthy(os.environ.get("RAPTOR_FAST_NO_SCRATCH"))


def batching_enabled() -> bool:
    """Whether the hydro solver may batch same-shaped blocks per substep."""
    return not _env_truthy(os.environ.get("RAPTOR_FAST_NO_BATCH"))


def grid_plane_enabled() -> bool:
    """Whether the fused grid plane (guard-fill plans, batched dt, stacked
    estimators) is active.  The grid side is context-free plain numpy, so
    the switch is bit-neutral on every kernel plane."""
    return not _env_truthy(os.environ.get("RAPTOR_FAST_NO_GRID"))


def bubble_plane_enabled() -> bool:
    """Whether the fused bubble plane (:mod:`repro.kernels.bubble`:
    scratch-buffered twins of the incompressible solver's advection,
    diffusion, level-set and projection operators) is active.  The twins
    are bit-identical to the op-by-op context paths on every kernel plane,
    so the switch exists for benchmarking and debugging only."""
    return not _env_truthy(os.environ.get("RAPTOR_FAST_NO_BUBBLE"))


def make_workspace() -> Optional["Workspace"]:
    """A fresh :class:`Workspace`, or ``None`` when scratch is disabled."""
    return Workspace() if scratch_enabled() else None


class Workspace:
    """A pool of named, preallocated scratch arrays.

    ``out(key, shape, dtype)`` returns the buffer registered under
    ``(key, shape, dtype)``, allocating it on first use.  Callers pass the
    result straight to a ufunc's ``out=``; distinct keys guarantee distinct
    storage, so a kernel keeps values alive exactly as long as it keeps
    their keys unique.

    Batched kernels key their buffers by the stacked shape, so a long AMR
    run whose per-level block counts keep changing (regridding) would
    accumulate one buffer family per group size ever seen.  ``max_bytes``
    bounds that growth: once the pool exceeds the cap, :meth:`trim` drops
    the *stale* buffers — those not requested since the previous trim —
    and keeps the live working set, so an oversized working set is never
    thrashed (a pool whose fresh buffers alone exceed the cap simply stays
    resident).  Trimming invalidates the dropped buffers, so callers must
    only invoke it at a quiescent point (the hydro solver trims between
    substeps, where no scratch value is live by construction).
    """

    __slots__ = ("_buffers", "_last_used", "_generation", "hits", "misses",
                 "max_bytes", "trims")

    #: default soft cap — generous next to the ~2 MB steady-state working
    #: set of an 8x8-block pipeline, small next to any real host
    DEFAULT_MAX_BYTES = 64 * 2 ** 20

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self._buffers: Dict[Tuple, np.ndarray] = {}
        self._last_used: Dict[Tuple, int] = {}
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.max_bytes = int(max_bytes)
        self.trims = 0

    def out(self, key, shape, dtype=np.float64) -> np.ndarray:
        """The scratch buffer for ``key`` at ``shape``/``dtype``."""
        full = (key, tuple(shape), np.dtype(dtype).char)
        buf = self._buffers.get(full)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[full] = buf
            self.misses += 1
        else:
            self.hits += 1
        self._last_used[full] = self._generation
        return buf

    # ------------------------------------------------------------------
    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the workspace."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        """Drop every buffer (counters kept)."""
        self._buffers.clear()
        self._last_used.clear()

    def trim(self) -> bool:
        """Drop the stale buffers if the pool exceeds ``max_bytes``.

        Stale = not requested since the previous :meth:`trim` call, i.e.
        outside the current working set (old batch-group shapes after a
        regrid).  Fresh buffers are always kept, so a working set larger
        than the cap is never thrashed.  Call only at quiescent points —
        no scratch value may be live.  Returns whether buffers were
        dropped.
        """
        generation = self._generation
        self._generation = generation + 1
        if self.nbytes <= self.max_bytes:
            return False
        stale = [key for key, used in self._last_used.items() if used < generation]
        for key in stale:
            del self._buffers[key]
            del self._last_used[key]
        if stale:
            self.trims += 1
        return bool(stale)

    # ------------------------------------------------------------------
    # a workspace is pure scratch: crossing a process boundary (pickle) or
    # being deep-copied yields a fresh, empty one
    def __reduce__(self):
        return (Workspace, ())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workspace(buffers={self.n_buffers}, nbytes={self.nbytes}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class _NullWorkspace:
    """Stand-in used when no workspace is supplied: ``out`` returns ``None``
    so ufuncs allocate normally (``np.ufunc(..., out=None)`` is the default
    allocating path)."""

    __slots__ = ()
    hits = 0
    misses = 0

    def out(self, key, shape, dtype=np.float64):
        return None


#: module-level singleton handed to fused kernels called without a workspace
NULL_WORKSPACE = _NullWorkspace()


def out_accessor(ws):
    """The ``out`` accessor of ``ws`` — the single null-workspace fallback
    shared by every fused kernel (``ws=None`` means "allocate normally")."""
    return (ws if ws is not None else NULL_WORKSPACE).out
