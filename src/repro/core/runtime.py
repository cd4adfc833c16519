"""The RAPTOR runtime: operation, memory and error accounting.

The runtime is the component that the (emulated) instrumentation calls into
for every truncated floating-point operation.  It keeps:

* global counters of truncated vs. full-precision scalar operations
  (the stacked bars in Figure 7 and the inputs to the co-design model);
* global counters of bytes read/written in truncated vs. full-precision
  regions (the memory-bound speedup model in Section 7.2);
* per-source-location operation statistics (op-mode error profiles and the
  mem-mode deviation heat-map).

A module-level default runtime is provided because solver kernels deep in the
call stack need to reach it without threading it through every signature —
the same role the process-global C++ runtime plays in RAPTOR.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .registry import LocationRegistry, SourceLocation

__all__ = ["OpStats", "OpCounters", "MemCounters", "RaptorRuntime", "get_runtime", "set_runtime"]


@dataclass
class OpStats:
    """Per-location statistics for truncated operations."""

    count: int = 0
    flagged: int = 0
    sum_abs_err: float = 0.0
    max_abs_err: float = 0.0
    sum_rel_err: float = 0.0
    max_rel_err: float = 0.0

    def update(
        self,
        n: int,
        abs_err_sum: float = 0.0,
        abs_err_max: float = 0.0,
        rel_err_sum: float = 0.0,
        rel_err_max: float = 0.0,
        flagged: int = 0,
    ) -> None:
        self.count += int(n)
        self.flagged += int(flagged)
        self.sum_abs_err += float(abs_err_sum)
        self.max_abs_err = max(self.max_abs_err, float(abs_err_max))
        self.sum_rel_err += float(rel_err_sum)
        self.max_rel_err = max(self.max_rel_err, float(rel_err_max))

    @property
    def mean_abs_err(self) -> float:
        return self.sum_abs_err / self.count if self.count else 0.0

    @property
    def mean_rel_err(self) -> float:
        return self.sum_rel_err / self.count if self.count else 0.0


@dataclass
class OpCounters:
    """Scalar floating-point operation counts."""

    truncated: int = 0
    full: int = 0

    @property
    def total(self) -> int:
        return self.truncated + self.full

    @property
    def truncated_fraction(self) -> float:
        total = self.total
        return self.truncated / total if total else 0.0


@dataclass
class MemCounters:
    """Bytes moved (reads + writes of floating-point data)."""

    truncated: int = 0
    full: int = 0

    @property
    def total(self) -> int:
        return self.truncated + self.full

    @property
    def truncated_fraction(self) -> float:
        total = self.total
        return self.truncated / total if total else 0.0


def _finite_sum_max(err: Optional[np.ndarray]) -> Tuple[float, float]:
    """Sum and maximum of the finite entries of ``err`` (zeros when none)."""
    if err is None or not np.size(err):
        return 0.0, 0.0
    finite = np.asarray(err)[np.isfinite(err)]
    if not finite.size:
        return 0.0, 0.0
    return float(np.sum(finite)), float(np.max(finite))


class RaptorRuntime:
    """Collects all profiling data for one experiment.

    The runtime is thread-safe at the granularity of individual updates so
    that OpenMP-style threaded kernels (``concurrent.futures`` in this
    reproduction) can share it, mirroring the paper's OpenMP support.
    """

    def __init__(self, name: str = "raptor") -> None:
        self.name = name
        self.registry = LocationRegistry()
        self.ops = OpCounters()
        self.mem = MemCounters()
        self._per_location: Dict[int, OpStats] = {}
        self._per_module_ops: Dict[str, OpCounters] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # operation accounting
    # ------------------------------------------------------------------
    def record_truncated_ops(
        self,
        n: int,
        location: Optional[SourceLocation] = None,
        module: Optional[str] = None,
        abs_err: Optional[np.ndarray] = None,
        rel_err: Optional[np.ndarray] = None,
        flagged: int = 0,
    ) -> None:
        """Record ``n`` scalar operations executed at truncated precision."""
        if n <= 0:
            return
        n = int(n)
        if location is not None:
            # the error summaries and the interning need no runtime lock
            ident = self.registry.intern(location)
            abs_sum, abs_max = _finite_sum_max(abs_err)
            rel_sum, rel_max = _finite_sum_max(rel_err)
        with self._lock:
            self.ops.truncated += n
            if module is not None:
                self._module_counters(module).truncated += n
            if location is not None:
                stats = self._per_location.get(ident)
                if stats is None:
                    stats = self._per_location[ident] = OpStats()
                stats.update(n, abs_sum, abs_max, rel_sum, rel_max, flagged)

    def record_full_ops(self, n: int, module: Optional[str] = None) -> None:
        """Record ``n`` scalar operations executed at full (FP64) precision."""
        if n <= 0:
            return
        n = int(n)
        with self._lock:
            self.ops.full += n
            if module is not None:
                self._module_counters(module).full += n

    def _module_counters(self, module: str) -> OpCounters:
        counters = self._per_module_ops.get(module)
        if counters is None:
            counters = self._per_module_ops[module] = OpCounters()
        return counters

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def record_truncated_bytes(self, n: int) -> None:
        if n > 0:
            n = int(n)
            with self._lock:
                self.mem.truncated += n

    def record_full_bytes(self, n: int) -> None:
        if n > 0:
            n = int(n)
            with self._lock:
                self.mem.full += n

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def location_stats(self) -> List[Tuple[SourceLocation, OpStats]]:
        """All per-location statistics, most-flagged / most-erroneous first."""
        items = []
        for ident, stats in self._per_location.items():
            loc = self.registry.lookup(ident)
            if loc is not None:
                items.append((loc, stats))
        items.sort(key=lambda kv: (kv[1].flagged, kv[1].max_rel_err, kv[1].count), reverse=True)
        return items

    def module_ops(self) -> Dict[str, OpCounters]:
        """Per-module operation counters (copy)."""
        return {k: OpCounters(v.truncated, v.full) for k, v in self._per_module_ops.items()}

    def giga_flops(self) -> Tuple[float, float]:
        """(truncated, full) operation counts in units of 1e9, as plotted in
        the background bars of Figure 7."""
        return self.ops.truncated / 1e9, self.ops.full / 1e9

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all counters and statistics."""
        with self._lock:
            self.ops = OpCounters()
            self.mem = MemCounters()
            self._per_location.clear()
            self._per_module_ops.clear()
            self.registry.clear()

    def snapshot(self) -> dict:
        """A plain-dict snapshot suitable for serialisation.

        The snapshot is self-contained (plain ints/floats/strings only) so it
        can cross process boundaries; :meth:`merge_snapshot` reconstructs and
        accumulates it into another runtime, which is how the sweep engine
        rolls worker-process counters up into a single profile.
        """
        # everything is read under one lock so concurrent updates cannot
        # produce a snapshot whose ops / modules / locations disagree
        with self._lock:
            modules = {
                name: {"truncated": c.truncated, "full": c.full}
                for name, c in self._per_module_ops.items()
            }
            ops = {"truncated": self.ops.truncated, "full": self.ops.full}
            mem = {"truncated": self.mem.truncated, "full": self.mem.full}
            locations = [
                {
                    "location": loc.short(),
                    "filename": loc.filename,
                    "lineno": loc.lineno,
                    "label": loc.label,
                    "count": st.count,
                    "flagged": st.flagged,
                    "sum_abs_err": st.sum_abs_err,
                    "mean_abs_err": st.mean_abs_err,
                    "max_abs_err": st.max_abs_err,
                    "sum_rel_err": st.sum_rel_err,
                    "mean_rel_err": st.mean_rel_err,
                    "max_rel_err": st.max_rel_err,
                }
                for loc, st in self.location_stats()
            ]
        return {
            "name": self.name,
            "ops": ops,
            "mem": mem,
            "modules": modules,
            "locations": locations,
        }

    def merge_snapshot(self, snap: dict) -> "RaptorRuntime":
        """Accumulate a :meth:`snapshot` produced elsewhere (typically in a
        worker process, or loaded from a cached reference / merged sweep
        shard) into this runtime's counters and statistics.

        Returns ``self`` so roll-ups fold functionally::

            total = functools.reduce(RaptorRuntime.merge_snapshot,
                                     snapshots, RaptorRuntime("rollup"))
        """
        ops = snap.get("ops", {})
        mem = snap.get("mem", {})
        with self._lock:
            self.ops.truncated += int(ops.get("truncated", 0))
            self.ops.full += int(ops.get("full", 0))
            self.mem.truncated += int(mem.get("truncated", 0))
            self.mem.full += int(mem.get("full", 0))
            for name, counters in snap.get("modules", {}).items():
                mod = self._per_module_ops.setdefault(name, OpCounters())
                mod.truncated += int(counters.get("truncated", 0))
                mod.full += int(counters.get("full", 0))
            for entry in snap.get("locations", []):
                loc = SourceLocation(
                    entry.get("filename", "<unknown>"),
                    int(entry.get("lineno", 0)),
                    entry.get("label", ""),
                )
                ident = self.registry.intern(loc)
                stats = self._per_location.setdefault(ident, OpStats())
                stats.update(
                    entry.get("count", 0),
                    entry.get("sum_abs_err", 0.0),
                    entry.get("max_abs_err", 0.0),
                    entry.get("sum_rel_err", 0.0),
                    entry.get("max_rel_err", 0.0),
                    entry.get("flagged", 0),
                )
        return self


_default_runtime = RaptorRuntime()
_runtime_lock = threading.Lock()


def get_runtime() -> RaptorRuntime:
    """The process-wide default runtime (analogue of RAPTOR's linked runtime)."""
    return _default_runtime


def set_runtime(runtime: RaptorRuntime) -> RaptorRuntime:
    """Replace the default runtime; returns the previous one."""
    global _default_runtime
    with _runtime_lock:
        previous = _default_runtime
        _default_runtime = runtime
    return previous
