"""Per-layer spans, recorded by wrapping each layer's public entry points.

The benchmark never edits the program: for a traced run it replaces a
layer's entry point, at the name its callers look it up by, with a wrapper
that times the call and counts it, and puts the original back afterwards.
Spans nest through a stack, so each span knows both its inclusive time and
its *self* time (inclusive minus the time its child spans covered) — a
guard fill inside ``HydroSolver.step`` or a ``quantize`` inside
``BubbleSolver.advection_term`` is charged to the inner layer only.

Spans live in memory on a :class:`Tracer`; nothing is written while a run
is timed.  A process pool forks its workers with the parent's wrappers in
place, but the spans a worker records die with the worker, so each entry
point is tagged with the side of the pool it runs on (see ``WORKER`` and
``PARENT``) and the benchmark traces the worker side on a serial re-run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: runs inside a sweep point, cliff probe or reference (a pool worker)
WORKER = "worker"
#: runs in the process that called ``run_sweep`` / ``run_adaptive_sweep``
PARENT = "parent"


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    exclusive: float = 0.0


@dataclass
class Tracer:
    """In-memory span and counter store of one traced run."""

    spans: Dict[str, Span] = field(default_factory=dict)
    #: counters fed by the entry-point hooks (Newton iterations, tasks, ...)
    counts: Dict[str, float] = field(default_factory=dict)
    #: runtimes created by cliff probes, for the exact counter roll-up
    runtimes: List[object] = field(default_factory=list)
    #: entry points that no longer exist in the program (their metrics read 0)
    missing: List[str] = field(default_factory=list)
    _stack: List[List[float]] = field(default_factory=list, repr=False)

    def span(self, name: str) -> Span:
        return self.spans.get(name, Span())

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None,
             timed: bool = True) -> Callable:
        """``fn`` wrapped in the span ``name``; ``hook(tracer, args, kwargs,
        result, elapsed)`` runs after each call.  ``timed=False`` only counts
        calls, leaving their time to the enclosing span."""
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        if not timed:
            def counter(*args, **kwargs):
                span.calls += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result, 0.0)
                return result
            return functools.update_wrapper(counter, fn, updated=())

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span.calls += 1
                span.total += elapsed
                span.exclusive += elapsed - frame[0]
            if hook is not None:
                hook(self, args, kwargs, result, elapsed)
            return result
        return functools.update_wrapper(wrapper, fn, updated=())


# ---------------------------------------------------------------------------
# hooks
# ---------------------------------------------------------------------------
def _newton_iterations(tracer, args, kwargs, result, elapsed) -> None:
    tracer.add("eos.newton_iters", result.iterations)


def _executor_tasks(tracer, args, kwargs, result, elapsed) -> None:
    from repro.parallel.executor import TaskFault

    fn, tasks = args[0], args[1]
    tracer.add("executor.tasks", len(tasks))
    tracer.add("executor.faults", sum(isinstance(r, TaskFault) for r in result))
    if getattr(fn, "__name__", "") in ("_execute_point", "_execute_cliff"):
        # the phase whose tasks are points or cliff cells, for executor.wait_s
        tracer.add("executor.task_phase_s", elapsed)
        tracer.add("executor.task_phase_tasks", len(tasks))


def _keep_runtime(tracer, args, kwargs, result, elapsed) -> None:
    tracer.runtimes.append(result)


# ---------------------------------------------------------------------------
# the entry points
# ---------------------------------------------------------------------------
#: (module, attribute or Class.method, span, side, hook, timed)
ENTRY_POINTS: Tuple[tuple, ...] = (
    ("repro.core.opmode", "quantize", "core.quantize", WORKER, None, True),
    ("repro.core.runtime", "RaptorRuntime.record_truncated_ops", "core.record", WORKER, None, True),
    ("repro.core.runtime", "RaptorRuntime.record_full_ops", "core.record", WORKER, None, True),
    ("repro.core.runtime", "RaptorRuntime.record_truncated_bytes", "core.record", WORKER, None, True),
    ("repro.core.runtime", "RaptorRuntime.record_full_bytes", "core.record", WORKER, None, True),
    ("repro.hydro.solver", "HydroSolver.step", "hydro.step", WORKER, None, True),
    ("repro.hydro.solver", "HydroSolver.compute_dt", "hydro.compute_dt", WORKER, None, True),
    ("repro.hydro.solver", "HydroSolver.advance_block", "hydro.advance_block", WORKER, None, False),
    ("repro.amr.grid", "AMRGrid.fill_guard_cells", "amr.guard_fill", WORKER, None, True),
    ("repro.amr.grid", "AMRGrid.regrid", "amr.regrid", WORKER, None, True),
    ("repro.kernels.flux", "advance", "kernels.flux.advance", WORKER, None, True),
    ("repro.kernels.trunc", "advance", "kernels.trunc.advance", WORKER, None, True),
    ("repro.experiments.engine", "compare", "sfocu.compare", WORKER, None, True),
    ("repro.io.sfocu", "compare", "sfocu.compare", WORKER, None, True),
    ("repro.incomp.solver", "BubbleSolver.advection_term", "incomp.advection", WORKER, None, True),
    ("repro.incomp.solver", "BubbleSolver.diffusion_term", "incomp.diffusion", WORKER, None, True),
    ("repro.incomp.poisson", "PoissonSolver.solve", "incomp.poisson", WORKER, None, True),
    ("repro.incomp.levelset", "LevelSet.reinitialize", "incomp.reinit", WORKER, None, True),
    ("repro.workloads.cellular", "invert_energy", "eos.invert_energy", WORKER,
     _newton_iterations, True),
    ("repro.burn.network", "CarbonBurnNetwork.burn", "burn.burn", WORKER, None, True),
    ("repro.experiments.adaptive", "find_cliff", "adaptive.find_cliff", WORKER, None, True),
    ("repro.experiments.adaptive", "RaptorRuntime", "adaptive.probe_runtime", WORKER,
     _keep_runtime, False),
    ("repro.experiments.engine", "gather_references", "engine.references", PARENT, None, True),
    ("repro.experiments.adaptive", "gather_references", "engine.references", PARENT, None, True),
    ("repro.experiments.engine", "run_tasks", "executor.run_tasks", PARENT, _executor_tasks, True),
    ("repro.experiments.adaptive", "run_tasks", "executor.run_tasks", PARENT, _executor_tasks, True),
    ("repro.experiments.journal", "SweepJournal.record_point", "journal.record", PARENT, None, True),
    ("repro.experiments.journal", "SweepJournal.record_reference", "journal.record", PARENT,
     None, True),
    ("repro.experiments.cache", "ReferenceCache.get", "cache.get", PARENT, None, True),
)


def _resolve(module_name: str, path: str):
    """The object owning the entry point and the attribute name, or ``None``
    when the module, class or attribute no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # only wrap what the owner itself defines: a wrapper set on a subclass
    # over an inherited method could not be restored exactly
    if attr not in vars(owner):
        return None
    return owner, attr


@contextlib.contextmanager
def installed(tracer: Tracer, sides=(WORKER, PARENT)):
    """Wrap every entry point of ``sides`` for the duration of the block."""
    patched = []
    try:
        for module_name, path, span, side, hook, timed in ENTRY_POINTS:
            if side not in sides:
                continue
            resolved = _resolve(module_name, path)
            if resolved is None:
                tracer.missing.append(f"{module_name}.{path}")
                continue
            owner, attr = resolved
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(span, original, hook=hook, timed=timed))
            patched.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
