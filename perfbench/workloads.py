"""The benchmark's workloads: a spec drawn from a seed, one timed call, and
the items the correctness gate checks.

Every workload is a closed loop from one process: the next
``run_sweep`` / ``run_adaptive_sweep`` starts when the previous one has
returned.  Why each workload exists, and which layer metric should move
which end-to-end metric on it, is written down in ``README.md`` next to
this file.

The program only ever sees the generated spec.  The seed draws the sweeps'
three mantissa widths (one per format class, at a fixed count of three)
and the cliff search's bubble threshold (log-uniform in a fixed range).
"""
from __future__ import annotations

import math
import os
import random
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.experiments import (
    AdaptiveSpec,
    PolicySpec,
    ReferenceCache,
    SweepSpec,
    gather_references,
    run_adaptive_sweep,
    run_sweep,
)
from repro.incomp.solver import BubbleConfig

from spans import Tracer

#: the seed the recorded outputs in ``golden.json`` belong to
DEFAULT_SEED = 1

#: 8x8-block AMR on a 2x2 root grid, two levels: the ROADMAP's default spec
AMR_CONFIG = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2, t_end=0.01, rk_stages=1)

#: (exponent bits, lowest, highest mantissa bits) of the three format
#: classes: around fp32, bf16 and fp16
FORMAT_CLASSES = ((8, 18, 23), (8, 5, 8), (5, 8, 10))

#: pool workers of the process-backend sweep, never more than the host has
POOL_WORKERS = min(2, os.cpu_count() or 1)

HYDRO = ("hydro",)

#: a checked item: label, bitwise key, invariant violations
Item = Tuple[str, Optional[tuple], List[str]]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def draw_formats(rng: random.Random) -> List[str]:
    return [f"e{exp}m{rng.randint(lo, hi)}" for exp, lo, hi in FORMAT_CLASSES]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class SweepWorkload:
    """A ``run_sweep`` over a fixed grid of workloads and policies."""

    def __init__(self, name: str, workloads, policies, counted: bool, pooled: bool) -> None:
        self.name = name
        self.workloads = tuple(workloads)
        self.policies = tuple(policies)
        self.counted = counted
        self.pooled = pooled

    def build_spec(self, seed: int) -> SweepSpec:
        return SweepSpec(
            workloads=list(self.workloads),
            formats=draw_formats(_rng(self.name, seed)),
            policies=list(self.policies),
            workload_configs={name: dict(AMR_CONFIG) for name in self.workloads},
            count_point_ops=self.counted,
            backend="process" if self.pooled else "serial",
            max_workers=POOL_WORKERS if self.pooled else None,
        )

    def prepare(self, spec: SweepSpec, workdir: Path) -> SweepSpec:
        return spec

    def execute(self, spec: SweepSpec, scratch: Path):
        # the pooled sweep journals every point, as a checkpointed sweep does
        return run_sweep(spec, checkpoint=scratch if self.pooled else None)

    def describe(self, spec: SweepSpec) -> dict:
        return {
            "call": "run_sweep",
            "workloads": list(spec.workloads),
            "formats": [str(f) for f in spec.formats],
            "policies": [p.describe() for p in spec.policies],
            "count_point_ops": spec.count_point_ops,
            "backend": spec.backend,
            "max_workers": spec.max_workers,
            "checkpoint": self.pooled,
            "points": len(spec.points()),
        }

    def items(self, spec: SweepSpec, result) -> Iterator[Item]:
        got = {p.index: p for p in result.points}
        for point in spec.points():
            label = f"p{point.index}"
            p = got.get(point.index)
            if p is None:
                yield label, None, ["missing"]
                continue
            problems = []
            norms = [v for by_norm in p.errors.values() for v in by_norm.values()]
            if not _finite([p.scalar_error, *norms]):
                problems.append("non-finite error")
            if self.counted and not (p.ops["truncated"] > 0 and p.mem["truncated"] > 0):
                problems.append("zero op/byte counters")
            yield label, p.metrics_key(), problems

    def summary(self, result) -> dict:
        return {f"p{p.index}": f"{p.workload} {p.format_name} {p.policy}" for p in result.points}

    def layer_metrics(self, spec: SweepSpec, result, tracer: Tracer) -> Dict[str, float]:
        seconds = [p.seconds for p in result.points]
        rollup = result.rollup()
        stats = result.cache_stats or {}
        workers = 1 if spec.backend == "serial" else min(
            spec.max_workers or 1, max(1, int(tracer.counts.get("executor.task_phase_tasks", 1)))
        )
        return {
            "core.ops_truncated": rollup.ops.truncated,
            "core.ops_full": rollup.ops.full,
            "core.bytes_truncated": rollup.mem.truncated,
            "core.bytes_full": rollup.mem.full,
            "engine.point_s": sum(seconds),
            "engine.point_max_s": max(seconds, default=0.0),
            "executor.wait_s": tracer.counts.get("executor.task_phase_s", 0.0) - sum(seconds) / workers,
            "cache.hits": stats.get("hits", 0),
            "cache.misses": stats.get("misses", 0),
            "adaptive.probes": 0,
            "adaptive.probe_ratio": 0.0,
        }


class CliffWorkload:
    """A ``run_adaptive_sweep`` reading its references from a warm cache."""

    name = "cliff-counted"
    pooled = False
    workloads = ("cellular", "bubble")
    configs = {
        "cellular": dict(n_cells=32, n_steps=5),
        "bubble": dict(
            solver=BubbleConfig(
                nx=16, ny=24, xlim=(-1.0, 1.0), ylim=(-1.0, 2.0),
                reynolds=3500.0, advection_scheme="weno5", reinit_interval=5,
            ),
            spin_up_time=0.02,
            truncation_time=0.02,
            snapshot_times=(0.02,),
        ),
    }
    #: the bubble's cliff threshold is drawn log-uniformly from this range;
    #: at the class default (0.02) every probe would pass
    bubble_thresholds = (1e-5, 1e-4)
    min_man_bits, max_man_bits = 8, 39

    def build_spec(self, seed: int) -> AdaptiveSpec:
        lo, hi = (math.log10(t) for t in self.bubble_thresholds)
        threshold = 10.0 ** _rng(self.name, seed).uniform(lo, hi)
        return AdaptiveSpec(
            workloads=self.workloads,
            min_man_bits=self.min_man_bits,
            max_man_bits=self.max_man_bits,
            thresholds={"bubble": threshold},
            workload_configs=self.configs,
        )

    def prepare(self, spec: AdaptiveSpec, workdir: Path) -> AdaptiveSpec:
        """Fill a fresh reference cache; the timed searches read it."""
        cache_dir = workdir / "references"
        shutil.rmtree(cache_dir, ignore_errors=True)
        gather_references(spec.workloads, spec.config_kwargs, cache=ReferenceCache(cache_dir))
        return replace(spec, cache_dir=str(cache_dir))

    def execute(self, spec: AdaptiveSpec, scratch: Path):
        return run_adaptive_sweep(spec)

    def describe(self, spec: AdaptiveSpec) -> dict:
        return {
            "call": "run_adaptive_sweep",
            "workloads": list(spec.workloads),
            "man_bits": [spec.min_man_bits, spec.max_man_bits],
            "thresholds": dict(spec.thresholds),
            "count_probe_ops": spec.count_probe_ops,
            "backend": spec.backend,
            "cache": "warm",
        }

    def items(self, spec: AdaptiveSpec, result) -> Iterator[Item]:
        got = {c.index: c for c in result.cliffs}
        for cell in spec.cells():
            cliff = got.get(cell.index)
            if cliff is None or not cliff.evaluations:
                yield f"c{cell.index}", None, ["missing"]
                continue
            cell_problems = []
            bits = cliff.cliff_man_bits
            if bits is None or not spec.min_man_bits <= bits <= spec.max_man_bits:
                cell_problems.append(f"cliff {bits} outside the searched range")
            for n, e in enumerate(cliff.evaluations):
                problems = list(cell_problems)
                if not _finite([e.error, *e.info.values()]):
                    problems.append("non-finite error")
                if spec.count_probe_ops and not e.truncated_fraction > 0:
                    problems.append("zero op counters")
                key = (
                    cliff.workload, cliff.policy.describe(), bits,
                    e.man_bits, e.error, e.passed, e.truncated_fraction,
                    tuple(sorted(e.info.items())),
                )
                yield f"c{cell.index}.{n}", key, problems

    def summary(self, result) -> dict:
        return {f"c{c.index}": f"{c.workload} cliff m{c.cliff_man_bits} "
                f"in {c.n_runs} probes" for c in result.cliffs}

    def layer_metrics(self, spec: AdaptiveSpec, result, tracer: Tracer) -> Dict[str, float]:
        ops = [rt.ops for rt in tracer.runtimes]
        mem = [rt.mem for rt in tracer.runtimes]
        probes = sum(c.n_runs for c in result.cliffs)
        grid = sum(c.grid_points for c in result.cliffs)
        stats = result.cache_stats or {}
        return {
            "core.ops_truncated": sum(o.truncated for o in ops),
            "core.ops_full": sum(o.full for o in ops),
            "core.bytes_truncated": sum(m.truncated for m in mem),
            "core.bytes_full": sum(m.full for m in mem),
            "engine.point_s": 0.0,
            "engine.point_max_s": 0.0,
            "executor.wait_s": tracer.counts.get("executor.task_phase_s", 0.0)
            - tracer.span("adaptive.find_cliff").total,
            "cache.hits": stats.get("hits", 0),
            "cache.misses": stats.get("misses", 0),
            "adaptive.probes": probes,
            "adaptive.probe_ratio": probes / grid if grid else 0.0,
        }


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "sweep-counted", ("kh", "sedov"), (PolicySpec.everywhere(modules=HYDRO),),
            counted=True, pooled=False,
        ),
        SweepWorkload(
            "sweep-fused-pool", ("sod", "sedov", "kh", "rt", "double-blast"),
            (PolicySpec.everywhere(modules=HYDRO), PolicySpec.amr_cutoff(1, modules=HYDRO)),
            counted=False, pooled=True,
        ),
        CliffWorkload(),
    )
}
