#!/usr/bin/env python3
"""Repo benchmark: profiled precision sweeps and a cliff search, end to end
and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-counted --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload
    python3 perfbench/run.py --record-golden                   # rewrite golden.json

Workloads: ``sweep-counted``, ``sweep-fused-pool``, ``cliff-counted`` (see
``README.md`` for why each exists and what each layer metric should move).

``--trace 0`` times the workload's call, untraced, in a closed loop until
``--seconds`` have passed and reports the end-to-end metrics (``wall_rel``,
``setup_s``, ``peak_rss_mb``; the raw ``wall_s`` is printed and recorded).  ``--trace 1`` alternates untraced and
traced calls for the same time and reports the per-layer metrics plus
``trace.overhead_frac``.  Every call's outputs go through the correctness
gate; a gate failure counts in ``failed``.  The last line of standard
output is the result object; the line before it, starting with
``perfbench record``, has quartiles, sample counts, host and spec.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("sweep-counted", "sweep-fused-pool", "cliff-counted")
#: set-up is repeated this often per run; setup_s is the median
SETUP_REPEATS = 5
#: BLAS/OpenMP thread counts pinned to 1, so the numbers measure the
#: program rather than the scheduler
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: cold import of the program in a fresh interpreter, timed inside it
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.experiments; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
#: timed repetitions of the reference computation per measurement point
REFERENCE_REPS = 3

#: per-layer metric -> (unit, span, span field); a ``None`` span is a
#: counter of an entry-point hook (``spans.Tracer.counts``) or a value the
#: workload derives from its results (``layer_metrics``)
PER_LAYER = {
    "core.quantize_s": ("s", "core.quantize", "exclusive"),
    "core.quantize_calls": ("count", "core.quantize", "calls"),
    "core.record_s": ("s", "core.record", "exclusive"),
    "core.record_calls": ("count", "core.record", "calls"),
    "core.ops_truncated": ("count", None, None),
    "core.ops_full": ("count", None, None),
    "core.bytes_truncated": ("B", None, None),
    "core.bytes_full": ("B", None, None),
    "hydro.step_s": ("s", "hydro.step", "exclusive"),
    "hydro.steps": ("count", "hydro.step", "calls"),
    "hydro.compute_dt_s": ("s", "hydro.compute_dt", "exclusive"),
    "hydro.advance_block_calls": ("count", "hydro.advance_block", "calls"),
    "amr.guard_fill_s": ("s", "amr.guard_fill", "exclusive"),
    "amr.regrid_s": ("s", "amr.regrid", "exclusive"),
    "kernels.flux.advance_s": ("s", "kernels.flux.advance", "exclusive"),
    "kernels.flux.advance_calls": ("count", "kernels.flux.advance", "calls"),
    "kernels.trunc.advance_s": ("s", "kernels.trunc.advance", "exclusive"),
    "kernels.trunc.advance_calls": ("count", "kernels.trunc.advance", "calls"),
    "engine.references_s": ("s", "engine.references", "total"),
    "engine.point_s": ("s", None, None),
    "engine.point_max_s": ("s", None, None),
    "sfocu.compare_s": ("s", "sfocu.compare", "exclusive"),
    "executor.run_tasks_s": ("s", "executor.run_tasks", "total"),
    "executor.wait_s": ("s", None, None),
    "executor.tasks": ("count", None, None),
    "executor.faults": ("count", None, None),
    "journal.record_s": ("s", "journal.record", "exclusive"),
    "journal.records": ("count", "journal.record", "calls"),
    "cache.get_s": ("s", "cache.get", "exclusive"),
    "cache.hits": ("count", None, None),
    "cache.misses": ("count", None, None),
    "adaptive.find_cliff_s": ("s", "adaptive.find_cliff", "total"),
    "adaptive.probes": ("count", None, None),
    "adaptive.probe_ratio": ("ratio", None, None),
    "incomp.advection_s": ("s", "incomp.advection", "exclusive"),
    "incomp.diffusion_s": ("s", "incomp.diffusion", "exclusive"),
    "incomp.poisson_s": ("s", "incomp.poisson", "exclusive"),
    "incomp.reinit_s": ("s", "incomp.reinit", "exclusive"),
    "eos.invert_energy_s": ("s", "eos.invert_energy", "exclusive"),
    "eos.newton_iters": ("count", None, None),
    "burn.burn_s": ("s", "burn.burn", "exclusive"),
    "trace.overhead_frac": ("ratio", None, None),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the seed of golden.json)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the closed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="run every workload once at the default seed and "
                             "rewrite golden.json from its outputs")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    return args


def pin_environment() -> None:
    """Single-threaded BLAS, default program knobs, and the program's
    source on the path of this process and of its pool workers."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("RAPTOR_")]:
        del os.environ[var]
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    sys.path.insert(0, str(SRC))


def import_seconds() -> float:
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
        capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def reference_work() -> float:
    """A fixed computation that stands for the host's current speed.

    It mixes what the program spends its time on: interpreter work, numpy
    calls on small arrays and, now and then, one on a larger array.  It
    uses nothing from the program, so a change to the program cannot
    change it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.random(100) + 0.5
    large = rng.random(20000) + 0.5
    table = {}
    total = 0.0
    for i in range(10000):
        x = np.sqrt(small * small + small) / small
        table[i % 101] = float(x[i % 100])
        total += table[i % 101]
        if i % 50 == 0:
            total += float((np.sqrt(large * large + large) / large)[i])
    return total


def reference_seconds(per_cpu: bool = False) -> float:
    """Median wall time of :func:`reference_work` over a few repetitions.

    ``per_cpu`` runs it pinned to each usable CPU in turn and averages: a
    pooled call occupies every CPU, so a neighbour slowing one of them
    slows the call, while an unpinned measurement would just run on the
    other one.
    """
    def median_time() -> float:
        times = []
        for _ in range(REFERENCE_REPS):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    if not per_cpu:
        return median_time()
    allowed = os.sched_getaffinity(0)
    medians = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            medians.append(median_time())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(medians)


def digest(key) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()[:24]


def summarize(values):
    """Median, quartiles and count of a sample."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb(pooled: bool) -> float:
    """Peak RSS of this process plus, for a pooled workload, its largest
    worker (``RUSAGE_CHILDREN`` keeps the largest waited-for child)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def host_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Gate:
    """Correctness gate over every checked call of a run.

    Each item (a sweep point or a cliff probe) must satisfy its workload's
    invariants, equal the first call's item bitwise (so traced equals
    untraced, and repeats agree), and — at the default seed — match the
    digest recorded in ``golden.json``.
    """

    def __init__(self, golden) -> None:
        self.golden = golden
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, workload, spec, result, what: str) -> None:
        keys = {}
        for label, key, problems in workload.items(spec, result):
            problems = list(problems)
            if self.golden is not None and key is not None:
                if digest(key) != self.golden.get(label):
                    problems.append("differs from golden.json")
            if self.first is not None and key != self.first.get(label):
                problems.append("differs from the first call")
            keys[label] = key
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{what} {label}: {'; '.join(problems)}")
        if self.golden is not None:
            for label in sorted(set(self.golden) - set(keys)):
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"{what} {label}: recorded in golden.json but not produced")
        if self.first is None:
            self.first = keys

    def crashed(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what}: raised\n{traceback.format_exc()}")


def fresh_dir(parent: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


@contextlib.contextmanager
def working_dir(prefix: str):
    """A private directory under ``.perfbench_work``, deleted afterwards
    (with ``.perfbench_work`` itself once no other run uses it)."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = fresh_dir(WORK_ROOT, prefix)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


def timed_call(workload, spec, workdir: Path):
    scratch = fresh_dir(workdir, "call-")
    try:
        start = time.perf_counter()
        result = workload.execute(spec, scratch)
        return time.perf_counter() - start, result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def traced_call(workload, spec, workdir: Path):
    """One traced call: ``(wall, result, serial result or None, layer
    metrics, missing entry points)``.

    A pooled workload is timed on its own backend with only the parent-side
    entry points wrapped; its in-worker layers are then traced on a serial
    re-run of the same spec, whose outputs the gate checks too.
    """
    from spans import PARENT, WORKER, Tracer, installed

    tracer = Tracer()
    serial = None
    if workload.pooled:
        with installed(tracer, sides=(PARENT,)):
            wall, result = timed_call(workload, spec, workdir)
        with installed(tracer, sides=(WORKER,)):
            _, serial = timed_call(workload, spec.with_backend("serial"), workdir)
    else:
        with installed(tracer):
            wall, result = timed_call(workload, spec, workdir)

    metrics = {
        name: tracer.counts.get(name, 0) if span is None else getattr(tracer.span(span), field)
        for name, (_, span, field) in PER_LAYER.items()
    }
    metrics.update(workload.layer_metrics(spec, result, tracer))
    return wall, result, serial, metrics, tracer.missing


def run_workload(args, workload, spec, workdir: Path):
    """The closed loop; returns ``(gate, metric samples, extra record)``."""
    recorded = load_golden()
    golden = None
    if args.seed == recorded["seed"]:
        golden = recorded["workloads"][workload.name]["items"]
    gate = Gate(golden)
    walls, rels, references, traced_walls, layers = [], [], [], [], []
    missing = set()
    start = time.perf_counter()
    while True:
        n = len(walls)
        # the host's speed right before and after the call; untraced
        # back-to-back calls share the point between them
        before = after if walls and not args.trace else reference_seconds(workload.pooled)
        try:
            wall, result = timed_call(workload, spec, workdir)
        except Exception:
            gate.crashed(f"call {n}")
            break
        after = reference_seconds(workload.pooled)
        walls.append(wall)
        references.append((before + after) / 2)
        rels.append(wall / references[-1])
        gate.check(workload, spec, result, f"call {n}")
        if args.trace:
            try:
                wall, result, serial, metrics, absent = traced_call(workload, spec, workdir)
            except Exception:
                gate.crashed(f"traced call {n}")
                break
            traced_walls.append(wall)
            layers.append(metrics)
            missing.update(absent)
            gate.check(workload, spec, result, f"traced call {n}")
            if serial is not None:
                gate.check(workload, spec, serial, f"traced serial call {n}")
        # stop once less than half an iteration of the budget is left, so a
        # run lasts --seconds on average
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) / 2 >= args.seconds:
            break

    if not walls or (args.trace and not layers):
        return gate, None, {}
    samples = {"wall_s": walls, "wall_rel": rels, "reference_s": references}
    if layers:
        for name in PER_LAYER:
            if name != "trace.overhead_frac":
                samples[name] = [m[name] for m in layers]
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        samples["trace.overhead_frac"] = [overhead]
    return gate, samples, {"missing_entry_points": sorted(missing)}


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def benchmark(args) -> int:
    import repro.experiments  # noqa: F401  (set-up times its cold import in a fresh interpreter)
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEED
    workload = WORKLOADS[args.workload]
    with working_dir(f"{workload.name}-") as workdir:
        setups = []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            began = time.perf_counter()
            spec = workload.build_spec(args.seed)
            spec.validate()
            spec = workload.prepare(spec, workdir)
            setups.append(imported + time.perf_counter() - began)
        gate, samples, extra = run_workload(args, workload, spec, workdir)
    for problem in gate.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if samples is None:
        print("perfbench: no call completed; nothing to report", file=sys.stderr)
        return 1
    samples["setup_s"] = setups
    samples["peak_rss_mb"] = [peak_rss_mb(workload.pooled)]

    units = {name: unit for name, (unit, _, _) in PER_LAYER.items()} if args.trace else END_TO_END
    stats = {name: dict(summarize(samples[name]), unit=unit) for name, unit in units.items()}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "spec": workload.describe(spec),
        "metrics": stats,
        "wall_s": summarize(samples["wall_s"]),
        "reference_s": summarize(samples["reference_s"]),
        "setup_samples_s": setups,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failed_frac": gate.failed / gate.attempted,
        **extra,
    }
    shown = dict(stats, wall_s=dict(record["wall_s"], unit="s"),
                 reference_s=dict(record["reference_s"], unit="s"))
    for name, s in shown.items():
        print(f"{workload.name:18s} {name:28s} {s['median']:14.6g} {s['unit']:6s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    print(f"{workload.name:18s} failed_frac {record['failed_frac']:.6g} "
          f"({gate.failed} of {gate.attempted} items)")
    print("perfbench record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]} for name, s in stats.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS stays per workload),
    then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {out.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def record_golden() -> int:
    """Rewrite golden.json from one call of each workload at the default seed."""
    from workloads import DEFAULT_SEED, WORKLOADS

    record = {"seed": DEFAULT_SEED, "workloads": {}}
    with working_dir("golden-") as workdir:
        for name in WORKLOAD_NAMES:
            workload = WORKLOADS[name]
            spec = workload.prepare(workload.build_spec(DEFAULT_SEED), workdir)
            _, result = timed_call(workload, spec, workdir)
            record["workloads"][name] = {
                "spec": workload.describe(spec),
                "summary": workload.summary(result),
                "items": {label: digest(key) for label, key, _ in workload.items(spec, result)},
            }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source ({SRC.relative_to(ROOT)}/repro) is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    pin_environment()
    if args.record_golden:
        return record_golden()
    if args.workload == "all":
        return run_all(args)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
