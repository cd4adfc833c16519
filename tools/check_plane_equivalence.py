"""CI smoke check: the fused fast plane is bit-identical to the
instrumented plane.

Runs the golden Sod configuration (tests/test_golden.py) as a
full-precision reference on both kernel planes and asserts every state
variable matches **bitwise** — the contract that lets the experiment
engine route reference tasks through the fast plane silently.  A second
pass runs the golden Sedov configuration (WENO5 + HLLC) through the fast
plane's full fused-flux pipeline — Riemann/EOS fusion, preallocated
scratch workspaces and batched block stepping, which this script insists
are enabled — and diffs it against the instrumented plane the same way.
A third pass repeats both golden configurations as *truncated* (e8m10,
non-counting) runs: the instrumented op-by-op ``TruncatedContext`` path
vs the fused truncating plane (the fused kernels run with the
``repro.kernels.trunc.Rounder`` hook), which quantizes at the same op
boundaries and must match bitwise too.  A counted pass repeats them
under a *counting* e8m10 ``GlobalPolicy`` and an ``AMRCutoffPolicy``
M-1 (at ``max_level=3``, so binary64 and truncated levels mix):
``plane="auto"`` (the counted hydro blocks run the fused pipeline and
charge the instrumented op/byte tally) vs ``plane="instrumented"`` — the
states must match bitwise and the runtime snapshots' ``ops``/``mem``/
``modules`` counters exactly; it closes with a counted rising-bubble run,
whose advection, diffusion and level-set operators run fused and charge
the instrumented tally the same way, and a counted cellular detonation
truncating the ``eos`` module, whose Newton inversions and pressure
lookups run on the fused EOS kernel and charge per-iteration tallies.
A fourth pass
drives a regrid-heavy Kelvin–Helmholtz configuration (``max_level=3``,
regrid every step, so guard-fill plans are rebuilt constantly and
coarse/fine strips stay hot) through the fused *grid* plane — batched
guard fills, batched ``compute_dt`` and stacked refinement estimators —
and diffs it against a run with ``RAPTOR_FAST_NO_GRID`` set.
A fifth pass covers the fused *bubble* plane (``repro.kernels.bubble``):
a short rising-bubble run on the fused fast plane vs the op-by-op
instrumented baseline (``RAPTOR_FAST_NO_BUBBLE=1`` +
``plane="instrumented"``), both full-precision and truncated (e8m10) —
the WENO5 advection, diffusion, level-set and projection twins must all
match bitwise.

    PYTHONPATH=src python tools/check_plane_equivalence.py
"""
from __future__ import annotations

import sys
from typing import Optional

import numpy as np

#: the golden configurations of tests/test_golden.py
GOLDEN_CONFIGS = {
    "sod": dict(
        nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
        t_end=0.04, rk_stages=1, reconstruction="plm",
    ),
    "sedov": dict(
        nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
        t_end=0.02, rk_stages=1, reconstruction="weno5",
    ),
}

#: regrid-heavy golden pass for the fused grid plane: regrid every step so
#: guard-fill plans are invalidated and rebuilt constantly, deep enough
#: that coarse/fine guard strips are exercised throughout
GRID_GOLDEN = dict(
    nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=3,
    t_end=0.01, rk_stages=1, regrid_interval=1,
)


#: counted cellular pass: e8m10 stalls the Newton inversion, so every step
#: runs the iteration limit on the fused EOS kernel
CELLULAR_COUNTED = dict(n_cells=32, n_steps=8)

#: the counted M-1 pass needs a third level: at max_level=2 the golden grids
#: refine every root, so M-1 would leave no truncated block
COUNTED_M1 = dict(max_level=3, t_end=0.01)


def _diff_outcomes(label: str, a_out, b_out) -> list:
    """Final time and every state variable of two runs, bitwise."""
    failures = []
    if a_out.time != b_out.time:
        failures.append(f"{label}: final time differs: {a_out.time} vs {b_out.time}")
    for var in sorted(a_out.state):
        a, b = a_out.state[var], b_out.state[var]
        if not np.array_equal(a, b):
            diverged = int(np.sum(a != b))
            failures.append(f"{label}: variable {var!r}: {diverged}/{a.size} cells differ")
    return failures


def _diff_planes(name: str, config: dict) -> list:
    from repro.workloads import create_workload

    instrumented = create_workload(name, **config).reference(plane="instrumented")
    fast = create_workload(name, **config).reference(plane="fast")
    return _diff_outcomes(name, instrumented, fast)


def _diff_trunc_planes(name: str, config: dict) -> list:
    from repro.core import FPFormat, GlobalPolicy, RaptorRuntime, TruncationConfig
    from repro.workloads import create_workload

    def run(plane):
        runtime = RaptorRuntime()
        policy = GlobalPolicy(
            TruncationConfig(targets={64: FPFormat(exp_bits=8, man_bits=10)},
                             count_ops=False, track_memory=False),
            runtime=runtime, plane=plane,
        )
        return create_workload(name, **config).run(policy=policy, runtime=runtime)

    return _diff_outcomes(f"{name} (truncated)", run("instrumented"), run("auto"))


def _diff_counted_planes(name: str, config: dict, module: str = "hydro",
                         m1_config: Optional[dict] = COUNTED_M1) -> list:
    """Counting e8m10 runs (global, and M-1 unless ``m1_config`` is None):
    the counted fused operators vs the op-by-op instrumented plane — states
    *and* op/byte counters."""
    from repro.core import (AMRCutoffPolicy, FPFormat, GlobalPolicy,
                            RaptorRuntime, TruncationConfig)
    from repro.kernels import TruncFastPlaneContext
    from repro.workloads import create_workload

    def run(make_policy, run_config, plane):
        runtime = RaptorRuntime()
        trunc = TruncationConfig(targets={64: FPFormat(exp_bits=8, man_bits=10)})
        policy = make_policy(trunc, runtime, plane)
        ctx = policy.context_for(module=module, level=1, max_level=run_config.get("max_level"))
        outcome = create_workload(name, **run_config).run(policy=policy, runtime=runtime)
        return outcome, isinstance(ctx, TruncFastPlaneContext)

    passes = [("global", lambda c, rt, plane: GlobalPolicy(c, runtime=rt, plane=plane), config)]
    if m1_config is not None:
        passes.append(("M-1", lambda c, rt, plane: AMRCutoffPolicy(c, cutoff=1, runtime=rt,
                                                                    plane=plane),
                       dict(config, **m1_config)))
    failures = []
    for kind, make_policy, run_config in passes:
        label = f"{name} (counted, {kind})"
        instrumented, _ = run(make_policy, run_config, "instrumented")
        auto, on_fast_plane = run(make_policy, run_config, "auto")
        if not on_fast_plane:
            failures.append(f"{label}: plane='auto' kept the counting context instrumented")
        failures.extend(_diff_outcomes(label, instrumented, auto))
        if instrumented.info != auto.info:
            failures.append(f"{label}: run summaries differ: {instrumented.info} vs {auto.info}")
        a, b = instrumented.runtime.snapshot(), auto.runtime.snapshot()
        if a["ops"]["truncated"] == 0:
            failures.append(f"{label}: the instrumented run counted no truncated ops")
        for field in ("ops", "mem", "modules"):
            if a[field] != b[field]:
                failures.append(f"{label}: counters {field!r} differ: {a[field]} vs {b[field]}")
    return failures


def _diff_grid_plane() -> list:
    """Regrid-heavy KH run: fused grid plane vs per-block grid paths."""
    import os

    from repro.workloads import create_workload

    fused = create_workload("kelvin-helmholtz", **GRID_GOLDEN).reference(plane="fast")
    os.environ["RAPTOR_FAST_NO_GRID"] = "1"
    try:
        reference = create_workload("kelvin-helmholtz", **GRID_GOLDEN).reference(
            plane="fast"
        )
    finally:
        del os.environ["RAPTOR_FAST_NO_GRID"]

    failures = []
    if fused.info["finest_level"] < 2:
        failures.append(
            "kelvin-helmholtz (grid plane): run never refined past level "
            f"{fused.info['finest_level']:.0f} — coarse/fine guard strips "
            "were not exercised"
        )
    if fused.info != reference.info:
        failures.append(
            "kelvin-helmholtz (grid plane): run summaries differ: "
            f"{fused.info} vs {reference.info}"
        )
    if fused.time != reference.time:
        failures.append(
            f"kelvin-helmholtz (grid plane): final time differs: "
            f"{fused.time} vs {reference.time}"
        )
    for var in sorted(fused.state):
        a, b = fused.state[var], reference.state[var]
        if not np.array_equal(a, b):
            diverged = int(np.sum(a != b))
            failures.append(
                f"kelvin-helmholtz (grid plane): variable {var!r}: "
                f"{diverged}/{a.size} cells differ"
            )
    return failures


#: golden bubble pass: short but long enough to cross a level-set
#: reinitialisation (10 steps per phase at the default reinit_interval=5)
BUBBLE_GOLDEN = dict(
    spin_up_time=0.04, truncation_time=0.04, snapshot_times=(0.04,),
    fixed_dt=0.004,
)


def _diff_bubble_planes() -> list:
    """Bubble run: fused bubble plane vs the op-by-op instrumented path.

    The baseline needs an explicit policy — ``Scenario.reference`` maps the
    bubble's full-precision contexts back to the solver's fast path — and
    ``RAPTOR_FAST_NO_BUBBLE=1`` so the solver's workspace glue is off too.
    """
    import os

    from repro.core import (FPFormat, GlobalPolicy, NoTruncationPolicy,
                            RaptorRuntime, TruncationConfig)
    from repro.workloads import create_workload

    def run(plane, fmt=None):
        runtime = RaptorRuntime()
        if fmt is None:
            policy = NoTruncationPolicy(runtime=runtime, count_ops=False,
                                        track_memory=False, plane=plane)
        else:
            policy = GlobalPolicy(
                TruncationConfig(targets={64: fmt}, count_ops=False,
                                 track_memory=False),
                runtime=runtime, plane=plane,
            )
        return create_workload("bubble", **BUBBLE_GOLDEN).run(
            policy=policy, runtime=runtime
        )

    fmt = FPFormat(exp_bits=8, man_bits=10)
    fused = run("fast")
    fused_trunc = run("auto", fmt)
    os.environ["RAPTOR_FAST_NO_BUBBLE"] = "1"
    try:
        reference = run("instrumented")
        reference_trunc = run("instrumented", fmt)
    finally:
        del os.environ["RAPTOR_FAST_NO_BUBBLE"]

    failures = []
    for label, a_out, b_out in (
        ("full-precision", reference, fused),
        ("truncated", reference_trunc, fused_trunc),
    ):
        if a_out.time != b_out.time:
            failures.append(
                f"bubble ({label}): final time differs: {a_out.time} vs {b_out.time}"
            )
        if a_out.info != b_out.info:
            failures.append(
                f"bubble ({label}): run summaries differ: {a_out.info} vs {b_out.info}"
            )
        for var in sorted(a_out.state):
            a, b = a_out.state[var], b_out.state[var]
            if not np.array_equal(a, b):
                diverged = int(np.sum(a != b))
                failures.append(
                    f"bubble ({label}): variable {var!r}: "
                    f"{diverged}/{a.size} cells differ"
                )
    return failures


def main() -> int:
    from repro.kernels.scratch import (
        batching_enabled,
        bubble_plane_enabled,
        grid_plane_enabled,
        scratch_enabled,
    )

    if not (scratch_enabled() and batching_enabled() and grid_plane_enabled()
            and bubble_plane_enabled()):
        print(
            "FAIL: RAPTOR_FAST_NO_SCRATCH / RAPTOR_FAST_NO_BATCH / "
            "RAPTOR_FAST_NO_GRID / RAPTOR_FAST_NO_BUBBLE are set — this "
            "check must exercise the scratch + batched + fused-grid + "
            "fused-bubble fast plane"
        )
        return 1

    failures = []
    for name, config in GOLDEN_CONFIGS.items():
        failures.extend(_diff_planes(name, config))
        failures.extend(_diff_trunc_planes(name, config))
        failures.extend(_diff_counted_planes(name, config))
    failures.extend(_diff_grid_plane())
    failures.extend(_diff_bubble_planes())
    # the bubble's interface-distance levels need no deeper grid for M-1
    failures.extend(_diff_counted_planes("bubble", BUBBLE_GOLDEN, "advection", {}))
    # cellular has no AMR levels: M-1 would be the global pass again
    failures.extend(_diff_counted_planes("cellular", CELLULAR_COUNTED, "eos", None))

    if failures:
        print("FAIL: fast plane is not bit-identical to the instrumented plane")
        for line in failures:
            print(f"  - {line}")
        return 1

    print(
        "OK: golden Sod (PLM) and Sedov (WENO5, fused flux + scratch + "
        "batched) bitwise identical on both planes, full-precision and "
        "truncated (e8m10); counted e8m10 (global and M-1) bitwise identical "
        "with byte-identical op/byte counters; regrid-heavy KH bitwise identical with the "
        "fused grid plane on and off; rising bubble bitwise identical on "
        "the fused bubble plane, full-precision and truncated; counted e8m10 "
        "bubble (global and M-1) and cellular (eos) bitwise identical with "
        "byte-identical counters"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
