"""End-to-end kernel-plane equivalence.

The acceptance contract of the fast plane: for binary64 (non-truncating)
contexts it is **bit-identical** to the instrumented plane — golden-config
runs match bitwise, and all seven registered workloads produce identical
``Outcome`` states through ``run_sweep`` on either plane, on both the
serial and the process backend.

Since the fused-flux PR, ``plane="fast"`` runs the compressible workloads
through the full fused pipeline (Riemann/EOS fusion + scratch workspaces +
batched block stepping) by default, so every sweep below also covers the
scratch/batched path; ``test_scratch_and_batching_are_active`` pins that
the defaults were indeed in effect.
"""
import numpy as np
import pytest

from repro.experiments import PolicySpec, SweepSpec, run_sweep
from repro.workloads import available_workloads, create_workload

#: deliberately tiny configurations — every registered workload, both kinds
#: of compressible instability, a handful of steps each
TINY_COMPRESSIBLE = dict(
    nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2, t_end=0.004, rk_stages=1
)
TINY_CONFIGS = {
    "sod": TINY_COMPRESSIBLE,
    "sedov": TINY_COMPRESSIBLE,
    "kelvin-helmholtz": TINY_COMPRESSIBLE,
    "rayleigh-taylor": TINY_COMPRESSIBLE,
    "double-blast": TINY_COMPRESSIBLE,
    "cellular": dict(n_cells=16, n_steps=4),
    "bubble": dict(spin_up_time=0.04, truncation_time=0.04, snapshot_times=(0.04,)),
}

ALL_WORKLOADS = tuple(TINY_CONFIGS)

#: the counter gate: a third level so M-1 mixes truncated and binary64
#: blocks, a step or two each (double-blast's steps are the costliest)
COUNTED_CONFIGS = {
    name: dict(TINY_COMPRESSIBLE, max_level=3, t_end=0.001)
    for name in ("sod", "sedov", "kelvin-helmholtz", "rayleigh-taylor", "double-blast")
}
COUNTED_CONFIGS["double-blast"]["t_end"] = 0.0002
#: the bubble's counted operators (advection, diffusion, level set) run on
#: the fused bubble plane under "auto"; its interface-distance levels give
#: M-1 a blend of truncated and binary64 cells
COUNTED_CONFIGS["bubble"] = TINY_CONFIGS["bubble"]
COUNTED_POLICIES = (
    PolicySpec(kind="global"), PolicySpec.amr_cutoff(1), PolicySpec.module("hydro"),
)
#: cellular's counted Newton inversion and pressure lookup run on the fused
#: EOS kernel under "auto"; the eos module is its only truncation target
CELLULAR_POLICIES = (PolicySpec(kind="global"), PolicySpec.module("eos"))
COUNTED_ROUNDINGS = ("nearest-even", "toward-zero")
COUNTED_RUNS = (("instrumented", "serial"), ("auto", "serial"), ("auto", "process"))
#: (workload, policy, rounding) — "rk2" is the rk_stages=2 Sedov sweep; the
#: hydro module maps to full precision on the bubble, which counts nothing
COUNTED_CASES = [
    (workload, policy.describe(), rounding)
    for workload in COUNTED_CONFIGS
    for policy in COUNTED_POLICIES
    for rounding in COUNTED_ROUNDINGS
    if not (workload == "bubble" and policy.kind == "module")
] + [("sedov", policy.describe(), "rk2") for policy in COUNTED_POLICIES] + [
    ("cellular", policy.describe(), rounding)
    for policy in CELLULAR_POLICIES
    for rounding in COUNTED_ROUNDINGS
]


def _assert_states_equal(a, b, label):
    assert set(a) == set(b), label
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=f"{label}: {key}")


class TestGoldenConfigsBothPlanes:
    """The golden Sod/Sedov configurations, instrumented vs fast."""

    @pytest.mark.parametrize("workload", ["sod", "sedov"])
    def test_reference_bitwise_identical(self, workload):
        cfg = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
                   t_end=0.04 if workload == "sod" else 0.02, rk_stages=1)
        instrumented = create_workload(workload, **cfg).reference(plane="instrumented")
        fast = create_workload(workload, **cfg).reference(plane="fast")
        assert fast.time == instrumented.time
        _assert_states_equal(instrumented.state, fast.state, workload)
        # the trade: the fast plane records no counters
        assert instrumented.runtime.ops.full > 0
        assert fast.runtime.ops.total == 0


class TestAllWorkloadsThroughRunSweep:
    """All seven registry workloads: identical outcome states through
    run_sweep on either plane, serial and process backends."""

    def test_registry_is_fully_covered(self):
        assert set(available_workloads()) == set(ALL_WORKLOADS)

    def test_scratch_and_batching_are_active(self):
        """The fast-plane sweeps in this module must exercise the fused
        flux pipeline with scratch buffers and batched block stepping —
        the defaults, unless the environment disabled them."""
        from repro.hydro.solver import HydroSolver
        from repro.kernels.scratch import batching_enabled, scratch_enabled

        assert scratch_enabled() and batching_enabled()
        solver = HydroSolver()
        assert solver._workspace is not None and solver.batch_blocks

    @pytest.fixture(scope="class")
    def results(self):
        def spec(plane, backend):
            return SweepSpec(
                workloads=ALL_WORKLOADS,
                formats=("fp64", "bf16"),
                policies=(PolicySpec(kind="global"),),
                workload_configs=TINY_CONFIGS,
                plane=plane,
                backend=backend,
                max_workers=2,
                keep_states=True,
            )

        return {
            (plane, backend): run_sweep(spec(plane, backend))
            for plane in ("instrumented", "fast")
            for backend in ("serial", "process")
        }

    def test_point_states_identical_across_planes_and_backends(self, results):
        baseline = results[("instrumented", "serial")]
        for key, other in results.items():
            if key == ("instrumented", "serial"):
                continue
            for ours, theirs in zip(baseline.points, other.points):
                assert ours.index == theirs.index
                _assert_states_equal(
                    ours.state, theirs.state, f"{key}: {theirs.workload}@{theirs.format_name}"
                )

    def test_reference_states_identical_across_planes(self, results):
        baseline = results[("instrumented", "serial")].references
        for key, other in results.items():
            for name, reference in other.references.items():
                _assert_states_equal(baseline[name].state, reference.state, f"{key}: {name}")

    def test_errors_identical_across_planes(self, results):
        baseline = results[("instrumented", "serial")]
        for key, other in results.items():
            for ours, theirs in zip(baseline.points, other.points):
                assert ours.errors == theirs.errors, key
                assert ours.scalar_error == theirs.scalar_error, key

    @pytest.fixture(scope="class")
    def counted(self):
        """Counted sweeps (the default ``count_point_ops=True``) of every
        compressible workload and the bubble × {global, M-1,
        module[hydro]} and of cellular × {global, module[eos]}, per
        rounding: the instrumented plane on the serial backend,
        ``plane="auto"`` on both backends."""

        def spec(plane, backend, rounding, configs=COUNTED_CONFIGS, policies=COUNTED_POLICIES):
            return SweepSpec(
                workloads=tuple(configs),
                formats=("bf16",),
                policies=policies,
                workload_configs=configs,
                rounding=rounding,
                plane=plane,
                backend=backend,
                max_workers=2,
                count_point_ops=True,
            )

        cellular = {"cellular": TINY_CONFIGS["cellular"]}
        runs = {
            (plane, backend, rounding): [
                run_sweep(spec(plane, backend, rounding)),
                run_sweep(spec(plane, backend, rounding, cellular, CELLULAR_POLICIES)),
            ]
            for rounding in COUNTED_ROUNDINGS
            for plane, backend in COUNTED_RUNS
        }
        rk2 = {"sedov": dict(COUNTED_CONFIGS["sedov"], rk_stages=2)}
        runs.update({
            (plane, backend, "rk2"): [run_sweep(spec(plane, backend, "nearest-even", rk2))]
            for plane, backend in COUNTED_RUNS
        })
        return runs

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("workload,policy,rounding", COUNTED_CASES)
    def test_auto_plane_counters_match_instrumented(self, counted, workload, policy,
                                                    rounding, backend):
        """plane="auto" (the default) must keep every counted point's
        metrics — errors and op/byte counters — identical to the
        instrumented plane: the counted hydro blocks, bubble operators and
        cellular EOS inversions run the fused kernels and charge the
        instrumented tally, the references move to the fast plane."""
        instrumented = counted[("instrumented", "serial", rounding)]
        auto = counted[("auto", backend, rounding)]

        def point(results):
            return next(p for result in results for p in result.points
                        if p.workload == workload and p.policy == policy)

        ours, theirs = point(instrumented), point(auto)
        assert ours.ops["truncated"] + ours.ops["full"] > 0
        assert theirs.metrics_key() == ours.metrics_key()

    def test_counted_bubble_cliff_identical_across_planes(self):
        """A counted bubble cliff search probes the same formats and reads
        the same errors and truncated fractions on either plane."""
        from repro.experiments import find_cliff

        def search(plane):
            return find_cliff("bubble", config_kwargs=TINY_CONFIGS["bubble"],
                              min_man_bits=4, max_man_bits=24, threshold=1e-4,
                              plane=plane)

        instrumented, auto = search("instrumented"), search("auto")

        def probes(result):
            return [(e.man_bits, e.error, e.passed, e.truncated_fraction)
                    for e in result.evaluations]

        assert all(e.truncated_fraction > 0 for e in instrumented.evaluations)
        assert probes(auto) == probes(instrumented)
        assert auto.cliff_man_bits == instrumented.cliff_man_bits

    def test_counted_cellular_cliff_identical_across_planes(self):
        """A counted cellular cliff search on the eos module — its Newton
        inversions stall below the cliff and converge above it — probes
        the same formats and reads the same errors and truncated fractions
        on either plane."""
        from repro.experiments import find_cliff

        def search(plane):
            return find_cliff("cellular", PolicySpec.module("eos"),
                              config_kwargs=TINY_CONFIGS["cellular"],
                              min_man_bits=8, max_man_bits=48, plane=plane)

        instrumented, auto = search("instrumented"), search("auto")

        def probes(result):
            return [(e.man_bits, e.error, e.passed, e.truncated_fraction)
                    for e in result.evaluations]

        assert all(e.truncated_fraction > 0 for e in instrumented.evaluations)
        assert {e.passed for e in instrumented.evaluations} == {True, False}
        assert probes(auto) == probes(instrumented)
        assert auto.cliff_man_bits == instrumented.cliff_man_bits

    def test_fast_plane_drops_full_precision_counters(self, results):
        fast = results[("fast", "serial")]
        for point in fast.points:
            # truncating contexts still feed the counters; full-precision
            # contexts run fused and record nothing
            assert point.ops["full"] == 0

    def test_timings_recorded(self, results):
        for result in results.values():
            assert result.elapsed_seconds > 0
            assert all(p.seconds > 0 for p in result.points)
            assert result.total_point_seconds == pytest.approx(
                sum(p.seconds for p in result.points)
            )

    def test_plane_disagreement_refuses_merge(self, results):
        from repro.experiments import SweepResult

        with pytest.raises(ValueError, match="cannot merge"):
            SweepResult.merge(
                results[("instrumented", "serial")], results[("fast", "serial")]
            )
