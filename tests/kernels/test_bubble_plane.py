"""Differential bit-identity harness for the fused bubble plane
(repro.kernels.bubble + the BubbleSolver/LevelSet/PoissonSolver dispatch).

The load-bearing contracts:

* every fused twin (advection WENO5/upwind, diffusion, level-set
  advect/reinitialise, curvature/heaviside/delta/material fields) is
  **bitwise identical** to the op-by-op reference it replaces — with or
  without a workspace;
* every truncation target run with a :class:`Rounder` hook rounds at
  exactly the op boundaries the optimized instrumented
  :class:`TruncatedContext` rounds at, property-tested across formats ×
  rounding modes on representable inputs;
* the batched WENO5 pair reconstruction equals the per-axis, per-edge
  evaluation bit for bit (ufuncs are elementwise, rows are independent);
* workspace discipline: poisoned buffers never leak into results, kernel
  inputs are never written, and a warm ``BubbleSolver.step`` allocates
  nothing (``ws.misses`` stays flat through further steps, including a
  reinitialisation);
* the whole plane sits behind ``RAPTOR_FAST_NO_BUBBLE``: full runs —
  binary64 and truncated, both advection schemes — produce bit-identical
  ``velx``/``vely``/``pres``/``phi`` with the knob on or off, and the
  bubble workload matches through ``run_sweep`` / ``find_cliff`` with
  instrumented counters byte-identical either way.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FPFormat,
    FullPrecisionContext,
    GlobalPolicy,
    RaptorRuntime,
    RoundingMode,
    TruncatedContext,
    TruncationConfig,
    quantize,
)
from repro.core.selective import NoTruncationPolicy
from repro.incomp import BubbleConfig, BubbleSolver
from repro.incomp.levelset import LevelSet, upwind_derivative
from repro.kernels import FastPlaneContext, TruncFastPlaneContext
from repro.kernels import bubble as kbubble
from repro.kernels.scratch import Workspace, bubble_plane_enabled
from repro.kernels.trunc import Rounder
from repro.workloads import create_workload

FORMATS = [
    FPFormat(exp_bits=8, man_bits=10),
    FPFormat(exp_bits=8, man_bits=7),
    FPFormat(exp_bits=5, man_bits=10),
]
FORMAT_IDS = [f"e{f.exp_bits}m{f.man_bits}" for f in FORMATS]
ROUNDINGS = list(RoundingMode.ALL)
E8M10 = FORMATS[0]

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)

TINY_BUBBLE = dict(spin_up_time=0.04, truncation_time=0.04, snapshot_times=(0.04,))


def small_config(**kwargs):
    defaults = dict(
        nx=20,
        ny=28,
        xlim=(-1.0, 1.0),
        ylim=(-1.0, 2.0),
        reynolds=350.0,
        bubble_diameter=0.8,
        advection_scheme="weno5",
        reinit_interval=3,
    )
    defaults.update(kwargs)
    return BubbleConfig(**defaults)


def make_solver(fused, monkeypatch, plane=None, **cfg_kw):
    """A solver built with the bubble plane on (``fused=True``) or off.

    The reference solver also runs on the instrumented kernel plane so its
    internal full-precision context is the classic op-by-op one.
    """
    if fused:
        monkeypatch.delenv("RAPTOR_FAST_NO_BUBBLE", raising=False)
    else:
        monkeypatch.setenv("RAPTOR_FAST_NO_BUBBLE", "1")
    solver = BubbleSolver(
        small_config(**cfg_kw), plane=plane or ("auto" if fused else "instrumented")
    )
    monkeypatch.delenv("RAPTOR_FAST_NO_BUBBLE", raising=False)
    return solver


def seed_state(solver, seed, fmt=None, rounding=RoundingMode.NEAREST_EVEN):
    """Deterministic, physical-ish random state; quantised when a format is
    given so truncating twins see representable operands."""
    rng = np.random.default_rng(seed)
    shape = solver.velx.shape
    velx = rng.uniform(-0.5, 0.5, shape)
    vely = rng.uniform(-0.5, 0.5, shape)
    phi = solver.levelset.phi + rng.uniform(-0.05, 0.05, shape)
    if fmt is not None:
        velx = np.asarray(quantize(velx, fmt, rounding))
        vely = np.asarray(quantize(vely, fmt, rounding))
        phi = np.asarray(quantize(phi, fmt, rounding))
    solver.velx = velx.copy()
    solver.vely = vely.copy()
    solver.levelset.phi = phi.copy()
    return velx, vely, phi


def _full(**kw):
    return FullPrecisionContext(runtime=RaptorRuntime(), count_ops=False,
                                track_memory=False, **kw)


def _silent_trunc(fmt=E8M10, rounding=RoundingMode.NEAREST_EVEN):
    return TruncatedContext(fmt, runtime=RaptorRuntime(), rounding=rounding,
                            count_ops=False, track_memory=False)


def assert_bits(a, b, label=""):
    np.testing.assert_array_equal(np.asarray(a), np.asarray(b), err_msg=label)


def solver_state(solver):
    return {
        "velx": solver.velx.copy(),
        "vely": solver.vely.copy(),
        "pres": solver.pres.copy(),
        "phi": solver.levelset.phi.copy(),
    }


# ---------------------------------------------------------------------------
# level-set kernel twins
# ---------------------------------------------------------------------------
class TestLevelSetTwins:
    def _pair(self, seed, ws):
        rng = np.random.default_rng(seed)
        phi = rng.uniform(-0.4, 0.4, (12, 16))
        ref = LevelSet(phi, 0.05, 0.06)
        fused = LevelSet(phi, 0.05, 0.06).enable_fused(ws)
        return ref, fused

    @given(seed=seeds, with_ws=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_indicator_and_material_fields(self, seed, with_ws):
        ref, fused = self._pair(seed, Workspace() if with_ws else None)
        assert_bits(fused.heaviside(), ref.heaviside(), "heaviside")
        assert_bits(fused.delta(), ref.delta(), "delta")
        assert_bits(fused.density(1.0, 0.1), ref.density(1.0, 0.1), "density")
        assert_bits(fused.viscosity(2e-3, 4e-5), ref.viscosity(2e-3, 4e-5), "viscosity")
        assert_bits(fused.curvature(), ref.curvature(), "curvature")

    @given(seed=seeds, iterations=st.integers(min_value=0, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_reinitialize(self, seed, iterations):
        ref, fused = self._pair(seed, Workspace())
        ref.reinitialize(iterations=iterations)
        fused.reinitialize(iterations=iterations)
        assert_bits(fused.phi, ref.phi, f"reinit({iterations})")

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_advect_binary64(self, seed):
        ref, fused = self._pair(seed, Workspace())
        rng = np.random.default_rng(seed + 1)
        velx = rng.uniform(-0.5, 0.5, ref.phi.shape)
        vely = rng.uniform(-0.5, 0.5, ref.phi.shape)
        ref.advect(velx, vely, 1e-3, _full())
        fused.advect(velx, vely, 1e-3, FastPlaneContext())
        assert_bits(fused.phi, ref.phi, "levelset_advect")

    @given(seed=seeds, fmt=st.sampled_from(FORMATS), rounding=st.sampled_from(ROUNDINGS))
    @settings(max_examples=60, deadline=None)
    def test_advect_truncated(self, seed, fmt, rounding):
        ref, fused = self._pair(seed, Workspace())
        rng = np.random.default_rng(seed + 1)
        velx = np.asarray(quantize(rng.uniform(-0.5, 0.5, ref.phi.shape), fmt, rounding))
        vely = np.asarray(quantize(rng.uniform(-0.5, 0.5, ref.phi.shape), fmt, rounding))
        ref.phi = np.asarray(quantize(ref.phi, fmt, rounding))
        fused.phi = ref.phi.copy()
        dt = 1e-3
        ref.advect(velx, vely, dt, _silent_trunc(fmt, rounding))
        fused.advect(velx, vely, dt, TruncFastPlaneContext(fmt, rounding=rounding))
        assert_bits(fused.phi, ref.phi, f"levelset_advect_trunc {fmt} {rounding}")

    def test_shared_upwind_derivative_modes(self):
        rng = np.random.default_rng(7)
        f = rng.uniform(-1.0, 1.0, (10, 12))
        vel = rng.uniform(-1.0, 1.0, (10, 12))
        ctx = _full()
        # wrap mode equals the historical np.roll expression
        got = upwind_derivative(f, vel, 0.1, 0, ctx, boundary="wrap")
        bwd = (f - np.roll(f, 1, 0)) * (1.0 / 0.1)
        fwd = (np.roll(f, -1, 0) - f) * (1.0 / 0.1)
        assert_bits(got, np.where(vel > 0.0, bwd, fwd), "wrap")
        # edge mode slices the caller's padding
        padded = np.pad(f, 1, mode="edge")
        got = upwind_derivative(f, vel, 0.1, 1, ctx, boundary="edge", padded=padded)
        bwd = (f - padded[1:-1, :-2]) * (1.0 / 0.1)
        fwd = (padded[1:-1, 2:] - f) * (1.0 / 0.1)
        assert_bits(got, np.where(vel > 0.0, bwd, fwd), "edge")
        with pytest.raises(ValueError, match="boundary"):
            upwind_derivative(f, vel, 0.1, 0, ctx, boundary="mirror")


# ---------------------------------------------------------------------------
# solver operator twins (advection / diffusion), binary64 and truncating
# ---------------------------------------------------------------------------
class TestSolverOperatorTwins:
    @pytest.mark.parametrize("scheme", ["weno5", "upwind"])
    @pytest.mark.parametrize("op", ["advection", "diffusion"])
    def test_binary64_operators(self, scheme, op, monkeypatch):
        ref = make_solver(False, monkeypatch, advection_scheme=scheme)
        fused = make_solver(True, monkeypatch, advection_scheme=scheme)
        seed_state(ref, 11)
        seed_state(fused, 11)
        for which, field in (("u", "velx"), ("v", "vely")):
            if op == "advection":
                a = ref.advection_term(getattr(ref, field), _full(), which)
                b = fused.advection_term(getattr(fused, field), FastPlaneContext(), which)
            else:
                mu_ref = ref.levelset.viscosity(2e-3, 4e-5)
                mu_fus = fused.levelset.viscosity(2e-3, 4e-5)
                assert_bits(mu_fus, mu_ref, "mu")
                a = ref.diffusion_term(getattr(ref, field), mu_ref, _full(), which)
                b = fused.diffusion_term(getattr(fused, field), mu_fus,
                                         FastPlaneContext(), which)
            assert_bits(b, a, f"{op}/{scheme}/{which}")

    @given(seed=seeds, fmt=st.sampled_from(FORMATS), rounding=st.sampled_from(ROUNDINGS))
    @settings(max_examples=25, deadline=None)
    def test_truncated_weno5_advection(self, seed, fmt, rounding):
        self._truncated_operator("weno5", "advection", seed, fmt, rounding)

    @given(seed=seeds, fmt=st.sampled_from(FORMATS), rounding=st.sampled_from(ROUNDINGS))
    @settings(max_examples=25, deadline=None)
    def test_truncated_upwind_advection(self, seed, fmt, rounding):
        self._truncated_operator("upwind", "advection", seed, fmt, rounding)

    @given(seed=seeds, fmt=st.sampled_from(FORMATS), rounding=st.sampled_from(ROUNDINGS))
    @settings(max_examples=25, deadline=None)
    def test_truncated_diffusion(self, seed, fmt, rounding):
        self._truncated_operator("weno5", "diffusion", seed, fmt, rounding)

    def _truncated_operator(self, scheme, op, seed, fmt, rounding):
        monkeypatch = pytest.MonkeyPatch()
        try:
            ref = make_solver(False, monkeypatch, advection_scheme=scheme)
            fused = make_solver(True, monkeypatch, advection_scheme=scheme)
        finally:
            monkeypatch.undo()
        seed_state(ref, seed, fmt, rounding)
        seed_state(fused, seed, fmt, rounding)
        slow = _silent_trunc(fmt, rounding)
        fast = TruncFastPlaneContext(fmt, rounding=rounding)
        for which, field in (("u", "velx"), ("v", "vely")):
            if op == "advection":
                a = ref.advection_term(getattr(ref, field), slow, which)
                b = fused.advection_term(getattr(fused, field), fast, which)
            else:
                mu = np.asarray(quantize(ref.levelset.viscosity(2e-3, 4e-5), fmt, rounding))
                a = ref.diffusion_term(getattr(ref, field), mu, slow, which)
                b = fused.diffusion_term(getattr(fused, field), mu, fast, which)
            assert_bits(b, a, f"{op}/{scheme}/{which} {fmt} {rounding}")

    def test_pair_matches_per_axis_twins(self):
        """The batched (5, 8, nx, ny) WENO5 reconstruction equals the
        per-axis single calls bit for bit — rows are independent lanes."""
        rng = np.random.default_rng(3)
        f = rng.uniform(-1.0, 1.0, (14, 18))
        velx = rng.uniform(-1.0, 1.0, (14, 18))
        vely = rng.uniform(-1.0, 1.0, (14, 18))
        padded = np.pad(f, 3, mode="edge")
        ws = Workspace()
        fx, fy = kbubble.weno5_derivative_pair(padded, velx, vely, 0.1, 0.2, ws=ws, key=("p",))
        fx, fy = fx.copy(), fy.copy()
        sx = kbubble.weno5_derivative(padded, velx, 0.1, 0, ws=ws, key=("s", 0))
        sy = kbubble.weno5_derivative(padded, vely, 0.2, 1, ws=ws, key=("s", 1))
        assert_bits(fx, sx, "pair/x")
        assert_bits(fy, sy, "pair/y")

    @given(fmt=st.sampled_from(FORMATS), rounding=st.sampled_from(ROUNDINGS))
    @settings(max_examples=20, deadline=None)
    def test_pair_trunc_matches_per_axis_twins(self, fmt, rounding):
        rng = np.random.default_rng(5)
        f = np.asarray(quantize(rng.uniform(-1.0, 1.0, (12, 14)), fmt, rounding))
        velx = np.asarray(quantize(rng.uniform(-1.0, 1.0, (12, 14)), fmt, rounding))
        vely = np.asarray(quantize(rng.uniform(-1.0, 1.0, (12, 14)), fmt, rounding))
        padded = np.pad(f, 3, mode="edge")
        ws = Workspace()
        q = Rounder(fmt, rounding)
        fx, fy = kbubble.weno5_derivative_pair(
            padded, velx, vely, 0.1, 0.2, ws=ws, key=("p",), q=q)
        fx, fy = fx.copy(), fy.copy()
        sx = kbubble.weno5_derivative(padded, velx, 0.1, 0, ws=ws, key=("s", 0), q=q)
        sy = kbubble.weno5_derivative(padded, vely, 0.2, 1, ws=ws, key=("s", 1), q=q)
        assert_bits(fx, sx, "pair_trunc/x")
        assert_bits(fy, sy, "pair_trunc/y")


# ---------------------------------------------------------------------------
# workspace discipline
# ---------------------------------------------------------------------------
class TestWorkspaceDiscipline:
    def test_steady_state_no_allocations(self, monkeypatch):
        """After one reinit cycle the warm step allocates nothing new from
        the workspace — misses stay flat across further full cycles."""
        solver = make_solver(True, monkeypatch)
        assert solver._workspace is not None
        for _ in range(solver.config.reinit_interval * 2):
            solver.step(1e-3)
        misses = solver._workspace.misses
        assert misses > 0
        for _ in range(solver.config.reinit_interval * 2):
            solver.step(1e-3)
        assert solver._workspace.misses == misses
        assert solver._workspace.hits > 0

    def test_poisoned_workspace_never_leaks(self, monkeypatch):
        """Every kernel must fully overwrite its scratch before reading it:
        NaN-poisoning all warm buffers cannot change a single bit."""
        a = make_solver(True, monkeypatch)
        b = make_solver(True, monkeypatch)
        for solver in (a, b):
            seed_state(solver, 23)
            for _ in range(4):
                solver.step(1e-3)
        for buf in a._workspace._buffers.values():
            if buf.dtype.kind == "f":
                buf.fill(np.nan)
            else:
                buf.fill(1)
        a.step(1e-3)
        b.step(1e-3)
        for key, val in solver_state(b).items():
            assert_bits(solver_state(a)[key], val, f"poisoned/{key}")

    def test_kernels_do_not_write_inputs(self):
        rng = np.random.default_rng(31)
        shape = (10, 12)
        phi = rng.uniform(-0.4, 0.4, shape)
        velx = rng.uniform(-0.5, 0.5, shape)
        vely = rng.uniform(-0.5, 0.5, shape)
        nu = np.abs(rng.uniform(0.1, 1.0, shape))
        fp = np.pad(phi, 1, mode="edge")
        nup = np.pad(nu, 1, mode="edge")
        padded3 = np.pad(phi, 3, mode="edge")
        ws = Workspace()
        originals = [x.copy() for x in (phi, velx, vely, nu, fp, nup, padded3)]
        kbubble.heaviside(phi, 0.1, ws=ws, key=("h",))
        kbubble.delta(phi, 0.1, ws=ws, key=("d",))
        kbubble.material_field(phi, 0.1, 1.0, 0.1, ws=ws, key=("m",))
        kbubble.curvature(phi, 0.05, 0.06, ws=ws, key=("c",))
        kbubble.gradient_axis(phi, 0.05, 0, ws=ws, key=("g",))
        kbubble.reinitialize(phi, 0.05, 0.06, iterations=3, ws=ws, key=("r",))
        kbubble.buoyancy(phi, 0.1, 1.0, 0.1, ws=ws, key=("b",))
        kbubble.surface_tension(phi, 0.1, 0.01, 0.05, 0.06, ws=ws, key=("st",))
        kbubble.levelset_advect(phi, velx, vely, 1e-3, 0.05, 0.06, ws=ws, key=("la",))
        kbubble.levelset_advect(phi, velx, vely, 1e-3, 0.05, 0.06, ws=ws,
                                key=("lat",), q=Rounder(E8M10))
        kbubble.weno5_derivative(padded3, velx, 0.05, 0, ws=ws, key=("w",))
        kbubble.weno5_derivative_pair(padded3, velx, vely, 0.05, 0.06, ws=ws, key=("wp",))
        kbubble.upwind_derivative(phi, velx, 0.05, 1, "edge", fp, ws=ws, key=("u",))
        kbubble.diffusion_term(phi, nu, fp, nup, 0.05, 0.06, ws=ws, key=("df",))
        kbubble.diffusion_term(phi, nu, fp, nup, 0.05, 0.06, ws=ws, key=("dft",),
                               q=Rounder(E8M10))
        for orig, arr in zip(originals, (phi, velx, vely, nu, fp, nup, padded3)):
            assert_bits(arr, orig, "input written")

    def test_twins_work_without_workspace(self):
        """ws=None falls back to fresh allocations, same bits."""
        rng = np.random.default_rng(37)
        phi = rng.uniform(-0.4, 0.4, (10, 12))
        velx = rng.uniform(-0.5, 0.5, (10, 12))
        vely = rng.uniform(-0.5, 0.5, (10, 12))
        with_ws = kbubble.levelset_advect(phi, velx, vely, 1e-3, 0.05, 0.06,
                                          ws=Workspace(), key=("a",))
        without = kbubble.levelset_advect(phi, velx, vely, 1e-3, 0.05, 0.06)
        assert_bits(with_ws, without, "ws=None")
        padded = np.pad(phi, 3, mode="edge")
        a = kbubble.weno5_derivative_pair(padded, velx, vely, 0.05, 0.06,
                                          ws=Workspace(), key=("p",))
        b = kbubble.weno5_derivative_pair(padded, velx, vely, 0.05, 0.06)
        assert_bits(a[0], b[0], "pair/ws=None/x")
        assert_bits(a[1], b[1], "pair/ws=None/y")


# ---------------------------------------------------------------------------
# the knob and whole-solver equivalence
# ---------------------------------------------------------------------------
class TestKnobAndFullRuns:
    def test_bubble_plane_enabled_parses_env(self, monkeypatch):
        monkeypatch.delenv("RAPTOR_FAST_NO_BUBBLE", raising=False)
        assert bubble_plane_enabled()
        for truthy in ("1", "true", "yes", "on"):
            monkeypatch.setenv("RAPTOR_FAST_NO_BUBBLE", truthy)
            assert not bubble_plane_enabled()
        for falsy in ("", "0", "false"):
            monkeypatch.setenv("RAPTOR_FAST_NO_BUBBLE", falsy)
            assert bubble_plane_enabled()

    def test_default_solver_rides_the_bubble_plane(self, monkeypatch):
        solver = make_solver(True, monkeypatch)
        assert solver._fused_bubble
        assert solver.levelset._fused
        assert solver.levelset._ws is solver._workspace
        off = make_solver(False, monkeypatch)
        assert not off._fused_bubble
        assert not off.levelset._fused

    @pytest.mark.parametrize("scheme", ["weno5", "upwind"])
    def test_binary64_runs_bitwise_identical(self, scheme, monkeypatch):
        ref = make_solver(False, monkeypatch, advection_scheme=scheme)
        fused = make_solver(True, monkeypatch, advection_scheme=scheme)
        ref.run(t_end=0.03, fixed_dt=2e-3)
        fused.run(t_end=0.03, fixed_dt=2e-3)
        for key, val in solver_state(ref).items():
            assert_bits(solver_state(fused)[key], val, f"{scheme}/{key}")

    @pytest.mark.parametrize("scheme", ["weno5", "upwind"])
    @pytest.mark.parametrize("rounding",
                             [RoundingMode.NEAREST_EVEN, RoundingMode.TOWARD_ZERO])
    def test_truncated_runs_bitwise_identical(self, scheme, rounding, monkeypatch):
        def run(fused):
            solver = make_solver(fused, monkeypatch, advection_scheme=scheme)
            ctx = (TruncFastPlaneContext(E8M10, rounding=rounding) if fused
                   else _silent_trunc(E8M10, rounding))
            solver.run(t_end=0.03, fixed_dt=2e-3, advection_ctx=ctx, diffusion_ctx=ctx)
            return solver_state(solver)

        ref, fast = run(False), run(True)
        for key, val in ref.items():
            assert_bits(fast[key], val, f"{scheme}/{rounding}/{key}")

    def test_blended_mask_runs_bitwise_identical(self, monkeypatch):
        """The M − l cutoff path blends truncated and full results — both
        planes must agree bit for bit through the blend."""
        def run(fused):
            solver = make_solver(fused, monkeypatch)
            ctx = (TruncFastPlaneContext(E8M10) if fused else _silent_trunc(E8M10))
            solver.run(
                t_end=0.02, fixed_dt=2e-3, advection_ctx=ctx, diffusion_ctx=ctx,
                truncate_mask_fn=lambda s: s.levelset.level_map(max_level=3) <= 2,
            )
            return solver_state(solver)

        ref, fast = run(False), run(True)
        for key, val in ref.items():
            assert_bits(fast[key], val, f"blend/{key}")

    def test_counting_contexts_and_counters_untouched(self, monkeypatch):
        """Counting truncating contexts keep their states and op counters
        byte-identical with the knob on or off: instrumented ones never
        ride the bubble plane, and a counting ``plane="auto"`` policy's
        fast-plane contexts run its operators fused while charging the
        instrumented tally."""
        def run(fused, route):
            if fused:
                monkeypatch.delenv("RAPTOR_FAST_NO_BUBBLE", raising=False)
            else:
                monkeypatch.setenv("RAPTOR_FAST_NO_BUBBLE", "1")
            wl = create_workload("bubble", **TINY_BUBBLE)
            if route == "instrumented-contexts":
                out = wl.run_strategy("everywhere", 10)
            else:
                rt = RaptorRuntime()
                policy = GlobalPolicy(TruncationConfig(targets={64: E8M10}),
                                      runtime=rt, plane="auto")
                assert isinstance(policy.context_for(module="advection"),
                                  TruncFastPlaneContext)
                out = wl.run(policy=policy, runtime=rt)
            monkeypatch.delenv("RAPTOR_FAST_NO_BUBBLE", raising=False)
            return out

        for route in ("instrumented-contexts", "auto-policy"):
            on, off = run(True, route), run(False, route)
            for key in off.state:
                assert_bits(on.state[key], off.state[key], f"{route}/{key}")
            assert on.info == off.info, route
            snap_on, snap_off = on.runtime.snapshot(), off.runtime.snapshot()
            assert snap_off["ops"]["truncated"] > 0 and snap_off["mem"]["truncated"] > 0
            for field in ("ops", "mem", "modules"):
                assert snap_on[field] == snap_off[field], f"{route}/{field}"


# ---------------------------------------------------------------------------
# the workload through the engine entry points
# ---------------------------------------------------------------------------
class TestWorkloadEquivalence:
    def _run_policy(self, policy_kind, plane, fused, monkeypatch):
        if fused:
            monkeypatch.delenv("RAPTOR_FAST_NO_BUBBLE", raising=False)
        else:
            monkeypatch.setenv("RAPTOR_FAST_NO_BUBBLE", "1")
        wl = create_workload("bubble", **TINY_BUBBLE)
        rt = RaptorRuntime()
        if policy_kind == "trunc":
            policy = GlobalPolicy(
                TruncationConfig(targets={64: E8M10}, count_ops=False,
                                 track_memory=False),
                runtime=rt, plane=plane,
            )
        else:
            policy = NoTruncationPolicy(runtime=rt, count_ops=False,
                                        track_memory=False, plane=plane)
        out = wl.run(policy=policy, runtime=rt)
        monkeypatch.delenv("RAPTOR_FAST_NO_BUBBLE", raising=False)
        return out

    @pytest.mark.parametrize("policy_kind", ["full", "trunc"])
    def test_states_identical_across_planes_and_knob(self, policy_kind, monkeypatch):
        baseline = self._run_policy(policy_kind, "instrumented", False, monkeypatch)
        for plane in ("instrumented", "auto", "fast"):
            for fused in (False, True):
                other = self._run_policy(policy_kind, plane, fused, monkeypatch)
                assert other.time == baseline.time
                for key in baseline.state:
                    assert_bits(other.state[key], baseline.state[key],
                                f"{policy_kind}/{plane}/fused={fused}/{key}")

    def test_run_sweep_identical_with_knob_on_or_off(self, monkeypatch):
        from repro.experiments import PolicySpec, SweepSpec, run_sweep

        def sweep():
            return run_sweep(SweepSpec(
                workloads=("bubble",),
                formats=("fp64", "bf16"),
                policies=(PolicySpec(kind="global"),),
                workload_configs={"bubble": TINY_BUBBLE},
                keep_states=True,
            ))

        monkeypatch.delenv("RAPTOR_FAST_NO_BUBBLE", raising=False)
        fused = sweep()
        monkeypatch.setenv("RAPTOR_FAST_NO_BUBBLE", "1")
        plain = sweep()
        monkeypatch.delenv("RAPTOR_FAST_NO_BUBBLE", raising=False)
        for a, b in zip(fused.points, plain.points):
            assert a.errors == b.errors
            assert set(a.state) == set(b.state)
            for key in a.state:
                assert_bits(a.state[key], b.state[key], f"{a.format_name}/{key}")
        for name, reference in fused.references.items():
            for key in reference.state:
                assert_bits(reference.state[key], plain.references[name].state[key],
                            f"ref/{key}")

    def test_find_cliff_identical_with_knob_on_or_off(self, monkeypatch):
        from repro.experiments import find_cliff

        kwargs = dict(
            config_kwargs=dict(TINY_BUBBLE),
            min_man_bits=4, max_man_bits=12, exp_bits=8,
            count_ops=False,
        )
        monkeypatch.delenv("RAPTOR_FAST_NO_BUBBLE", raising=False)
        fused = find_cliff("bubble", **kwargs)
        monkeypatch.setenv("RAPTOR_FAST_NO_BUBBLE", "1")
        plain = find_cliff("bubble", **kwargs)
        monkeypatch.delenv("RAPTOR_FAST_NO_BUBBLE", raising=False)
        assert fused.cliff_man_bits == plain.cliff_man_bits
        assert [(e.man_bits, e.error) for e in fused.evaluations] == [
            (e.man_bits, e.error) for e in plain.evaluations
        ]
