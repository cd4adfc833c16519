"""Bit-identity tests for the fused truncating plane: the fused kernels run
with the truncating rounding hook of repro.kernels.trunc.

The load-bearing contracts:

* :func:`repro.core.quantize.quantize` with ``out=`` (a separate array or
  the input itself, as the :class:`Rounder` hook rounds) is **bitwise
  identical** to the allocating call and to the exact ``Fraction`` oracle —
  including signed zeros, NaN payloads, non-finite lanes, subnormals and
  the directed-rounding overflow clamps;
* every fused kernel (stencils, EOS helpers, wave speeds, Riemann
  solvers) run with a :class:`Rounder` reproduces the optimized
  instrumented :class:`TruncatedContext` stream bit for bit on
  representable inputs, because it quantises at exactly the same op
  boundaries; the exact hook hands back its inputs untouched;
* plane selection routes optimized truncating contexts onto
  :class:`TruncFastPlaneContext` under both ``"fast"`` and ``"auto"`` —
  counting ones keep their counters, record exactly what the instrumented
  context records and are not ``fused`` — and never substitutes a naive,
  error-tracking or shadow context;
* the scratch workspace and the batched per-level stepping never change a
  bit, and whole truncated workloads (states *and* counter snapshots) are
  identical across planes, backends and the engine entry points.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BF16,
    AMRCutoffPolicy,
    FPFormat,
    FullPrecisionContext,
    GlobalPolicy,
    RaptorRuntime,
    RoundingMode,
    ShadowContext,
    TruncatedContext,
    TruncationConfig,
    quantize,
)
from repro.core.softfloat import exact_quantize
from repro.hydro.eos import GammaLawEOS
from repro.hydro.reconstruction import SCHEMES, _weno5_edge, reconstruct
from repro.hydro.riemann import SOLVERS, _einfeldt_wave_speeds, _wave_speeds
from repro.hydro.solver import HydroSolver
from repro.kernels import (
    FastPlaneContext,
    TruncFastPlaneContext,
    flux,
    fused,
    is_trunc_fast_eligible,
    select_context,
)
from repro.kernels.scratch import Workspace
from repro.kernels.trunc import EXACT, Rounder

GAMMA = 1.4
COMPONENTS = ("dens", "momn", "momt", "ener")

#: the paper's sweep format plus the standard half-width pair and an FP8
FORMATS = [
    FPFormat(exp_bits=8, man_bits=10),
    FPFormat(exp_bits=8, man_bits=7),
    FPFormat(exp_bits=5, man_bits=10),
    FPFormat(exp_bits=5, man_bits=2),
]
FORMAT_IDS = [f"e{f.exp_bits}m{f.man_bits}" for f in FORMATS]
ROUNDINGS = list(RoundingMode.ALL)

E8M10 = FORMATS[0]


def _instrumented(fmt=E8M10, rounding=RoundingMode.NEAREST_EVEN, **kw):
    """The optimized op-by-op truncating context the fused twins must match."""
    return TruncatedContext(fmt, runtime=RaptorRuntime(), rounding=rounding, **kw)


def _silent(fmt=E8M10, rounding=RoundingMode.NEAREST_EVEN):
    """A non-counting truncating context (trunc-fast-plane eligible)."""
    return TruncatedContext(
        fmt, runtime=RaptorRuntime(), rounding=rounding,
        count_ops=False, track_memory=False,
    )


def _fast(fmt=E8M10, rounding=RoundingMode.NEAREST_EVEN):
    return TruncFastPlaneContext(fmt, rounding=rounding)


# ---------------------------------------------------------------------------
# quantize(..., out=)
# ---------------------------------------------------------------------------
all_doubles = st.lists(
    st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=1, max_size=24
).map(lambda xs: np.asarray(xs, dtype=np.float64))


def _oracle(arr, fmt, rounding):
    """Element-wise exact_quantize (the Fraction oracle), NaN lanes as given."""
    return np.array([x if np.isnan(x) else exact_quantize(x, fmt, rounding) for x in arr])


class TestQuantizeOut:
    @given(
        arr=all_doubles,
        fmt=st.sampled_from(FORMATS),
        rounding=st.sampled_from(ROUNDINGS),
    )
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_quantize(self, arr, fmt, rounding):
        expected = quantize(arr, fmt, rounding)
        # the bit patterns must agree (signed zeros, NaN payloads), with
        # the Fraction oracle too
        np.testing.assert_array_equal(
            expected.view(np.uint64), _oracle(arr, fmt, rounding).view(np.uint64)
        )
        for out in (None, np.empty_like(arr)):
            got = quantize(arr.copy(), fmt, rounding, out=out)
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @given(
        arr=all_doubles,
        fmt=st.sampled_from(FORMATS),
        rounding=st.sampled_from(ROUNDINGS),
    )
    @settings(max_examples=60, deadline=None)
    def test_in_place_and_out_variants(self, arr, fmt, rounding):
        expected = np.asarray(quantize(arr, fmt, rounding))
        inplace = arr.copy()
        assert quantize(inplace, fmt, rounding, out=inplace) is inplace
        np.testing.assert_array_equal(inplace.view(np.uint64), expected.view(np.uint64))
        dest = np.full_like(arr, 3.25)
        src = arr.copy()
        assert quantize(src, fmt, rounding, out=dest) is dest
        np.testing.assert_array_equal(dest.view(np.uint64), expected.view(np.uint64))
        np.testing.assert_array_equal(src.view(np.uint64), arr.view(np.uint64))

    @given(arr=all_doubles, fmt=st.sampled_from(FORMATS), rounding=st.sampled_from(ROUNDINGS))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, arr, fmt, rounding):
        once = quantize(arr.copy(), fmt, rounding)
        twice = once.copy()
        quantize(twice, fmt, rounding, out=twice)
        np.testing.assert_array_equal(
            twice.view(np.uint64), once.view(np.uint64)
        )

    def test_special_lanes_restored(self):
        arr = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0 / 3.0])
        for rounding in ROUNDINGS:
            got = arr.copy()
            quantize(got, BF16, rounding, out=got)
            assert got[0] == np.inf and got[1] == -np.inf and np.isnan(got[2])
            assert got[3] == 0.0 and not np.signbit(got[3])
            assert got[4] == 0.0 and np.signbit(got[4])
            assert got[5] == float(quantize(1.0 / 3.0, BF16, rounding))

    def test_nan_payloads_pass_through(self):
        """Quiet, negative and signalling NaNs come back bit for bit, with
        no floating-point warning, next to lanes that overflow."""
        import warnings

        nans = np.array([0x7FF8000000000000, 0xFFF8000000000abc, 0x7FF0000000000001],
                        dtype=np.uint64).view(np.float64)
        arr = np.concatenate([nans, [1e300, -1e300, 0.5]])
        for fmt in (BF16, FPFormat(exp_bits=11, man_bits=20)):
            for rounding in ROUNDINGS:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = quantize(arr, fmt, rounding)
                np.testing.assert_array_equal(got[:3].view(np.uint64), nans.view(np.uint64))

    def test_zero_dim_keeps_its_shape(self):
        for fmt in (BF16, FPFormat(exp_bits=11, man_bits=20)):
            for rounding in ROUNDINGS:
                for x in (1.0 / 3.0, np.float64(-0.1), np.asarray(2.5e-40), -0.0, np.inf):
                    got = quantize(x, fmt, rounding)
                    assert isinstance(got, np.ndarray) and got.shape == ()
                    want = exact_quantize(float(x), fmt, rounding)
                    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
                    dest = np.array(7.0)
                    assert quantize(x, fmt, rounding, out=dest) is dest and dest.shape == ()
                    assert dest.view(np.uint64) == got.view(np.uint64)

    def test_empty_arrays(self):
        for fmt in (BF16, FPFormat(exp_bits=11, man_bits=20)):
            for rounding in ROUNDINGS:
                for shape in ((0,), (3, 0)):
                    arr = np.empty(shape)
                    got = quantize(arr, fmt, rounding)
                    assert got.shape == shape and got is not arr
                    dest = np.empty(shape)
                    assert quantize(arr, fmt, rounding, out=dest) is dest
                    assert quantize(arr, fmt, rounding, out=arr) is arr

    def test_fp64_nearest_fast_path_copies(self):
        from repro.core import FP64

        arr = np.array([np.pi, -0.0, np.nan])
        got = quantize(arr, FP64, RoundingMode.NEAREST_EVEN)
        assert got is not arr
        np.testing.assert_array_equal(got.view(np.uint64), arr.view(np.uint64))
        dest = np.empty_like(arr)
        assert quantize(arr, FP64, RoundingMode.NEAREST_EVEN, out=dest) is dest
        np.testing.assert_array_equal(dest.view(np.uint64), arr.view(np.uint64))
        assert quantize(arr, FP64, RoundingMode.NEAREST_EVEN, out=arr) is arr

    def test_unknown_rounding_rejected(self):
        with pytest.raises(ValueError, match="rounding"):
            quantize(np.ones(3), BF16, "stochastic")

    def test_rounder_scratch_reaches_steady_state(self):
        """The hook rounds in place without scratch; ``lift`` reuses one
        workspace buffer per key."""
        ws = Workspace()
        q = Rounder(BF16, RoundingMode.UP).bind(ws)
        arr = np.linspace(-2.0, 2.0, 64)
        q(arr.copy())
        assert ws.misses == 0 and ws.n_buffers == 0
        first = q.lift(arr, ("lift", "x"))
        misses = ws.misses
        assert misses == 1
        assert q.lift(arr, ("lift", "x")) is first
        assert ws.misses == misses and ws.hits > 0


# ---------------------------------------------------------------------------
# the context and plane selection
# ---------------------------------------------------------------------------
class TestTruncFastPlaneContext:
    def test_flags_and_describe(self):
        ctx = _fast(rounding=RoundingMode.UP)
        assert ctx.plane == "fast" and ctx.fused
        assert isinstance(ctx.rounder, Rounder)
        assert ctx.rounder.fmt is ctx.fmt and ctx.rounder.rounding == RoundingMode.UP
        assert ctx.truncating and ctx.optimized
        assert not (ctx.count_ops or ctx.track_memory or ctx.track_errors)
        assert "e8m10" in ctx.describe()

    def test_from_context_clones_format_and_rounding(self):
        rt = RaptorRuntime()
        src = TruncatedContext(BF16, runtime=rt, module="hydro",
                               rounding=RoundingMode.DOWN,
                               count_ops=False, track_memory=False)
        ctx = TruncFastPlaneContext.from_context(src)
        assert ctx.fmt is src.fmt and ctx.rounding == RoundingMode.DOWN
        assert ctx.module == "hydro" and ctx.runtime is rt

    def test_records_nothing(self):
        rt = RaptorRuntime()
        ctx = TruncFastPlaneContext(E8M10, runtime=rt)
        ctx.add(np.ones(8), np.ones(8))
        ctx.sum(np.ones(8))
        assert rt.ops.total == 0 and rt.mem.total == 0

    @given(
        a=st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                   min_size=1, max_size=12).map(np.asarray),
        fmt=st.sampled_from(FORMATS),
        rounding=st.sampled_from(ROUNDINGS),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("counting", [False, True], ids=["silent", "counting"])
    def test_ops_match_instrumented(self, a, fmt, rounding, counting):
        """Op for op, the plane context returns the instrumented bits; a
        counting one also records exactly what the instrumented context
        records, element-wise ops and reductions alike."""
        a = np.asarray(quantize(a, fmt, rounding))
        b = np.abs(a) + 1.0
        b = np.asarray(quantize(b, fmt, rounding))
        slow = _instrumented(fmt, rounding, module="hydro")
        fast = TruncFastPlaneContext(fmt, runtime=RaptorRuntime(), module="hydro",
                                     rounding=rounding, count_ops=counting,
                                     track_memory=counting)
        assert fast.fused is not counting
        for op, args in (
            ("add", (a, b)), ("sub", (a, b)), ("mul", (a, b)), ("div", (a, b)),
            ("maximum", (a, b)), ("minimum", (a, b)),
            ("sqrt", (b,)), ("square", (a,)), ("abs", (a,)), ("neg", (a,)),
            ("sum", (a,)), ("max", (a,)), ("min", (a,)),
        ):
            np.testing.assert_array_equal(
                getattr(fast, op)(*args), getattr(slow, op)(*args), err_msg=op
            )
            if counting:
                snaps = fast.runtime.snapshot(), slow.runtime.snapshot()
                for field in ("ops", "mem", "modules"):
                    assert snaps[0][field] == snaps[1][field], (op, field)


class TestRoundingHooks:
    def test_exact_rounder_returns_its_inputs(self):
        arr = np.array([np.pi, -0.0, np.nan, np.inf, 5e-324])
        snap = arr.copy()
        assert EXACT(arr) is arr
        assert EXACT.lift(arr, ("lift", "dens")) is arr
        assert EXACT.bind(Workspace()) is EXACT and EXACT.key == ()
        np.testing.assert_array_equal(arr.view(np.uint64), snap.view(np.uint64))
        for x in (1.0 / 3.0, -0.0, 5e-324, 1e308, np.inf):
            for hook in (EXACT.const, EXACT.dyn):
                got = hook(x)
                assert got is x
                assert np.float64(got).view(np.uint64) == np.float64(x).view(np.uint64)
        # the lift touches no scratch buffer
        ws = Workspace()
        EXACT.bind(ws).lift(np.ones((4, 4)), ("lift", "dens"))
        assert ws.misses == 0 and ws.n_buffers == 0

    def test_fast_plane_contexts_carry_their_hooks(self):
        assert FastPlaneContext().rounder is EXACT
        ctx = _fast(BF16, RoundingMode.DOWN)
        assert ctx.rounder.sig == ("trunc", 8, 7, RoundingMode.DOWN)
        assert ctx.rounder.key == ("T",) and EXACT.sig == ("b64",)

    def test_rounder_bind_and_lift(self):
        ws = Workspace()
        q = Rounder(BF16, RoundingMode.TOWARD_ZERO)
        bound = q.bind(ws)
        assert bound.ws is ws and bound.bind(ws) is bound and q.ws is None
        arr = np.linspace(-1.0, 1.0, 7)
        lifted = bound.lift(arr, ("lift", "x"))
        assert lifted is not arr
        np.testing.assert_array_equal(lifted, quantize(arr, BF16, RoundingMode.TOWARD_ZERO))
        assert bound.const(0.1) == bound.dyn(0.1) == float(
            quantize(0.1, BF16, RoundingMode.TOWARD_ZERO))


    def test_const_cache_contract(self):
        """Both contexts read one literal cache: the same bits from
        ``Rounder.const`` and ``TruncatedContext.const``, a fresh 0-d array
        per context call (mutating it changes no later call), and signed
        zeros kept apart."""
        for fmt in (BF16, E8M10, FPFormat(exp_bits=11, man_bits=20)):
            for rounding in ROUNDINGS:
                ctx, q = _instrumented(fmt, rounding), Rounder(fmt, rounding)
                for x in (2.0, 1.0 / 6.0, 0.1, -13.0 / 12.0, 1e-300, 1e300, 3, 0.0, -0.0):
                    want = exact_quantize(float(x), fmt, rounding)
                    got = ctx.const(x)
                    assert isinstance(got, np.ndarray) and got.shape == ()
                    for v in (got, q.const(x), q.dyn(x)):
                        assert np.float64(v).view(np.uint64) == np.float64(want).view(np.uint64)
                    got += 1.0
                    again = ctx.const(x)
                    assert again is not got
                    assert again.view(np.uint64) == np.float64(want).view(np.uint64)
                    assert float(q.const(x)) == want

class TestTruncPlaneSelection:
    def test_eligibility_predicate(self):
        assert is_trunc_fast_eligible(_silent())
        assert is_trunc_fast_eligible(_instrumented())  # counting
        assert not is_trunc_fast_eligible(
            TruncatedContext(BF16, runtime=RaptorRuntime(), optimized=False,
                             count_ops=False, track_memory=False)
        )
        assert not is_trunc_fast_eligible(
            TruncatedContext(BF16, runtime=RaptorRuntime(), track_errors=True,
                             count_ops=False, track_memory=False)
        )
        assert not is_trunc_fast_eligible(
            FullPrecisionContext(runtime=RaptorRuntime(), count_ops=False,
                                 track_memory=False)
        )

    @pytest.mark.parametrize("plane", ["fast", "auto"])
    def test_silent_truncating_context_rides_the_trunc_plane(self, plane):
        src = _silent(fmt=BF16, rounding=RoundingMode.TOWARD_ZERO)
        ctx = select_context(src, plane)
        assert isinstance(ctx, TruncFastPlaneContext)
        assert ctx.fmt is src.fmt and ctx.rounding == src.rounding
        assert ctx.runtime is src.runtime

    def test_instrumented_plane_never_substitutes(self):
        for src in (_silent(), _instrumented()):
            assert select_context(src, "instrumented") is src

    @pytest.mark.parametrize("plane", ["fast", "auto"])
    def test_counting_truncating_context_moves_counting_without_warning(self, plane):
        import warnings

        counting = TruncatedContext(BF16, runtime=RaptorRuntime(), module="hydro",
                                    rounding=RoundingMode.TOWARD_ZERO, track_memory=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ctx = select_context(counting, plane)
        assert isinstance(ctx, TruncFastPlaneContext) and not ctx.fused
        assert ctx.count_ops and not ctx.track_memory
        assert ctx.fmt is counting.fmt and ctx.rounding == counting.rounding
        assert ctx.module == "hydro" and ctx.runtime is counting.runtime
        assert "counting" in ctx.describe()

    def test_naive_and_shadow_contexts_stay_put(self):
        naive = TruncatedContext(BF16, runtime=RaptorRuntime(), optimized=False,
                                 count_ops=False, track_memory=False)
        naive_counting = TruncatedContext(BF16, runtime=RaptorRuntime(), optimized=False)
        tracking = TruncatedContext(BF16, runtime=RaptorRuntime(), track_errors=True)
        shadow = ShadowContext.from_config(
            TruncationConfig(targets={64: BF16}), runtime=RaptorRuntime()
        )
        for plane in ("fast", "auto"):
            for ctx in (naive, naive_counting, tracking, shadow):
                assert select_context(ctx, plane) is ctx

    def test_selection_is_idempotent_on_the_plane(self):
        ctx = _fast()
        for plane in ("fast", "auto", "instrumented"):
            assert select_context(ctx, plane) is ctx

    def test_fast_on_counting_binary64_warns_with_module_name(self):
        counting = FullPrecisionContext(runtime=RaptorRuntime(), module="hydro")
        with pytest.warns(UserWarning, match="module='hydro'") as record:
            ctx = select_context(counting, "fast")
        assert isinstance(ctx, FastPlaneContext)
        assert "counters will read zero" in str(record[0].message)

    def test_no_warning_on_auto_or_silent_binary64(self):
        import warnings

        counting = FullPrecisionContext(runtime=RaptorRuntime())
        silent = FullPrecisionContext(runtime=RaptorRuntime(),
                                      count_ops=False, track_memory=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert select_context(counting, "auto") is counting
            assert isinstance(select_context(silent, "fast"), FastPlaneContext)
            assert isinstance(select_context(_silent(), "fast"), TruncFastPlaneContext)


# ---------------------------------------------------------------------------
# per-kernel twins (hypothesis)
# ---------------------------------------------------------------------------
@st.composite
def trunc_face_states(draw):
    """Left/right primitive face states quantized into the drawn format —
    the representability contract of the fused truncating kernels."""
    fmt = draw(st.sampled_from(FORMATS))
    rounding = draw(st.sampled_from(ROUNDINGS))
    n = draw(st.integers(min_value=1, max_value=10))
    arr = lambda lo, hi: np.asarray(quantize(np.asarray(
        draw(st.lists(st.floats(min_value=lo, max_value=hi, allow_nan=False),
                      min_size=n, max_size=n)), dtype=np.float64), fmt, rounding))
    mk = lambda: {
        "dens": arr(1e-2, 1e2),
        "velx": arr(-5.0, 5.0),
        "vely": arr(-5.0, 5.0),
        "pres": arr(1e-2, 1e2),
    }
    return mk(), mk(), fmt, rounding


class TestTruncKernelTwins:
    @pytest.mark.parametrize("scheme", sorted(fused.FUSED_SCHEMES))
    @given(
        u=st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                   min_size=14, max_size=18).map(np.asarray),
        fmt=st.sampled_from(FORMATS),
        rounding=st.sampled_from(ROUNDINGS),
    )
    @settings(max_examples=25, deadline=None)
    def test_stencils_bitwise(self, scheme, u, fmt, rounding):
        field = np.asarray(quantize(
            np.stack([np.roll(u, k) + 0.1 * k for k in range(14)]), fmt, rounding
        ))
        ng, slow = 3, _instrumented(fmt, rounding)
        for axis in (0, 1):
            nn = field.shape[axis] - 2 * ng - 1
            left_s, right_s = SCHEMES[scheme](field, axis, ng, nn, slow)
            for ws in (None, Workspace()):
                left_f, right_f = fused.FUSED_SCHEMES[scheme](
                    field, axis, ng, nn, ws=ws, key=("t",), q=Rounder(fmt, rounding)
                )
                np.testing.assert_array_equal(left_f, left_s)
                np.testing.assert_array_equal(right_f, right_s)

    @pytest.mark.parametrize("scheme", sorted(fused.FUSED_SCHEMES))
    @pytest.mark.parametrize("rounding", ROUNDINGS)
    def test_reconstruct_dispatches_on_the_trunc_plane(self, scheme, rounding):
        rng = np.random.default_rng(42)
        field = np.asarray(quantize(rng.normal(size=(20, 20)) + 2.0, E8M10, rounding))
        slow = _instrumented(rounding=rounding)
        fast = _fast(rounding=rounding)
        for axis in (0, 1):
            left_s, right_s = reconstruct(field, axis, 3, 8, slow, scheme)
            left_f, right_f = reconstruct(field, axis, 3, 8, fast, scheme)
            np.testing.assert_array_equal(left_f, left_s)
            np.testing.assert_array_equal(right_f, right_s)

    @given(state=trunc_face_states())
    @settings(max_examples=30, deadline=None)
    def test_weno5_edge_bitwise(self, state):
        left, _, fmt, rounding = state
        rows = [left["dens"], left["velx"], left["vely"], left["pres"],
                np.asarray(quantize(left["dens"] + left["pres"], fmt, rounding))]
        slow = _instrumented(fmt, rounding)
        expected = _weno5_edge(*rows, slow)
        for ws in (None, Workspace()):
            got = fused.weno5_edge(*rows, ws=ws, key=("e",), q=Rounder(fmt, rounding))
            np.testing.assert_array_equal(got, expected)

    @given(state=trunc_face_states())
    @settings(max_examples=30, deadline=None)
    def test_eos_helpers_bitwise(self, state):
        left, _, fmt, rounding = state
        dens, velx, vely, pres = (left[k] for k in ("dens", "velx", "vely", "pres"))
        eos = GammaLawEOS(gamma=GAMMA)
        slow = _instrumented(fmt, rounding)
        kw = dict(q=Rounder(fmt, rounding))
        np.testing.assert_array_equal(
            flux.eos_sound_speed(dens, pres, GAMMA, **kw),
            eos.sound_speed(dens, pres, slow),
        )
        np.testing.assert_array_equal(
            flux.eos_internal_energy(dens, pres, GAMMA, **kw),
            eos.internal_energy_from_pressure(dens, pres, slow),
        )
        np.testing.assert_array_equal(
            flux.eos_pressure_from_internal_energy(
                dens, pres, GAMMA, eos.pressure_floor, **kw),
            eos.pressure_from_internal_energy(dens, pres, slow),
        )
        ener_slow = eos.total_energy(dens, velx, vely, pres, slow)
        np.testing.assert_array_equal(
            flux.eos_total_energy(dens, velx, vely, pres, GAMMA, **kw), ener_slow
        )
        momx = np.asarray(quantize(dens * velx, fmt, rounding))
        momy = np.asarray(quantize(dens * vely, fmt, rounding))
        np.testing.assert_array_equal(
            flux.eos_pressure_from_total_energy(
                dens, momx, momy, ener_slow, GAMMA,
                eos.pressure_floor, eos.density_floor, **kw),
            eos.pressure_from_total_energy(dens, momx, momy, ener_slow, slow),
        )

    def test_gamma_law_eos_dispatches_on_the_trunc_plane(self):
        rng = np.random.default_rng(7)
        q = lambda a: np.asarray(quantize(a, E8M10, RoundingMode.NEAREST_EVEN))
        dens, pres = q(rng.uniform(0.1, 2.0, 32)), q(rng.uniform(0.1, 2.0, 32))
        velx, vely = q(rng.normal(size=32)), q(rng.normal(size=32))
        eos = GammaLawEOS()
        slow, fast = _instrumented(), _fast()
        pairs = [
            (eos.sound_speed(dens, pres, slow), eos.sound_speed(dens, pres, fast)),
            (eos.internal_energy_from_pressure(dens, pres, slow),
             eos.internal_energy_from_pressure(dens, pres, fast)),
            (eos.pressure_from_internal_energy(dens, pres, slow),
             eos.pressure_from_internal_energy(dens, pres, fast)),
            (eos.total_energy(dens, velx, vely, pres, slow),
             eos.total_energy(dens, velx, vely, pres, fast)),
            (eos.pressure_from_total_energy(dens, q(dens * velx), q(dens * vely), pres, slow),
             eos.pressure_from_total_energy(dens, q(dens * velx), q(dens * vely), pres, fast)),
        ]
        for expected, got in pairs:
            np.testing.assert_array_equal(got, expected)

    @given(state=trunc_face_states())
    @settings(max_examples=25, deadline=None)
    def test_wave_speeds_bitwise(self, state):
        left, right, fmt, rounding = state
        eos = GammaLawEOS(gamma=GAMMA)
        slow = _instrumented(fmt, rounding)
        sl_s, sr_s = _wave_speeds(left, right, eos, slow)
        sl_f, sr_f = flux.davis_wave_speeds(left, right, GAMMA, q=Rounder(fmt, rounding))
        np.testing.assert_array_equal(sl_f, sl_s)
        np.testing.assert_array_equal(sr_f, sr_s)
        el_s, er_s = _einfeldt_wave_speeds(left, right, eos, slow)
        el_f, er_f = flux.einfeldt_wave_speeds(left, right, GAMMA, q=Rounder(fmt, rounding))
        np.testing.assert_array_equal(el_f, el_s)
        np.testing.assert_array_equal(er_f, er_s)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    @given(state=trunc_face_states())
    @settings(max_examples=20, deadline=None)
    def test_riemann_solvers_bitwise(self, name, state):
        left, right, fmt, rounding = state
        eos = GammaLawEOS(gamma=GAMMA)
        expected = SOLVERS[name](left, right, eos, _instrumented(fmt, rounding))
        for ws in (None, Workspace()):
            got = flux.FUSED_SOLVERS[name](
                left, right, GAMMA, ws=ws, q=Rounder(fmt, rounding)
            )
            for comp in COMPONENTS:
                np.testing.assert_array_equal(got[comp], expected[comp],
                                              err_msg=f"{name}:{comp}")

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_solver_names_dispatch_on_the_trunc_plane(self, name):
        rng = np.random.default_rng(11)
        q = lambda a: np.asarray(quantize(a, E8M10, RoundingMode.NEAREST_EVEN))
        mk = lambda: {
            "dens": q(rng.uniform(0.1, 2.0, 48)),
            "velx": q(rng.normal(0, 2, 48)),
            "vely": q(rng.normal(0, 2, 48)),
            "pres": q(rng.uniform(0.1, 2.0, 48)),
        }
        left, right = mk(), mk()
        eos = GammaLawEOS()
        slow_flux = SOLVERS[name](left, right, eos, _instrumented())
        fast_flux = SOLVERS[name](left, right, eos, _fast())
        for comp in COMPONENTS:
            np.testing.assert_array_equal(fast_flux[comp], slow_flux[comp], err_msg=comp)


# ---------------------------------------------------------------------------
# scratch lifecycle on the truncating plane
# ---------------------------------------------------------------------------
def _q_states(seed=9, n=16, fmt=E8M10, rounding=RoundingMode.NEAREST_EVEN):
    rng = np.random.default_rng(seed)
    q = lambda a: np.asarray(quantize(a, fmt, rounding))
    mk = lambda: {
        "dens": q(rng.uniform(0.1, 2.0, n)),
        "velx": q(rng.normal(0, 1, n)),
        "vely": q(rng.normal(0, 1, n)),
        "pres": q(rng.uniform(0.1, 2.0, n)),
    }
    return mk(), mk()


class TestTruncScratchLifecycle:
    def test_workspace_reuse_allocates_nothing_after_first_call(self):
        left, right = _q_states(seed=5, n=32)
        ws = Workspace()
        kw = dict(q=Rounder(E8M10, RoundingMode.NEAREST_EVEN))
        first = flux.hllc_flux(left, right, GAMMA, ws=ws, **kw)
        first = {c: first[c].copy() for c in first}
        misses = ws.misses
        assert misses > 0
        again = flux.hllc_flux(left, right, GAMMA, ws=ws, **kw)
        assert ws.misses == misses  # steady state: zero allocations
        assert ws.hits > 0
        for comp in COMPONENTS:
            np.testing.assert_array_equal(again[comp], first[comp])

    def test_poisoned_workspace_does_not_leak_into_results(self):
        left, right = _q_states(seed=9)
        ws = Workspace()
        kw = dict(q=Rounder(E8M10, RoundingMode.UP))
        clean = flux.hll_flux(left, right, GAMMA, ws=ws, **kw)
        clean = {c: clean[c].copy() for c in clean}
        for buf in ws._buffers.values():
            buf.fill(np.nan if buf.dtype == np.float64 else True)
        poisoned = flux.hll_flux(left, right, GAMMA, ws=ws, **kw)
        for comp in COMPONENTS:
            np.testing.assert_array_equal(poisoned[comp], clean[comp])

    def test_inputs_never_written(self):
        left, right = _q_states(seed=13, n=24)
        snap = {("L", k): v.copy() for k, v in left.items()}
        snap.update({("R", k): v.copy() for k, v in right.items()})
        for name in flux.FUSED_SOLVERS:
            flux.FUSED_SOLVERS[name](left, right, GAMMA, ws=Workspace(),
                                      q=Rounder(E8M10, RoundingMode.DOWN))
        for k, v in left.items():
            np.testing.assert_array_equal(v, snap[("L", k)])
        for k, v in right.items():
            np.testing.assert_array_equal(v, snap[("R", k)])

    def test_weno5_edge_out_may_alias_an_input(self):
        rng = np.random.default_rng(21)
        kw = dict(q=Rounder(E8M10, RoundingMode.NEAREST_EVEN))
        rows = [np.asarray(quantize(rng.normal(size=32) + 2.0, E8M10)) for _ in range(5)]
        expected = fused.weno5_edge(*rows, **kw)
        aliased = rows[2].copy()
        got = fused.weno5_edge(rows[0], rows[1], aliased, rows[3], rows[4],
                               ws=Workspace(), key=("alias",), out=aliased, **kw)
        assert got is aliased
        np.testing.assert_array_equal(got, expected)


def _sod_workload(**overrides):
    from repro.workloads import create_workload

    cfg = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
               t_end=0.01, rk_stages=1)
    cfg.update(overrides)
    return create_workload("sod", **cfg)


class TestTruncAdvance:
    """The fused truncating block update against the instrumented path."""

    @pytest.fixture(scope="class")
    def grid(self):
        return _sod_workload(reconstruction="weno5").build_grid()

    @pytest.mark.parametrize("scheme", ["pcm", "plm", "weno5"])
    @pytest.mark.parametrize("riemann", ["hll", "hllc", "hlle"])
    def test_advance_block_bitwise(self, grid, scheme, riemann):
        solver = HydroSolver(reconstruction=scheme, riemann=riemann, rk_stages=1)
        block = grid.blocks()[0]
        slow = solver.advance_block(block, 1e-4, _instrumented())
        fast = solver.advance_block(block, 1e-4, _fast())
        for name in slow:
            np.testing.assert_array_equal(fast[name], slow[name], err_msg=name)

    @pytest.mark.parametrize("rounding", ROUNDINGS)
    def test_advance_block_all_roundings(self, grid, rounding):
        solver = HydroSolver(rk_stages=1)
        block = grid.blocks()[0]
        slow = solver.advance_block(block, 1e-4, _instrumented(BF16, rounding))
        fast = solver.advance_block(block, 1e-4, _fast(BF16, rounding))
        for name in slow:
            np.testing.assert_array_equal(fast[name], slow[name], err_msg=name)

    def test_advance_block_with_gravity_bitwise(self, grid):
        solver = HydroSolver(rk_stages=1, gravity=(0.3, -1.0))
        block = grid.blocks()[0]
        slow = solver.advance_block(block, 1e-4, _instrumented())
        fast = solver.advance_block(block, 1e-4, _fast())
        for name in slow:
            np.testing.assert_array_equal(fast[name], slow[name], err_msg=name)

    @pytest.mark.parametrize("policy", ["global", "m-1"])
    def test_substep_batched_vs_unbatched_vs_instrumented(self, policy, monkeypatch):
        """Under M-1 the finest level runs binary64 and the coarser ones
        truncate, so one batched substep holds a binary64 and a truncating
        fast group sharing ``flux.advance`` and one workspace."""

        def provider(plane):
            if policy == "global":
                ctx = _instrumented() if plane == "instrumented" else _fast()
                return lambda module, level=None, max_level=None: ctx
            counting = plane == "instrumented"
            config = TruncationConfig(targets={64: E8M10}, count_ops=counting,
                                      track_memory=counting)
            pol = AMRCutoffPolicy(config, cutoff=1, runtime=RaptorRuntime(), plane=plane)
            return lambda module, level=None, max_level=None: pol.context_for(
                module=module, level=level, max_level=max_level)

        results = {}
        groups = []
        for label, batch, scratch, plane in (
            ("instrumented", False, False, "instrumented"),
            ("trunc-perblock", False, False, "auto"),
            ("trunc-no-batch-env", None, True, "auto"),
            ("trunc-noscratch", True, False, "auto"),
            ("trunc-batched", True, True, "auto"),
        ):
            workload = _sod_workload(max_level=3)
            grid = workload.build_grid()
            with monkeypatch.context() as env:
                if batch is None:
                    env.setenv("RAPTOR_FAST_NO_BATCH", "1")
                solver = HydroSolver(rk_stages=1, batch_blocks=batch, scratch=scratch)
            if batch is None:
                assert not solver.batch_blocks
            if label == "trunc-batched":
                batched = solver._advance_level_batched

                def spy(grid, group, dt, ctx):
                    groups.append(ctx.rounder.sig)
                    return batched(grid, group, dt, ctx=ctx)

                solver._advance_level_batched = spy
            solver._substep(grid, 5e-4, provider(plane))
            results[label] = {
                key: {v: grid.leaves[key].interior_view(v).copy()
                      for v in ("dens", "velx", "vely", "pres")}
                for key in grid.sorted_keys()
            }
        kinds = {sig[0] for sig in groups}
        assert kinds == ({"trunc"} if policy == "global" else {"b64", "trunc"})
        base = results["instrumented"]
        for label, states in results.items():
            assert set(states) == set(base), label
            for key in base:
                for var in base[key]:
                    np.testing.assert_array_equal(
                        states[key][var], base[key][var], err_msg=f"{label}: {key} {var}"
                    )

    @pytest.mark.parametrize("policy", ["global", "m-1"])
    @pytest.mark.parametrize("batch", [True, False], ids=["batched", "perblock"])
    def test_counted_substeps_match_instrumented(self, policy, batch):
        """Counting contexts on the trunc plane: two substeps (the first
        learns each tally op-by-op, the second charges it) leave the states
        and the op/byte counters exactly as on the instrumented plane, and
        only the first block of each (context, shape) runs op-by-op."""

        def run(plane):
            rt = RaptorRuntime()
            config = TruncationConfig(targets={64: E8M10})
            pol = (GlobalPolicy(config, runtime=rt, plane=plane) if policy == "global"
                   else AMRCutoffPolicy(config, cutoff=1, runtime=rt, plane=plane))
            provider = lambda module, level=None, max_level=None: pol.context_for(
                module=module, level=level, max_level=max_level)
            grid = _sod_workload(max_level=3).build_grid()
            solver = HydroSolver(rk_stages=1, batch_blocks=batch)
            op_by_op = []
            advance = solver._advance_op_by_op
            solver._advance_op_by_op = lambda block, dt, ctx: (
                op_by_op.append(type(ctx)) or advance(block, dt, ctx))
            for _ in range(2):
                solver._substep(grid, 5e-4, provider)
            states = {key: {v: grid.leaves[key].interior_view(v).copy()
                            for v in ("dens", "velx", "vely", "pres")}
                      for key in grid.sorted_keys()}
            return states, rt.snapshot(), op_by_op

        slow, slow_snap, _ = run("instrumented")
        fast, fast_snap, op_by_op = run("auto")
        assert set(fast) == set(slow)
        for key in slow:
            for var in slow[key]:
                np.testing.assert_array_equal(fast[key][var], slow[key][var],
                                              err_msg=f"{key} {var}")
        assert slow_snap["ops"]["truncated"] > 0
        for field in ("ops", "mem", "modules"):
            assert fast_snap[field] == slow_snap[field], field
        # one tally run per (context, shape); M-1's finest level stays a
        # counting binary64 context, op-by-op on every plane
        assert op_by_op.count(TruncatedContext) == 1
        assert all(kind in (TruncatedContext, FullPrecisionContext) for kind in op_by_op)

    def test_mixed_format_levels_batch_by_signature(self):
        """Per-level formats must never share a batch group: the group
        signature carries (format, rounding), so a provider handing
        different formats to different levels stays bitwise equal to the
        per-block loop."""

        def provider_for(runtime_free=True):
            ctxs = {
                True: _fast(E8M10, RoundingMode.NEAREST_EVEN),
                False: _fast(BF16, RoundingMode.UP),
            }
            return lambda module, level=None, max_level=None: ctxs[(level or 1) <= 2]

        states = {}
        for label, batch in (("batched", True), ("perblock", False)):
            workload = _sod_workload(max_level=3)
            grid = workload.build_grid()
            solver = HydroSolver(rk_stages=1, batch_blocks=batch)
            solver._substep(grid, 5e-4, provider_for())
            states[label] = {
                key: grid.leaves[key].interior_view("dens").copy()
                for key in grid.sorted_keys()
            }
        assert set(states["batched"]) == set(states["perblock"])
        for key in states["perblock"]:
            np.testing.assert_array_equal(
                states["batched"][key], states["perblock"][key], err_msg=str(key)
            )

    @pytest.mark.parametrize("make_ctx", [_fast, FastPlaneContext],
                             ids=["rounder", "exact"])
    def test_workspace_steady_state_no_allocations(self, make_ctx):
        workload = _sod_workload()
        grid = workload.build_grid()
        solver = workload.build_solver()
        assert solver._workspace is not None
        ctx = make_ctx()
        provider = lambda module, level=None, max_level=None: ctx
        solver._substep(grid, 1e-4, provider)
        misses = solver._workspace.misses
        assert misses > 0
        solver._substep(grid, 1e-4, provider)
        assert solver._workspace.misses == misses
        assert solver._workspace.hits > 0

    def test_env_knobs_still_bitwise(self, monkeypatch):
        def run_sod():
            workload = _sod_workload(t_end=0.008)
            rt = RaptorRuntime()
            policy = GlobalPolicy(
                TruncationConfig(targets={64: E8M10}, count_ops=False,
                                 track_memory=False),
                runtime=rt, plane="auto",
            )
            return workload.run(policy=policy, runtime=rt)

        reference = run_sod()
        monkeypatch.setenv("RAPTOR_FAST_NO_SCRATCH", "1")
        monkeypatch.setenv("RAPTOR_FAST_NO_BATCH", "1")
        plain = run_sod()
        assert plain.time == reference.time
        for key in reference.state:
            np.testing.assert_array_equal(plain.state[key], reference.state[key],
                                          err_msg=key)


# ---------------------------------------------------------------------------
# whole workloads across planes and engine entry points
# ---------------------------------------------------------------------------
class TestTruncWorkloadEquivalence:
    @pytest.mark.parametrize("count_ops", [True, False])
    @pytest.mark.parametrize("rounding",
                             [RoundingMode.NEAREST_EVEN, RoundingMode.UP])
    def test_sod_states_and_counters_identical_across_planes(self, count_ops, rounding):
        def run(plane):
            workload = _sod_workload(t_end=0.008)
            rt = RaptorRuntime()
            policy = GlobalPolicy(
                TruncationConfig(targets={64: E8M10}, rounding=rounding,
                                 count_ops=count_ops, track_memory=count_ops),
                runtime=rt, plane=plane,
            )
            return workload.run(policy=policy, runtime=rt)

        instrumented = run("instrumented")
        auto = run("auto")
        assert set(auto.state) == set(instrumented.state)
        for key in instrumented.state:
            np.testing.assert_array_equal(auto.state[key], instrumented.state[key],
                                          err_msg=key)
        # byte-identical counters: counting policies run fused under auto
        # and charge the instrumented tally; non-counting ones record
        # nothing on either plane
        assert auto.snapshot() == instrumented.snapshot()

    def test_run_sweep_identical_with_and_without_point_counters(self):
        from repro.experiments import PolicySpec, SweepSpec, run_sweep

        def spec(count, plane="auto", backend="serial"):
            return SweepSpec(
                workloads=["sod"],
                formats=["e8m10", "bf16"],
                policies=[PolicySpec.everywhere(modules=("hydro",))],
                workload_configs={"sod": dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2,
                                              max_level=2, t_end=0.005, rk_stages=1)},
                variables=("dens",),
                count_point_ops=count,
                plane=plane,
                backend=backend,
            )

        counting = run_sweep(spec(True))
        silent = run_sweep(spec(False))
        silent_instr = run_sweep(spec(False, plane="instrumented"))
        for a, b in zip(counting.points, silent.points):
            assert a.errors == b.errors  # bitwise: norms are exact floats
        for a, b in zip(silent.points, silent_instr.points):
            assert a.errors == b.errors
        assert all(p.ops["truncated"] > 0 for p in counting.points)
        assert all(p.ops["truncated"] == 0 for p in silent.points)

    def test_run_sweep_process_backend_matches_serial(self):
        from repro.experiments import PolicySpec, SweepSpec, run_sweep

        def spec(backend):
            return SweepSpec(
                workloads=["sod"],
                formats=["bf16"],
                policies=[PolicySpec.everywhere(modules=("hydro",))],
                workload_configs={"sod": dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2,
                                              max_level=2, t_end=0.005, rk_stages=1)},
                variables=("dens",),
                count_point_ops=False,
                backend=backend,
            )

        serial = run_sweep(spec("serial"))
        process = run_sweep(spec("process"))
        for a, b in zip(serial.points, process.points):
            assert a.errors == b.errors

    def test_find_cliff_identical_with_and_without_probe_counters(self):
        from repro.experiments import find_cliff

        kwargs = dict(
            config_kwargs=dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2,
                               max_level=2, t_end=0.005, rk_stages=1),
            min_man_bits=4, max_man_bits=12, exp_bits=8,
        )
        counting = find_cliff("sod", **kwargs, count_ops=True)
        silent = find_cliff("sod", **kwargs, count_ops=False)
        assert counting.cliff_man_bits == silent.cliff_man_bits
        assert [(e.man_bits, e.error) for e in counting.evaluations] == [
            (e.man_bits, e.error) for e in silent.evaluations
        ]
