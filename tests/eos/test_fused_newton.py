"""The fused EOS kernel (``repro.kernels.eos``) against the op-by-op inversion.

Counting truncating contexts run the Newton–Raphson inversion on the fused
kernel and charge, per iteration, the instrumented tally of its residual
part and (unless the iteration converges) its step part, each learnt once
per context.  That is exact only while those op streams depend on the lane
shape and the relaxation alone — never on the densities, temperatures,
format or rounding, including lanes whose derivative stalls at zero.  The
premise tests pin that; the differential tests pin that every plane gives
the same temperatures, iteration counts, residual histories and counters.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FPFormat, RaptorRuntime, TruncatedContext
from repro.core.quantize import RoundingMode
from repro.eos import HelmholtzTable, NewtonSolverConfig, invert_energy
from repro.eos.newton import _residual, _step
from repro.kernels import FastPlaneContext, FullPrecisionContext, TruncFastPlaneContext
from repro.kernels.eos import Bilinear

ROUNDINGS = (RoundingMode.NEAREST_EVEN, RoundingMode.TOWARD_ZERO)
N = 12


@pytest.fixture(scope="module")
def table():
    return HelmholtzTable()


def _problem(table, n, seed, spread=(0.6, 1.4)):
    rng = np.random.default_rng(seed)
    rho = 10.0 ** rng.uniform(5.0, 7.0, n)
    temp_true = 10.0 ** rng.uniform(8.2, 9.5, n)
    energy = np.asarray(table.energy(rho, temp_true))
    return rho, energy, temp_true * rng.uniform(*spread, n)


# ---------------------------------------------------------------------------
# premise: the per-part op streams are data-, format- and rounding-independent
# ---------------------------------------------------------------------------
def _part_tallies(table, seed, man_bits, rounding, relaxation):
    rng = np.random.default_rng(seed)
    rho = 10.0 ** rng.uniform(3.0, 9.0, N)          # inside and outside the table
    temp = 10.0 ** rng.uniform(6.5, 10.5, N)
    target = 10.0 ** rng.uniform(15.0, 19.0, N)
    cfg = NewtonSolverConfig(relaxation=relaxation)
    tallies = {}
    for part in ("residual", "step"):
        ctx = TruncatedContext(FPFormat(11, man_bits), runtime=RaptorRuntime(),
                               module="eos", rounding=rounding)
        q_temp = ctx.const(temp)
        if part == "residual":
            _residual(table, rho, q_temp, target, ctx)
        else:
            _step(table, rho, q_temp, ctx.const(target), cfg, ctx)
        snap = ctx.runtime.snapshot()
        tallies[part] = {field: snap[field] for field in ("ops", "mem", "modules")}
    return tallies


@pytest.mark.parametrize("relaxation", [1.0, 0.5])
@given(seed=st.integers(0, 2**32 - 1), man_bits=st.sampled_from([8, 10, 16, 23, 34, 42, 52]),
       rounding=st.sampled_from(ROUNDINGS))
@settings(max_examples=15, deadline=None)
def test_part_counters_are_data_format_and_rounding_independent(table, relaxation, seed,
                                                                man_bits, rounding):
    reference = _part_tallies(table, 0, 52, RoundingMode.NEAREST_EVEN, relaxation)
    for tally in reference.values():
        assert tally["ops"]["truncated"] > 0 and tally["mem"]["truncated"] > 0
    assert _part_tallies(table, seed, man_bits, rounding, relaxation) == reference


def test_premise_fields_include_stalled_lanes(table):
    """At 8 mantissa bits ``T +- dT`` round to ``T``: de/dT is exactly zero
    on some lanes, and the premise above covers them."""
    rng = np.random.default_rng(0)
    rho = 10.0 ** rng.uniform(3.0, 9.0, N)
    temp = 10.0 ** rng.uniform(6.5, 10.5, N)
    ctx = TruncatedContext(FPFormat(11, 8), runtime=RaptorRuntime(), module="eos")
    assert np.any(np.asarray(table.energy_derivative(rho, ctx.const(temp), ctx)) == 0.0)


# ---------------------------------------------------------------------------
# differential: fused vs instrumented
# ---------------------------------------------------------------------------
def _same_result(a, b):
    np.testing.assert_array_equal(a.temperature.view(np.int64), b.temperature.view(np.int64))
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.residual_history == b.residual_history


def _counters(runtime):
    snap = runtime.snapshot()
    return {field: snap[field] for field in ("ops", "mem", "modules")}


CASES = [
    (n, man_bits, rounding, relaxation, max_iterations)
    for n in (1, 7, 33, 96)
    for man_bits in (8, 30, 52)
    for rounding in ROUNDINGS
    for relaxation, max_iterations in ((1.0, 40), (0.5, 6))
]


@pytest.mark.parametrize("n,man_bits,rounding,relaxation,max_iterations", CASES)
def test_counted_fused_newton_matches_instrumented(table, n, man_bits, rounding, relaxation,
                                                   max_iterations):
    """Two successive inversions (the first learns, the second runs fused
    from its first iteration) on a counting fast-plane context vs the
    op-by-op context: same bits, iterations, histories and counters."""
    cfg = NewtonSolverConfig(relaxation=relaxation, max_iterations=max_iterations)
    fmt = FPFormat(11, man_bits)
    slow = TruncatedContext(fmt, runtime=RaptorRuntime(), module="eos", rounding=rounding)
    fast = TruncFastPlaneContext(fmt, runtime=RaptorRuntime(), module="eos", rounding=rounding,
                                 count_ops=True, track_memory=True)
    quiet = TruncFastPlaneContext(fmt, runtime=RaptorRuntime(), module="eos", rounding=rounding)
    for seed in (n, n + 1):
        rho, energy, guess = _problem(table, n, seed)
        expected = invert_energy(table, rho, energy, guess, cfg, slow)
        _same_result(expected, invert_energy(table, rho, energy, guess, cfg, fast))
        _same_result(expected, invert_energy(table, rho, energy, guess, cfg, quiet))
    assert _counters(fast.runtime) == _counters(slow.runtime)
    assert _counters(quiet.runtime)["ops"]["truncated"] == 0
    assert set(fast.tallies) == {("eos.newton.residual", (n,)),
                                 ("eos.newton.step", (n,), relaxation)}


def test_iteration_limit_hit_on_both_planes(table):
    rho, energy, guess = _problem(table, 33, 3)
    cfg = NewtonSolverConfig(tolerance=1e-30, max_iterations=5)
    fmt = FPFormat(11, 20)
    slow = invert_energy(table, rho, energy, guess, cfg,
                         TruncatedContext(fmt, runtime=RaptorRuntime(), module="eos"))
    fast = invert_energy(table, rho, energy, guess, cfg,
                         TruncFastPlaneContext(fmt, runtime=RaptorRuntime(), module="eos",
                                               count_ops=True))
    assert not slow.converged and slow.iterations == 5
    _same_result(slow, fast)


@pytest.mark.parametrize("n", [1, 7, 33, 96])
@pytest.mark.parametrize("relaxation", [1.0, 0.5])
def test_binary64_fast_plane_matches_full_precision(table, n, relaxation):
    rho, energy, guess = _problem(table, n, 10 + n, spread=(0.2, 3.0))
    cfg = NewtonSolverConfig(relaxation=relaxation)
    slow = invert_energy(table, rho, energy, guess, cfg,
                         FullPrecisionContext(count_ops=False, track_memory=False))
    fast = invert_energy(table, rho, energy, guess, cfg, FastPlaneContext())
    assert slow.iterations > 1
    _same_result(slow, fast)


@pytest.mark.parametrize("n", [1, 7, 33, 96])
def test_stacked_bilinear_matches_separate_lookups(table, n):
    """One ``(3, n)`` lookup equals three op-by-op lookups, bit for bit."""
    rng = np.random.default_rng(n)
    rho = 10.0 ** rng.uniform(3.0, 9.0, n)
    temps = 10.0 ** rng.uniform(6.5, 10.5, (3, n))
    for ctx, q in (
        (FullPrecisionContext(count_ops=False, track_memory=False), FastPlaneContext().rounder),
        (TruncatedContext(FPFormat(8, 10), runtime=RaptorRuntime()),
         TruncFastPlaneContext(FPFormat(8, 10)).rounder),
    ):
        stacked = Bilinear(table, rho, q=q)(table.pressure_table, temps)
        for row, temp in zip(stacked, temps):
            np.testing.assert_array_equal(row, table.pressure(rho, temp, ctx))


# ---------------------------------------------------------------------------
# the stalled Newton step is reported, not warned about
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("plane", ["instrumented", "auto"])
def test_stalled_newton_step_does_not_warn(plane):
    from repro.core import ModulePolicy, TruncationConfig
    from repro.workloads import create_workload

    def run():
        runtime = RaptorRuntime()
        policy = ModulePolicy(TruncationConfig.mantissa(8), modules=["eos"],
                              runtime=runtime, plane=plane)
        return create_workload("cellular", n_cells=16, n_steps=4).run(policy=policy,
                                                                      runtime=runtime)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = run()
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        lenient = run()
    assert strict.info["failed_newton_steps"] > 0
    assert strict.info == lenient.info
    for var, value in strict.state.items():
        np.testing.assert_array_equal(value, lenient.state[var], err_msg=var)
