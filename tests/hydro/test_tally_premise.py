"""The premise of counted fused hydro blocks: the instrumented op stream of a
block update depends on block shapes only, never on the data.

Counting truncating contexts run hydro blocks on the fused pipeline and
charge a tally learnt once per (context, block shape) on the instrumented
plane.  That is exact only while the instrumented stream has no
data-dependent branch: these tests fail the day one is added to the
reconstruction, Riemann, EOS or update stages.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.block import Block
from repro.core import FPFormat, RaptorRuntime, TruncatedContext
from repro.hydro.solver import PRIMITIVE_VARS, HydroSolver

NXB, NYB, NG = 8, 6, 3

#: magnitudes spanning floors (negative / zero density and pressure),
#: quiescent, subsonic and strongly supersonic flows
state_params = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "dens": st.sampled_from([(-1.0, 1.0), (1e-12, 1e-6), (0.1, 10.0)]),
    "pres": st.sampled_from([(-1.0, 1.0), (0.0, 0.0), (1e-3, 1e3)]),
    "vel": st.sampled_from([0.0, 0.1, 10.0, 1e4]),
})


def _block(params) -> Block:
    rng = np.random.default_rng(params["seed"])
    block = Block((2, 1, 1), NXB, NYB, NG, 0.25, 0.5, 0.25, 0.4375)
    block.allocate(PRIMITIVE_VARS)
    shape = block.shape_with_guards
    block.data["dens"][:] = rng.uniform(*params["dens"], size=shape)
    block.data["pres"][:] = rng.uniform(*params["pres"], size=shape)
    for name in ("velx", "vely"):
        block.data[name][:] = params["vel"] * rng.standard_normal(shape)
    return block


def _tally(solver, params) -> dict:
    ctx = TruncatedContext(FPFormat(exp_bits=8, man_bits=10), runtime=RaptorRuntime(),
                           module="hydro")
    with np.errstate(all="ignore"):
        solver.advance_block(_block(params), 1e-3, ctx)
    snap = ctx.runtime.snapshot()
    return {field: snap[field] for field in ("ops", "mem", "modules")}


@pytest.mark.parametrize("gravity", [(0.0, 0.0), (0.3, -1.0)], ids=["no-gravity", "gravity"])
@pytest.mark.parametrize("riemann", ["hll", "hllc", "hlle"])
@pytest.mark.parametrize("scheme", ["pcm", "plm", "weno5"])
@given(a=state_params, b=state_params)
@settings(max_examples=5, deadline=None)
def test_instrumented_block_counters_are_data_independent(scheme, riemann, gravity, a, b):
    solver = HydroSolver(reconstruction=scheme, riemann=riemann, rk_stages=1, gravity=gravity)
    first = _tally(solver, a)
    assert first["ops"]["truncated"] > 0 and first["mem"]["truncated"] > 0
    assert first == _tally(solver, b)
