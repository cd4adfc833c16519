"""The premise of counted fused bubble operators: the instrumented op stream
of each truncated bubble operator depends on the grid shape and the
advection scheme only, never on the data.

Counting truncating contexts run the bubble's advection (WENO5 and upwind),
diffusion and level-set transport on the fused kernels and charge a tally
learnt once per (context, operator, shape, scheme) on the instrumented
plane.  That is exact only while the instrumented streams have no
data-dependent branch: the upwind selections are ``where``\\ s, which
record nothing, so velocities of either sign (or zero) must give the same
counters.  These tests fail the day an operator grows a branch on its data.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FPFormat, RaptorRuntime, TruncatedContext
from repro.incomp import BubbleConfig, BubbleSolver
from repro.incomp.levelset import LevelSet

NX, NY = 10, 13

#: velocity fields that are all zero, all negative, all positive or mixed,
#: at magnitudes from creeping to fast flow
field_params = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "vel": st.sampled_from([(0.0, 0.0), (-1.0, -1e-3), (1e-3, 1.0), (-1.0, 1.0), (-1e3, 1e3)]),
    "scale": st.sampled_from([0.0, 1e-6, 1.0, 1e4]),
})


def _fields(params) -> dict:
    rng = np.random.default_rng(params["seed"])
    shape = (NX, NY)
    return {
        "velx": rng.uniform(*params["vel"], size=shape),
        "vely": rng.uniform(*params["vel"], size=shape),
        "f": params["scale"] * rng.standard_normal(shape),
        "phi": params["scale"] * rng.standard_normal(shape),
        "mu": rng.uniform(0.0, 1.0, size=shape),
    }


def _tallies(scheme: str, params) -> dict:
    """The instrumented counters of each truncated operator on the fields."""
    cfg = BubbleConfig(nx=NX, ny=NY, xlim=(-1.0, 1.0), ylim=(-1.0, 2.0),
                       advection_scheme=scheme)
    solver = BubbleSolver(cfg, plane="instrumented")
    fields = _fields(params)
    solver.velx, solver.vely = fields["velx"], fields["vely"]
    operators = {
        "advection": lambda ctx: solver.advection_term(fields["f"], ctx),
        "diffusion": lambda ctx: solver.diffusion_term(fields["f"], fields["mu"], ctx),
        "levelset": lambda ctx: LevelSet(fields["phi"], cfg.dx, cfg.dy).advect(
            fields["velx"], fields["vely"], 1e-3, ctx),
    }
    tallies = {}
    for name, op in operators.items():
        ctx = TruncatedContext(FPFormat(exp_bits=8, man_bits=10), runtime=RaptorRuntime(),
                               module=name)
        with np.errstate(all="ignore"):
            op(ctx)
        snap = ctx.runtime.snapshot()
        tallies[name] = {field: snap[field] for field in ("ops", "mem", "modules")}
    return tallies


@pytest.mark.parametrize("scheme", ["weno5", "upwind"])
@given(a=field_params, b=field_params)
@settings(max_examples=10, deadline=None)
def test_instrumented_operator_counters_are_data_independent(scheme, a, b):
    first = _tallies(scheme, a)
    for tally in first.values():
        assert tally["ops"]["truncated"] > 0 and tally["mem"]["truncated"] > 0
    assert first == _tallies(scheme, b)
