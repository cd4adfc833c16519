"""Newton–Raphson inversion of the tabulated EOS.

Flash-X's Helmholtz EOS is tabulated in (density, temperature) but the hydro
solver provides (density, internal energy); a Newton–Raphson iteration on
temperature closes the gap.  Hypothesis 2 of the paper assumed this module
would tolerate reduced precision because it "only extrapolates from a table
look-up" — and was falsified: with fewer than ~42 mantissa bits the
iteration stops converging within the permitted iteration count, even after
the tolerance was relaxed and the iteration limit raised.

This module reproduces that mechanism: every arithmetic operation of the
residual, derivative, and update goes through the numerics context (or its
fused twin in :mod:`repro.kernels.eos`, rounded at the same op boundaries),
so when the context truncates, the residual stalls at the truncation noise
floor and the iteration exhausts ``max_iterations``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.opmode import FPContext, FullPrecisionContext
from ..kernels.eos import NewtonIteration
from ..kernels.trunc import counted
from .table import DERIVATIVE_EPS, HelmholtzTable

__all__ = ["NewtonSolverConfig", "NewtonResult", "invert_energy"]


@dataclass
class NewtonSolverConfig:
    """Controls of the Newton–Raphson inversion (Flash-X-like defaults)."""

    tolerance: float = 1e-10      # relative residual |e(T) - e_target| / e_target
    max_iterations: int = 40
    relaxation: float = 1.0       # under-relaxation factor for the update
    temperature_floor: float = 1.2e7
    temperature_ceiling: float = 9e9
    #: per-iteration multiplicative bound on the temperature change
    #: (safeguard against runaway Newton steps from poor initial guesses,
    #: as in Flash-X's bounded Newton implementation)
    max_step_factor: float = 10.0

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.relaxation > 0:
            raise ValueError(f"relaxation must be > 0, got {self.relaxation}")
        if not self.max_step_factor > 1:
            raise ValueError(f"max_step_factor must be > 1, got {self.max_step_factor}")
        if not 0 < self.temperature_floor < self.temperature_ceiling:
            raise ValueError(
                "need 0 < temperature_floor < temperature_ceiling, got "
                f"{self.temperature_floor} and {self.temperature_ceiling}"
            )


@dataclass
class NewtonResult:
    """Outcome of one (vectorised) inversion call."""

    temperature: np.ndarray
    iterations: int
    converged: bool
    max_residual: float
    residual_history: list

    @property
    def failed(self) -> bool:
        return not self.converged


def _residual(table: HelmholtzTable, rho, temp, energy_target, ctx: FPContext):
    """The residual part of one iteration: ``e(rho, T) - e_target``."""
    return ctx.sub(table.energy(rho, temp, ctx), energy_target, "eos:nr_residual")


def _step(table: HelmholtzTable, rho, temp, residual, cfg: NewtonSolverConfig, ctx: FPContext):
    """The step part of one iteration: derivative, step, relaxation and
    update, before the safeguarding clamp."""
    dedt = table.energy_derivative(rho, temp, ctx)
    # at low precision e(T + dT) == e(T - dT): the stalled lanes step to
    # +-inf (the clamp catches them) and the iteration reports the stall
    with np.errstate(divide="ignore", invalid="ignore"):
        step = ctx.div(residual, dedt, "eos:nr_step")
    if cfg.relaxation != 1.0:
        step = ctx.mul(ctx.const(cfg.relaxation), step, "eos:nr_relax")
    return ctx.sub(temp, step, "eos:nr_update")


def _clamp(old: np.ndarray, new: np.ndarray, cfg: NewtonSolverConfig) -> np.ndarray:
    """Keep the iterate inside the table and bound the per-iteration change
    (plain clamps: control flow / safeguarding, not floating-point physics)."""
    return np.clip(
        new,
        np.maximum(cfg.temperature_floor, old / cfg.max_step_factor),
        np.minimum(cfg.temperature_ceiling, old * cfg.max_step_factor),
    )


def invert_energy(
    table: HelmholtzTable,
    rho: np.ndarray,
    energy_target: np.ndarray,
    temperature_guess: np.ndarray,
    config: Optional[NewtonSolverConfig] = None,
    ctx: Optional[FPContext] = None,
) -> NewtonResult:
    """Solve ``e(rho, T) = energy_target`` for T with Newton–Raphson.

    All floating-point work is routed through ``ctx``; pass a truncating
    context to reproduce the Cellular EOS-truncation experiment.  A
    ``fused`` context runs the iterations on the fused EOS kernel
    (:class:`repro.kernels.eos.NewtonIteration`) with its rounding hook.  A
    counting fast-plane context learns the instrumented tallies of the
    residual and step parts on its first iteration
    (:meth:`~repro.kernels.trunc.TruncFastPlaneContext.counted`), then runs
    fused and charges them.  Every plane gives the same bits.

    Returns a :class:`NewtonResult`; ``converged`` is True only if **every**
    cell reached the relative tolerance within ``max_iterations``.
    """
    cfg = config or NewtonSolverConfig()
    ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)

    rho = np.asarray(rho, dtype=np.float64)
    energy_target = np.asarray(energy_target, dtype=np.float64)
    temp = ctx.const(np.asarray(temperature_guess, dtype=np.float64))
    scale = np.maximum(np.abs(energy_target), 1e-300)

    # the op streams of both parts depend on the lane shape and the
    # relaxation only, so one tally per part prices every iteration
    keys = (("eos.newton.residual", rho.shape), ("eos.newton.step", rho.shape, cfg.relaxation))
    charging = ctx.plane == "fast" and not ctx.fused
    fusable = rho.ndim > 0 and rho.shape == np.shape(temp) == energy_target.shape
    kernel = None

    history = []
    max_res = np.inf
    for iteration in range(1, cfg.max_iterations + 1):
        if kernel is None and fusable and (
            ctx.fused or charging and all(key in ctx.tallies for key in keys)
        ):
            kernel = NewtonIteration(table, rho, energy_target, DERIVATIVE_EPS,
                                     cfg.relaxation, q=ctx.rounder)
        if kernel is None:
            residual = counted(ctx, keys[0], lambda c: _residual(table, rho, temp, energy_target, c))
        else:
            residual = kernel.residual(temp)
            if charging:
                ctx.charge(keys[0])
        rel = np.abs(ctx.asplain(residual)) / scale
        max_res = float(np.max(rel))
        history.append(max_res)
        if max_res < cfg.tolerance:
            return NewtonResult(ctx.asplain(temp), iteration, True, max_res, history)

        if kernel is None:
            stepped = counted(ctx, keys[1], lambda c: _step(table, rho, temp, residual, cfg, c))
            temp = ctx.const(_clamp(ctx.asplain(temp), ctx.asplain(stepped), cfg))
        else:
            temp = kernel.q(_clamp(temp, kernel.step(temp, residual), cfg))
            if charging:
                ctx.charge(keys[1])

    return NewtonResult(ctx.asplain(temp), cfg.max_iterations, False, max_res, history)
