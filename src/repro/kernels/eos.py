"""The fused EOS kernel: the tabulated-EOS bilinear and the Newton–Raphson
inversion of :mod:`repro.eos`, written once around the rounding hook ``q``.

The Cellular study (Hypothesis 2) truncates the EOS module: the bilinear
interpolation of the Helmholtz-like table
(:meth:`repro.eos.table.HelmholtzTable._bilinear`) and the Newton–Raphson
iteration that inverts it for temperature
(:func:`repro.eos.newton.invert_energy`).  On the instrumented plane each
iteration is ~65 context ops; here it is a handful of stacked ufuncs.

Bit-identity contract
---------------------
Every value is computed by the same ufunc on the same operands as its
instrumented twin, with ``q`` called after every arithmetic op (see
:mod:`repro.kernels.trunc`).  Three liberties keep that contract:

* *Independent ops are stacked.*  Ops whose operands do not depend on each
  other's results are evaluated as one ufunc over a stacked array and
  rounded by one ``q`` call — the four bilinear weights, the four
  weight × table products, the two partial sums.  Element-wise ufuncs and
  rounding are independent per lane, so stacking changes no bit.
* *The rho-only half is hoisted.*  ``log10``, the table row search, ``tx``
  and ``1 - tx`` depend on the densities only, which are fixed for one
  :class:`Bilinear`; the instrumented plane recomputes them per lookup,
  which yields the same bits every time.
* *One Newton iteration is one stacked bilinear.*  The residual energy at
  ``T`` and the centred-difference energies at ``T + dT`` and ``T - dT``
  are a single ``(3, ...)`` lookup.  On the iteration that converges the
  derivative half is speculative and discarded.

The op *counts* are not produced here: a counting context charges the
instrumented tally of each part (see
:meth:`repro.kernels.trunc.TruncFastPlaneContext.counted`).
"""
from __future__ import annotations

import numpy as np

from .trunc import EXACT

__all__ = ["Bilinear", "NewtonIteration"]


class Bilinear:
    """Bilinear interpolation in (log rho, log T) of a table at fixed densities.

    Twin of ``HelmholtzTable._bilinear``: built once per density field with
    the rho-only half (``log10``, row search, ``tx``, ``1 - tx``, flat row
    offsets) hoisted, then called per temperature field, which may carry
    leading stacking axes in front of the density shape.
    """

    __slots__ = ("table", "q", "tx", "one_tx", "corners")

    def __init__(self, table, rho: np.ndarray, *, q=EXACT) -> None:
        self.table = table
        self.q = q
        grid = table.log_rho
        log_rho = np.log10(np.maximum(rho, 10.0 ** grid[0]))
        i = table._locate(grid, log_rho)
        tx = q(np.subtract(log_rho, grid[i]))
        self.tx = q(np.divide(tx, q.const(grid[1] - grid[0]), out=tx))
        self.one_tx = q(np.subtract(q.const(1.0), self.tx))
        # flat offsets of the corners (i, j), (i+1, j), (i, j+1), (i+1, j+1)
        row = i * table.n_temp
        self.corners = np.stack([row, row + table.n_temp, row + 1, row + 1 + table.n_temp])

    def __call__(self, values: np.ndarray, temp: np.ndarray) -> np.ndarray:
        """``values`` (a table of the grid's shape) at (rho, ``temp``)."""
        q = self.q
        grid = self.table.log_temp
        log_temp = np.log10(np.maximum(temp, 10.0 ** grid[0]))
        j = self.table._locate(grid, log_temp)
        ty = q(np.subtract(log_temp, grid[j]))
        q(np.divide(ty, q.const(grid[1] - grid[0]), out=ty))
        one_ty = q(np.subtract(q.const(1.0), ty))
        # w00, w10, w01, w11 as one stack, then the weighted corners
        w = np.empty((4, *ty.shape))
        np.multiply(self.one_tx, one_ty, out=w[0])
        np.multiply(self.tx, one_ty, out=w[1])
        np.multiply(self.one_tx, ty, out=w[2])
        np.multiply(self.tx, ty, out=w[3])
        q(w)
        stack = (slice(None),) + (None,) * (ty.ndim - self.tx.ndim)
        q(np.multiply(w, values.ravel().take(self.corners[stack] + j), out=w))
        # (c00 + c10), (c01 + c11), then their sum
        pair = q(np.add(w[0::2], w[1::2]))
        return q(np.add(pair[0], pair[1], out=pair[0]))


class NewtonIteration:
    """The two parts of one Newton–Raphson iteration of ``invert_energy``.

    :meth:`residual` evaluates ``e(rho, T) - e_target`` and, speculatively,
    the derivative energies of the same iteration as one stacked lookup;
    :meth:`step` finishes the iteration with the derivative, the step, the
    optional relaxation and the update.  The safeguarding clamp and the
    convergence test stay with the caller, which runs them on both planes.
    """

    __slots__ = ("q", "lookup", "energy", "target", "eps", "relax", "_de", "_two_dt")

    def __init__(self, table, rho: np.ndarray, target: np.ndarray, eps: float,
                 relaxation: float, *, q=EXACT) -> None:
        self.q = q
        self.lookup = Bilinear(table, rho, q=q)
        self.energy = table.energy_table
        self.target = target
        self.eps = eps
        self.relax = None if relaxation == 1.0 else q.const(relaxation)

    def residual(self, temp: np.ndarray) -> np.ndarray:
        q = self.q
        d_t = np.maximum(self.eps * temp, 1e-30)
        # T, then T + dT, T - dT and 2 dT rounded as one group
        points = np.empty((4, *temp.shape))
        points[0] = temp
        np.add(temp, d_t, out=points[1])
        np.subtract(temp, d_t, out=points[2])
        np.multiply(q.const(2.0), d_t, out=points[3])
        q(points[1:])
        e = self.lookup(self.energy, points[:3])
        diff = np.empty((2, *temp.shape))
        np.subtract(e[0], self.target, out=diff[0])
        np.subtract(e[1], e[2], out=diff[1])
        q(diff)
        self._de, self._two_dt = diff[1], points[3]
        return diff[0]

    def step(self, temp: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """The rounded, unclamped update ``T - step`` of this iteration."""
        q = self.q
        dedt = q(np.divide(self._de, self._two_dt))
        # a stalled lane (dedt == 0) steps to +-inf; the clamp catches it
        with np.errstate(divide="ignore", invalid="ignore"):
            step = q(np.divide(residual, dedt, out=dedt))
        if self.relax is not None:
            q(np.multiply(self.relax, step, out=step))
        return q(np.subtract(temp, step, out=step))
