"""Vectorised quantisation of IEEE doubles to arbitrary reduced formats.

This is the reproduction's substitute for GNU MPFR: every truncated
floating-point operation is performed in binary64 and the *result* is rounded
to the requested :class:`~repro.core.fpformat.FPFormat` with a configurable
rounding mode (round-to-nearest-even by default, matching MPFR's
``MPFR_RNDN``).  For target precisions well below 52 mantissa bits — the
regime exercised by every experiment in the paper — this matches a correctly
rounded arbitrary-precision computation except for rare double-rounding
events, and it is fully vectorised over numpy arrays.

Subnormals, signed zeros, overflow-to-infinity and NaN propagation follow
IEEE-754 semantics for the target format.

The op-by-op planes call :func:`quantize` once per operation on small
arrays, so it is written for per-call cost: it works on the binary64
exponent field directly (no ``frexp``, no compress/scatter of the finite
lanes), rounds in place when given ``out=``, and scalar literals go
through the :func:`quantize_const` cache.
"""
from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .fpformat import FPFormat

__all__ = [
    "RoundingMode",
    "quantize",
    "quantize_const",
    "quantize_like",
    "is_representable",
    "ulp",
    "quantization_error",
]

ArrayLike = Union[float, np.ndarray]


class RoundingMode:
    """Supported rounding modes (subset of MPFR's)."""

    NEAREST_EVEN = "nearest-even"
    TOWARD_ZERO = "toward-zero"
    UP = "up"
    DOWN = "down"

    ALL = (NEAREST_EVEN, TOWARD_ZERO, UP, DOWN)


#: per-format constants of :func:`quantize`, keyed by (exp_bits, man_bits)
_FORMAT_CONSTANTS: dict = {}


def _constants(fmt: FPFormat) -> tuple:
    """``(lo, risky_at, fwd, max_value)`` for ``fmt``: the biased ``emin``
    (the clamp of the exponent), the first biased exponent that may
    overflow ``fmt``, and the offset that turns a biased ``Eeff`` into the
    ``ldexp`` exponent ``man_bits - Eeff``."""
    key = (fmt.exp_bits, fmt.man_bits)
    c = _FORMAT_CONSTANTS.get(key)
    if c is None:
        c = (np.int32(fmt.emin + 1023), np.int32(fmt.emax + 1023),
             np.int32(fmt.man_bits + 1023), fmt.max_value)
        _FORMAT_CONSTANTS[key] = c
    return c


_ROUND = {
    RoundingMode.NEAREST_EVEN: np.rint,
    RoundingMode.TOWARD_ZERO: np.trunc,
    RoundingMode.UP: np.ceil,
    RoundingMode.DOWN: np.floor,
}


def quantize(
    x: ArrayLike,
    fmt: FPFormat,
    rounding: str = RoundingMode.NEAREST_EVEN,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Round ``x`` to the nearest value representable in ``fmt``.

    Parameters
    ----------
    x:
        Scalar or array of binary64 values (anything ``np.asarray`` accepts).
    fmt:
        Target format.
    rounding:
        One of :class:`RoundingMode`.
    out:
        Destination array of ``x``'s shape; may be ``x`` itself (rounding in
        place).  ``None`` allocates a fresh result.

    Returns
    -------
    numpy.ndarray
        Array of binary64 values, every element exactly representable in
        ``fmt`` (or ±inf on overflow; NaN and ±inf inputs pass through
        unchanged).  Scalars come back as 0-d arrays; use ``float(...)`` if
        a Python float is needed.

    Each lane is scaled by a power of two so that the last fraction bit
    ``fmt`` keeps sits at the units place, rounded to an integer and scaled
    back: with ``E`` the binary64 exponent of ``x`` (read from its exponent
    field) and ``Eeff = max(E, emin)``, the result is
    ``round(x * 2**(man_bits - Eeff)) * 2**(Eeff - man_bits)``.  Both
    scalings are exact :func:`numpy.ldexp` calls; the clamp at ``emin``
    gives gradual underflow, and signed zeros and underflow to ±0 come out
    of the rounding itself.  Only lanes at or
    beyond ``2**emax`` (including non-finite ones) take a guarded branch:
    non-finite inputs are passed through and magnitudes beyond
    ``max_value`` are clamped as IEEE-754 / MPFR do for the rounding mode.
    """
    rnd = _ROUND.get(rounding)
    if rnd is None:
        raise ValueError(f"unknown rounding mode: {rounding!r}")
    arr = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(arr)
    if arr.size == 0 or (fmt.is_fp64() and rounding == RoundingMode.NEAREST_EVEN):
        if out is not arr:
            np.copyto(out, arr)
        return out
    result = out
    if arr.ndim == 0:
        # ufuncs return scalars on 0-d operands: round through 1-element views
        arr, out = arr.reshape(1), out.reshape(1)

    lo, risky_at, fwd, max_value = _constants(fmt)
    # biased exponent as int32 (numpy's ldexp is many times slower on int64
    # exponents), clamped at emin: Eeff
    e = np.right_shift(arr.view(np.int64), 52, out=np.empty(arr.shape, np.int32))
    np.bitwise_and(e, 0x7FF, out=e)
    np.maximum(e, lo, out=e)
    special = None
    risky = e.max() >= risky_at
    if risky:
        # lanes that may overflow the format, or are not finite: read the
        # input before ``out`` (possibly ``arr`` itself) is written
        special = ~np.isfinite(arr)
        if special.any():
            saved = arr[special]
            arr = np.where(special, 0.0, arr)
        else:
            special = None

    # scale by 2**(man_bits - Eeff), round, and scale back
    np.subtract(fwd, e, out=e)
    np.ldexp(arr, e, out=out)
    rnd(out, out=out)
    np.negative(e, out=e)
    np.ldexp(out, e, out=out)

    if risky:
        over = np.abs(out) > max_value
        if over.any():
            sign = np.signbit(out)
            if rounding == RoundingMode.TOWARD_ZERO:
                clamp = np.copysign(max_value, out)
            elif rounding == RoundingMode.UP:
                clamp = np.where(sign, -max_value, np.inf)
            elif rounding == RoundingMode.DOWN:
                clamp = np.where(sign, -np.inf, max_value)
            else:
                clamp = np.copysign(np.inf, out)
            np.copyto(out, clamp, where=over)
        if special is not None:
            out[special] = saved
    return result


#: quantised scalars, keyed by (exp_bits, man_bits, rounding, value); cleared
#: when full, as per-step scalars (``dt / dx``…) arrive next to the literals
_CONSTS: dict = {}
_CONSTS_MAX = 4096


def quantize_const(x: float, fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN) -> float:
    """``float(quantize(x, fmt, rounding))`` for a Python scalar, cached.

    Kernels bring their literals (``2.0``, ``1.0 / 6.0``…) into the format on
    every call; this is the one cache behind ``TruncatedContext.const`` and
    the fused kernels' ``Rounder.const``.  Values are Python floats, so no
    caller can mutate a cached entry.  Zeros (``-0.0 == 0.0``) and NaN are
    never cached.
    """
    key = (fmt.exp_bits, fmt.man_bits, rounding, x)
    v = _CONSTS.get(key)
    if v is None:
        v = float(quantize(x, fmt, rounding))
        if x != 0.0 and x == x:
            if len(_CONSTS) >= _CONSTS_MAX:
                _CONSTS.clear()
            _CONSTS[key] = v
    return v


def quantize_like(x: ArrayLike, fmt: FPFormat, template: np.ndarray) -> np.ndarray:
    """Quantise ``x`` and reshape/broadcast it to the shape of ``template``."""
    q = quantize(x, fmt)
    return np.broadcast_to(q, np.shape(template)).copy()


def is_representable(x: ArrayLike, fmt: FPFormat) -> np.ndarray:
    """Element-wise test whether ``x`` is exactly representable in ``fmt``."""
    arr = np.asarray(x, dtype=np.float64)
    q = quantize(arr, fmt)
    same = (q == arr) | (np.isnan(arr) & np.isnan(q))
    return np.asarray(same)


def ulp(x: ArrayLike, fmt: FPFormat) -> np.ndarray:
    """Unit in the last place of ``fmt`` at magnitude ``|x|``.

    For zero and subnormal magnitudes this returns the smallest subnormal
    spacing ``2**(emin - man_bits)``.
    """
    arr = np.abs(np.asarray(x, dtype=np.float64))
    out = np.full(arr.shape, fmt.min_subnormal, dtype=np.float64)
    normal = arr >= fmt.min_normal
    if np.any(normal):
        _, e = np.frexp(arr[normal])
        out_n = np.ldexp(1.0, (e - 1) - fmt.man_bits)
        out[normal] = out_n
    inf_or_nan = ~np.isfinite(arr)
    if np.any(inf_or_nan):
        out = np.where(inf_or_nan, np.nan, out)
    return out


def quantization_error(x: ArrayLike, fmt: FPFormat) -> np.ndarray:
    """Absolute rounding error committed by quantising ``x`` to ``fmt``."""
    arr = np.asarray(x, dtype=np.float64)
    q = quantize(arr, fmt)
    err = np.abs(q - arr)
    return np.where(np.isfinite(arr) & ~np.isfinite(q), np.inf, err)
