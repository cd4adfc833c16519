"""Directed-rounding audit of core/quantize at the underflow boundary.

:func:`repro.core.softfloat.exact_quantize` reconstructs the representable
grid of a format with exact :class:`~fractions.Fraction` arithmetic — no
binary64 intermediates — so it is an independent oracle for every rounding
decision the vectorised :func:`repro.core.quantize.quantize` makes.  These
tests pin the two implementations bitwise-equal exactly where the scaled
ldexp/rint chain is most delicate: the subnormal range around ``2**emin``,
the below-``min_subnormal`` regime where directed modes must snap to zero
or the smallest subnormal, and the overflow clamp at ``max_value``.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FPFormat, RoundingMode, quantize
from repro.core.softfloat import exact_quantize

# small formats put the underflow boundary within easy reach; e5m10/e8m7 are
# fp16/bf16, e4m3/e5m2 are the FP8 pair, e8m10 is the paper's sweep format;
# the 11-bit exponents are the cliff-search formats, whose subnormals are
# binary64 subnormals and whose quantisation scales through ldexp
FORMATS = [
    FPFormat(exp_bits=4, man_bits=3),
    FPFormat(exp_bits=5, man_bits=2),
    FPFormat(exp_bits=5, man_bits=10),
    FPFormat(exp_bits=8, man_bits=7),
    FPFormat(exp_bits=8, man_bits=10),
    FPFormat(exp_bits=11, man_bits=20),
    FPFormat(exp_bits=11, man_bits=46),
    FPFormat(exp_bits=11, man_bits=52),
]
FORMAT_IDS = [f"e{f.exp_bits}m{f.man_bits}" for f in FORMATS]
ROUNDINGS = list(RoundingMode.ALL)


def assert_same_bits(x, fmt, rounding):
    got = float(quantize(x, fmt, rounding))
    want = exact_quantize(x, fmt, rounding)
    # bitwise comparison: distinguishes +0.0 from -0.0 and catches any
    # one-ulp disagreement a value comparison with tolerance would mask
    assert math.copysign(1.0, got) == math.copysign(1.0, want) and (
        got == want or (math.isnan(got) and math.isnan(want))
    ), f"quantize({x!r}, {fmt.spec}, {rounding}) = {got!r}, oracle says {want!r}"


def _grid_indices(top):
    """Every grid index up to ``4 * top``, or — for formats whose subnormal
    grid is too fine to walk (``top = 2**man_bits``) — the indices around
    zero, ``min_normal`` and ``4 * min_normal``."""
    if top <= 1024:
        return range(0, 4 * top + 1)
    return [*range(0, 129), *range(top - 128, top + 129), *range(4 * top - 128, 4 * top + 1)]


# ---------------------------------------------------------------------------
# dense deterministic sweep across the underflow boundary
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@pytest.mark.parametrize("rounding", ROUNDINGS)
def test_subnormal_grid_and_midpoints(fmt, rounding):
    """Every multiple of the subnormal spacing up past min_normal, plus the
    halfway points between them where ties-to-even decides."""
    step = fmt.min_subnormal
    top = int(round(fmt.min_normal / step))
    for n in _grid_indices(top):
        for x in (n * step, (n + 0.5) * step, (n + 0.25) * step):
            assert_same_bits(x, fmt, rounding)
            assert_same_bits(-x, fmt, rounding)


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@pytest.mark.parametrize("rounding", ROUNDINGS)
def test_below_min_subnormal(fmt, rounding):
    """Magnitudes strictly inside (0, min_subnormal): directed modes must
    snap to the correct side — UP to +min_subnormal, DOWN to -0.0 for
    positive inputs (and mirrored for negative) — with no double rounding."""
    tiny = fmt.min_subnormal
    for frac in (1e-6, 0.25, 0.5 * (1 - 1e-9), 0.5, 0.5 * (1 + 1e-9), 0.75, 1 - 1e-9):
        assert_same_bits(frac * tiny, fmt, rounding)
        assert_same_bits(-frac * tiny, fmt, rounding)


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@pytest.mark.parametrize("rounding", ROUNDINGS)
def test_signed_zero_agreement(fmt, rounding):
    assert_same_bits(0.0, fmt, rounding)
    assert_same_bits(-0.0, fmt, rounding)


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@pytest.mark.parametrize("rounding", ROUNDINGS)
def test_overflow_boundary(fmt, rounding):
    """Just below, at, and beyond max_value: the oracle enforces the IEEE
    clamp rules (directed modes stop at max_value on the side they cannot
    cross, nearest overflows to infinity)."""
    top = fmt.max_value
    for x in (top * (1 - 1e-9), top, top * (1 + 1e-9), top * 2.0, np.nextafter(top, np.inf)):
        assert_same_bits(x, fmt, rounding)
        assert_same_bits(-x, fmt, rounding)


# ---------------------------------------------------------------------------
# hypothesis sweep concentrated at emin
# ---------------------------------------------------------------------------
@given(
    fmt=st.sampled_from(FORMATS),
    rounding=st.sampled_from(ROUNDINGS),
    mantissa=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    sign=st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=600, deadline=None)
def test_random_values_near_emin_match_oracle(fmt, rounding, mantissa, sign):
    x = sign * mantissa * (2.0 ** fmt.emin)
    assert_same_bits(x, fmt, rounding)


@given(
    fmt=st.sampled_from(FORMATS),
    rounding=st.sampled_from(ROUNDINGS),
    x=st.floats(allow_nan=False, allow_infinity=False, width=64),
)
@settings(max_examples=400, deadline=None)
def test_arbitrary_doubles_match_oracle(fmt, rounding, x):
    assert_same_bits(x, fmt, rounding)


@given(
    fmt=st.sampled_from(FORMATS),
    rounding=st.sampled_from(ROUNDINGS),
    fraction=st.integers(min_value=1, max_value=2**52 - 1),
    sign=st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=400, deadline=None)
def test_binary64_subnormals_match_oracle(fmt, rounding, fraction, sign):
    """Inputs whose binary64 exponent field is zero."""
    x = sign * float(np.array(fraction, dtype=np.int64).view(np.float64))
    assert_same_bits(x, fmt, rounding)


@given(
    fmt=st.sampled_from(FORMATS),
    rounding=st.sampled_from(ROUNDINGS),
    x=st.floats(allow_nan=False, allow_infinity=False, width=64),
)
@settings(max_examples=200, deadline=None)
def test_oracle_is_idempotent(fmt, rounding, x):
    once = exact_quantize(x, fmt, rounding)
    assert exact_quantize(once, fmt, rounding) == once or math.isnan(once)
