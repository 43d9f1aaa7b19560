"""Reproducible feature quantization.

Real-valued features are compared only after mapping each entry to an
integer grid index: round(value / eps) with ties going away from zero.
Two values land on the same index whenever they differ by less than eps
and sit in the same cell, which makes float features usable as exact
dictionary keys.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ContractError, NumericError, check_number


def check_quant_eps(eps: float) -> None:
    """Raise ContractError unless eps is a usable granularity: a real
    number, finite and > 0."""
    check_number("quant_eps", eps, numbers.Real)
    if not 0.0 < eps < math.inf:
        raise ContractError(f"quantization granularity must be positive and finite, got {eps}")


def quantize_matrix(values: np.ndarray, eps: float) -> np.ndarray:
    """Quantize a float matrix to int64 grid indices at granularity eps.

    Rounds half away from zero, so 0.5 -> 1 and -0.5 -> -1 at eps=1.
    Raises NumericError when some |value / eps| rounds to 2**63 or more,
    the infinity of an overflowing quotient included: the int64 cast
    would send such values to one index.
    """
    check_quant_eps(eps)
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ContractError("features must be finite to quantize")
    with np.errstate(over="ignore"):
        scaled = arr / eps
    rounded = np.floor(np.abs(scaled) + 0.5)
    if rounded.size and rounded.max() >= 2.0**63:
        raise NumericError(
            f"feature magnitude {float(np.abs(arr).max())!r} is too large to quantize "
            f"at granularity {eps!r}: |value / eps| must round below 2**63"
        )
    return (np.sign(scaled) * rounded).astype(np.int64)


def quantized_row_bytes(row: np.ndarray) -> bytes:
    """Fixed little-endian byte encoding of one quantized feature row."""
    return np.ascontiguousarray(row, dtype="<i8").tobytes()
