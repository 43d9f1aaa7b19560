"""Reproducible feature quantization.

Real-valued features are compared only after mapping each entry to an
integer grid index: round(value / eps) with ties going away from zero.
Two values land on the same index whenever they differ by less than eps
and sit in the same cell, which makes float features usable as exact
dictionary keys.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def check_quant_eps(eps: float) -> None:
    """Raise ContractError unless eps is a usable granularity: finite and > 0."""
    if not (np.isfinite(eps) and eps > 0.0):
        raise ContractError(f"quantization granularity must be positive and finite, got {eps}")


def quantize_matrix(values: np.ndarray, eps: float) -> np.ndarray:
    """Quantize a float matrix to int64 grid indices at granularity eps.

    Rounds half away from zero, so 0.5 -> 1 and -0.5 -> -1 at eps=1.
    """
    check_quant_eps(eps)
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ContractError("features must be finite to quantize")
    scaled = arr / eps
    return (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)).astype(np.int64)


def quantized_row_bytes(row: np.ndarray) -> bytes:
    """Fixed little-endian byte encoding of one quantized feature row."""
    return np.ascontiguousarray(row, dtype="<i8").tobytes()
