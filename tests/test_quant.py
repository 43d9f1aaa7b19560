"""Feature quantization: rounding rule, validation, byte stability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobench import ContractError, NumericError, quantize_matrix, quantized_row_bytes


def test_rounds_half_away_from_zero():
    values = np.array([[0.5, 1.5, -0.5, -1.5, 2.5]])
    assert quantize_matrix(values, 1.0).tolist() == [[1, 2, -1, -2, 3]]


def test_banker_rounding_is_not_used():
    # np.round would send 0.5 -> 0 and 2.5 -> 2.
    out = quantize_matrix(np.array([[0.5, 2.5]]), 1.0)
    assert out.tolist() == [[1, 3]]


def test_scale_by_eps():
    out = quantize_matrix(np.array([[0.1234567]]), 1e-6)
    assert out.tolist() == [[123457]]


def test_path_closeness_grid():
    # Closeness of a 3-node path at eps 1e-6: ends 2/3, middle 1.
    from isobench import TransformSpec, apply_transform, path

    g = apply_transform(TransformSpec("closeness"), path(3))
    grid = quantize_matrix(g.features, 1e-6)
    assert grid[:, -1].tolist() == [666667, 1000000, 666667]


def test_rejects_non_finite():
    with pytest.raises(ContractError):
        quantize_matrix(np.array([[np.nan]]), 1e-6)


def test_rejects_bad_eps():
    with pytest.raises(ContractError):
        quantize_matrix(np.ones((1, 1)), 0.0)
    with pytest.raises(ContractError):
        quantize_matrix(np.ones((1, 1)), -1e-6)


def test_indices_up_to_two_to_the_62_are_kept():
    out = quantize_matrix(np.array([[2.0**62, -(2.0**62)]]), 1.0)
    assert out.tolist() == [[2**62, -(2**62)]]


@pytest.mark.parametrize(
    "value, eps",
    [(2.0**63, 1.0), (-(2.0**63), 1.0), (1e13, 1e-6), (1.0, 1e-320)],
)
def test_indices_past_int64_are_refused(value, eps):
    # 1e13 and 2e13 would both cast to INT_MIN at eps 1e-6, and 1 / 1e-320
    # overflows to inf; neither may merge features or warn.
    with pytest.raises(NumericError, match="too large to quantize") as info:
        quantize_matrix(np.array([[0.5, value]]), eps)
    assert repr(abs(value)) in str(info.value) and repr(eps) in str(info.value)


def test_row_bytes_are_little_endian_int64():
    row = quantize_matrix(np.array([[1.0, -2.0]]), 1.0)[0]
    raw = quantized_row_bytes(row)
    assert len(raw) == 16
    assert raw[:8] == (1).to_bytes(8, "little", signed=True)
    assert raw[8:] == (-2).to_bytes(8, "little", signed=True)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([1e-6, 1e-3, 0.5, 1.0]),
)
def test_quantization_error_is_bounded(x, eps):
    q = quantize_matrix(np.array([[x]]), eps)[0, 0]
    assert abs(q * eps - x) <= eps / 2 + 1e-12 * abs(x)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_negation_is_antisymmetric(x):
    eps = 1e-3
    a = quantize_matrix(np.array([[x]]), eps)[0, 0]
    b = quantize_matrix(np.array([[-x]]), eps)[0, 0]
    assert a == -b
