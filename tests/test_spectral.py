"""Normalized Laplacian, the rotation eigensolver, and encoding columns."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobench import (
    ContractError,
    Graph,
    NumericError,
    Permutation,
    ResourceLimitError,
    apply_permutation,
    complete,
    cycle,
    erdos_renyi,
    extra_node,
    hard_pair_library,
    jacobi_eigh,
    laplacian_encoding_columns,
    normalized_laplacian,
    path,
    star,
    virtual_node,
)

from helpers import graphs, reference_jacobi_eigh


def random_symmetric(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2


class TestNormalizedLaplacian:
    def test_k2(self):
        lap = normalized_laplacian(Graph(2, ((0, 1),)))
        np.testing.assert_allclose(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_isolated_node_row_is_zero(self):
        lap = normalized_laplacian(Graph(2))
        np.testing.assert_allclose(lap, np.zeros((2, 2)))

    def test_offdiagonal_scaling(self):
        lap = normalized_laplacian(star(3))
        np.testing.assert_allclose(lap[0, 1], -1 / np.sqrt(2))

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=8))
    def test_eigenvalues_lie_in_zero_two(self, g):
        if g.n == 0:
            return
        vals = np.linalg.eigvalsh(normalized_laplacian(g))
        assert vals.min() >= -1e-9
        assert vals.max() <= 2.0 + 1e-9


class TestJacobiEigh:
    def test_matches_lapack_eigenvalues(self):
        for seed in range(5):
            a = random_symmetric(7, seed)
            vals, vecs = jacobi_eigh(a)
            np.testing.assert_allclose(vals, np.linalg.eigvalsh(a), atol=1e-9)

    def test_eigenpairs_satisfy_definition(self):
        a = random_symmetric(9, 42)
        vals, vecs = jacobi_eigh(a)
        np.testing.assert_allclose(a @ vecs, vecs @ np.diag(vals), atol=1e-8)

    def test_vectors_are_orthonormal(self):
        a = random_symmetric(8, 7)
        _, vecs = jacobi_eigh(a)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(8), atol=1e-9)

    def test_eigenvalues_ascend(self):
        vals, _ = jacobi_eigh(random_symmetric(10, 3))
        assert np.all(np.diff(vals) >= -1e-12)

    def test_diagonal_matrix_is_fixed_point(self):
        vals, vecs = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(vals, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ContractError):
            jacobi_eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ContractError):
            jacobi_eigh(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_entries_at_once(self, bad):
        a = random_symmetric(60, 3)
        a[7, 7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="must be finite"):
                jacobi_eigh(a)

    def test_refuses_order_above_cap_up_front(self):
        vals, _ = jacobi_eigh(np.eye(256))
        assert vals.tolist() == [1.0] * 256
        with pytest.raises(ResourceLimitError, match="capped at .* 256 rows, got 257"):
            jacobi_eigh(np.eye(257))

    def test_empty_matrix(self):
        vals, vecs = jacobi_eigh(np.zeros((0, 0)))
        assert vals.shape == (0,) and vecs.shape == (0, 0)

    def test_tiny_off_diagonal_cell_rotates_without_warning(self):
        # Sweeps on P8 + P3 meet cells so small that theta squared
        # overflows to inf; that must not warn.
        g = Graph(11, np.concatenate([path(8).edge_index, path(3).edge_index + 8]))
        lap = normalized_laplacian(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, _ = jacobi_eigh(lap)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(lap), atol=1e-9)

    def test_overflowing_theta_rotates_without_warning(self):
        # At cell (0, 2) theta is about 1e10 / 1.4e-299, which overflows
        # a float; theta is then inf and the rotation is the identity.
        a = np.array([[0.0, 1.0, 1e-299], [1.0, 0.0, 0.0], [1e-299, 0.0, 1e10]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, vecs = jacobi_eigh(a)
        np.testing.assert_allclose(a @ vecs, vecs * vals, atol=1e-9)
        np.testing.assert_allclose(vals, [-1.0, 1.0, 1e10])

    def test_lower_triangle_is_replaced_by_upper(self):
        a = random_symmetric(6, 11)
        upper = a.copy()
        a[np.tril_indices(6, -1)] += 1e-13
        assert not np.array_equal(a, upper)
        vals, vecs = jacobi_eigh(a)
        ref_vals, ref_vecs = jacobi_eigh(upper)
        assert vals.tobytes() == ref_vals.tobytes()
        assert vecs.tobytes() == ref_vecs.tobytes()

    def test_negative_zero_diagonal_survives_the_mirror(self):
        vals, vecs = jacobi_eigh(np.diag([1.0, -0.0, 2.0]))
        assert vals.tolist() == [0.0, 1.0, 2.0]
        assert np.signbit(vals[0])
        np.testing.assert_array_equal(vecs, np.eye(3)[:, [1, 0, 2]])

    def test_laplacian_spectra_match_lapack(self):
        for g in [path(6), cycle(7), star(5), complete(4)]:
            lap = normalized_laplacian(g)
            vals, _ = jacobi_eigh(lap)
            np.testing.assert_allclose(vals, np.linalg.eigvalsh(lap), atol=1e-9)


def assert_same_as_reference(a: np.ndarray, **kwargs) -> None:
    """Same bytes as the column-then-row reference, or the same error."""
    try:
        ref = reference_jacobi_eigh(a, **kwargs)
    except NumericError as exc:
        with pytest.raises(NumericError) as got:
            jacobi_eigh(a, **kwargs)
        assert str(got.value) == str(exc)
        return
    vals, vecs = jacobi_eigh(a, **kwargs)
    assert vals.tobytes() == ref[0].tobytes()
    assert vecs.shape == ref[1].shape
    assert vecs.tobytes() == ref[1].tobytes()


@st.composite
def symmetric_matrices(draw, max_n: int = 9):
    """(m + m.T) / 2 of a drawn m; about half the draws are sparse with
    -0.0 entries, which the halving keeps where both mirror cells hold one."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        entries = st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -0.5, 0.25])
    else:
        entries = st.one_of(
            st.just(0.0),
            st.just(-0.0),
            st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False, width=32),
        )
    m = np.asarray(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    m = m.reshape(n, n)
    return (m + m.T) / 2


class TestJacobiMatchesReference:
    """Byte equality with the earlier column-then-row Jacobi loop."""

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=12))
    def test_normalized_laplacians(self, g):
        assert_same_as_reference(normalized_laplacian(g))

    @settings(max_examples=80, deadline=None)
    @given(symmetric_matrices())
    def test_random_symmetric_matrices(self, a):
        assert_same_as_reference(a)

    def test_dense_random_matrices(self):
        for n in (2, 5, 13, 24):
            assert_same_as_reference(random_symmetric(n, n))

    @pytest.mark.parametrize("image", ["plain", "virtual_node", "extra_node"])
    def test_degenerate_spectra_of_hard_pairs(self, image):
        # Repeated eigenvalues leave the basis to the rotation order, so
        # any change of that order would show in these vectors.
        transform = {"plain": lambda g: g, "virtual_node": virtual_node, "extra_node": extra_node}
        for pair in hard_pair_library().pairs:
            for g in (pair.left, pair.right):
                assert_same_as_reference(normalized_laplacian(transform[image](g)))

    def test_degenerate_spectra_of_named_graphs(self):
        p8_p3 = Graph(11, np.concatenate([path(8).edge_index, path(3).edge_index + 8]))
        for g in (cycle(12), p8_p3):
            assert_same_as_reference(normalized_laplacian(g))

    def test_budget_error_matches(self):
        a = random_symmetric(10, 5)
        with pytest.raises(NumericError):
            jacobi_eigh(a, max_sweeps=1)
        assert_same_as_reference(a, max_sweeps=1)

    def test_small_and_diagonal_matrices(self):
        for a in (np.zeros((0, 0)), np.ones((1, 1)), np.diag([3.0, -0.0, 1.0])):
            assert_same_as_reference(a)


class TestEncodingColumns:
    def test_k2_first_nonzero_positive(self):
        cols = laplacian_encoding_columns(Graph(2, ((0, 1),)), 1, "first_nonzero_positive")
        np.testing.assert_allclose(cols, [[1 / np.sqrt(2)], [-1 / np.sqrt(2)]], atol=1e-9)

    def test_single_node_pads_with_zeros(self):
        cols = laplacian_encoding_columns(Graph(1), 4, "raw")
        np.testing.assert_allclose(cols, np.zeros((1, 4)))

    def test_small_graph_pads_missing_columns(self):
        cols = laplacian_encoding_columns(path(3), 4, "raw")
        assert cols.shape == (3, 4)
        np.testing.assert_allclose(cols[:, 2:], np.zeros((3, 2)))
        assert np.abs(cols[:, :2]).max() > 0.1

    def test_column_count_matches_request(self):
        assert laplacian_encoding_columns(cycle(6), 3, "raw").shape == (6, 3)

    def test_sign_rule_commutes_with_relabeling(self):
        # The sign decision reads only the sorted value profile, so on a
        # simple spectrum the fixed columns move with the nodes exactly.
        g = erdos_renyi(9, 0.5, seed=3)
        rng = np.random.default_rng(17)
        mapping = tuple(int(x) for x in rng.permutation(9))
        h = apply_permutation(g, Permutation(mapping))
        a = laplacian_encoding_columns(g, 4, "first_nonzero_positive")
        b = laplacian_encoding_columns(h, 4, "first_nonzero_positive")
        np.testing.assert_allclose(a, b[list(mapping)], atol=1e-8)

    def test_sign_rule_prefers_larger_sorted_profile(self):
        # Star eigenvector values are asymmetric around zero, so the
        # profile comparison alone must fix the sign: the branch whose
        # sorted values compare larger wins.
        cols = laplacian_encoding_columns(star(4), 3, "first_nonzero_positive")
        for j in range(3):
            col = cols[:, j]
            plus = np.sort(np.round(col / 1e-6))
            minus = np.sort(-plus)
            assert tuple(plus) >= tuple(minus)

    def test_rejects_unknown_sign_mode(self):
        with pytest.raises(ContractError):
            laplacian_encoding_columns(path(3), 2, "absolute")

    def test_rejects_negative_k(self):
        with pytest.raises(ContractError, match="k must be >= 0, got -1"):
            laplacian_encoding_columns(path(3), -1, "raw")

    def test_columns_are_unit_eigenvectors(self):
        g = path(6)
        lap = normalized_laplacian(g)
        cols = laplacian_encoding_columns(g, 3, "raw")
        ref = np.linalg.eigvalsh(lap)
        for j in range(3):
            col = cols[:, j]
            np.testing.assert_allclose(np.linalg.norm(col), 1.0, atol=1e-9)
            ray = col @ lap @ col
            np.testing.assert_allclose(ray, ref[1 + j], atol=1e-8)

    def test_skips_constant_direction(self):
        # Column 0 of the spectrum (eigenvalue 0) is never emitted.
        g = cycle(5)
        cols = laplacian_encoding_columns(g, 2, "raw")
        lap = normalized_laplacian(g)
        for j in range(2):
            ray = cols[:, j] @ lap @ cols[:, j]
            assert ray > 1e-6
