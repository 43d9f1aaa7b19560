"""Normalized Laplacian, the rotation eigensolver, and encoding columns."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobench import (
    ContractError,
    Graph,
    Permutation,
    apply_permutation,
    complete,
    cycle,
    erdos_renyi,
    jacobi_eigh,
    laplacian_encoding_columns,
    normalized_laplacian,
    path,
    star,
)

from helpers import graphs


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

    def test_empty_matrix(self):
        vals, vecs = jacobi_eigh(np.zeros((0, 0)))
        assert vals.shape == (0,) and vecs.shape == (0, 0)

    def test_tiny_off_diagonal_cell_rotates_without_warning(self):
        # Sweeps on P8 + P3 meet cells so small that theta squared
        # overflows to inf; that must not warn.
        g = Graph(11, path(8).edges + tuple((u + 8, v + 8) for u, v in path(3).edges))
        lap = normalized_laplacian(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, _ = jacobi_eigh(lap)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(lap), atol=1e-9)

    def test_laplacian_spectra_match_lapack(self):
        for g in [path(6), cycle(7), star(5), complete(4)]:
            lap = normalized_laplacian(g)
            vals, _ = jacobi_eigh(lap)
            np.testing.assert_allclose(vals, np.linalg.eigvalsh(lap), atol=1e-9)


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
