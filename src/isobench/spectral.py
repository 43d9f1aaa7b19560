"""Symmetric eigendecomposition by cyclic Jacobi rotations.

The solver is deliberately self-contained and order-deterministic: given
the same matrix it performs the same rotations on every platform. That
makes the basis it returns for a degenerate eigenspace, and the sign it
returns for every eigenvector, a pure function of the input matrix. The
spectral node encoding inherits exactly that behavior, which is what
lets sign and basis instability under node relabeling be studied rather
than hidden.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, NumericError
from .graphs import Graph

JACOBI_TOL = 1e-10
JACOBI_MAX_SWEEPS = 100

# Column sign conventions of laplacian_encoding_columns.
SIGN_MODES = ("raw", "first_nonzero_positive")


def normalized_laplacian(g: Graph) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2}, with zero rows for isolated nodes."""
    lap = np.zeros((g.n, g.n), dtype=np.float64)
    deg = g.degrees
    for v in range(g.n):
        if deg[v] > 0:
            lap[v, v] = 1.0
    for u, v in g.edges:
        w = 1.0 / math.sqrt(float(deg[u]) * float(deg[v]))
        lap[u, v] = -w
        lap[v, u] = -w
    return lap


def simple_spectrum(g: Graph, gap: float = 1e-6) -> bool:
    """True when sorted normalized-Laplacian eigenvalues (numpy's eigvalsh,
    independent of jacobi_eigh) are all more than gap apart."""
    if g.n < 2:
        return True
    vals = np.linalg.eigvalsh(normalized_laplacian(g))
    return bool(np.min(np.diff(vals)) > gap)


def _max_offdiag(a: np.ndarray) -> float:
    if a.shape[0] < 2:
        return 0.0
    mask = ~np.eye(a.shape[0], dtype=bool)
    return float(np.max(np.abs(a[mask])))


def jacobi_eigh(
    a: np.ndarray,
    tol: float = JACOBI_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a symmetric matrix.

    Sweeps rotate every upper-triangle cell in a fixed row-major order
    until the largest off-diagonal magnitude is at most tol. Returns
    (values, vectors) sorted by ascending eigenvalue with a stable sort,
    vectors in columns.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ContractError(f"expected a square matrix, got shape {a.shape}")
    if n and not np.allclose(a, a.T, atol=1e-12):
        raise ContractError("matrix is not symmetric")
    vecs = np.eye(n, dtype=np.float64)
    converged = n < 2
    for _ in range(max_sweeps):
        if _max_offdiag(a) <= tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # A Python float squares to inf silently where a numpy
                # scalar warns; t is then +-0.0 either way.
                theta = float((a[q, q] - a[p, p]) / (2.0 * apq))
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vcol_p = vecs[:, p].copy()
                vcol_q = vecs[:, q].copy()
                vecs[:, p] = c * vcol_p - s * vcol_q
                vecs[:, q] = s * vcol_p + c * vcol_q
    else:
        converged = _max_offdiag(a) <= tol
    if not converged:
        raise NumericError(
            f"Jacobi sweeps left off-diagonal mass {_max_offdiag(a):.3e} above {tol}"
        )
    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    return values[order], vecs[:, order]


def _sign_canonical(col: np.ndarray) -> np.ndarray:
    """Resolve the global sign ambiguity of one eigenvector column.

    The two candidates +col and -col are compared by their sorted value
    sequences on a 1e-6 grid, and the lexicographically larger profile
    wins, so the outcome depends only on the value multiset and never on
    node order. A profile equal to its own negation cannot be decided
    that way; those columns fall back to making the first entry with
    magnitude above 1e-9 (in node order) positive.
    """
    q = np.sort(np.round(col / 1e-6))
    r = np.sort(-q)
    for x, y in zip(q, r):
        if x != y:
            return col if x > y else -col
    for entry in col:
        if abs(entry) > 1e-9:
            return col if entry > 0 else -col
    return col


def laplacian_encoding_columns(g: Graph, k: int, sign_mode: str) -> np.ndarray:
    """Columns 1..k of the sorted normalized-Laplacian eigenbasis.

    Position 0 (the smallest eigenvalue) is always skipped; when fewer
    than k non-trivial columns exist the remainder is zero padded. With
    sign_mode "first_nonzero_positive" each column's sign is fixed from
    its value profile alone (see _sign_canonical), so on graphs with all
    eigenvalue gaps simple the appended features commute with node
    relabeling; "raw" keeps the solver output as is.
    """
    if sign_mode not in SIGN_MODES:
        raise ContractError(f"unknown sign mode {sign_mode!r}")
    out = np.zeros((g.n, k), dtype=np.float64)
    if g.n < 2:
        return out
    _, vecs = jacobi_eigh(normalized_laplacian(g))
    avail = min(k, g.n - 1)
    cols = vecs[:, 1 : 1 + avail].copy()
    if sign_mode == "first_nonzero_positive":
        for j in range(cols.shape[1]):
            cols[:, j] = _sign_canonical(cols[:, j])
    out[:, :avail] = cols
    return out
