"""Symmetric eigendecomposition by cyclic Jacobi rotations.

The solver is deliberately self-contained and order-deterministic: given
the same matrix it performs the same rotations on every platform. That
makes the basis it returns for a degenerate eigenspace, and the sign it
returns for every eigenvector, a pure function of the input matrix. The
spectral node encoding inherits exactly that behavior, which is what
lets sign and basis instability under node relabeling be studied rather
than hidden.

The rotations run in the cyclic row-major order of Jacobi's method
(Golub & Van Loan, Matrix Computations, section 8.5). The solver reads
the upper triangle of its input and keeps the working matrix exactly
symmetric, so each rotation (p, q) is one update of rows p and q of the
stacked n x 2n block [A | V^T], plus copying the two new rows of A into
their columns. That is the same float arithmetic, in the same order, as
rotating columns and then rows of A and the columns of V separately.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, NumericError, ResourceLimitError
from .graphs import Graph

JACOBI_TOL = 1e-10
JACOBI_MAX_SWEEPS = 100
# Largest order jacobi_eigh accepts: a sweep is ~n**2 / 2 rotations.
JACOBI_MAX_NODES = 256

# Column sign conventions of laplacian_encoding_columns.
SIGN_MODES = ("raw", "first_nonzero_positive")


def normalized_laplacian(g: Graph) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2}, with zero rows for isolated nodes."""
    deg = g.degrees
    lap = np.diag((deg > 0).astype(np.float64))
    u, v = g.edge_index.T
    w = -(1.0 / np.sqrt(deg[u].astype(np.float64) * deg[v]))
    lap[u, v] = w
    lap[v, u] = w
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
    vectors in columns. A matrix above JACOBI_MAX_NODES rows is refused
    up front with a ResourceLimitError.

    Entries must be finite. Input within atol 1e-12 of symmetric is
    accepted, and its lower triangle is replaced by the upper one. The
    working matrix is then exactly symmetric and stays so: the column-then-row update of
    rotation (p, q) gives a[p, j] and a[j, p] the same float operations
    on equal operands. So one rotation computes the new rows p and q
    once and writes each into its row and its column. The eigenvectors
    are kept as rows beside the matrix, in one n x 2n array [A | V^T],
    so the same two row expressions update A and V together.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ContractError(f"expected a square matrix, got shape {a.shape}")
    if n > JACOBI_MAX_NODES:
        raise ResourceLimitError(
            f"Jacobi eigensolver is capped at JACOBI_MAX_NODES = {JACOBI_MAX_NODES} rows, "
            f"got {n}"
        )
    # np.allclose below counts inf as close to inf; rotations would then
    # turn it into NaN after max_sweeps full sweeps.
    if not np.all(np.isfinite(a)):
        raise ContractError("matrix entries must be finite")
    if n and not np.allclose(a, a.T, atol=1e-12):
        raise ContractError("matrix is not symmetric")
    b = np.zeros((n, 2 * n), dtype=np.float64)
    b[:, :n] = np.where(np.tri(n, k=-1, dtype=bool), a.T, a)
    b[:, n:] = np.eye(n)
    a = b[:, :n]
    rows = list(b)
    a_rows = list(a)
    a_cols = [a[:, j] for j in range(n)]
    converged = n < 2
    for _ in range(max_sweeps):
        if _max_offdiag(a) <= tol:
            converged = True
            break
        diag = a.diagonal().tolist()
        for p in range(n - 1):
            row_p = rows[p]
            for q in range(p + 1, n):
                apq = row_p.item(q)
                if abs(apq) <= 1e-300:
                    continue
                # Python floats overflow to inf silently where numpy
                # scalars warn; t is then +-0.0 either way.
                theta = (diag[q] - diag[p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                row_q = rows[q]
                new_p = c * row_p - s * row_q
                new_q = s * row_p + c * row_q
                row_p[:] = new_p
                row_q[:] = new_q
                a_cols[p][:] = a_rows[p]
                a_cols[q][:] = a_rows[q]
                # After the column update the 2 x 2 block holds new_p
                # in column p and new_q in column q; these are the
                # diagonal values the row update then gives.
                app = c * new_p.item(p) - s * new_p.item(q)
                aqq = s * new_q.item(p) + c * new_q.item(q)
                row_p[p] = diag[p] = app
                row_q[q] = diag[q] = aqq
                row_p[q] = row_q[p] = 0.0
    else:
        converged = _max_offdiag(a) <= tol
    if not converged:
        raise NumericError(
            f"Jacobi sweeps left off-diagonal mass {_max_offdiag(a):.3e} above {tol}"
        )
    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    return values[order], b[:, n:].T[:, order]


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
    if k < 0:
        raise ContractError(f"k must be >= 0, got {k}")
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
