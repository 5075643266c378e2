"""Dense real linear algebra and exact integer rank testing.

Everything here is sized for the small matrices this package handles
(L <= 32): a cyclic Jacobi eigensolver for symmetric matrices, Gaussian
elimination with partial pivoting for inverses and determinants, and
fraction-free (Bareiss) elimination for integer rank decisions that must
not depend on floating-point thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, InvalidInputError, SingularMatrixError

# An integer coefficient vector; hashable so candidate sets can dedupe.
IntVector = tuple[int, ...]

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
PIVOT_RTOL = 1e-12


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite square 2-D float array."""
    arr = np.array(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class EigenBasis:
    """Eigenvalues in ascending order with matching orthonormal columns.

    Each column's largest-magnitude coordinate is made positive (ties go
    to the lowest index) so repeated runs produce identical bases.
    """

    values: np.ndarray
    vectors: np.ndarray


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def sym_eigen(q, tol: float = JACOBI_TOL, max_sweeps: int = JACOBI_MAX_SWEEPS) -> EigenBasis:
    """Eigendecompose a symmetric matrix with cyclic Jacobi rotations.

    Sweeps rotate every (p, r) pair in row order until the off-diagonal
    Frobenius norm drops below ``tol`` relative to ||q||_F. Deterministic:
    the same input always yields the same basis.
    """
    a = as_square_matrix(q, "q")
    n = a.shape[0]
    norm = float(np.linalg.norm(a))
    if float(np.linalg.norm(a - a.T)) > tol * norm:
        raise InvalidInputError("q is not symmetric within tolerance")
    a = 0.5 * (a + a.T)
    v = np.eye(n)
    skip = 1e-20 * max(norm, 1.0)

    sweeps = 0
    while _offdiag_norm(a) > tol * norm:
        if sweeps >= max_sweeps:
            raise ConvergenceError(f"Jacobi did not converge within {max_sweeps} sweeps")
        for p in range(n - 1):
            for r in range(p + 1, n):
                apr = a[p, r]
                if abs(apr) <= skip:
                    continue
                theta = 0.5 * (a[r, r] - a[p, p]) / apr
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_r = a[:, p].copy(), a[:, r].copy()
                a[:, p] = c * col_p - s * col_r
                a[:, r] = s * col_p + c * col_r
                row_p, row_r = a[p, :].copy(), a[r, :].copy()
                a[p, :] = c * row_p - s * row_r
                a[r, :] = s * row_p + c * row_r
                a[p, r] = 0.0
                a[r, p] = 0.0
                vec_p, vec_r = v[:, p].copy(), v[:, r].copy()
                v[:, p] = c * vec_p - s * vec_r
                v[:, r] = s * vec_p + c * vec_r
        sweeps += 1

    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = v[:, order]
    for j in range(n):
        k = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[k, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return EigenBasis(values=values, vectors=vectors)


def solve_inverse(m) -> np.ndarray:
    """Invert a square matrix by Gauss-Jordan with partial pivoting."""
    a = as_square_matrix(m, "m")
    n = a.shape[0]
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        raise SingularMatrixError("matrix is zero")
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < PIVOT_RTOL * scale:
            raise SingularMatrixError(f"pivot below threshold at column {col}")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        for r in range(n):
            if r != col and aug[r, col] != 0.0:
                aug[r] -= aug[r, col] * aug[col]
    return aug[:, n:]


def det(m) -> float:
    """Determinant via elimination with partial pivoting, sign tracked."""
    a = as_square_matrix(m, "m")
    n = a.shape[0]
    sign = 1.0
    result = 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return 0.0
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            sign = -sign
        result *= a[col, col]
        if col + 1 < n:
            a[col + 1:] -= np.outer(a[col + 1:, col] / a[col, col], a[col])
    return sign * result


def _bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    n = len(rows)
    m = [[int(x) for x in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def int_rank_independent(vectors: Iterable[Sequence[int]]) -> bool:
    """Exact linear-independence test for integer vectors.

    Forms the Gramian of the row set and checks its determinant with
    Bareiss elimination in unbounded integer arithmetic, so the answer
    never hinges on a floating-point threshold.
    """
    vecs = [tuple(int(c) for c in v) for v in vectors]
    if not vecs:
        raise InvalidInputError("vector list is empty")
    length = len(vecs[0])
    if any(len(v) != length for v in vecs):
        raise InvalidInputError("vectors have mismatched lengths")
    if len(vecs) > length:
        raise InvalidInputError(f"{len(vecs)} vectors of length {length} can never be independent")
    k = len(vecs)
    gram = [[sum(vecs[i][t] * vecs[j][t] for t in range(length)) for j in range(k)] for i in range(k)]
    return _bareiss_det(gram) != 0
