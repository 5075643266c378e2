"""Dense real linear algebra and exact integer rank testing.

Everything here is sized for the small matrices this package handles
(L <= 32): a LAPACK symmetric eigensolver with canonical signs, Gaussian
elimination with partial pivoting for inverses and determinants, and an
exact fraction-free integer echelon form for rank decisions that must
not depend on floating-point thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, InvalidInputError, SingularMatrixError

SYMMETRY_RTOL = 1e-12
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


def sym_eigen(q) -> EigenBasis:
    """Eigendecompose a symmetric matrix with LAPACK (``np.linalg.eigh``).

    The input must be symmetric within ``SYMMETRY_RTOL`` relative to
    ||q||_F; its symmetric part is decomposed, and LAPACK returns the
    eigenvalues in ascending order. Deterministic: the same input always
    yields the same basis.
    """
    a = as_square_matrix(q, "q")
    norm = float(np.linalg.norm(a))
    if float(np.linalg.norm(a - a.T)) > SYMMETRY_RTOL * norm:
        raise InvalidInputError("q is not symmetric within tolerance")
    try:
        values, vectors = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from exc
    # sign rule: largest-|coord| entry positive, argmax takes the lowest index on ties
    peak = np.abs(vectors).argmax(axis=0)
    vectors *= np.where(vectors[peak, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
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
        # eliminate the column from every other row with a nonzero entry
        # there; skipping zero factors keeps signed zeros as a row loop would
        factors = aug[:, col].copy()
        factors[col] = 0.0
        rows = factors != 0.0
        aug[rows] -= np.outer(factors[rows], aug[col])
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


class IntEchelon:
    """Exact row echelon form of integer rows, grown one row at a time.

    Each kept row is stored reduced against the rows kept before it, with
    a pivot column where every later kept row is zero. A new row is
    eliminated fraction-free (``v <- r[p] * v - v[p] * r``) against the
    kept rows in order; it is independent of them iff the residual is
    nonzero. Unbounded Python integers keep every decision exact.
    """

    def __init__(self, width: int):
        self.width = width
        self._rows: list[tuple[int, list[int]]] = []

    def add(self, row: Sequence[int]) -> bool:
        """Keep ``row`` and return True iff it is independent of the kept rows."""
        v = [int(c) for c in row]
        if len(v) != self.width:
            raise InvalidInputError(f"row of length {len(v)} in an echelon of width {self.width}")
        for p, r in self._rows:
            if v[p]:
                rp, vp = r[p], v[p]
                v = [rp * x - vp * y for x, y in zip(v, r)]
        pivot = next((k for k, c in enumerate(v) if c), None)
        if pivot is None:
            return False
        g = math.gcd(*v)
        self._rows.append((pivot, [c // g for c in v]))
        return True


def int_rank_independent(vectors: Iterable[Sequence[int]]) -> bool:
    """Exact linear-independence test for integer vectors, by
    fraction-free elimination in unbounded integer arithmetic, so the
    answer never hinges on a floating-point threshold."""
    vecs = [tuple(int(c) for c in v) for v in vectors]
    if not vecs:
        raise InvalidInputError("vector list is empty")
    length = len(vecs[0])
    if any(len(v) != length for v in vecs):
        raise InvalidInputError("vectors have mismatched lengths")
    if len(vecs) > length:
        raise InvalidInputError(f"{len(vecs)} vectors of length {length} can never be independent")
    echelon = IntEchelon(length)
    return all(echelon.add(v) for v in vecs)
