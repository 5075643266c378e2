"""Dense real linear algebra and exact integer rank testing.

Everything here is sized for the small matrices this package handles
(L <= 32): a LAPACK symmetric eigensolver with canonical signs, Gaussian
elimination with partial pivoting for inverses and determinants, and an
exact fraction-free integer echelon form for rank decisions that must
not depend on floating-point thresholds.

The three float kernels take one (n, n) matrix, giving its result or
raising its error, or an (S, n, n) stack of independent slices, giving a
list of per-slice results. Every slice gets the bytes it would get alone,
and a slice that fails does not stop the others: its IfrxError takes its
place in the list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, InvalidInputError, SingularMatrixError, unwrap

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


def _square_stack(m, name: str) -> tuple[np.ndarray, bool, list]:
    """``m`` as an (S, n, n) float copy, whether it was one matrix, and
    each slice's error so far. A slice with a non-finite entry gets an
    InvalidInputError and becomes the identity, so that the stacked work
    on it is harmless and warns of nothing."""
    arr = np.array(m, dtype=float)
    single = arr.ndim == 2
    stack = arr[None] if single else arr
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvalidInputError(f"{name} must be square, got shape {arr.shape}")
    errors = [None] * len(stack)
    if not np.isfinite(stack).all():
        finite = np.isfinite(stack).all(axis=(1, 2))
        for s in np.flatnonzero(~finite).tolist():
            errors[s] = InvalidInputError(f"{name} contains non-finite entries")
        stack[~finite] = np.eye(stack.shape[1])
    return stack, single, errors


def _unstack(values, errors: list, single: bool):
    """A stack's list of results, each slice's error in place of its
    result; or one matrix's result, its error raised."""
    results = [v if e is None else e for v, e in zip(values, errors)]
    return unwrap(results[0]) if single else results


def sym_eigen(q):
    """Eigendecompose a symmetric matrix (or stack) with LAPACK
    (``np.linalg.eigh``).

    The input must be symmetric within ``SYMMETRY_RTOL`` relative to
    ||q||_F; its symmetric part is decomposed, and LAPACK returns the
    eigenvalues in ascending order. Deterministic: the same input always
    yields the same basis, alone or in any stack.
    """
    a, single, errors = _square_stack(q, "q")
    count, n = a.shape[:2]
    if (a != a.swapaxes(1, 2)).any():
        # an exactly symmetric slice passes; the others are measured one by one
        for s in range(count):
            asym = a[s] - a[s].T
            norm = float(np.linalg.norm(a[s]))
            if asym.any() and float(np.linalg.norm(asym)) > SYMMETRY_RTOL * norm:
                errors[s] = InvalidInputError("q is not symmetric within tolerance")
                a[s] = np.eye(n)
    sym = 0.5 * (a + a.swapaxes(1, 2))
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError:
        # find the slices LAPACK fails on by redoing them one at a time
        values, vectors = np.zeros((count, n)), np.zeros_like(sym)
        for s in range(count):
            try:
                values[s], vectors[s] = np.linalg.eigh(sym[s])
            except np.linalg.LinAlgError as exc:
                errors[s] = ConvergenceError(f"eigh did not converge: {exc}")
                errors[s].__cause__ = exc
                vectors[s] = np.eye(n)
    # sign rule: largest-|coord| entry positive, argmax takes the lowest index on ties
    peak = np.abs(vectors).argmax(axis=1)
    top = vectors[np.arange(count)[:, None], peak, np.arange(n)]
    vectors *= np.where(top < 0, -1.0, 1.0)[:, None, :]
    bases = [EigenBasis(values=v, vectors=w) for v, w in zip(values, vectors)]
    return _unstack(bases, errors, single)


def solve_inverse(m):
    """Invert a square matrix (or stack) by Gauss-Jordan with partial
    pivoting. Each slice has its own pivots and threshold, and the update
    skips rows whose factor is zero, so signed zeros come out as a row
    loop leaves them."""
    a, single, errors = _square_stack(m, "m")
    count, n = a.shape[:2]
    scale = np.abs(a).max(axis=(1, 2), initial=0.0)
    if np.count_nonzero(scale) < count:
        for s in np.flatnonzero(scale == 0.0).tolist():
            errors[s] = errors[s] or SingularMatrixError("matrix is zero")
    eye = np.eye(n)
    aug = np.concatenate([a, np.broadcast_to(eye, a.shape)], axis=2)
    if any(errors):
        # a failed slice becomes [I | I], which every step leaves alone
        failed = np.array([e is not None for e in errors])
        aug[failed] = np.hstack([eye, eye])
        scale[failed] = 1.0
    floor = PIVOT_RTOL * scale
    at = np.arange(count)
    for col in range(n):
        piv = col + np.abs(aug[:, col:, col]).argmax(axis=1)
        # swap rows col and piv (a no-op where they are equal)
        top = aug[:, col].copy()
        aug[:, col] = aug[at, piv]
        aug[at, piv] = top
        low = np.abs(aug[:, col, col]) < floor
        if np.count_nonzero(low):
            for s in np.flatnonzero(low).tolist():
                errors[s] = SingularMatrixError(f"pivot below threshold at column {col}")
            aug[low] = np.hstack([eye, eye])
            floor[low] = PIVOT_RTOL
        np.divide(aug[:, col], aug[:, col, col, None], out=aug[:, col])
        # eliminate the column from every other row with a nonzero entry
        # there; skipping zero factors keeps signed zeros as a row loop would
        factors = aug[:, :, col].copy()
        factors[:, col] = 0.0
        update = factors[:, :, None] * aug[:, col, None, :]
        np.subtract(aug, update, out=aug, where=(factors != 0.0)[:, :, None])
    return _unstack(aug[:, :, n:], errors, single)


def det(m):
    """Determinant of a square matrix (or stack) via elimination with
    partial pivoting, sign tracked."""
    a, single, errors = _square_stack(m, "m")
    count, n = a.shape[:2]
    result = np.ones(count)
    pivots = np.empty((count, n), dtype=np.intp)
    zero = np.zeros(count, dtype=bool)
    at = np.arange(count)
    for col in range(n):
        piv = pivots[:, col] = col + np.abs(a[:, col:, col]).argmax(axis=1)
        # swap rows col and piv (a no-op where they are equal)
        top = a[:, col].copy()
        a[:, col] = a[at, piv]
        a[at, piv] = top
        if np.count_nonzero(a[:, col, col]) < count:
            # an exact zero pivot makes the determinant 0; the slice is
            # done and becomes the identity for the remaining steps
            hit = a[:, col, col] == 0.0
            zero |= hit
            a[hit] = np.eye(n)
        result *= a[:, col, col]
        if col + 1 < n:
            factors = a[:, col + 1:, col] / a[:, col, col, None]
            a[:, col + 1:] -= factors[:, :, None] * a[:, col, None, :]
    # each swap flips the sign
    swaps = (pivots != np.arange(n)).sum(axis=1)
    values = np.where(swaps % 2 == 1, -1.0, 1.0) * result
    values[zero] = 0.0
    return _unstack(values, errors, single)


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
