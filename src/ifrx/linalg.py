"""Dense real linear algebra and exact integer rank testing.

Everything here is sized for the small matrices this package handles
(L <= 32): a LAPACK symmetric eigensolver with canonical signs, Gaussian
elimination with partial pivoting for inverses and determinants, the one
reader of exact integer input, and an exact fraction-free integer echelon
step on plain lists for rank decisions that must not hinge on float
thresholds, with the exact determinant a full echelon yields.

The three float kernels take an (S, n, n) stack of independent slices
and give a list of per-slice results. Every slice gets the bytes it would
get in a stack of one, and a slice that fails does not stop the others:
its IfrxError takes its place in the list.
"""

from __future__ import annotations

import math
import operator
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


def _square_stack(m, name: str) -> tuple[np.ndarray, list]:
    """``m`` as an (S, n, n) float copy and each slice's error so far. A
    slice with a non-finite entry gets an InvalidInputError and becomes
    the identity, so that the stacked work on it is harmless and warns of
    nothing."""
    stack = np.array(m, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvalidInputError(f"{name} must be an (S, n, n) stack, got shape {stack.shape}")
    errors = [None] * len(stack)
    if not np.isfinite(stack).all():
        finite = np.isfinite(stack).all(axis=(1, 2))
        for s in np.flatnonzero(~finite).tolist():
            errors[s] = InvalidInputError(f"{name} contains non-finite entries")
        stack[~finite] = np.eye(stack.shape[1])
    return stack, errors


def _unstack(values, errors: list) -> list:
    """A stack's list of results, each slice's error in place of its result."""
    return [v if e is None else e for v, e in zip(values, errors)]


def sym_eigen(q) -> list:
    """Eigendecompose a stack of symmetric matrices with LAPACK
    (``np.linalg.eigh``).

    Each slice must be symmetric within ``SYMMETRY_RTOL`` relative to its
    Frobenius norm; its symmetric part is decomposed, and LAPACK returns
    the eigenvalues in ascending order. Deterministic: the same slice
    always yields the same basis, in any stack.
    """
    a, errors = _square_stack(q, "q")
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
    return _unstack(bases, errors)


def solve_inverse(m) -> list:
    """Invert a stack of square matrices by Gauss-Jordan with partial
    pivoting. Each slice has its own pivots and threshold, and the update
    skips rows whose factor is zero, so signed zeros come out as a row
    loop leaves them."""
    a, errors = _square_stack(m, "m")
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
    return _unstack(aug[:, :, n:], errors)


def det(m) -> list:
    """Determinant of each matrix of a stack via elimination with partial
    pivoting, sign tracked."""
    a, errors = _square_stack(m, "m")
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
    return _unstack(values, errors)


def echelon_add(echelon: list, v: list) -> tuple[int, int] | None:
    """One exact step of a row echelon form kept as ``(pivot, row)`` pairs:
    eliminate the Python-int row ``v`` fraction-free against the kept rows
    in order (``v <- r[p] * v - v[p] * r``) and keep a nonzero residual over
    its gcd, pivoted at its first nonzero. Returns None when the residual
    is zero, else its factor ``(v[pivot], s)``: the residual's pivot entry
    before the gcd division and the product s of the ``r[p]`` it was scaled
    by, which ``echelon_det`` reads."""
    s = 1
    for p, r in echelon:
        vp = v[p]
        if vp:
            rp = r[p]
            s *= rp
            v = [rp * x - vp * y for x, y in zip(v, r)]
    g = math.gcd(*v)
    if not g:
        return None
    pivot = next(k for k, c in enumerate(v) if c)
    echelon.append((pivot, [c // g for c in v] if g != 1 else v))
    return v[pivot], s


def echelon_det(echelon: list, factors: list) -> int:
    """Exact determinant of the square matrix whose rows, added in order by
    ``echelon_add``, built the full ``echelon`` and returned ``factors``.

    Kept row k is (s_k a_k + a mix of earlier rows) / g_k, zero at every
    earlier pivot, so det A = sign(pivot order) * prod v_k[pivot_k] / prod s_k,
    and the division is exact.
    """
    lead = scale = 1
    for v_pivot, s in factors:
        lead *= v_pivot
        scale *= s
    pivots = [p for p, _ in echelon]
    inversions = sum(p > q for i, p in enumerate(pivots) for q in pivots[i + 1:])
    return (-lead if inversions % 2 else lead) // scale


def int_value(value, what: str) -> int:
    """``value`` as a Python int, by the rule ``int_rows`` reads entries
    with (``operator.index``: ``1.5``, ``2.0`` and ``"1"`` are refused)."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None


def int_rows(m, what: str) -> list[list[int]]:
    """The rows of a nonempty rectangular integer matrix, given as any
    iterable of rows (lists, tuples, an array of any integer dtype), as
    lists of Python ints. Any other shape, or an entry that is not an
    integer (``1.5``, and ``2.0`` too), raises InvalidInputError."""
    try:
        # Python scalars read far faster than numpy ones
        rows = list(m.tolist() if isinstance(m, np.ndarray) else m)
        rectangular = len(set(map(len, rows))) == 1
    except TypeError:
        rectangular = False
    if not rectangular:
        raise InvalidInputError(f"{what} must be a nonempty rectangular matrix")
    try:
        return [list(map(operator.index, row)) for row in rows]
    except TypeError:
        raise InvalidInputError(f"{what} must hold integers") from None


def int_rank_independent(vectors: Iterable[Sequence[int]]) -> bool:
    """Exact linear-independence test for integer vectors (read by
    ``int_rows``), by fraction-free elimination in unbounded integer
    arithmetic, so the answer never hinges on a float threshold."""
    vecs = int_rows(vectors, "vectors")
    length = len(vecs[0])
    if len(vecs) > length:
        raise InvalidInputError(f"{len(vecs)} vectors of length {length} can never be independent")
    echelon: list = []
    return all(echelon_add(echelon, v) for v in vecs)
