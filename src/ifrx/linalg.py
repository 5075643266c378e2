"""Dense real linear algebra and exact integer rank testing.

Everything here is sized for the matrices this package handles, L x L
with L <= 1,024 (``channel.CHANNEL_ENTRY_LIMIT`` entries): a LAPACK
symmetric eigensolver with canonical signs, Gaussian elimination with
partial pivoting for inverses and determinants, the readers of exact
integer and of real input, and an exact fraction-free integer echelon
step on plain lists for rank decisions that must not hinge on float
thresholds, with the exact determinant a full echelon yields.

The three float kernels take a finite (S, n, n) stack of independent
slices, read by the rule and with the messages of ``as_square_matrix``,
run it in one pass and give a list of per-slice results; every slice
gets the bytes it would get in a stack of one. ``solve_inverse``
lists a singular slice's SingularMatrixError in its place; ``det`` and
``sym_eigen`` raise for the whole stack.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, InvalidInputError, SingularMatrixError

SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-12


def _real_array(m, name: str) -> np.ndarray:
    """``as_real_matrix`` of any shape and without its finiteness check: a
    float copy of ``m``, the entries read by the rule of ``real_value``."""
    try:
        arr = np.array(m)
    except ValueError:
        raise InvalidInputError(f"{name} must be a rectangular array") from None
    if arr.dtype.kind == "O":
        # entries numpy keeps as objects: None, fractions, ints beyond 64 bits
        arr = np.array([real_value(x, f"{name} entry") for x in arr.flat]).reshape(arr.shape)
    elif arr.dtype.kind not in "biuf":
        raise InvalidInputError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _finite_array(m, name: str, ndim: int) -> np.ndarray:
    """``m`` read by ``_real_array``, of ``ndim`` dimensions and finite."""
    arr = _real_array(m, name)
    if arr.ndim != ndim:
        raise InvalidInputError(f"{name} must be a {ndim}-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def as_real_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float array of real entries, each
    read by the rule of ``real_value``: a string, ``None``, complex or
    non-finite entry, or a ragged matrix, raises InvalidInputError."""
    return _finite_array(m, name, 2)


def _square_array(m, name: str, ndim: int) -> np.ndarray:
    """``m`` read by ``_finite_array``, its last two dimensions square and
    nonempty: a fresh array a kernel may work in place."""
    arr = _finite_array(m, name, ndim)
    if arr.shape[-2] != arr.shape[-1]:
        raise InvalidInputError(f"{name} must be square, got shape {arr.shape}")
    if not arr.shape[-1]:
        raise InvalidInputError(f"{name} must be nonempty, got shape {arr.shape}")
    return arr


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    """``as_real_matrix``, square and nonempty."""
    return _square_array(m, name, 2)


def sym_eigen(q) -> list:
    """Eigenvectors of a stack of symmetric matrices, by LAPACK
    (``np.linalg.eigh``): each slice's orthonormal eigenvector matrix, its
    columns in ascending eigenvalue order, each column's largest-magnitude
    coordinate made positive (ties go to the lowest index).

    Each slice must be symmetric within ``SYMMETRY_RTOL`` relative to its
    Frobenius norm; an exactly symmetric one is decomposed as given, any
    other by its symmetric part. Deterministic: the same slice always
    yields the same matrix, in any stack. An asymmetric slice or a LAPACK
    failure raises for the whole stack.
    """
    q = _square_array(q, "q", 3)
    count, n = q.shape[:2]
    # an exactly symmetric slice is decomposed as given; another is measured
    # scaled by a power of two to entries below 1, so that no norm overflows,
    # and halved before the sum, which then cannot overflow either
    for k in np.flatnonzero((q != q.swapaxes(1, 2)).any(axis=(1, 2))).tolist():
        s = np.ldexp(q[k], -np.frexp(np.abs(q[k]).max())[1])
        if np.linalg.norm(s - s.T) > SYMMETRY_RTOL * np.linalg.norm(s):
            raise InvalidInputError("q is not symmetric within tolerance")
        q[k] = 0.5 * q[k] + 0.5 * q[k].T
    try:
        _, vectors = np.linalg.eigh(q)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from exc
    # sign rule: largest-|coord| entry positive, argmax takes the lowest index on ties
    peak = np.abs(vectors).argmax(axis=1)
    top = vectors[np.arange(count)[:, None], peak, np.arange(n)]
    vectors *= np.where(top < 0, -1.0, 1.0)[:, None, :]
    return list(vectors)


def _swap_pivot(a: np.ndarray, col: int, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial pivoting at ``col``, ``at`` the slice numbers: moves each
    slice's row ``col`` to its pivot row's place and returns the pivot rows
    (a copy) and their numbers. Row ``col`` itself is left as it was, for
    the caller to write or to drop."""
    piv = col + np.abs(a[:, col:, col]).argmax(axis=1)
    rows = a[at, piv]
    a[at, piv] = a[:, col]
    return rows, piv


def solve_inverse(m) -> list:
    """Invert a stack of square matrices by Gauss-Jordan with partial
    pivoting. Each slice has its own pivots and threshold, and the update
    skips rows whose factor is zero, so signed zeros come out as a row
    loop leaves them. A zero slice, one with a pivot below its threshold
    (the first such column named) or one whose inverse leaves the float
    range gets a SingularMatrixError in its place; its remaining steps
    run on, discarded, with numpy's warnings off.

    A column step swaps, divides the pivot row and eliminates the column
    from every other row; the pivots are stored and held against the
    floor after the loop. Where no factor is zero the update runs on every
    row, and the pivot row is written back after it."""
    m = _square_array(m, "m", 3)
    count, n = m.shape[:2]
    at = np.arange(count)
    scale = np.abs(m).max(axis=(1, 2), initial=0.0)
    aug = np.concatenate([m, np.broadcast_to(np.eye(n), m.shape)], axis=2)
    pivots = np.empty((count, n))
    with np.errstate(all="ignore"):
        for col in range(n):
            row, _ = _swap_pivot(aug, col, at)
            pivots[:, col] = row[:, col]
            row /= row[:, col, None]
            # row col's place still holds the row swapped out of it, whose
            # update is discarded when the pivot row is written there
            factors = aug[:, :, col, None]
            if factors.all():
                aug -= factors * row[:, None, :]
            else:
                # skipping zero factors keeps signed zeros as a row loop would
                np.subtract(aug, factors * row[:, None, :], out=aug, where=factors != 0.0)
            aug[:, col] = row
    # each slice's first pivot below its floor, or -1
    low = np.abs(pivots) < PIVOT_RTOL * scale[:, None]
    first = np.where(low.any(axis=1), low.argmax(axis=1), -1).tolist()
    inverses = aug[:, :, n:]
    finite = np.isfinite(inverses).all(axis=(1, 2)).tolist()
    found = []
    for s, col, inv, ok in zip(scale.tolist(), first, inverses, finite):
        if not s:
            found.append(SingularMatrixError("matrix is zero"))
        elif col >= 0:
            found.append(SingularMatrixError(f"pivot below threshold at column {col}"))
        else:
            found.append(inv if ok else SingularMatrixError("inverse leaves the float range"))
    return found


def det(m) -> list:
    """Determinant of each matrix of a stack via elimination with partial
    pivoting, the product of its pivots kept as a mantissa and a power of
    two; one whose elimination overflows comes out infinite or NaN.

    The column loop eliminates alone and stores each pivot and each pivot
    row's number; the sign, the zero flag and the product are read off
    them after it. An exact zero pivot makes the determinant 0, a result
    and not an error; that slice's later steps divide by zero and are
    discarded."""
    a = _square_array(m, "m", 3)
    count, n = a.shape[:2]
    at = np.arange(count)
    pivots = np.empty((count, n))
    pivot_rows = np.empty((count, n), dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(n):
            row, pivot_rows[:, col] = _swap_pivot(a, col, at)
            pivots[:, col] = row[:, col]
            if col + 1 < n:
                factors = a[:, col + 1:, col] / row[:, col, None]
                a[:, col + 1:] -= factors[:, :, None] * row[:, None, :]
    mantissas, exponents = [], []
    for slice_pivots in pivots.tolist():
        mantissa, exponent = 1.0, 0
        for p in slice_pivots:
            mantissa, step = math.frexp(mantissa * p)
            exponent += step
        mantissas.append(mantissa)
        exponents.append(exponent)
    # each swap flips the sign
    mantissa = np.array(mantissas)
    np.negative(mantissa, out=mantissa, where=(pivot_rows != np.arange(n)).sum(axis=1) % 2 == 1)
    with np.errstate(over="ignore"):
        values = np.ldexp(mantissa, np.array(exponents, dtype=np.int32))
    values[(pivots == 0.0).any(axis=1)] = 0.0
    return list(values)


def echelon_add(echelon: list, v: list) -> bool:
    """One exact step of a row echelon form kept as ``(pivot, row, factor)``
    entries: eliminate the Python-int row ``v`` fraction-free against the
    kept rows in order (``v <- r[p] * v - v[p] * r``) and keep a nonzero
    residual over its gcd, pivoted at its first nonzero. Returns False when
    the residual is zero, else True; the kept factor ``(v[pivot], s)`` is
    the residual's pivot entry before the gcd division and the product s of
    the ``r[p]`` it was scaled by, which ``echelon_det`` reads."""
    s = 1
    for p, r, _ in echelon:
        vp = v[p]
        if vp:
            rp = r[p]
            s *= rp
            v = [rp * x - vp * y for x, y in zip(v, r)]
    g = math.gcd(*v)
    if not g:
        return False
    pivot = next(k for k, c in enumerate(v) if c)
    echelon.append((pivot, [c // g for c in v] if g != 1 else v, (v[pivot], s)))
    return True


def echelon_det(echelon: list) -> int:
    """Exact determinant of the square matrix whose rows, added in order by
    ``echelon_add``, built the full ``echelon``.

    Kept row k is (s_k a_k + a mix of earlier rows) / g_k, zero at every
    earlier pivot, so det A = sign(pivot order) * prod v_k[pivot_k] / prod s_k,
    and the division is exact.
    """
    lead = scale = 1
    for _, _, (v_pivot, s) in echelon:
        lead *= v_pivot
        scale *= s
    pivots = [p for p, _, _ in echelon]
    inversions = sum(p > q for i, p in enumerate(pivots) for q in pivots[i + 1:])
    return (-lead if inversions % 2 else lead) // scale


def int_value(value, what: str) -> int:
    """``value`` as a Python int, by the rule ``int_rows`` reads entries
    with (``operator.index``: ``1.5``, ``2.0`` and ``"1"`` are refused)."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None


def real_value(value, what: str) -> float:
    """``value`` as a Python float, by the rule real input is read with: a
    Python or numpy real (``bool`` too, as ``int_value`` reads it) is
    accepted; ``str``, ``bytes``, ``None``, complex values and reals beyond
    the float range raise InvalidInputError."""
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidInputError(f"{what} must be a real number, got {value!r}")


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
