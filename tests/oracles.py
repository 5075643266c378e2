"""Reference formulas the tests check the package against."""

import math
import sys

import numpy as np

from ifrx.channel import ChannelRealization
from ifrx.errors import InvalidInputError, NotInvertibleModPError
from ifrx.fieldrec import combine_messages, recover_messages
from ifrx.errors import SingularMatrixError
from ifrx.ifcore import QForm
from ifrx.linalg import PIVOT_RTOL, _square_array, sym_eigen


def make_qform(q):
    return QForm(q=np.asarray(q, dtype=float))


def as_tuples(arr):
    return list(map(tuple, arr.tolist()))


def canonical_sign(vec):
    """Flip the vector so its first nonzero coordinate is positive."""
    for c in vec:
        if c > 0:
            return vec
        if c < 0:
            return tuple(-x for x in vec)
    return vec


def rate_from_ab(a_m, b_m, ch: ChannelRealization) -> float:
    """Rate (1/2) log2(P / (||b||^2 + P ||H^T b - a||^2)) of one (a, b) pair,
    straight from the channel, with no quadratic form in between."""
    a = np.asarray(a_m, dtype=float)
    b = np.asarray(b_m, dtype=float)
    if a.shape != (ch.l,) or b.shape != (ch.l,):
        raise InvalidInputError("a_m and b_m must both have length L")
    resid = ch.h.T @ b - a
    den = float(b @ b) + ch.power * float(resid @ resid)
    if den == 0.0:
        raise InvalidInputError("zero denominator: a_m and b_m are both zero")
    return 0.5 * math.log2(ch.power / den)


def rayleigh(q, vectors):
    """v^T Q v of each column v of ``vectors``: the eigenvalues that go
    with a matrix of eigenvectors of Q."""
    return np.einsum("ji,jk,ki->i", vectors, q, vectors)


def half_integer_grid(m):
    """The half-integers -M-1/2, ..., M+1/2, where rounding a coordinate
    of a moving point can jump."""
    return [k + 0.5 for k in range(-m - 1, m + 1)]


def reference_jump_points(g1, gi, m):
    """Scalar per-coordinate loop: every rho where round(g1 + rho * gi)
    changes in some coordinate, ascending, each rho within 1e-12 of the
    last kept one merged into it."""
    rhos = []
    for k in range(gi.shape[0]):
        if abs(gi[k]) < 1e-12:
            continue
        rhos.extend((mj - g1[k]) / gi[k] for mj in half_integer_grid(m))
    rhos.sort()
    merged = [rhos[0]]
    for rho in rhos[1:]:
        if rho - merged[-1] > 1e-12:
            merged.append(rho)
    return merged


def reference_share_radius(g1, gis, m):
    """Scalar loop over the raw jump points of each line through ``g1``
    along a row of ``gis``, ascending, in plain floats: the smallest
    (gap - 1e-12 - 64 eps max(1 + |rho|) / min |gi|) /
    (2 (1 + |rho_a|) / |gi[k_a]| + 2 (1 + |rho_b|) / |gi[k_b]|) over two
    consecutive ones of a line, capped at min |gi| / 2 and min |gi| - 1e-12
    over the stack, and at least 0; 0 with no division when a coordinate
    is below 1e-12."""
    least = min(abs(float(d)) for gi in gis for d in gi)
    cap = min(least / 2, least - 1e-12)
    if cap <= 0:
        return 0.0
    radius = cap
    for gi in gis:
        mags = [abs(float(d)) for d in gi]
        points = sorted(((c - float(a)) / float(d), mag) for a, d, mag in zip(g1, gi, mags)
                        for c in half_integer_grid(m))
        for (x, dx), (y, dy) in zip(points, points[1:]):
            slack = 64 * sys.float_info.epsilon * max(1 + abs(x), 1 + abs(y)) / min(mags)
            move = 2 * (1 + abs(x)) / dx + 2 * (1 + abs(y)) / dy
            radius = min(radius, (y - x - 1e-12 - slack) / move)
    return max(0.0, radius)


def reference_line_candidates(g1, gi, m):
    """Scalar per-midpoint loop: the rounded point of every interval
    midpoint of one line that is nonzero and in the box, as tuples."""
    rhos = reference_jump_points(g1, gi, m)
    points = []
    for j in range(len(rhos) - 1):
        x = g1 + 0.5 * (rhos[j] + rhos[j + 1]) * gi
        cand = np.trunc(x + np.copysign(0.5, x)).astype(int)
        if int(np.max(np.abs(cand))) > m or not cand.any():
            continue
        points.append(tuple(int(c) for c in cand))
    return points


def reference_candidate_set(q, lines_j, bound_m):
    """Candidate set of lines 2 .. J+1 built on its own, from the scalar
    per-midpoint loop on ``sym_eigen``'s vectors: every line's points made
    sign-canonical, as a sorted set, in a read-only (n, L) int64 array."""
    vecs = sym_eigen(np.asarray(q, dtype=float)[None])[0]
    points = set()
    for i in range(1, lines_j + 1):
        for cand in reference_line_candidates(vecs[:, 0], vecs[:, i], bound_m):
            lead = next(c for c in cand if c != 0)
            points.add(cand if lead > 0 else tuple(-c for c in cand))
    arr = np.array(sorted(points), dtype=np.int64).reshape(-1, len(vecs))
    arr.setflags(write=False)
    return arr


def round_trip_invertible(a, field, gen) -> bool:
    """Whether A is invertible over F_p, from a full message round trip: a
    random (L, 4) residue block from ``gen`` (a ``random.Random``) is
    combined through A and recovered. A recovered block that differs from
    the one sent fails the test."""
    w = [[gen.randrange(field.p) for _ in range(4)] for _ in range(len(a))]
    try:
        recovered = recover_messages(a, combine_messages(a, w, field), field)
    except NotInvertibleModPError:
        return False
    assert recovered.tolist() == w, "round trip mismatch for an invertible matrix"
    return True


def bareiss_det(rows):
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


# The stacked elimination kernels as a column loop that keeps its
# bookkeeping inside the loop: each column swaps, tests its pivot against
# the floor and updates the rows whose factor is nonzero, and det folds
# each pivot into its mantissa, sign and zero flag as it goes: the
# reference ``linalg.solve_inverse`` and ``linalg.det`` must match slice
# for slice, in bytes and in errors.


def column_loop_swap_pivot(a: np.ndarray, col: int) -> np.ndarray:
    """Partial pivoting at ``col``, in place; returns each slice's pivot row."""
    at = np.arange(len(a))
    piv = col + np.abs(a[:, col:, col]).argmax(axis=1)
    top = a[:, col].copy()
    a[:, col] = a[at, piv]
    a[at, piv] = top
    return piv


def column_loop_solve_inverse(m) -> list:
    """``linalg.solve_inverse``, the floor tested and the masked update run
    in every column step."""
    m = _square_array(m, "m", 3)
    n = m.shape[1]
    scale = np.abs(m).max(axis=(1, 2), initial=0.0)
    failed = [None if s else SingularMatrixError("matrix is zero") for s in scale.tolist()]
    floor = PIVOT_RTOL * scale
    aug = np.concatenate([m, np.broadcast_to(np.eye(n), m.shape)], axis=2)
    with np.errstate(all="ignore"):
        for col in range(n):
            column_loop_swap_pivot(aug, col)
            for s in np.flatnonzero(np.abs(aug[:, col, col]) < floor).tolist():
                failed[s] = failed[s] or SingularMatrixError(f"pivot below threshold at column {col}")
            np.divide(aug[:, col], aug[:, col, col, None], out=aug[:, col])
            # eliminate the column from every other row with a nonzero entry
            # there; skipping zero factors keeps signed zeros as a row loop would
            factors = aug[:, :, col].copy()
            factors[:, col] = 0.0
            update = factors[:, :, None] * aug[:, col, None, :]
            np.subtract(aug, update, out=aug, where=(factors != 0.0)[:, :, None])
    inverses = aug[:, :, n:]
    finite = np.isfinite(inverses).all(axis=(1, 2)).tolist()
    return [err or (inv if ok else SingularMatrixError("inverse leaves the float range"))
            for err, inv, ok in zip(failed, inverses, finite)]


def column_loop_det(m) -> list:
    """``linalg.det``, the sign, zero flag, mantissa and exponent updated in
    every column step."""
    a = _square_array(m, "m", 3)
    count, n = a.shape[:2]
    mantissa, exponent = np.ones(count), np.zeros(count, dtype=np.int32)
    flip = np.zeros(count, dtype=bool)
    zero = np.zeros(count, dtype=bool)
    # an exact zero pivot makes the determinant 0, a result and not an
    # error; that slice's later steps divide by zero and are discarded
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(n):
            # each swap flips the sign
            flip ^= column_loop_swap_pivot(a, col) != col
            zero |= a[:, col, col] == 0.0
            mantissa, step = np.frexp(mantissa * a[:, col, col])
            exponent += step
            if col + 1 < n:
                factors = a[:, col + 1:, col] / a[:, col, col, None]
                a[:, col + 1:] -= factors[:, :, None] * a[:, col, None, :]
        values = np.ldexp(np.where(flip, -mantissa, mantissa), exponent)
    values[zero] = 0.0
    return list(values)
