"""Candidate search along the slowest-ascent lines of the quadratic form.

Good integer coefficient vectors (small a^T Q a) cluster around the lines
g_1 + rho * g_i through the continuous minimizer g_1, where g_2, g_3, ...
are the remaining eigenvectors of Q in ascending eigenvalue order. Walking
each line, the nearest integer point changes only when some coordinate of
g_1 + rho * g_i crosses a half-integer midpoint; collecting the rounded
point once per crossing interval enumerates every candidate the line can
produce while touching only (2M+2) * L values of rho per line instead of
the (2M+1)^L-point box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirectionError, InstanceTooLargeError, InvalidInputError
from .ifcore import QForm
from .linalg import as_real_matrix, int_value, sym_eigen

COORD_EPS = 1e-12
RHO_MERGE_TOL = 1e-12
# jump points, L * (2M+2), that one line may have, and that one stack of
# lines in prepare_lines may have in all
LINE_POINT_LIMIT = 2**20


@dataclass(frozen=True)
class SearchConfig:
    """Per-coordinate bound M and number of search lines J."""

    bound_m: int
    lines_j: int

    def __post_init__(self):
        for name in ("bound_m", "lines_j"):
            object.__setattr__(self, name, int_value(getattr(self, name), name))
        if self.bound_m < 1:
            raise InvalidInputError("bound_m must be >= 1")
        if self.lines_j < 1:
            raise InvalidInputError("lines_j must be >= 1")


def leading(arr: np.ndarray) -> np.ndarray:
    """First nonzero coordinate of each row (0 for a zero row). A row is
    sign-canonical when its leading coordinate is positive."""
    return arr[np.arange(len(arr)), (arr != 0).argmax(axis=1)]


def _jumps(g1: np.ndarray, gi: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Merged jump points of a (P, L) stack of lines: the rhos, ascending
    within each line, and the line each belongs to.

    All rhos go through one stable sort keyed by (line, rho); built
    coordinate-major within each line, like a loop over k, ties keep that
    order. A rho is kept only if it lies more than RHO_MERGE_TOL past the
    last kept rho of its line, as a sequential merge keeps it, chains of
    near-duplicates included.
    """
    active = ~(np.abs(gi) < COORD_EPS)
    if not active.any(axis=1).all():
        raise DegenerateDirectionError("every coordinate of the direction is below threshold")
    # the half-integers -M-1/2 .. M+1/2, where the rounding of a coordinate can jump
    grid = np.arange(2 * m + 2) - (m + 0.5)
    line, coord = np.nonzero(active)
    rho = ((grid - g1[line, coord][:, None]) / gi[line, coord][:, None]).ravel()
    line = np.repeat(line, len(grid))
    order = np.lexsort((rho, line))
    rho, line = rho[order], line[order]
    keep = np.ones(len(rho), dtype=bool)
    keep[1:] = (line[1:] != line[:-1]) | (rho[1:] - rho[:-1] > RHO_MERGE_TOL)
    # a rho within the tolerance of its predecessor is measured against
    # the last kept rho instead; a line's first rho is always kept
    for i in np.flatnonzero(~keep).tolist():
        last = i - 1
        while not keep[last]:
            last -= 1
        keep[i] = rho[i] - rho[last] > RHO_MERGE_TOL
    return rho[keep], line[keep]


def line_candidates(g1, gi, m: int) -> list[np.ndarray]:
    """Nearest in-box nonzero integer point for every interval midpoint of
    each search line g1 + rho * gi, as int64 rows in interval order
    (duplicates kept).

    ``g1`` and ``gi`` are (P, L) stacks of P lines (``as_real_matrix``),
    giving a list of P arrays. The stack is one pass: its jump points share
    one sort and its midpoints one rounding. A direction below COORD_EPS in
    every coordinate raises DegenerateDirectionError for the whole pass; a
    unit eigenvector never is one. A line with more than LINE_POINT_LIMIT
    jump points raises InstanceTooLargeError before any array is built.
    The bound ``m`` is an integer (``linalg.int_value``).
    """
    m = int_value(m, "m")
    g1 = as_real_matrix(g1, "g1 of the (P, L) stacks")
    gi = as_real_matrix(gi, "gi of the (P, L) stacks")
    if g1.shape != gi.shape:
        raise InvalidInputError("g1 and gi must be (P, L) stacks of equal shape")
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    points = g1.shape[1] * (2 * m + 2)
    if points > LINE_POINT_LIMIT:
        raise InstanceTooLargeError(f"a search line at L = {g1.shape[1]}, M = {m} has {points} "
                                    f"jump points, over the limit {LINE_POINT_LIMIT}")
    rho, line = _jumps(g1, gi, m)
    # consecutive jump points of one line bound one of its intervals
    inner = line[1:] == line[:-1]
    mids = (0.5 * (rho[:-1] + rho[1:]))[inner]
    owner = line[:-1][inner]
    # g1 + mid * gi rounded half away from zero, worked in place and
    # filtered before the integer copy, so the pass holds few arrays of
    # all its midpoints at once
    x = gi[owner]
    x *= mids[:, None]
    x += g1[owner]
    x += np.copysign(0.5, x)
    np.trunc(x, out=x)
    keep = (np.abs(x) <= m).all(axis=1) & x.any(axis=1)
    cands = x[keep].astype(np.int64)
    ends = np.cumsum(np.bincount(owner[keep], minlength=len(g1))).tolist()
    return [cands[a:b] for a, b in zip([0] + ends, ends)]


def prepare_lines(forms, lines_j: int, bound_m: int) -> None:
    """Keep in each form's ``memo`` (forms all of one size L) its union for
    bound M, ``memo[("union", M)]``: the distinct sign-canonical rows of
    lines 2 .. J+1 in lexicographic order, the first line holding each row
    (numbered from 0 for line 2, so J's set holds the rows numbered below
    J), and the J covered.

    Forms that lack an eigenbasis get one from one ``sym_eigen`` stack, and
    every form whose union covers fewer than J lines walks lines 2 .. J+1
    in ``line_candidates`` passes of at most LINE_POINT_LIMIT jump points
    each. A failed eigensolve raises for every form of the stack.
    J, in [1, L - 1], and M are integers.
    """
    lines_j = int_value(lines_j, "lines_j")
    bound_m = int_value(bound_m, "bound_m")
    for q in forms:
        if not 1 <= lines_j <= len(q.q) - 1:
            raise InvalidInputError(f"lines_j must be in [1, {len(q.q) - 1}] for L = {len(q.q)}")
    bare = [q for q in forms if "basis" not in q.memo]
    if bare:
        for q, basis in zip(bare, sym_eigen([q.q for q in bare])):
            q.memo["basis"] = basis
    todo = [q for q in forms if q.memo.get(("union", bound_m), (None, None, 0))[2] < lines_j]
    if not todo:
        return
    vectors = [q.memo["basis"].vectors for q in todo]
    g1 = np.repeat([v[:, 0] for v in vectors], lines_j, axis=0)
    gi = np.concatenate([v[:, 1:lines_j + 1].T for v in vectors])
    # stacks of at most LINE_POINT_LIMIT jump points in all, so the passes'
    # working memory does not grow with the lines; no line's result reads
    # its stack
    step = max(1, LINE_POINT_LIMIT // (g1.shape[1] * (2 * bound_m + 2)))
    lines = [cands for start in range(0, len(g1), step)
             for cands in line_candidates(g1[start:start + step], gi[start:start + step], bound_m)]
    for k, q in enumerate(todo):
        own = lines[k * lines_j:(k + 1) * lines_j]
        arr = np.concatenate(own)
        arr *= np.where(leading(arr) < 0, -1, 1)[:, None]
        # the sort is stable, so the copies of a row keep line order and the
        # one kept comes from the earliest line
        order = np.lexsort(arr.T[::-1])
        arr = arr[order]
        first = np.repeat(np.arange(lines_j), list(map(len, own)))[order]
        distinct = np.ones(len(arr), dtype=bool)
        distinct[1:] = (arr[1:] != arr[:-1]).any(axis=1)
        arr, first = arr[distinct], first[distinct]
        # rows in lexicographic order all lie above the zero row, nonzero with
        # a positive leading coordinate, when the first one does
        below_zero = len(arr) and arr[0].tolist() <= [0] * arr.shape[1]
        if below_zero or np.abs(arr).max(initial=0) > bound_m:
            raise RuntimeError("candidate set holds a zero, out-of-box or non-canonical vector")
        q.memo[("union", bound_m)] = arr, first, lines_j


def candidate_set(q: QForm, cfg: SearchConfig) -> np.ndarray:
    """Union of the sign-canonical candidates of the J slowest-ascent
    lines: distinct int64 rows in lexicographic order, a fresh read-only
    array."""
    prepare_lines([q], cfg.lines_j, cfg.bound_m)
    arr, first, _ = q.memo[("union", cfg.bound_m)]
    arr = arr[first < cfg.lines_j]
    arr.setflags(write=False)
    return arr
