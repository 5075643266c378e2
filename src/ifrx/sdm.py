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
from .linalg import _finite_array, as_real_matrix, int_value, sym_eigen

COORD_EPS = 1e-12
RHO_MERGE_TOL = 1e-12
# jump points, L * (2M+2), that one line may have, and that one stack of
# lines in line_candidates may have in all
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


def _jumps(g1: np.ndarray, gi: np.ndarray, m: int, *,
           radius: bool = True) -> tuple[np.ndarray, np.ndarray, float]:
    """Merged jump points of the lines g1 + rho * gi through one g1 (of
    length L) along a (P, L) stack of directions gi, the rhos ascending
    within each line, the line each belongs to, and the stack's share
    radius r: with ``radius`` false, 0.0, and none of r's arrays is built.

    All rhos go through one stable sort keyed by (line, rho); built
    coordinate-major within each line, like a loop over k, ties keep that
    order. A rho is kept only if it lies more than RHO_MERGE_TOL past the
    last kept rho of its line, as a sequential merge keeps it, chains of
    near-duplicates included.

    A g1 and directions gi within r of these entrywise give, line for
    line, the rows ``line_candidates`` gives for these. Moving g1[k] and
    gi[k] by at most r <= |gi[k]| / 2 moves the raw jump point
    rho = (c - g1[k]) / gi[k] by at most r * 2 (1 + |rho|) / |gi[k]|. So
    while every two consecutive raw jump points of a line stay more than
    RHO_MERGE_TOL plus a rounding slack of 64 eps (1 + |rho|) / min |gi|
    apart, the jump points keep their order, none merges, and no midpoint
    rounds across a half-integer, in either pass. r is 0 when a gap lies
    within that, and at most min |gi[k]| - COORD_EPS, so no coordinate
    turns inactive; a line with an inactive coordinate gives r = 0.
    """
    mags = np.abs(gi)
    active = ~(mags < COORD_EPS)
    if not active.any(axis=1).all():
        raise DegenerateDirectionError("every coordinate of the direction is below threshold")
    # the half-integers -M-1/2 .. M+1/2, where the rounding of a coordinate can jump
    grid = np.arange(2 * m + 2) - (m + 0.5)
    line, coord = np.nonzero(active)
    rho = ((grid - g1[coord][:, None]) / gi[line, coord][:, None]).ravel()
    line = np.repeat(line, len(grid))
    order = np.lexsort((rho, line))
    rho, line = rho[order], line[order]
    cap = min(mags.min() / 2, mags.min() - COORD_EPS) if radius else 0.0
    r = 0.0
    if cap > 0:
        # every coordinate is active, so row p holds line p's L (2M+2) raw
        # rhos, the one at j from gi.flat[order[j] // (2M+2)]; each array is
        # released once read, so the radius holds no more of them at once
        # than the sort
        move = mags.ravel()[order // len(grid)].reshape(len(gi), -1)
        del order
        raw = rho.reshape(move.shape)
        size = 1 + np.abs(raw)
        move = 2 * size / move
        slack = np.maximum(size[:, :-1], size[:, 1:]) * (64 * np.finfo(float).eps)
        slack /= mags.min(axis=1)[:, None]
        del size
        ratio = raw[:, 1:] - raw[:, :-1] - RHO_MERGE_TOL - slack
        del slack
        ratio /= move[:, :-1] + move[:, 1:]
        r = max(0.0, min(float(cap), float(ratio.min())))
        del move, ratio
    keep = np.ones(len(rho), dtype=bool)
    keep[1:] = (line[1:] != line[:-1]) | (rho[1:] - rho[:-1] > RHO_MERGE_TOL)
    # a rho within the tolerance of its predecessor is measured against the
    # last kept rho instead: the predecessor if it is kept, else the one the
    # predecessor was measured against; a line's first rho is always kept
    last = 0
    for i in np.flatnonzero(~keep).tolist():
        if keep[i - 1]:
            last = i - 1
        keep[i] = rho[i] - rho[last] > RHO_MERGE_TOL
    return rho[keep], line[keep], r


def line_candidates(g1, gi, m: int, *,
                    radius: bool = True) -> tuple[np.ndarray, np.ndarray, float]:
    """Nearest in-box nonzero integer point for every interval midpoint of
    each search line g1 + rho * gi: the int64 rows of all P lines, in line
    then interval order (duplicates kept), the line each row comes from,
    and the lines' share radius (``_jumps``), the smallest over the stacks
    they are walked in (inf for P = 0). With ``radius`` false no stack
    computes one and a pass over P > 0 lines reports 0.0, the radius that
    certifies only bit-equal lines.

    Every line starts at one point ``g1``, a vector of length L, and runs
    along a row of ``gi``, a (P, L) stack of directions; both are read by
    ``as_real_matrix``'s entry rule. The lines are walked in stacks of at
    most LINE_POINT_LIMIT jump points in all, so the pass's working memory
    does not grow with P. A stack's jump points share one sort and its
    midpoints one rounding. A direction below COORD_EPS in every
    coordinate raises DegenerateDirectionError for the whole pass; a unit
    eigenvector never is one. A line with more than LINE_POINT_LIMIT jump
    points raises InstanceTooLargeError before any array is built. The
    bound ``m`` is an integer (``linalg.int_value``).
    """
    m = int_value(m, "m")
    g1 = _finite_array(g1, "g1", 1)
    gi = as_real_matrix(gi, "gi of the (P, L) stack")
    if g1.shape != gi.shape[1:]:
        raise InvalidInputError(f"g1 must be of length L = {gi.shape[1]}, got shape {g1.shape}")
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    points = len(g1) * (2 * m + 2)
    if points > LINE_POINT_LIMIT:
        raise InstanceTooLargeError(f"a search line at L = {len(g1)}, M = {m} has {points} "
                                    f"jump points, over the limit {LINE_POINT_LIMIT}")
    step = max(1, LINE_POINT_LIMIT // max(points, 1))
    rows, lines, least = [np.empty((0, len(g1)), np.int64)], [np.empty(0, np.intp)], np.inf
    for start in range(0, len(gi), step):
        rho, line, r = _jumps(g1, gi[start:start + step], m, radius=radius)
        # consecutive jump points of one line bound one of its intervals
        inner = line[1:] == line[:-1]
        mids = (0.5 * (rho[:-1] + rho[1:]))[inner]
        owner = line[:-1][inner] + start
        # g1 + mid * gi rounded half away from zero, worked in place and
        # filtered before the integer copy, so the pass holds few arrays of
        # all its midpoints at once
        x = gi[owner]
        x *= mids[:, None]
        x += g1
        x += np.copysign(0.5, x)
        np.trunc(x, out=x)
        keep = (np.abs(x) <= m).all(axis=1) & x.any(axis=1)
        rows.append(x[keep].astype(np.int64))
        lines.append(owner[keep])
        least = min(least, r)
        del x  # released before the next stack's pass
    return np.concatenate(rows), np.concatenate(lines), least


def _row_f(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    return ((a @ q) * a).sum(axis=1)


def f_order(arr: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The (f, lex) order of a lexicographic candidate array: its row
    indices ascending by f(t) = t^T Q t, equal-f ties kept in row order."""
    return np.argsort(_row_f(arr, q), kind="stable")


def prepare_lines(forms, lines_j: int, bound_m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Keep in each form's ``memo`` (forms all of one size L) its union for
    bound M, ``memo[("union", M)]``: the distinct sign-canonical rows of
    lines 2 .. J+1 in lexicographic order and the first line holding each
    (numbered from 0 for line 2, so J's set holds the rows numbered below
    J), both shared by the forms taking them, the form's own (f, lex)
    order of the rows, all three read-only, and the J covered.

    Forms that lack an eigenbasis get one from one ``sym_eigen`` stack and
    keep its eigenvector matrix as ``memo["basis"]``. Then the first form
    whose union covers fewer than J lines walks lines 2 .. J+1 in one
    ``line_candidates`` call, from its first column g1 along its next J
    columns, and its rows are made sign-canonical, deduplicated in
    lexicographic order and checked. Every such form whose columns
    1 .. J+1 lie within the share radius of that call entrywise, the first
    form included, would walk the same rows, and takes this union, ranked
    at once by ``f_order`` under its own Q; the rest start the next
    group. A form left alone asks for no radius, as no other form reads
    it: its call reports 0.0, within which the form itself still lies. Q's
    eigenvectors do not depend on the transmit power, so a draw's SNR
    points mostly form one group per bound M. f over the union has, row
    for row, the bits of f over J's rows alone (at two rows or more), so
    J's entries of the order rank J's rows as their own ``f_order`` does. A
    failed eigensolve raises for every form of the stack. J, in
    [1, L - 1], and M are integers.

    Returns each form's union and J's order: the form's own order when the
    union covers exactly J lines, else a fresh array of its entries whose
    rows are numbered below J. This is the one place J's mask is written.
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
    todo = [q for q in forms if q.memo.get(("union", bound_m), (0,) * 4)[3] < lines_j]
    while todo:
        lead = todo[0].memo["basis"][:, :lines_j + 1]
        gi = np.ascontiguousarray(lead[:, 1:].T)  # row-major: the pass gathers its rows
        arr, first, radius = line_candidates(lead[:, 0], gi, bound_m, radius=len(todo) > 1)
        arr *= np.where(leading(arr) < 0, -1, 1)[:, None]
        # the sort is stable, so the copies of a row keep line order and the
        # one kept comes from the earliest line
        order = np.lexsort(arr.T[::-1])
        arr, first = arr[order], first[order]
        distinct = np.ones(len(arr), dtype=bool)
        distinct[1:] = (arr[1:] != arr[:-1]).any(axis=1)
        arr, first = arr[distinct], first[distinct]
        # rows in lexicographic order all lie above the zero row, nonzero with
        # a positive leading coordinate, when the first one does
        below_zero = len(arr) and arr[0].tolist() <= [0] * arr.shape[1]
        if below_zero or np.abs(arr).max(initial=0) > bound_m:
            raise RuntimeError("candidate set holds a zero, out-of-box or non-canonical vector")
        arr.setflags(write=False)
        first.setflags(write=False)
        # the lead form itself lies within any radius
        near = [np.abs(q.memo["basis"][:, :lines_j + 1] - lead).max() <= radius for q in todo]
        for q in [q for q, shares in zip(todo, near) if shares]:
            order = f_order(arr, q.q)
            order.setflags(write=False)
            q.memo[("union", bound_m)] = arr, first, order, lines_j
        todo = [q for q, shares in zip(todo, near) if not shares]
    unions = [q.memo[("union", bound_m)] for q in forms]
    return [(arr, order if covered == lines_j else order[first[order] < lines_j])
            for arr, first, order, covered in unions]


def candidate_set(q: QForm, cfg: SearchConfig) -> np.ndarray:
    """Union of the sign-canonical candidates of the J slowest-ascent
    lines, distinct int64 rows in lexicographic order: the union rows
    ``prepare_lines`` orders for J, taken in the union's own order into a
    fresh read-only array."""
    arr, order = prepare_lines([q], cfg.lines_j, cfg.bound_m)[0]
    arr = arr[np.sort(order)]
    arr.setflags(write=False)
    return arr
