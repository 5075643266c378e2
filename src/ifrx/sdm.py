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


def _row_f(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    return ((a @ q) * a).sum(axis=1)


def rank_candidates(arr: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows of a lexicographically sorted candidate array ascending by
    f(t) = t^T Q t. The sort is stable, so equal-f ties stay lexicographic."""
    return arr[np.argsort(_row_f(arr, q), kind="stable")]


def _share_radius(g1: np.ndarray, gi: np.ndarray, m: int) -> float:
    """Radius r within which a (P, L) stack of lines g1 + rho * gi keeps
    its rows: lines whose g1 and gi lie within r of these entrywise give,
    line for line, the rows ``line_candidates`` gives for these.

    Moving g1[k] and gi[k] by at most r <= |gi[k]| / 2 moves the jump point
    rho = (c - g1[k]) / gi[k] by at most r * 2 (1 + |rho|) / |gi[k]|. So
    while every two consecutive jump points of a line stay more than
    RHO_MERGE_TOL plus a rounding slack of 64 eps (1 + |rho|) / min |gi|
    apart, the jump points keep their order, none merges, and no midpoint
    rounds across a half-integer, in either pass. r is 0 when a gap lies
    within that, and at most min |gi[k]| - COORD_EPS, so no coordinate
    turns inactive; a line with an inactive coordinate gives r = 0.
    """
    mags = np.abs(gi)
    least = mags.min(axis=1)
    cap = min(least.min() / 2, least.min() - COORD_EPS)
    if cap <= 0:
        return 0.0
    grid = np.arange(2 * m + 2) - (m + 0.5)
    # the raw jump points of _jumps, ascending within each line
    rho = ((grid - g1[:, :, None]) / gi[:, :, None]).reshape(len(gi), -1)
    order = np.argsort(rho, axis=1)
    rho = np.take_along_axis(rho, order, axis=1)
    size = 1 + np.abs(rho)
    move = 2 * size / mags[np.arange(len(gi))[:, None], order // len(grid)]
    slack = 64 * np.finfo(float).eps * np.maximum(size[:, :-1], size[:, 1:]) / least[:, None]
    ratio = (np.diff(rho, axis=1) - RHO_MERGE_TOL - slack) / (move[:, :-1] + move[:, 1:])
    return max(0.0, min(float(cap), float(ratio.min())))


def prepare_lines(forms, lines_j: int, bound_m: int) -> list[np.ndarray]:
    """Keep in each form's ``memo`` (forms all of one size L) its union for
    bound M, ``memo[("union", M)]``: the distinct sign-canonical rows of
    lines 2 .. J+1 in (f, lex) order, read-only, the first line holding
    each row (numbered from 0 for line 2, so J's set holds the rows
    numbered below J), and the J covered.

    Forms that lack an eigenbasis get one from one ``sym_eigen`` stack.
    Then the first form whose union covers fewer than J lines walks lines
    2 .. J+1 in ``line_candidates`` passes of at most LINE_POINT_LIMIT jump
    points each, and its rows are made sign-canonical, deduplicated in
    lexicographic order and checked, with its lines released. Every other
    such form whose eigenvectors 1 .. J+1 equal these, or lie within the
    lines' ``_share_radius`` entrywise, would walk the same rows, and takes
    this union too; the rest start the next group. Q's eigenvectors do not
    depend on the transmit power, so a draw's SNR points mostly form one
    group per bound M. Each form's union is ranked once, after the last
    group's pass, by one stable sort of its own f over the group's
    lexicographic rows. f over it has, row for row, the bits of f over
    J's rows alone (at two rows or more), so J's rows masked out of it are
    ranked as ``rank_candidates`` ranks them. A failed eigensolve raises
    for every form of the stack. J, in [1, L - 1], and M are integers.

    Returns J's rows of each form in (f, lex) order: the union itself when
    it covers exactly J lines, else a fresh array of its rows numbered
    below J. This is the one place J's mask is written.
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
    groups = []  # a lexicographic union, its rows' first lines, and the forms taking it
    while todo:
        lead = todo[0].memo["basis"].vectors[:, :lines_j + 1]
        g1 = np.repeat(lead[None, :, 0], lines_j, axis=0)
        gi = np.ascontiguousarray(lead[:, 1:].T)  # row-major: the pass gathers its rows
        # stacks of at most LINE_POINT_LIMIT jump points in all, so the pass's
        # working memory does not grow with the lines; no line's result reads
        # its stack
        step = max(1, LINE_POINT_LIMIT // (g1.shape[1] * (2 * bound_m + 2)))
        stacks = range(0, lines_j, step)
        lines = [cands for start in stacks for cands in
                 line_candidates(g1[start:start + step], gi[start:start + step], bound_m)]
        first = np.repeat(np.arange(lines_j), list(map(len, lines)))
        arr = np.concatenate(lines)
        del lines  # released before the next group's pass
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
        near = [True]
        if len(todo) > 1:
            r = min(_share_radius(g1[start:start + step], gi[start:start + step], bound_m)
                    for start in stacks)
            near += [np.abs(q.memo["basis"].vectors[:, :lines_j + 1] - lead).max() <= r
                     for q in todo[1:]]
        groups.append((arr, first, [q for q, shares in zip(todo, near) if shares]))
        todo = [q for q, shares in zip(todo, near) if not shares]
    # ranked after every pass, so no pass runs beside ranked copies, and each
    # group's lexicographic union is released once its forms are ranked
    while groups:
        arr, first, share = groups.pop()
        for q in share:
            order = np.argsort(_row_f(arr, q.q), kind="stable")
            ranked = arr[order]
            ranked.setflags(write=False)
            q.memo[("union", bound_m)] = ranked, first[order], lines_j
    unions = [q.memo[("union", bound_m)] for q in forms]
    return [arr if covered == lines_j else arr[first < lines_j] for arr, first, covered in unions]


def candidate_set(q: QForm, cfg: SearchConfig) -> np.ndarray:
    """Union of the sign-canonical candidates of the J slowest-ascent
    lines, distinct int64 rows in lexicographic order: the rows
    ``prepare_lines`` returns for J, lexsorted into a fresh read-only array."""
    arr = prepare_lines([q], cfg.lines_j, cfg.bound_m)[0]
    arr = arr[np.lexsort(arr.T[::-1])]
    arr.setflags(write=False)
    return arr
