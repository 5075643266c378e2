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

from .errors import DegenerateDirectionError, IfrxError, InvalidInputError, unwrap
from .ifcore import QForm
from .linalg import sym_eigen

COORD_EPS = 1e-12
RHO_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class SearchConfig:
    """Per-coordinate bound M and number of search lines J."""

    bound_m: int
    lines_j: int

    def __post_init__(self):
        if self.bound_m < 1:
            raise InvalidInputError("bound_m must be >= 1")
        if self.lines_j < 1:
            raise InvalidInputError("lines_j must be >= 1")


def leading(arr: np.ndarray) -> np.ndarray:
    """First nonzero coordinate of each row (0 for a zero row). A row is
    sign-canonical when its leading coordinate is positive."""
    return arr[np.arange(len(arr)), (arr != 0).argmax(axis=1)]


def midpoint_grid(m: int) -> list[float]:
    """Half-integer grid {-M-1/2, ..., M+1/2}: the coordinate values where
    the rounding of a moving point can jump."""
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    return [j - m - 1.5 for j in range(1, 2 * m + 3)]


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
    grid = np.array(midpoint_grid(m))
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


def jump_points(g1, gi, m: int) -> list[float]:
    """All rho where round(g1 + rho * gi) changes in some coordinate,
    ascending, near-duplicates merged."""
    g1 = np.asarray(g1, dtype=float)
    gi = np.asarray(gi, dtype=float)
    if g1.ndim != 1 or g1.shape != gi.shape:
        raise InvalidInputError("g1 and gi must be 1-D vectors of equal length")
    return _jumps(g1[None], gi[None], m)[0].tolist()


def line_candidates(g1, gi, m: int):
    """Nearest in-box nonzero integer point for every interval midpoint of
    a search line g1 + rho * gi, as int64 rows in interval order
    (duplicates kept).

    ``g1`` and ``gi`` are one line's (L,) vectors, giving one array, or
    (P, L) stacks of P lines, giving a list of P arrays. A stack is one
    pass: its jump points share one sort and its midpoints one rounding.
    A direction below COORD_EPS in every coordinate raises
    DegenerateDirectionError for the whole pass; a unit eigenvector never
    is one.
    """
    g1 = np.asarray(g1, dtype=float)
    gi = np.asarray(gi, dtype=float)
    if g1.ndim not in (1, 2) or g1.shape != gi.shape:
        raise InvalidInputError("g1 and gi must be 1-D vectors or (P, L) stacks of equal shape")
    single = g1.ndim == 1
    if single:
        g1, gi = g1[None], gi[None]
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
    keep = (np.abs(x).max(axis=1) <= m) & x.any(axis=1)
    cands = x[keep].astype(np.int64)
    ends = np.cumsum(np.bincount(owner[keep], minlength=len(g1))).tolist()
    return cands if single else [cands[a:b] for a, b in zip([0] + ends, ends)]


def prepare_lines(forms, lines_j: int, bound_m: int) -> None:
    """Keep in each form's ``memo`` (forms all of one size L) the
    sign-canonical candidates of its lines 2 .. J+1 with bound M.

    Forms that lack an eigenbasis get one from one ``sym_eigen`` stack,
    and every missing (form, line) pair goes through one
    ``line_candidates`` pass, so a J or M sweep over a form decomposes it
    once and walks each line once. A failed eigensolve is kept as the
    form's basis, for ``candidate_set`` to raise.
    """
    bare = [q for q in forms if "basis" not in q.memo]
    if bare:
        for q, basis in zip(bare, sym_eigen(np.array([q.q for q in bare]))):
            q.memo["basis"] = basis
    todo = [(q, i) for q in forms if not isinstance(q.memo["basis"], IfrxError)
            for i in range(2, lines_j + 2) if ("line", i, bound_m) not in q.memo]
    if not todo:
        return
    g1 = np.array([q.memo["basis"].vectors[:, 0] for q, _ in todo])
    gi = np.array([q.memo["basis"].vectors[:, i - 1] for q, i in todo])
    lines = line_candidates(g1, gi, bound_m)
    # one sign flip for the rows of every line
    rows = np.concatenate(lines)
    rows *= np.where(leading(rows) < 0, -1, 1)[:, None]
    rows.setflags(write=False)
    start = 0
    for (q, i), line in zip(todo, lines):
        q.memo[("line", i, bound_m)] = rows[start:start + len(line)]
        start += len(line)


def candidate_set(q: QForm, cfg: SearchConfig) -> np.ndarray:
    """Union of the sign-canonical candidates of the J slowest-ascent
    lines: distinct int64 rows in lexicographic order."""
    l = q.q.shape[0]
    if cfg.lines_j > l - 1:
        raise InvalidInputError(f"lines_j must be <= L-1 = {l - 1}")
    prepare_lines([q], cfg.lines_j, cfg.bound_m)
    unwrap(q.memo["basis"])
    arr = np.concatenate([q.memo[("line", i, cfg.bound_m)] for i in range(2, cfg.lines_j + 2)])
    arr = arr[np.lexsort(arr.T[::-1])]
    distinct = np.ones(len(arr), dtype=bool)
    distinct[1:] = (arr[1:] != arr[:-1]).any(axis=1)
    arr = arr[distinct]
    # a positive leading coordinate also rules out the zero row
    if np.any(leading(arr) <= 0) or np.any(np.abs(arr) > cfg.bound_m):
        raise RuntimeError("candidate set holds a zero, out-of-box or non-canonical vector")
    arr.setflags(write=False)
    return arr
