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

from .errors import DegenerateDirectionError, InvalidInputError
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


def jump_points(g1, gi, m: int) -> list[float]:
    """All rho where round(g1 + rho * gi) changes in some coordinate,
    ascending, near-duplicates merged."""
    g1 = np.asarray(g1, dtype=float)
    gi = np.asarray(gi, dtype=float)
    if g1.ndim != 1 or g1.shape != gi.shape:
        raise InvalidInputError("g1 and gi must be 1-D vectors of equal length")
    active = ~(np.abs(gi) < COORD_EPS)
    if not active.any():
        raise DegenerateDirectionError("every coordinate of the direction is below threshold")
    grid = np.array(midpoint_grid(m))
    # coordinate-major like a loop over k, so the stable sort keeps its ties
    rhos = np.sort(((grid - g1[active, None]) / gi[active, None]).ravel(), kind="stable").tolist()
    merged = [rhos[0]]
    for rho in rhos[1:]:
        if rho - merged[-1] > RHO_MERGE_TOL:
            merged.append(rho)
    return merged


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.trunc(x + np.copysign(0.5, x))


def line_candidates(g1, gi, m: int) -> np.ndarray:
    """Nearest in-box nonzero integer point for every interval midpoint of
    one search line, as int64 rows in interval order (duplicates kept)."""
    g1 = np.asarray(g1, dtype=float)
    gi = np.asarray(gi, dtype=float)
    rhos = np.array(jump_points(g1, gi, m))
    mids = 0.5 * (rhos[:-1] + rhos[1:])
    cands = _round_half_away(g1 + mids[:, None] * gi).astype(np.int64)
    keep = (np.abs(cands).max(axis=1) <= m) & cands.any(axis=1)
    return cands[keep]


def _line(q: QForm, i: int, m: int) -> np.ndarray:
    """Sign-canonical candidates of line i (1-based eigenvector index) with
    bound m. The eigenbasis and each line are kept in ``q.memo``, so a J or
    M sweep over one form decomposes it once and walks each line once."""
    key = ("line", i, m)
    line = q.memo.get(key)
    if line is None:
        basis = q.memo.get("basis")
        if basis is None:
            basis = q.memo["basis"] = sym_eigen(q.q)
        g1, gi = basis.vectors[:, 0], basis.vectors[:, i - 1]
        line = line_candidates(g1, gi, m)
        line *= np.where(leading(line) < 0, -1, 1)[:, None]
        line.setflags(write=False)
        q.memo[key] = line
    return line


def candidate_set(q: QForm, cfg: SearchConfig) -> np.ndarray:
    """Union of the sign-canonical candidates of the J slowest-ascent
    lines: distinct int64 rows in lexicographic order."""
    l = q.q.shape[0]
    if cfg.lines_j > l - 1:
        raise InvalidInputError(f"lines_j must be <= L-1 = {l - 1}")
    arr = np.concatenate([_line(q, i, cfg.bound_m) for i in range(2, cfg.lines_j + 2)])
    arr = arr[np.lexsort(arr.T[::-1])]
    distinct = np.ones(len(arr), dtype=bool)
    distinct[1:] = (arr[1:] != arr[:-1]).any(axis=1)
    arr = arr[distinct]
    # a positive leading coordinate also rules out the zero row
    if np.any(leading(arr) <= 0) or np.any(np.abs(arr) > cfg.bound_m):
        raise RuntimeError("candidate set holds a zero, out-of-box or non-canonical vector")
    arr.setflags(write=False)
    return arr
