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
from .linalg import IntVector, sym_eigen

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


@dataclass(frozen=True)
class CandidateSet:
    """Deduplicated, sign-canonical, nonzero integer vectors inside the box."""

    vectors: tuple[IntVector, ...]
    config: SearchConfig


def canonical_sign(vec: IntVector) -> IntVector:
    """Flip the vector so its first nonzero coordinate is positive."""
    for c in vec:
        if c > 0:
            return vec
        if c < 0:
            return tuple(-x for x in vec)
    return vec


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


def line_candidates(g1, gi, m: int) -> list[IntVector]:
    """Nearest in-box nonzero integer point for every interval midpoint of
    one search line, in interval order (duplicates kept)."""
    g1 = np.asarray(g1, dtype=float)
    gi = np.asarray(gi, dtype=float)
    rhos = np.array(jump_points(g1, gi, m))
    mids = 0.5 * (rhos[:-1] + rhos[1:])
    cands = _round_half_away(g1 + mids[:, None] * gi).astype(np.int64)
    keep = (np.abs(cands).max(axis=1) <= m) & cands.any(axis=1)
    return list(map(tuple, cands[keep].tolist()))


def _line(q: QForm, i: int, m: int) -> tuple[IntVector, ...]:
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
        line = q.memo[key] = tuple(canonical_sign(p) for p in line_candidates(g1, gi, m))
    return line


def candidate_set(q: QForm, cfg: SearchConfig) -> CandidateSet:
    """Union of the per-line candidate sets for the J slowest-ascent lines,
    sign-canonicalized and deduplicated in first-seen order."""
    l = q.q.shape[0]
    if cfg.lines_j > l - 1:
        raise InvalidInputError(f"lines_j must be <= L-1 = {l - 1}")
    collected: list[IntVector] = []
    for i in range(2, cfg.lines_j + 2):
        collected.extend(_line(q, i, cfg.bound_m))
    vectors = tuple(dict.fromkeys(collected))
    arr = np.array(vectors, dtype=np.int64).reshape(len(vectors), l)
    # the first nonzero coordinate of each row: positive, so no row is zero
    lead = arr[np.arange(len(arr)), (arr != 0).argmax(axis=1)]
    if np.any(lead <= 0) or np.any(np.abs(arr) > cfg.bound_m):
        raise RuntimeError("candidate set holds a zero, out-of-box or non-canonical vector")
    return CandidateSet(vectors=vectors, config=cfg)
