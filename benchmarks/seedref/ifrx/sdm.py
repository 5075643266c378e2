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
    grid = midpoint_grid(m)
    rhos: list[float] = []
    for k in range(gi.shape[0]):
        if abs(gi[k]) < COORD_EPS:
            continue
        rhos.extend((mj - g1[k]) / gi[k] for mj in grid)
    if not rhos:
        raise DegenerateDirectionError("every coordinate of the direction is below threshold")
    rhos.sort()
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
    rhos = jump_points(g1, gi, m)
    points: list[IntVector] = []
    for j in range(len(rhos) - 1):
        rho = 0.5 * (rhos[j] + rhos[j + 1])
        cand = _round_half_away(g1 + rho * gi).astype(int)
        if int(np.max(np.abs(cand))) > m or not cand.any():
            continue
        points.append(tuple(int(c) for c in cand))
    return points


def candidate_set(q: QForm, cfg: SearchConfig) -> CandidateSet:
    """Union of the per-line candidate sets for the J slowest-ascent lines,
    sign-canonicalized and deduplicated in first-seen order."""
    l = q.q.shape[0]
    if cfg.lines_j > l - 1:
        raise InvalidInputError(f"lines_j must be <= L-1 = {l - 1}")
    basis = sym_eigen(q.q)
    g1 = basis.vectors[:, 0]
    collected: list[IntVector] = []
    for i in range(2, cfg.lines_j + 2):
        gi = basis.vectors[:, i - 1]
        collected.extend(canonical_sign(p) for p in line_candidates(g1, gi, cfg.bound_m))
    vectors = tuple(dict.fromkeys(collected))
    for vec in vectors:
        assert any(vec), "zero vector escaped the filter"
        assert max(abs(c) for c in vec) <= cfg.bound_m, "candidate escaped the bound"
        assert next(c for c in vec if c != 0) > 0, "candidate not sign-canonical"
    return CandidateSet(vectors=vectors, config=cfg)
