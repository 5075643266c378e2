"""Greedy construction of the full-rank coefficient matrix.

Candidates are sorted by f(t) = t^T Q t and consumed greedily: keep the
earliest vector that stays exactly linearly independent of the rows chosen
so far. Because independence defines a matroid, the greedy basis minimizes
the largest selected f value, so on the exhaustive candidate set this is
the true min-max design over the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelRealization
from .errors import InstanceTooLargeError, InvalidInputError
from .ifcore import RateReport, compute_q, optimal_projection, rate_from_q, total_rate
# int_rank_independent stays bound here although greedy no longer calls it:
# benchmarks/spans.py wraps this binding, and a zero count beats a missing one
from .linalg import IntEchelon, int_rank_independent  # noqa: F401
from .sdm import SearchConfig, candidate_set, leading

METHOD_SDM = "sdm"
METHOD_EXHAUSTIVE = "exhaustive"
METHOD_FALLBACK = "mmse-identity-fallback"

ENUM_GUARD = 10**7


@dataclass(frozen=True)
class IfDesign:
    """A designed receiver: integer rows, projection, rates, and how we got it."""

    a: np.ndarray
    b: np.ndarray
    report: RateReport
    success: bool
    method: str


def rank_candidates(arr: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows of a lexicographically sorted candidate array ascending by
    f(t) = t^T Q t. The sort is stable, so equal-f ties stay lexicographic."""
    f = ((arr @ q) * arr).sum(axis=1)
    return arr[np.argsort(f, kind="stable")]


def greedy_full_rank(ranked: np.ndarray) -> np.ndarray | None:
    """Earliest exactly-independent L rows of an f-ranked candidate array,
    as an (L, L) int64 array, or None when the rows cannot reach full rank."""
    echelon = IntEchelon(ranked.shape[1])
    chosen = []
    for row in ranked:
        if echelon.add(row.tolist()):
            chosen.append(row)
            if len(chosen) == echelon.width:
                return np.array(chosen, dtype=np.int64)
    return None


@lru_cache(maxsize=8)
def exhaustive_candidates(l: int, m: int) -> np.ndarray:
    """Every sign-canonical nonzero integer vector in [-M, M]^L, read-only
    and in lexicographic order: the brute-force reference set, size
    ((2M+1)^L - 1) / 2."""
    if l < 1 or m < 1:
        raise InvalidInputError("l and m must be >= 1")
    if (2 * m + 1) ** l > ENUM_GUARD:
        raise InstanceTooLargeError(
            f"(2M+1)^L = {(2 * m + 1) ** l} exceeds the enumeration guard {ENUM_GUARD}"
        )
    box = np.indices((2 * m + 1,) * l).reshape(l, -1).T
    box -= m
    arr = box[leading(box) > 0]
    arr.setflags(write=False)
    return arr


def design_if(ch: ChannelRealization, cfg: SearchConfig, method: str) -> IfDesign:
    """End-to-end design: build the candidate set, sort, pick greedily,
    fall back to the identity matrix when greedy cannot reach full rank."""
    if method not in (METHOD_SDM, METHOD_EXHAUSTIVE):
        raise InvalidInputError(f"unknown method {method!r}")
    qform = compute_q(ch)
    l = ch.l
    if method == METHOD_SDM:
        arr = candidate_set(qform, cfg)
    else:
        arr = exhaustive_candidates(l, cfg.bound_m)
    a = greedy_full_rank(rank_candidates(arr, qform.q))
    if a is None:
        a = np.eye(l, dtype=np.int64)
        tag, success = METHOD_FALLBACK, False
    else:
        tag, success = method, True
    b = optimal_projection(a, ch)
    report = total_rate([rate_from_q(row, qform) for row in a])
    return IfDesign(a=a, b=b, report=report, success=success, method=tag)
