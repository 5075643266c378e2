"""Greedy construction of the full-rank coefficient matrix.

Candidates are sorted by f(t) = t^T Q t and consumed greedily: keep the
earliest vector that stays exactly linearly independent of the rows chosen
so far. Because independence defines a matroid, the greedy basis minimizes
the largest selected f value, so on the exhaustive candidate set this is
the true min-max design over the box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channel import ChannelRealization
from .errors import InstanceTooLargeError, InvalidInputError
from .ifcore import QForm, RateReport, compute_q, optimal_projection, rate_from_q, total_rate
from .linalg import IntVector, int_rank_independent
from .sdm import CandidateSet, SearchConfig, candidate_set

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


def _sorted_order(arr: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Indices ordering rows by f = t^T Q t, ties by lexicographic coordinates."""
    f = ((arr @ q) * arr).sum(axis=1)
    keys = tuple(arr[:, k] for k in reversed(range(arr.shape[1]))) + (f,)
    return np.lexsort(keys)


def sort_candidates(omega: CandidateSet, q: QForm) -> list[IntVector]:
    """Candidates ascending by f(t) = t^T Q t; equal-f ties break lexicographically."""
    if not omega.vectors:
        raise InvalidInputError("candidate set is empty")
    arr = np.asarray(omega.vectors, dtype=np.int64)
    return [tuple(int(c) for c in arr[i]) for i in _sorted_order(arr, q.q)]


def greedy_full_rank(sorted_vectors: Sequence) -> list[IntVector] | None:
    """Earliest exactly-independent L rows of an f-sorted candidate list,
    or None when the list cannot reach full rank."""
    chosen: list[IntVector] = []
    l = 0
    for row in sorted_vectors:
        vec = tuple(int(c) for c in row)
        if not chosen:
            l = len(vec)
        if int_rank_independent(chosen + [vec]):
            chosen.append(vec)
            if len(chosen) == l:
                return chosen
    return None


@lru_cache(maxsize=8)
def _canonical_box_array(l: int, m: int) -> np.ndarray:
    """All sign-canonical nonzero vectors in [-M, M]^L, lexicographic order."""
    out = []
    for vec in itertools.product(range(-m, m + 1), repeat=l):
        for c in vec:
            if c > 0:
                out.append(vec)
                break
            if c < 0:
                break
    arr = np.array(out, dtype=np.int64).reshape(len(out), l)
    arr.setflags(write=False)
    return arr


def exhaustive_candidates(l: int, m: int) -> CandidateSet:
    """Every sign-canonical nonzero integer vector in the box: the
    brute-force reference set, size ((2M+1)^L - 1) / 2."""
    if l < 1 or m < 1:
        raise InvalidInputError("l and m must be >= 1")
    if (2 * m + 1) ** l > ENUM_GUARD:
        raise InstanceTooLargeError(
            f"(2M+1)^L = {(2 * m + 1) ** l} exceeds the enumeration guard {ENUM_GUARD}"
        )
    arr = _canonical_box_array(l, m)
    cfg = SearchConfig(bound_m=m, lines_j=max(1, l - 1))
    return CandidateSet(vectors=tuple(map(tuple, arr.tolist())), config=cfg)


def design_if(ch: ChannelRealization, cfg: SearchConfig, method: str) -> IfDesign:
    """End-to-end design: build the candidate set, sort, pick greedily,
    fall back to the identity matrix when greedy cannot reach full rank."""
    if method not in (METHOD_SDM, METHOD_EXHAUSTIVE):
        raise InvalidInputError(f"unknown method {method!r}")
    qform = compute_q(ch)
    l = ch.l
    if method == METHOD_SDM:
        omega = candidate_set(qform, cfg)
        arr = np.asarray(omega.vectors, dtype=np.int64).reshape(len(omega.vectors), l)
        ranked = arr[_sorted_order(arr, qform.q)]
    else:
        if (2 * cfg.bound_m + 1) ** l > ENUM_GUARD:
            raise InstanceTooLargeError(
                f"(2M+1)^L = {(2 * cfg.bound_m + 1) ** l} exceeds the enumeration guard {ENUM_GUARD}"
            )
        arr = _canonical_box_array(l, cfg.bound_m)
        # rows are already lexicographic, so a stable sort on f alone
        # reproduces the (f, lex) order
        f = ((arr @ qform.q) * arr).sum(axis=1)
        ranked = arr[np.argsort(f, kind="stable")]

    rows = greedy_full_rank(ranked)
    if rows is None:
        a = np.eye(l, dtype=np.int64)
        tag, success = METHOD_FALLBACK, False
    else:
        a = np.array(rows, dtype=np.int64)
        tag, success = method, True
    b = optimal_projection(a, ch)
    report = total_rate([rate_from_q(row, qform) for row in a])
    return IfDesign(a=a, b=b, report=report, success=success, method=tag)
