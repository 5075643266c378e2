"""Greedy construction of the full-rank coefficient matrix.

Candidates are sorted by f(t) = t^T Q t and consumed greedily: keep the
earliest vector that stays exactly linearly independent of the rows chosen
so far. Because independence defines a matroid, the greedy basis minimizes
the largest selected f value, so over every in-box vector this is the true
min-max design over the box.

The exhaustive design needs only the start of that order. Any full-rank
in-box design with largest f = r bounds greedy's bottleneck by r, so greedy
over the in-box points of the sphere {a : a^T Q a <= r}, ranked the same
way, scans the same rows and picks the same matrix as greedy over the whole
(2M+1)^L box. The sphere is enumerated coordinate by coordinate over a
Cholesky factor of Q (Fincke and Pohst, 1985).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .errors import InstanceTooLargeError, InvalidInputError, SingularMatrixError
# optimal_projection, int_rank_independent and candidate_set stay bound
# here although no design calls them: benchmarks/spans.py wraps these
# bindings, and a zero count beats a missing one
from .ifcore import RateReport, compute_q, kept_rates, mmse_rates, optimal_projection  # noqa: F401
from .linalg import echelon_add, echelon_det, int_rank_independent, int_value, real_value  # noqa: F401
from .sdm import SearchConfig, _row_f, candidate_set, f_order, leading, prepare_lines  # noqa: F401

METHOD_SDM = "sdm"
METHOD_EXHAUSTIVE = "exhaustive"
METHOD_FALLBACK = "mmse-identity-fallback"

# rows the sphere enumeration may test at one level
SPHERE_ROW_LIMIT = 2**20
# sphere size, in canonical points, that the exhaustive design starts from
SPHERE_START_POINTS = 256
# rows greedy converts to Python ints at a time, in their f-order; a scan reads few
GREEDY_BLOCK = 32


@dataclass(frozen=True)
class IfDesign:
    """A designed receiver: integer rows A, their rates, det A (exact, from
    greedy's echelon; 1 for the fallback) and how we got them, no projection."""

    a: np.ndarray
    report: RateReport
    success: bool
    method: str
    det: int


def greedy_full_rank(rows: np.ndarray, order: np.ndarray, memo: dict | None = None) -> np.ndarray | None:
    """Earliest exactly-independent L rows of a 2-D numpy integer array,
    read in the f-order ``order``, a 1-D numpy integer array of in-range
    row indices, none negative (numpy would wrap it), as the (L, L) array
    ``rows[order[picks]]``, or None when they cannot reach full rank; other
    input raises InvalidInputError. The scan reads the rows
    ``order[i:i + GREEDY_BLOCK]`` as Python ints as it reaches them, and
    copies no others. It keeps in ``memo`` (a form's, when given) the rows
    it read, its picks (positions in ``order``) and its echelon, from which
    ``echelon_det`` reads det A. The next scan replays the kept one while
    its rows equal the kept rows, as greedy's state after a prefix depends
    on that prefix alone: such a row is picked, with its kept echelon
    entry, only if the kept scan picked it. The first row that differs or
    lies past them ends the replay.
    """
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "iu"):
        raise InvalidInputError("candidate rows must be integers in a 2-D numpy array")
    if not (isinstance(order, np.ndarray) and order.ndim == 1 and order.dtype.kind in "iu"
            and (len(order) == 0 or 0 <= order.min() <= order.max() < len(rows))):
        raise InvalidInputError(f"the order must be a 1-D numpy integer array indexing {len(rows)} rows")
    l = rows.shape[1]
    memo = {} if memo is None else memo
    seen, picks, kept = memo.get("greedy", ((), (), ()))
    read, chosen, echelon = [], [], []
    for i in range(len(order)):
        if i == len(read):
            read += rows[order[i:i + GREEDY_BLOCK]].tolist()
        if i < len(seen) and read[i] == seen[i]:
            k = len(chosen)
            if k == len(picks) or picks[k] != i:
                continue
            echelon.append(kept[k])
        else:
            seen = ()  # the replay ends here
            if not echelon_add(echelon, read[i]):
                continue
        chosen.append(i)
        if len(chosen) == l:
            memo["greedy"] = read[:i + 1], chosen, echelon
            return rows[order[chosen]]
    memo["greedy"] = read, chosen, echelon
    return None


def _lower_factor(q: np.ndarray) -> np.ndarray:
    """Lower-triangular g with q = g^T g, so a^T Q a is a sum of squares
    whose i-th term depends on a_0 .. a_i only."""
    try:
        return np.linalg.cholesky(q[::-1, ::-1]).T[::-1, ::-1]
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("Q is not numerically positive definite") from exc


def sphere_candidates(q: np.ndarray, g: np.ndarray, m: int, radius: float) -> np.ndarray:
    """Every sign-canonical nonzero integer vector a in [-M, M]^L with
    a^T Q a <= radius, as lexicographic int64 rows, enumerated over Q's
    lower factor ``g`` (``_lower_factor(q)``); a rounding slack lets a few
    rows past the radius come too, and a negative radius gives none. ``m``
    and ``radius`` are read by ``linalg.int_value`` and ``real_value``.

    Raises InvalidInputError on a NaN radius, and InstanceTooLargeError
    when a level would test more than SPHERE_ROW_LIMIT rows.
    """
    m = int_value(m, "m")
    radius = real_value(radius, "radius")
    if math.isnan(radius):
        raise InvalidInputError("radius must not be NaN")
    l = q.shape[0]
    # level 0 expands one empty row into 2M+1, checked before the values or
    # the radius slack, which grows with M^2, are built
    if 2 * m + 1 > SPHERE_ROW_LIMIT:
        raise InstanceTooLargeError(f"sphere enumeration would test {2 * m + 1} rows at level 1 "
                                    f"of {l}, over the limit {SPHERE_ROW_LIMIT}")
    diag = g.diagonal()
    unit = g / diag[:, None]
    # covers the rounding of the factor and of f on any in-box row
    radius += 1e-12 * l**3 * m * m * q.diagonal().max()
    values = np.arange(-m, m + 1.0)
    # coordinates held as floats, exact for integers this small
    pts = np.zeros((1, l))
    dist = np.zeros(1)
    for i in range(l):
        if len(pts) * len(values) > SPHERE_ROW_LIMIT:
            raise InstanceTooLargeError(
                f"sphere enumeration would test {len(pts) * len(values)} rows at level "
                f"{i + 1} of {l}, over the limit {SPHERE_ROW_LIMIT}"
            )
        # term i is (diag_i * (a_i + offset))^2; later columns of pts are 0
        offset = pts @ unit[i]
        trial = dist[:, None] + (diag[i] * (values + offset[:, None])) ** 2
        if i == 0:
            # a row with a_0 < 0 is the negation of a canonical one
            trial[:, :m] = np.inf
        parent, k = np.nonzero(trial <= radius)
        pts = pts[parent]
        pts[:, i] = values[k]
        dist = trial[parent, k]
    # rows come out lexicographic: each parent's children follow it in order
    pts = pts.astype(np.int64)
    return pts[leading(pts) > 0]


def _exhaustive_rows(q: np.ndarray, m: int, memo: dict) -> np.ndarray | None:
    """Greedy rows over the in-box points of a sphere: the same rows as
    greedy over the whole box.

    The radius is capped by the largest f of the identity, a full-rank box
    design, so greedy's rows lie within the cap. Where the cap's sphere
    would hold more than about SPHERE_START_POINTS points, the radius
    starts lower and grows until greedy's rows all lie within it. Q is
    factored once, for the start radius and every sphere. Each sphere's
    greedy resumes from the last one's through ``memo``, which ends with
    the scan that gave the rows.
    """
    l = q.shape[0]
    g = _lower_factor(q)
    cap = q.diagonal().max()
    # an ellipsoid {a^T Q a <= r} of volume pi^(L/2) r^(L/2) / Gamma(L/2 + 1)
    # holds about volume / sqrt(det Q) integer points, half of them canonical
    log_r = 2 / l * (math.log(2 * SPHERE_START_POINTS) + math.lgamma(l / 2 + 1)
                     + np.log(g.diagonal()).sum()) - math.log(math.pi)
    radius = min(cap, math.exp(log_r))
    while True:
        sphere = sphere_candidates(q, g, m, radius)
        a = greedy_full_rank(sphere, f_order(sphere, q), memo)
        if radius >= cap or (a is not None and _row_f(a, q).max() <= radius):
            return a
        # about twice the points per step
        radius = min(cap, radius * 2 ** (2 / l))


def design_if(ch: ChannelRealization, cfg: SearchConfig, method: str) -> IfDesign:
    """End-to-end design: pick greedily from the candidates in (f, lex)
    order (the SDM design reads its union through ``prepare_lines``' order
    for J), fall back to the identity matrix, the MMSE design, with
    ``mmse_rates``' report, when greedy cannot reach full rank.

    The rates and det A are functions of A and Q alone, so the form's memo
    keeps its last successful SDM design as ``memo["design"]``, A's bytes
    with its report and det, and an SDM design that picks the same A (as
    consecutive J or M of a sweep often do) takes them instead of
    computing them again.
    """
    if method not in (METHOD_SDM, METHOD_EXHAUSTIVE):
        raise InvalidInputError(f"unknown method {method!r}")
    qform = compute_q(ch)
    if method == METHOD_SDM:
        memo = qform.memo
        union, order = prepare_lines([qform], cfg.lines_j, cfg.bound_m)[0]
        a = greedy_full_rank(union, order, memo)
    else:
        memo = {}
        a = _exhaustive_rows(qform.q, cfg.bound_m, memo)
    if a is None:
        return IfDesign(a=np.eye(ch.l, dtype=np.int64), report=mmse_rates(ch), success=False,
                        method=METHOD_FALLBACK, det=1)
    key, (last, report, det) = a.tobytes(), memo.get("design", (None, None, None))
    if key != last:
        report, det = RateReport(tuple(kept_rates(a, qform))), echelon_det(memo["greedy"][2])
        memo["design"] = key, report, det
    return IfDesign(a=a, report=report, success=True, method=method, det=det)
