"""Rate machinery for the integer-forcing receiver and its linear baselines.

The central object is the quadratic form Q = I - H^T (H H^T + I/P)^-1 H,
which equals (I + P H^T H)^-1 and fixes the rate of every coefficient
vector a through a^T Q a. ZF and MMSE totals are reported with the same
min-form convention as the IF objective so comparisons stay apples to
apples; a sum-form is exposed alongside for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization
from .errors import InvalidInputError, SingularMatrixError
from .linalg import as_real_matrix, as_square_matrix, solve_inverse


def left_sum(values) -> float:
    """Left-to-right float total: ``sum`` as it was before Python 3.12
    compensated float sums, so the totals written to CSVs do not depend on
    the Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class QForm:
    """Symmetric quadratic form of a channel at one transmit power.

    ``q`` is a read-only copy of the input, a finite real square matrix
    (``linalg.as_square_matrix``), so quantities derived from it
    can be kept in ``memo`` for the life of the form: the eigenbasis and,
    per bound M, one union of line candidates, which ``sdm.prepare_lines``
    fills for several forms at once, that union's (f, lex) order, and the
    rate of each designed row. The form holds no reference back to
    its channel, whose memo holds the form.
    """

    q: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        q = as_square_matrix(self.q, "q")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class RateReport:
    """Per-stream rates (raw, may be negative) and the clamped total.

    ``total`` is the min-form L * min_m R_m clamped at zero; ``sum_form``
    adds the individually clamped per-stream rates instead.
    """

    per_stream: tuple[float, ...]
    total: float
    singular: bool = False

    @property
    def sum_form(self) -> float:
        return left_sum(max(0.0, r) for r in self.per_stream)


def prepare_inverses(chs, whiteners: bool = True, zf: bool = False) -> None:
    """Keep in ``memo`` what realizations (of one size L) lack, from one
    ``solve_inverse`` stack.

    With ``whiteners``, a realization's slice is H H^T + I/P, of its own H;
    its inverse, the whitener, is kept read-only with the form
    Q = I - H^T (H H^T + I/P)^-1 H, symmetrized after the fact. The first
    singular whitener slice raises its listed error before anything is
    kept. With ``zf``, the stack ends with one slice H^T H per distinct H,
    whose inverse gives the squared row norms ||b_m||^2 of the ZF
    projection (H^T H)^-1 H^T, or None when ``solve_inverse`` lists H^T H
    as singular. They do not depend on P, so every realization of that H
    shares them.
    """
    todo = [ch for ch in chs if "whitener" not in ch.memo] if whiteners else []
    grams = {}  # H's bytes -> the realizations of H that lack ZF row norms
    for ch in chs:
        if zf and "zf_row_norms" not in ch.memo:
            grams.setdefault(ch.h.tobytes(), []).append(ch)
    if not todo and not grams:
        return
    slices = [ch.memo["hht"] + np.eye(ch.l) / ch.power for ch in todo]
    slices += [same[0].h.T @ same[0].h for same in grams.values()]
    inverses = solve_inverse(slices)
    ws = inverses[:len(todo)]
    for w in ws:
        if isinstance(w, SingularMatrixError):
            raise w
    for same, inv in zip(grams.values(), inverses[len(todo):]):
        h = same[0].h
        if isinstance(inv, SingularMatrixError):
            norms = None
        else:
            b = inv @ h.T
            norms = tuple(float(b[m] @ b[m]) for m in range(len(h)))
        for ch in same:
            ch.memo["zf_row_norms"] = norms
    for ch, w in zip(todo, ws):
        w.setflags(write=False)
        q = np.eye(ch.l) - ch.h.T @ w @ ch.h
        ch.memo["whitener"] = w
        ch.memo["q"] = QForm(q=0.5 * (q + q.T))


def _read(ch: ChannelRealization, key: str, **prepare):
    """``ch.memo[key]``, prepared alone if it is missing, so a failed
    slice raises on every read."""
    if key not in ch.memo:
        prepare_inverses([ch], **prepare)
    return ch.memo[key]


def compute_q(ch: ChannelRealization) -> QForm:
    """Quadratic form I - H^T (H H^T + I/P)^-1 H, symmetrized after the fact.
    Computed once per channel: every caller gets the same read-only form."""
    return _read(ch, "q")


def optimal_projection(a, ch: ChannelRealization) -> np.ndarray:
    """Rate-maximizing projection B = A H^T (H H^T + I/P)^-1 for fixed A,
    a finite real square matrix (``linalg.as_square_matrix``)."""
    a_arr = as_square_matrix(a, "coefficient matrix")
    if a_arr.shape != (ch.l, ch.l):
        raise InvalidInputError(f"coefficient matrix must be {ch.l}x{ch.l}, got {a_arr.shape}")
    return a_arr @ ch.h.T @ _read(ch, "whitener")


def _rate_from_energy(e: float) -> float:
    """(1/2) log2(1 / e) for e = a^T Q a, which rounds to <= 0 at high SNR."""
    if not e > 0:
        raise SingularMatrixError(f"quadratic form value {e:.3g} is not positive")
    return -0.5 * math.log2(e)


def rates_from_q(a, q: QForm) -> list[float]:
    """Rate (1/2) log2(1 / (a_m^T Q a_m)) of each row a_m of an (n, L)
    array of finite reals (``linalg.as_real_matrix``), with the optimal
    projection baked in."""
    arr = as_real_matrix(a, "a")
    if arr.shape[1] != q.q.shape[0] or not arr.any(axis=1).all():
        raise InvalidInputError(f"each a_m must be a nonzero vector of length {q.q.shape[0]}")
    return [_rate_from_energy(float(a_m @ q.q @ a_m)) for a_m in arr]


def kept_rates(a: np.ndarray, q: QForm) -> list[float]:
    """``rates_from_q`` of an (n, L) nonzero integer array the package
    built, such as greedy's A, read without the input reader. Each
    distinct row is rated once per form, on the float row ``rates_from_q``
    reads, and kept in ``q.memo["rates"]``."""
    rates = q.memo.setdefault("rates", {})
    rows = list(map(tuple, a.tolist()))
    if not rates.keys() >= set(rows):
        for row, a_m in zip(rows, a.astype(float)):
            if row not in rates:
                rates[row] = _rate_from_energy(float(a_m @ q.q @ a_m))
    return [rates[row] for row in rows]


def total_rate(per_stream) -> RateReport:
    """Min-form total max(0, L * min_m R_m); per-stream values kept raw."""
    rates = tuple(float(r) for r in per_stream)
    if not rates:
        raise InvalidInputError("per-stream rate list is empty")
    return RateReport(per_stream=rates, total=max(0.0, len(rates) * min(rates)))


def _zf_rate(power: float, norm: float) -> float:
    """(1/2) log2(P / ||b_m||^2), as a difference of logs where the ratio
    leaves the float range."""
    ratio = power / norm
    if 0.0 < ratio < math.inf:
        return 0.5 * math.log2(ratio)
    return 0.5 * (math.log2(power) - math.log2(norm))


def zf_rates(ch: ChannelRealization) -> RateReport:
    """Zero-forcing rates; the interference residual is exactly zero, so
    R_m = (1/2) log2(P / ||b_m||^2). Singular H^T H is flagged, not inverted."""
    norms = _read(ch, "zf_row_norms", whiteners=False, zf=True)
    if norms is None:
        return RateReport(per_stream=(0.0,) * ch.l, total=0.0, singular=True)
    return total_rate(_zf_rate(ch.power, norm) for norm in norms)


def mmse_rates(ch: ChannelRealization) -> RateReport:
    """MMSE rates R_m = (1/2) log2(1 / Q_mm): the identity-coefficient
    design under the optimal projection."""
    q = compute_q(ch).q
    return total_rate(_rate_from_energy(float(q[m, m])) for m in range(ch.l))
