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
from .linalg import _finite_array, as_square_matrix, solve_inverse


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

    ``q`` is a read-only copy of the input, a finite real nonempty square
    matrix (``linalg.as_square_matrix``), so quantities derived from it
    can be kept in ``memo`` for the life of the form: the eigenvector
    matrix, whose columns 1 .. J+1 give the search lines; per bound M,
    one union of line candidates in (f, lex) order, which
    ``sdm.prepare_lines`` fills for several forms at once, from one line
    pass for the forms whose eigenvectors agree within its share radius,
    and ranks by each form's own f; the last SDM design's greedy scan,
    which ``select.greedy_full_rank`` replays; and the last successful
    SDM design's A bytes, rates and det, which ``select.design_if`` hands
    to a later design of the same A. The form holds no reference back to
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
    projection (H^T H)^-1 H^T, all L from one stacked product with the
    bits of each row's own b_m @ b_m, or None when ``solve_inverse`` lists
    H^T H as singular. They do not depend on P, so every realization of
    that H shares them.
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
            norms = tuple((b[:, None, :] @ b[:, :, None]).ravel().tolist())
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
    """(1/2) log2(1 / e) for e = a^T Q a, which rounds to <= 0 at high SNR;
    e = 1 gives 0.0, not -0.0."""
    if not e > 0:
        raise SingularMatrixError(f"quadratic form value {e:.3g} is not positive")
    return -0.5 * math.log2(e) + 0.0


def kept_rates(a: np.ndarray, q: QForm) -> list[float]:
    """Rate (1/2) log2(1 / (a_m^T Q a_m)) of each row a_m of an (n, L)
    array, with the optimal projection baked in. The rows are nonzero and
    of length L, as in greedy's A, and are not read by an input reader.

    All n values a_m^T Q a_m come from one stacked product, (1, L) @ Q
    then (1, L) @ (L, 1) per row; matmul runs each slice through the inner
    loop a 1-D ``a_m @ q @ a_m`` runs, so every value keeps that one's bits.
    """
    af = a.astype(float)
    energies = (af[:, None, :] @ q.q @ af[:, :, None]).ravel().tolist()
    return [_rate_from_energy(e) for e in energies]


def total_rate(per_stream) -> RateReport:
    """Min-form total max(0, L * min_m R_m); per-stream values kept raw.
    ``per_stream``, a nonempty list, tuple or 1-D array of finite reals, is
    read as one array by ``linalg.as_real_matrix``'s entry rule."""
    rates = tuple(_finite_array(per_stream, "per-stream rates", 1).tolist())
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
    return total_rate([_zf_rate(ch.power, norm) for norm in norms])


def mmse_rates(ch: ChannelRealization) -> RateReport:
    """MMSE rates R_m = (1/2) log2(1 / Q_mm): the identity-coefficient
    design under the optimal projection, read off Q's diagonal at once."""
    return total_rate([_rate_from_energy(e) for e in compute_q(ch).q.diagonal().tolist()])
