"""Seeded channel generation, channel realizations, and capacity."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InstanceTooLargeError, InvalidInputError, ParseError, SingularMatrixError
from .linalg import _real_array, as_square_matrix, det, int_value, real_value

MASK64 = (1 << 64) - 1
# entries L^2 of one channel draw (L = 1024), few enough to build at once
CHANNEL_ENTRY_LIMIT = 2**20
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer on a uint64 array. Array arithmetic wraps
    mod 2^64 without a warning; numpy uint64 scalars would warn."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _words(master_seed: int, trial_index: int, n: int) -> np.ndarray:
    """Words 1..n of trial ``trial_index`` as a uint64 array: word k is
    splitmix64's ``mix64(s + k gamma)`` mod 2^64 (Steele, Lea & Flood
    2014) with ``s = master_seed ^ mix64(trial_index gamma)``, a pure
    function of (seed, trial index, k), so trials are order-free."""
    s = _mix64(np.array([(trial_index * _GOLDEN) & MASK64], dtype=np.uint64))
    s ^= np.uint64(master_seed & MASK64)
    return _mix64(np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + s)


def sample_channel(master_seed: int, trial_index: int, l: int) -> np.ndarray:
    """Draw trial ``trial_index``'s l x l matrix of i.i.d. standard normal
    entries, row-major.

    Box-Muller on pairs of the trial's words, each made the uniform
    ``((w >> 11) + 1) 2^-53`` in (0, 1]; a pair gives the cosine entry,
    then the sine entry, and an odd last sine is dropped. The log stays
    ``math.log``: numpy's differs in the last bit on some inputs. The
    arguments are integers (``linalg.int_value``); the seed and the trial
    index are read mod 2^64. More than CHANNEL_ENTRY_LIMIT entries raise
    InstanceTooLargeError before any array is built.
    """
    master_seed = int_value(master_seed, "master_seed")
    trial_index = int_value(trial_index, "trial_index")
    l = int_value(l, "l")
    if l < 1:
        raise InvalidInputError("l must be >= 1")
    n = l * l
    if n > CHANNEL_ENTRY_LIMIT:
        raise InstanceTooLargeError(f"an L = {l} channel has {n} entries, "
                                    f"over the limit {CHANNEL_ENTRY_LIMIT}")
    # (w >> 11) + 1 <= 2^53, so the uniforms are exact in float64
    u = (((_words(master_seed, trial_index, n + n % 2) >> 11) + 1) * 2.0 ** -53).tolist()
    h = []
    for u1, u2 in zip(u[::2], u[1::2]):
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        h += (r * math.cos(theta), r * math.sin(theta))
    return np.array(h[:n]).reshape(l, l)


def _power(power, hht: np.ndarray) -> float:
    """``power`` read by ``real_value`` and held to the rule of a
    realization whose H H^T is ``hht``: positive and finite, with 1/P
    finite, H H^T finite in its trace, and H H^T + I/P finite."""
    power = real_value(power, "power")
    if not 0 < power < math.inf:
        raise InvalidInputError("power must be positive and finite")
    if 1 / power == math.inf:
        raise InvalidInputError(f"power {power:g} is too small: 1/P overflows a float")
    with np.errstate(over="ignore"):
        if not math.isfinite(hht.trace()):
            raise InvalidInputError("h is too large: H H^T overflows a float")
        # the whitener slice adds 1/P to the diagonal alone
        if max(hht.diagonal().tolist()) + 1 / power == math.inf:
            raise InvalidInputError(f"h is too large at power {power:g}: "
                                    "H H^T + I/P overflows a float")
    return power


@dataclass(frozen=True)
class ChannelRealization:
    """Real channel matrix plus transmit power (noise variance is 1).

    ``h`` is a read-only copy of the input, so quantities derived from it
    can be kept in ``memo`` for the life of the realization. They are
    computed for several realizations at once, as one stacked pass
    (``ifcore.prepare_inverses``, ``prepare_capacity``); a realization
    used alone is a stack of one. Both read H H^T, formed here; an ``h``
    whose ||H||_F^2, the trace that bounds every entry of H H^T and of
    H^T H, overflows a float raises InvalidInputError, and so does one
    whose whitener slice H H^T + I/P does at this power.
    """

    h: np.ndarray
    power: float
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        h = as_square_matrix(self.h, "h")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        with np.errstate(over="ignore"):
            hht = h @ h.T
        object.__setattr__(self, "power", _power(self.power, hht))
        hht.setflags(write=False)
        self.memo["hht"] = hht

    @property
    def l(self) -> int:
        return self.h.shape[0]


def _at_power(ch: ChannelRealization, power) -> ChannelRealization:
    """A realization of ``ch``'s H at ``power``, held to the same power
    rule, that shares ch's read-only h and H H^T instead of reading H and
    forming H H^T again: what a realization of that H at that power holds."""
    hht = ch.memo["hht"]
    other = object.__new__(ChannelRealization)
    object.__setattr__(other, "h", ch.h)
    object.__setattr__(other, "power", _power(power, hht))
    object.__setattr__(other, "memo", {"hht": hht})
    return other


def prepare_capacity(chs) -> None:
    """Keep in ``memo`` the capacity of each realization (of one size L)
    that lacks it, from one ``det`` stack of I + P H H^T, each slice of its
    own H. A slice whose entries or determinant leave the float range
    takes log2 det(I + P H H^T) = L log2 P + log2 det(H H^T + I/P) instead,
    the last term a sum of log2 |pivot| (``np.linalg.slogdet``), and
    raises SingularMatrixError where that determinant rounds to zero."""
    todo = [ch for ch in chs if "capacity" not in ch.memo]
    if not todo:
        return
    # one broadcast, entry for entry the slice each would get alone;
    # realizations of two sizes get the reader's error
    hht = _real_array([ch.memo["hht"] for ch in todo], "m")
    power = np.array([ch.power for ch in todo])
    with np.errstate(over="ignore"):
        slices = np.eye(hht.shape[-1]) + power[:, None, None] * hht
    finite = np.isfinite(slices).all(axis=(1, 2))
    dets = iter(det(slices[finite]) if finite.any() else ())
    for ch, ok in zip(todo, finite.tolist()):
        d = next(dets) if ok else math.inf
        if math.isfinite(d):
            # det >= 1 holds exactly; guard against rounding below it
            ch.memo["capacity"] = 0.0 if d <= 1.0 else 0.5 * math.log2(d)
            continue
        sign, log_det = np.linalg.slogdet(ch.memo["hht"] + np.eye(ch.l) / ch.power)
        if not sign > 0:
            raise SingularMatrixError(f"det(H H^T + I/P) rounds to zero at P = {ch.power:g}")
        ch.memo["capacity"] = 0.5 * (ch.l * math.log2(ch.power) + log_det / math.log(2))


def capacity(ch: ChannelRealization) -> float:
    """Channel capacity (1/2) log2 det(I + P H H^T) in bits per real use."""
    prepare_capacity([ch])
    return ch.memo["capacity"]


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the whitespace matrix format: one row per line, '#' comments
    and blank lines ignored."""
    rows: list[tuple[int, list[float]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        values = []
        for token in stripped.split():
            try:
                values.append(float(token))
            except ValueError:
                raise ParseError(f"line {lineno}: cannot parse entry {token!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError(f"line {lineno}: non-finite entry")
        rows.append((lineno, values))
    if not rows:
        raise ParseError("no matrix rows found")
    width = len(rows[0][1])
    for lineno, values in rows[1:]:
        if len(values) != width:
            raise ParseError(f"line {lineno}: expected {width} entries, got {len(values)}")
    return np.array([values for _, values in rows])


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None
    return parse_matrix_text(text)
