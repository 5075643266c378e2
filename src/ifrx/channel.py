"""Seeded channel generation, channel realizations, and capacity."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IfrxError, InvalidInputError, ParseError, unwrap
from .linalg import as_square_matrix, det

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer on a uint64 array. Array arithmetic wraps
    mod 2^64 without a warning; numpy uint64 scalars would warn."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


class RngState:
    """splitmix64 stream (Steele, Lea & Flood 2014) of uint64 words.

    Identical seeds give identical streams. Single-owner: do not share
    one instance across concurrent tasks.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & MASK64

    def next_u64s(self, n: int) -> np.ndarray:
        """The next ``n`` words of the stream as a uint64 array."""
        if n < 0:
            raise InvalidInputError("n must be >= 0")
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & MASK64
        return _mix64(z)


def derive_trial_rng(master_seed: int, trial_index: int) -> RngState:
    """Decorrelated per-trial stream from (master seed, trial index).

    The derivation is order-free: trial k gets the same stream whether
    trials run serially, shuffled, or concurrently.
    """
    mixed = int(_mix64(np.array([(int(trial_index) * _GOLDEN) & MASK64], dtype=np.uint64))[0])
    return RngState((int(master_seed) ^ mixed) & MASK64)


def sample_channel(rng: RngState, l: int) -> np.ndarray:
    """Draw an l x l matrix of i.i.d. standard normal entries, row-major.

    Box-Muller on pairs of stream words, each made the uniform
    ``((w >> 11) + 1) 2^-53`` in (0, 1]; a pair gives the cosine entry,
    then the sine entry, and an odd last sine is dropped. The log stays
    ``math.log``: numpy's differs in the last bit on some inputs.
    """
    if l < 1:
        raise InvalidInputError("l must be >= 1")
    n = l * l
    # (w >> 11) + 1 <= 2^53, so the uniforms are exact in float64
    u = (((rng.next_u64s(n + n % 2) >> 11) + 1) * 2.0 ** -53).tolist()
    h = []
    for u1, u2 in zip(u[::2], u[1::2]):
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        h += (r * math.cos(theta), r * math.sin(theta))
    return np.array(h[:n]).reshape(l, l)


@dataclass(frozen=True)
class ChannelRealization:
    """Real channel matrix plus transmit power (noise variance is 1).

    ``h`` is a read-only copy of the input, so quantities derived from it
    can be kept in ``memo`` for the life of the realization. They are
    computed for several realizations of one matrix at once, as one
    stacked pass (``ifcore.prepare_inverses``, ``prepare_capacity``); a
    realization used alone is a stack of one.
    """

    h: np.ndarray
    power: float
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        h = as_square_matrix(self.h, "h")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "power", float(self.power))
        if not 0 < self.power < math.inf:
            raise InvalidInputError("power must be positive and finite")

    @property
    def l(self) -> int:
        return self.h.shape[0]


def prepare_capacity(chs) -> None:
    """Keep in ``memo`` the capacity of each realization of one matrix H
    that lacks it, from one ``det`` stack of I + P H H^T. A slice's error
    is kept in place of its capacity."""
    todo = [ch for ch in chs if "capacity" not in ch.memo]
    if not todo:
        return
    h = todo[0].h
    hh = h @ h.T
    eye = np.eye(h.shape[0])
    for ch, d in zip(todo, det(np.array([eye + ch.power * hh for ch in todo]))):
        # det >= 1 holds exactly; guard against rounding below it
        ch.memo["capacity"] = d if isinstance(d, IfrxError) else (
            0.0 if d <= 1.0 else 0.5 * math.log2(d))


def capacity(ch: ChannelRealization) -> float:
    """Channel capacity (1/2) log2 det(I + P H H^T) in bits per real use."""
    prepare_capacity([ch])
    return unwrap(ch.memo["capacity"])


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
        return parse_matrix_text(fh.read())
