"""Seeded channel generation, complex-to-real lifting, and capacity."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, ParseError
from .linalg import as_square_matrix, det

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class RngState:
    """splitmix64 stream with a cached Box-Muller spare.

    Identical seeds give identical streams. Single-owner: do not share
    one instance across concurrent tasks.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & MASK64
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return _mix64(self._state)

    def next_uniform(self) -> float:
        # in (0, 1] so the Box-Muller log stays finite
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def next_gaussian(self) -> float:
        if self._spare is not None:
            g = self._spare
            self._spare = None
            return g
        r = math.sqrt(-2.0 * math.log(self.next_uniform()))
        theta = 2.0 * math.pi * self.next_uniform()
        self._spare = r * math.sin(theta)
        return r * math.cos(theta)


def derive_trial_rng(master_seed: int, trial_index: int) -> RngState:
    """Decorrelated per-trial stream from (master seed, trial index).

    The derivation is order-free: trial k gets the same stream whether
    trials run serially, shuffled, or concurrently.
    """
    mixed = _mix64((int(trial_index) * _GOLDEN) & MASK64)
    return RngState((int(master_seed) ^ mixed) & MASK64)


def sample_channel(rng: RngState, l: int) -> np.ndarray:
    """Draw an l x l matrix of i.i.d. standard normal entries, row-major."""
    if l < 1:
        raise InvalidInputError("l must be >= 1")
    h = np.empty((l, l))
    for i in range(l):
        for j in range(l):
            h[i, j] = rng.next_gaussian()
    return h


@dataclass(frozen=True)
class ChannelRealization:
    """Real channel matrix plus transmit power (noise variance is 1).

    ``h`` is a read-only copy of the input, so quantities derived from it
    can be kept in ``memo`` for the life of the realization.
    """

    h: np.ndarray
    power: float
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        h = as_square_matrix(self.h, "h")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "power", float(self.power))
        if not self.power > 0:
            raise InvalidInputError("power must be positive")

    @property
    def l(self) -> int:
        return self.h.shape[0]


def complex_to_real(h_re, h_im) -> np.ndarray:
    """Lift a complex n x n system to the equivalent real 2n x 2n block form
    [[Re, -Im], [Im, Re]]."""
    re = np.asarray(h_re, dtype=float)
    im = np.asarray(h_im, dtype=float)
    if re.ndim != 2 or re.shape[0] != re.shape[1]:
        raise InvalidInputError(f"real part must be square, got shape {re.shape}")
    if im.shape != re.shape:
        raise InvalidInputError(f"size mismatch: {re.shape} vs {im.shape}")
    return np.block([[re, -im], [im, re]])


def capacity(ch: ChannelRealization) -> float:
    """Channel capacity (1/2) log2 det(I + P H H^T) in bits per real use."""
    l = ch.l
    gram = np.eye(l) + ch.power * (ch.h @ ch.h.T)
    d = det(gram)
    if d <= 1.0:
        # det >= 1 holds exactly; guard against rounding below it
        return 0.0
    return 0.5 * math.log2(d)


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
