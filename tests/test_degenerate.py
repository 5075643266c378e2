"""Pins for channels whose form Q has one repeated eigenvalue: H = I and
H = c * orthogonal, so Q is a multiple of I up to rounding. The
eigenbasis of such a Q is fixed only by the rounding in Q and by LAPACK,
so these designs and lines move whenever the bytes of Q or of its
eigensolve do. The pins in ``tests/data/degenerate_pins.json`` hold the
SDM design and hashes of the line candidates at 0-30 dB.

To regenerate the pins after a deliberate change, run
``python tests/test_degenerate.py`` from the repository root with ``src``
on the path.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ifrx.channel import ChannelRealization
from ifrx.ifcore import compute_q
from ifrx.linalg import sym_eigen
from ifrx.sdm import SearchConfig, candidate_set, line_candidates
from ifrx.select import design_if

PINS = Path(__file__).resolve().parent / "data" / "degenerate_pins.json"
SNR_DB = (0.0, 10.0, 20.0, 30.0)
BOUND_M = 2


def dct_orthogonal(l):
    """The orthonormal DCT-II matrix."""
    k, n = np.meshgrid(np.arange(l), np.arange(l), indexing="ij")
    c = np.sqrt(2.0 / l) * np.cos(np.pi * (n + 0.5) * k / l)
    c[0] /= np.sqrt(2.0)
    return c


def signed_permutation(l):
    p = np.zeros((l, l))
    p[np.arange(l), (3 * np.arange(l) + 1) % l] = np.where(np.arange(l) % 2, -1.0, 1.0)
    return p


CHANNELS = {
    "identity": lambda l: np.eye(l),
    "dct_2.5": lambda l: 2.5 * dct_orthogonal(l),
    "signed_perm_0.7": lambda l: 0.7 * signed_permutation(l),
}
CASES = [(kind, l) for kind in CHANNELS for l in (4, 8)]


def digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()


def rows(a):
    return [" ".join(str(int(c)) for c in row) for row in a]


def power(snr_db):
    return 10.0 ** (snr_db / 10.0)


def pins_of(kind, l):
    """Design rows, raw line hash and candidate set hash per SNR point,
    each channel and form made alone."""
    out = {}
    for snr in SNR_DB:
        ch = ChannelRealization(h=CHANNELS[kind](l), power=power(snr))
        cfg = SearchConfig(BOUND_M, l - 1)
        vecs = sym_eigen(compute_q(ch).q[None])[0].vectors
        # each line walked alone: its rows are the whole of its pass's rows
        lines = [line_candidates(vecs[None, :, 0], vecs[None, :, i], BOUND_M)[0]
                 for i in range(1, l)]
        out[str(snr)] = {
            "a": rows(design_if(ch, cfg, "sdm").a),
            "lines": digest(lines),
            "candidates": digest([candidate_set(compute_q(ch), cfg)]),
        }
    return out


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("kind, l", CASES)
def test_each_snr_point_alone_matches_its_pin(pins, kind, l):
    assert pins_of(kind, l) == pins[f"{kind}/{l}"]


@pytest.mark.parametrize("kind, l", CASES)
def test_a_draw_stacked_over_snr_points_matches_the_pins(monkeypatch, pins, kind, l):
    import ifrx.harness
    from ifrx.harness import ExperimentConfig, draw_trial

    monkeypatch.setattr(ifrx.harness, "sample_channel", lambda seed, trial, size: CHANNELS[kind](size))
    cfg = ExperimentConfig(l=l, snr_db_grid=SNR_DB, trials=1, bound_m=BOUND_M, lines_j=l - 1,
                           master_seed=1, methods=("if-sdm", "mmse"))
    draw = draw_trial(cfg, 0)
    forms = [compute_q(draw[snr]) for snr in SNR_DB]
    # one line pass over every (SNR point, line) pair, as the draw makes it
    bases = sym_eigen(np.array([q.q for q in forms]))
    g1 = np.array([b.vectors[:, 0] for b in bases for _ in range(1, l)])
    gi = np.array([b.vectors[:, i] for b in bases for i in range(1, l)])
    cands, line, _ = line_candidates(g1, gi, BOUND_M)
    lines = [cands[line == k] for k in range(len(g1))]
    for k, snr in enumerate(SNR_DB):
        pin = pins[f"{kind}/{l}"][str(snr)]
        ch = draw[snr]
        assert rows(design_if(ch, SearchConfig(BOUND_M, l - 1), "sdm").a) == pin["a"]
        assert digest([candidate_set(compute_q(ch), SearchConfig(BOUND_M, l - 1))]) \
            == pin["candidates"]
        assert digest(lines[k * (l - 1):(k + 1) * (l - 1)]) == pin["lines"]


if __name__ == "__main__":
    PINS.write_text(json.dumps({f"{kind}/{l}": pins_of(kind, l) for kind, l in CASES},
                               indent=1, sort_keys=True) + "\n")
    sys.exit(0)
