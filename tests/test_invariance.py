"""Power-of-two scaling invariance of every reported quantity.

Under (H, P) -> (2^k H, P / 4^k), H H^T, I/P and P H H^T each scale by an
exact power of two, Q = I - H^T (H H^T + I/P)^-1 H does not move, and every
float step after them is scaled by an exact power of two or not at all. So
the designs of both methods, the MMSE and ZF rates and the capacity must
come out bit-identical, on every OpenBLAS kernel.
"""

import numpy as np
import pytest

from ifrx.channel import ChannelRealization, capacity, sample_channel
from ifrx.ifcore import mmse_rates, zf_rates
from ifrx.sdm import SearchConfig
from ifrx.select import METHOD_EXHAUSTIVE, METHOD_SDM, design_if

SEED = 27
CHANNELS = 30


def report_bits(report):
    return tuple(v.hex() for v in report.per_stream), report.total.hex(), report.singular


def outcome(h, power, cfg):
    """Every reported quantity of (H, P), each from a fresh realization so
    that no memo carries over between calls."""

    def fresh():
        return ChannelRealization(h=h, power=power)

    designs = []
    for method in (METHOD_SDM, METHOD_EXHAUSTIVE):
        d = design_if(fresh(), cfg, method)
        designs.append((d.a.tobytes(), d.det, d.success, d.method, report_bits(d.report)))
    return (designs, report_bits(mmse_rates(fresh())), report_bits(zf_rates(fresh())),
            capacity(fresh()).hex())


@pytest.mark.parametrize("l", [4, 8])
def test_power_of_two_scaling_keeps_every_bit(l):
    cfg = SearchConfig(bound_m=2, lines_j=-(-l // 2))
    mismatches = []
    for snr_db in (0, 20, 40):
        power = 10.0 ** (snr_db / 10)
        for t in range(CHANNELS):
            h = sample_channel(SEED, t, l)
            base = outcome(h, power, cfg)
            for k in (-3, 5):
                if outcome(2.0 ** k * h, power / 4.0 ** k, cfg) != base:
                    mismatches.append((snr_db, t, k))
    assert mismatches == []
