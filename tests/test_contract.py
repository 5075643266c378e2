"""Seeded contract check of the library surface on extreme channels.

Every call on a ``ChannelRealization`` returns finite values or raises an
``IfrxError``. The channels are drawn with stdlib ``random`` from fixed
seeds: ``h`` at scales 1e-300 to 1e300, full rank, rank-deficient, zero,
or with one column scaled by 1e-200, and P from 1e-10 to 1e308. No input
is filtered out, and pyproject's ``filterwarnings = ["error"]`` fails the
test on any warning that escapes.
"""

import math
import random

import numpy as np

from ifrx.channel import ChannelRealization, capacity
from ifrx.errors import IfrxError
from ifrx.harness import METHODS, ExperimentConfig, run_trial
from ifrx.ifcore import mmse_rates, zf_rates
from ifrx.sdm import SearchConfig
from ifrx.select import design_if

CHANNELS = 800
SHAPES = ("full", "rank-deficient", "zero", "thin column")


def draw_channel(rng: random.Random):
    """An (h, P) pair of one of SHAPES, L in 2..4."""
    l = rng.randint(2, 4)
    shape = rng.choice(SHAPES)
    scale = 10.0 ** rng.uniform(-300.0, 300.0)
    h = np.array([[rng.gauss(0.0, 1.0) for _ in range(l)] for _ in range(l)])
    if shape == "rank-deficient":
        h[-1] = rng.uniform(-2.0, 2.0) * h[0]
    elif shape == "zero":
        h[:] = 0.0
    elif shape == "thin column":
        h[:, rng.randrange(l)] *= 1e-200
    return scale * h, 10.0 ** rng.uniform(-10.0, 308.0)


def values(result):
    """The floats a call returns: a rate report's, a design's, a record list's."""
    if isinstance(result, float):
        return [result]
    if isinstance(result, list):
        return [v for rec in result for v in (rec.rate_min, rec.rate_sum)]
    report = getattr(result, "report", result)
    return [*report.per_stream, report.total, report.sum_form]


def calls(l):
    """Each contract call, by name, on a realization of size ``l``."""
    cfg = SearchConfig(bound_m=1, lines_j=l - 1)
    trial = ExperimentConfig(l=l, snr_db_grid=(0.0,), trials=1, bound_m=1, lines_j=l - 1,
                             master_seed=1, methods=METHODS)
    return {
        "design_if sdm": lambda ch: design_if(ch, cfg, "sdm"),
        "design_if exhaustive": lambda ch: design_if(ch, cfg, "exhaustive"),
        "mmse_rates": mmse_rates,
        "zf_rates": zf_rates,
        "capacity": capacity,
        "run_trial": lambda ch: run_trial(trial, 0.0, 0, {0.0: ch}),
    }


def test_every_call_on_an_extreme_channel_is_finite_or_a_typed_error():
    rng = random.Random(20260)
    broken, raised, finite = [], 0, 0
    for k in range(CHANNELS):
        h, power = draw_channel(rng)
        for name, call in calls(len(h)).items():
            try:
                # a fresh realization, so no call reads what another one kept
                got = values(call(ChannelRealization(h=h, power=power)))
            except IfrxError:
                raised += 1
                continue
            if all(math.isfinite(v) for v in got):
                finite += 1
            else:
                broken.append((k, name, power, got))
    assert broken == []
    # both outcomes occur
    assert raised > 100 and finite > 100
