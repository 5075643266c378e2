"""Seeded contract checks of the library surface on extreme channels and
of the command line on extreme argv lists.

Every call on a ``ChannelRealization`` returns finite values or raises an
``IfrxError``. The channels are drawn with stdlib ``random`` from fixed
seeds: ``h`` at scales 1e-300 to 1e300, full rank, rank-deficient, zero,
or with one column scaled by 1e-200, and P from 1e-10 to 1e308. No input
is filtered out, and pyproject's ``filterwarnings = ["error"]`` fails the
test on any warning that escapes.

``cli.main`` on a ``simulate`` or ``design`` argv list whose flags are
drawn from valid, bad, huge, non-finite and empty values returns 0, 1 or
2, and no exception or warning escapes it; a ``simulate`` that returns 0
writes no ``inf`` or ``nan``. A huge value is one the program refuses or
finishes at once: an ``--l`` past the channel limit, say, not a
``--trials`` it would honour for hours.

Every library entry point that reads an array or a list of rates, given
each malformed input of a fixed table (lists, arrays of the wrong rank,
empty matrices, ragged rows, and ``None``, NaN, string and complex
entries), returns finite values or raises an ``IfrxError``.
"""

import math
import random
import re
import warnings
from collections import Counter

import numpy as np

from ifrx import cli
from ifrx.channel import ChannelRealization, capacity
from ifrx.errors import IfrxError
from ifrx.harness import METHODS, ExperimentConfig, run_trial
from ifrx.ifcore import QForm, RateReport, mmse_rates, zf_rates
from ifrx.linalg import det, solve_inverse, sym_eigen
from ifrx.sdm import SearchConfig, line_candidates
from ifrx.select import design_if, greedy_full_rank

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


ARGV_LISTS = 400
HUGE = "9" * 25
NON_FINITE_CELL = re.compile(r"(^|,)-?(inf|nan)(,|$)", re.MULTILINE)
# flag -> (values valid together, values to perturb it with: bad, huge,
# non-finite, empty, or valid only with some other flags)
SIMULATE_FLAGS = {
    "--l": (["3", "4"], ["", "0", "1", "2", "-2", "2.5", "abc", "nan", "1e3", "1025", HUGE]),
    "--snr-db": (["0", "10,20", "0:10:20", "-10,30"],
                 ["", ",", "nan", "inf", "-inf", "0,nan", "1e400", "-1e308", "3080", "-3100",
                  "0:0:1", "1:1:0", "0:1", "a:b:c", "0:1e-300:1", "0:1:inf", "1" + "0" * 400]),
    "--trials": (["1", "2"], ["", "0", "-1", "1.5", "abc", "nan", "1e30"]),
    "--bound": (["1", "2", "3"], ["", "0", "-1", "2.0", "abc", "1000000", HUGE]),
    "--lines": (["1", "2"], ["", "0", "-1", "3", "4", "99", "1.0", HUGE]),
    "--seed": (["1", "7", str(2**64 - 1)], ["", "-1", str(2**64), HUGE, "1.5", "abc"]),
    "--methods": (["if-sdm", "mmse,zf", "capacity", "if-sdm,if-exhaustive,mmse,zf,capacity"],
                  ["", ",", "ml", "mmse,mmse", "if-sdm,,zf", "nan"]),
    "--sweep": (["snr", "lines", "bound"], ["", "power", "nan"]),
    "--sweep-values": (["1,2", "1:1:2"], ["", ",", "nan", "inf", "0", "-1", "1.5", "0,10", "1:1:3",
                                          HUGE, "1:1:" + HUGE, "1e400"]),
    "--prime": (["0", "2", "257"], ["", "-1", "1", "15", "257.0", "abc", HUGE, str(2**64 + 13)]),
}
DESIGN_FLAGS = {
    "--power": (["1", "100", "1e6"],
                ["", "0", "-1", "abc", "nan", "inf", "1e-308", "5e-324", "1e308", "1e400"]),
    "--bound": (["1", "2", "3"], ["", "0", "-1", "2.0", "1000000", HUGE]),
    "--lines": (["1", "2"], ["", "0", "-1", "3", "99", HUGE]),
    "--method": (["sdm", "exhaustive"], ["", "foo"]),
}
CHANNELS_TEXT = {
    "good2": "0.9 0.3\n-0.2 1.1\n",
    "good3": "1 2 0\n0 1 3\n2 0 1\n",
    "empty": "",
    "words": "a b\nc d\n",
    "nan": "nan 1\n1 1\n",
    "huge": "1e300 0\n0 1\n",
    "ragged": "1 2\n3\n",
    "one": "5\n",
    "zero": "0 0\n0 0\n",
}


def draw_argv(rng: random.Random, tmp_path) -> list[str]:
    """A ``simulate`` or ``design`` argv list with zero to three flags
    perturbed: given a value to perturb it with, or left out."""
    command = rng.choice(("simulate", "design"))
    if command == "simulate":
        flags = dict(SIMULATE_FLAGS, **{"--out": ([str(tmp_path / "out.csv")],
                                                  ["", str(tmp_path), str(tmp_path / "no" / "o.csv")])})
    else:
        channels = [str(tmp_path / f"{name}.txt") for name in CHANNELS_TEXT]
        flags = dict(DESIGN_FLAGS, **{"--channel": (channels[:2], channels[2:]
                                                    + [str(tmp_path / "missing.txt")])})
    perturbed = set(rng.sample(sorted(flags), rng.choice((0, 1, 1, 2, 3))))
    argv = [command]
    for flag, (valid, bad) in flags.items():
        if flag not in perturbed:
            argv.append(f"{flag}={rng.choice(valid)}")
        elif flag == "--trials" or rng.random() < 0.8:
            # joined, so a value such as -1e308 reaches the flag; --trials
            # is never left out, as its default of 1000 runs for seconds
            argv.append(f"{flag}={rng.choice(bad)}")
    return argv


def test_every_cli_argv_list_exits_0_1_or_2_and_writes_finite_rates(tmp_path, capsys):
    for name, text in CHANNELS_TEXT.items():
        (tmp_path / f"{name}.txt").write_text(text)
    out = tmp_path / "out.csv"
    rng = random.Random(20261)
    broken, codes = [], {}
    for _ in range(ARGV_LISTS):
        argv = draw_argv(rng, tmp_path)
        out.unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except Exception as exc:  # any escape breaks the contract
                code = repr(exc)
        if caught:
            broken.append((argv, [str(w.message) for w in caught]))
        if code not in (0, 1, 2):
            broken.append((argv, code))
        elif code == 0 and argv[0] == "simulate" and NON_FINITE_CELL.search(out.read_text()):
            broken.append((argv, out.read_text()))
        codes[argv[0], code] = codes.get((argv[0], code), 0) + 1
        capsys.readouterr()
    assert broken == []
    # both commands both succeed and fail
    assert all(codes.get(key, 0) > 20 for key in (("simulate", 0), ("simulate", 1),
                                                  ("design", 0), ("design", 1))), codes


BAD_ENTRIES = {"None": None, "NaN": math.nan, "string": "1", "complex": 1j}
MALFORMED = {
    "list": [[2, 1], [1, 2]],
    "1-D": np.array([2, 1]),
    "3-D": np.array([[[2, 1], [1, 2]]]),
    "(0, 0)": np.zeros((0, 0), dtype=np.int64),
    "(1, 0, 0)": np.zeros((1, 0, 0), dtype=np.int64),
    "ragged": [[2, 1], [1]],
    **{f"{name} in a list": [bad, 1] for name, bad in BAD_ENTRIES.items()},
    **{f"{name} in an object array": np.array([[bad, 1], [1, 2]], dtype=object)
       for name, bad in BAD_ENTRIES.items()},
    "NaN array": np.array([[math.nan, 1.0], [1.0, 2.0]]),
    "string array": np.array([["2", "1"], ["1", "2"]]),
    "complex array": np.array([[2j, 1], [1, 2]]),
}
ENTRY_POINTS = {
    "ChannelRealization": lambda x: ChannelRealization(h=x, power=1.0),
    "QForm": lambda x: QForm(q=x),
    "sym_eigen": sym_eigen,
    "solve_inverse": solve_inverse,
    "det": det,
    "line_candidates g1": lambda x: line_candidates(x, [[0.6, 0.8], [0.8, -0.6]], 2),
    "line_candidates gi": lambda x: line_candidates([0.3, 0.1], x, 2),
    "greedy_full_rank": lambda x: greedy_full_rank(x, np.arange(len(x))),
}


def numbers(result):
    """Every number a call returns; an error listed in place of a slice is
    raised."""
    if isinstance(result, IfrxError):
        raise result
    if isinstance(result, (list, tuple)):
        return [v for part in result for v in numbers(part)]
    if isinstance(result, ChannelRealization):
        return numbers(result.h)
    if isinstance(result, QForm):
        return numbers(result.q)
    if isinstance(result, RateReport):
        return [*result.per_stream, result.total]
    if result is None:  # greedy's rows that cannot reach full rank
        return []
    return np.asarray(result, dtype=float).ravel().tolist()


def test_every_entry_point_on_malformed_input_is_finite_or_a_typed_error():
    broken, outcomes = [], Counter()
    for entry, call in ENTRY_POINTS.items():
        for name, x in MALFORMED.items():
            try:
                got = numbers(call(x))
            except IfrxError:
                outcomes["raised"] += 1
                continue
            except Exception as exc:  # any other escape breaks the contract
                broken.append((entry, name, repr(exc)))
                continue
            if all(math.isfinite(v) for v in got):
                outcomes["finite"] += 1
            else:
                broken.append((entry, name, got))
    assert broken == []
    # the well-formed rows of the table (a list matrix, a vector, a stack) go through
    assert outcomes["finite"] >= 8 and outcomes["raised"] > 100, outcomes
