"""Byte pins: small ``ifrx simulate`` runs, regenerated and compared with
the CSVs committed under ``tests/data``, and one ``ifrx plot`` of such a
CSV, compared with its committed SVG. A change that moves any rate,
success count, formatting or chart byte of these runs fails here.

To regenerate the pins after a deliberate output change, run
``python tests/test_golden.py`` from the repository root with ``src`` on
the path.
"""

import builtins
import math
import sys
from pathlib import Path

import pytest

from ifrx.cli import main
from ifrx.ifcore import left_sum

DATA = Path(__file__).resolve().parent / "data"

_L8_SNR = ("--l", "8", "--prime", "257", "--snr-db", "0:10:30", "--bound", "2", "--lines", "4",
           "--methods", "if-sdm,mmse,zf,capacity")
_L5 = ("--l", "5", "--snr-db", "0,15,30", "--bound", "2", "--lines", "3",
       "--methods", "if-sdm,if-exhaustive,mmse,zf,capacity")

# pin name -> simulate flags other than --out
PINS = {
    # the benchmark's main SNR sweep flags
    "sdm_snr_l8": (*_L8_SNR, "--trials", "4", "--seed", "11"),
    "lines_l5_exhaustive": ("--l", "5", "--snr-db", "10,25", "--bound", "2",
                            "--methods", "if-sdm,if-exhaustive,mmse",
                            "--sweep", "lines", "--sweep-values", "1:1:4",
                            "--trials", "4", "--seed", "12"),
    "bound_l4_exhaustive": ("--l", "4", "--snr-db", "5,20", "--lines", "2",
                            "--methods", "if-sdm,if-exhaustive,zf,capacity",
                            "--sweep", "bound", "--sweep-values", "1:1:3",
                            "--trials", "4", "--seed", "13"),
    # L * L odd: the last Box-Muller pair reads one counter word past the
    # entries and drops its sine
    "snr_l5_prime257": (*_L5, "--trials", "5", "--seed", "14", "--prime", "257"),
    "snr_l5_prime0": (*_L5, "--trials", "5", "--seed", "14", "--prime", "0"),
    # the benchmark's lines sweep flags
    "jsweep_l8": ("--l", "8", "--prime", "257", "--snr-db", "20", "--methods", "if-sdm",
                  "--sweep", "lines", "--sweep-values", "1:1:7", "--trials", "3", "--seed", "15"),
    # the benchmark's oracle flags: L = 8, 20 dB, all five methods
    "oracle_l8": ("--l", "8", "--prime", "257", "--snr-db", "20", "--bound", "2", "--lines", "4",
                  "--methods", "if-sdm,if-exhaustive,mmse,zf,capacity",
                  "--trials", "3", "--seed", "16"),
}


# the plot pin's flags; its title needs escaping in SVG text
PLOT_FLAGS = ("--x", "snr_db", "--y", "avg_rate_min", "--series", "method",
              "--title", "avg rate_min <L = 8> & M = 2")


def simulate(name, out) -> None:
    assert main(["simulate", *PINS[name], "--out", str(out)]) == 0


def plot(out) -> None:
    assert main(["plot", "--in", str(DATA / "sdm_snr_l8.csv"), "--out", str(out), *PLOT_FLAGS]) == 0


@pytest.mark.parametrize("name", sorted(PINS))
def test_simulate_matches_its_committed_bytes(tmp_path, capsys, name):
    out = tmp_path / f"{name}.csv"
    simulate(name, out)
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


def test_plot_matches_its_committed_bytes(tmp_path, capsys):
    out = tmp_path / "sdm_snr_l8.svg"
    plot(out)
    assert out.read_bytes() == (DATA / "sdm_snr_l8.svg").read_bytes()


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 computes it: a run of exact floats, after an
    int or float start, is added with Neumaier's compensation, which is
    added back at the end; anything else is added as 3.11 adds it."""
    result, comp, compensating = start, 0.0, False
    for x in iterable:
        if type(x) is float and (compensating or type(result) in (int, float)):
            if not compensating:
                result, compensating = float(result), True
            t = result + x
            comp += (result - t) + x if abs(result) >= abs(x) else (x - t) + result
            result = t
        elif compensating and type(x) is int:
            result += float(x)
        else:
            if compensating and comp and math.isfinite(comp):
                result += comp
            result, comp, compensating = result + x, 0.0, False
    if compensating and comp and math.isfinite(comp):
        result += comp
    return result


def test_a_pin_holds_under_a_compensated_sum(tmp_path, capsys, monkeypatch):
    # the emulation is not a left-to-right total
    assert compensated_sum([0.1] * 10) == 1.0 != left_sum([0.1] * 10)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    test_simulate_matches_its_committed_bytes(tmp_path, capsys, "sdm_snr_l8")


if __name__ == "__main__":
    for pin in sorted(PINS):
        simulate(pin, DATA / f"{pin}.csv")
    plot(DATA / "sdm_snr_l8.svg")
    sys.exit(0)
