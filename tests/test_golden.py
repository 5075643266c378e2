"""Byte pins: small ``ifrx simulate`` runs, regenerated and compared with
the CSVs committed under ``tests/data``. A change that moves any rate,
success count or formatting byte of these runs fails here.

To regenerate the pins after a deliberate output change, run
``python tests/test_golden.py`` from the repository root with ``src`` on
the path.
"""

import sys
from pathlib import Path

import pytest

from ifrx.cli import main

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
    # L * L odd: the channel takes one stream word more than it uses
    "snr_l5_prime257": (*_L5, "--trials", "5", "--seed", "14", "--prime", "257"),
    "snr_l5_prime0": (*_L5, "--trials", "5", "--seed", "14", "--prime", "0"),
}


def simulate(name, out) -> None:
    assert main(["simulate", *PINS[name], "--out", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(PINS))
def test_simulate_matches_its_committed_bytes(tmp_path, capsys, name):
    out = tmp_path / f"{name}.csv"
    simulate(name, out)
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    for pin in sorted(PINS):
        simulate(pin, DATA / f"{pin}.csv")
    sys.exit(0)
