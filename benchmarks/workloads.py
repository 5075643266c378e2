"""The benchmark workloads and the seeds they draw their inputs from.

Every workload cycles through a fixed pool of inputs, in whole passes, for
as long as a run measures; the seed copy runs the same inputs beside the
program. A sweep's inputs are ``ifrx simulate`` invocations with ``pool``
distinct master seeds; within one invocation every channel is distinct.

``highsnr_l4`` is not in ``BENCHMARK.json``: the seed code fails about a
quarter of its trials, and a listed workload must run without failures.
It stays here, runnable by name, as the measure of those failures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

METHODS_ALL = ("if-sdm", "if-exhaustive", "mmse", "zf", "capacity")


@dataclass(frozen=True)
class Sweep:
    """Repeated ``ifrx simulate`` invocations through ``ifrx.cli.main``."""

    name: str
    flags: tuple[str, ...]  # simulate flags other than --trials, --seed and --out
    trials: int  # --trials of one invocation
    cells: int  # (sweep value, SNR point) pairs, each one trial per trial index
    pool: int  # distinct invocations, cycled

    @property
    def trials_per_invocation(self) -> int:
        return self.trials * self.cells

    @property
    def inputs(self) -> int:
        return self.pool

    def argv(self, master_seed: int, trials: int, out: str) -> list[str]:
        return ["simulate", *self.flags, "--trials", str(trials),
                "--seed", str(master_seed), "--out", out]


@dataclass(frozen=True)
class TrialLoop:
    """``run_trial`` called one trial at a time, every SNR point of a trial
    index in turn, cycling through trial indices ``0 .. pool - 1``."""

    name: str
    l: int
    bound: int
    lines: int
    snr_db: tuple[float, ...]
    methods: tuple[str, ...]
    prime: int
    pool: int  # trial indices, cycled

    @property
    def inputs(self) -> int:
        """(trial index, SNR point) pairs, each one ``run_trial`` call."""
        return self.pool * len(self.snr_db)


_L8 = ("--l", "8", "--prime", "257")

WORKLOADS = {
    w.name: w for w in (
        Sweep("sdm_snr_l8", (*_L8, "--snr-db", "0:10:30", "--bound", "2", "--lines", "4",
                             "--methods", "if-sdm,mmse,zf,capacity"),
              trials=1, cells=4, pool=48),
        Sweep("jsweep_l8", (*_L8, "--snr-db", "20", "--methods", "if-sdm",
                            "--sweep", "lines", "--sweep-values", "1:1:7"),
              trials=1, cells=7, pool=24),
        Sweep("oracle_l8", (*_L8, "--snr-db", "20", "--bound", "2", "--lines", "4",
                            "--methods", ",".join(METHODS_ALL)),
              trials=1, cells=1, pool=24),
        TrialLoop("highsnr_l4", l=4, bound=2, lines=3, snr_db=(60.0, 80.0, 100.0),
                  methods=METHODS_ALL, prime=257, pool=100),
    )
}


def derive_seed(workload: str, seed: int | str, index: int) -> int:
    """63-bit master seed for one input of a workload under a benchmark seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
