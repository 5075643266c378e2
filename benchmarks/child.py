"""One benchmark process: imports a copy of ifrx, warms up, then runs the
calls the launcher asks for.

    python3 child.py setup WORKLOAD SEED PACKAGE OUTDIR SPAWN_NS
    python3 child.py serve WORKLOAD SEED PACKAGE OUTDIR SPAWN_NS TRACE

PACKAGE is ``src``, the program under test in the checkout, or ``seed``,
the frozen copy of the seed package under ``seedref/``. SPAWN_NS is the
launcher's ``time.monotonic_ns()`` just before it started this process;
on Linux that clock is shared by all processes, so set-up time counts
interpreter start.

``setup`` imports and warms up, prints ``{"setup_s": ...}`` and exits.
``serve`` prints the same line once it is ready, then reads standard
input one line at a time. A number ``k`` runs the workload's ``k``-th
input and answers with that call's wall nanoseconds. ``end`` makes it
print its result as one JSON line and exit. With TRACE 1 each input runs
twice, once traced and once untraced, in alternating order, and the
answer is the untraced time; pairing call by call keeps bursts of machine
load out of the tracing overhead. The process runs single-threaded: the
launcher pins the BLAS thread pools.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from checks import trial_faults
from spans import Installed, Recorder, layer_metrics, write_spans
from workloads import WORKLOADS, Sweep, derive_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGES = {"src": ROOT / "src", "seed": HERE / "seedref"}


def import_ifrx(package_parent: Path):
    """Import ifrx from ``package_parent`` and nowhere else."""
    sys.path.insert(0, str(package_parent))
    import ifrx.cli
    import ifrx.harness

    origin = Path(ifrx.__file__).resolve().parent
    if origin != package_parent / "ifrx":
        raise SystemExit(f"ifrx imported from {origin}, expected {package_parent / 'ifrx'}")
    return ifrx


class SweepRunner:
    def __init__(self, ifrx, w: Sweep, seed: int, outdir: Path):
        self.cli = ifrx.cli
        self.w = w
        self.seeds = [derive_seed(w.name, seed, k) for k in range(w.pool)]
        self.outdir = outdir
        self.texts: dict[str, int] = {}

    def warm_up(self) -> None:
        out = str(self.outdir / "warmup.csv")
        self.cli.main(self.w.argv(derive_seed(self.w.name, "warmup", 0), 1, out))

    def run_unit(self, k: int) -> tuple[int, list]:
        """Wall ns of input ``k`` and [exit code, exception, text id]."""
        out = self.outdir / f"out_{k}.csv"
        with contextlib.suppress(FileNotFoundError):
            out.unlink()
        argv = self.w.argv(self.seeds[k], self.w.trials, str(out))
        start = time.perf_counter_ns()
        try:
            code, error = self.cli.main(argv), ""
        except Exception as exc:  # a crash fails this invocation's trials; keep measuring
            code, error = None, type(exc).__name__
        elapsed = time.perf_counter_ns() - start
        try:
            text = out.read_text(encoding="utf-8")
        except OSError:
            text = ""
        return elapsed, [code, error, self.texts.setdefault(text, len(self.texts))]

    def pass_trials(self) -> int:
        return self.w.pool * self.w.trials_per_invocation

    def result(self) -> dict:
        return {"texts": list(self.texts)}


class TrialRunner:
    def __init__(self, ifrx, w, seed: int):
        self.harness = ifrx.harness
        self.w = w
        self.cfg = self._config(derive_seed(w.name, seed, 0))

    def _config(self, master_seed: int):
        w = self.w
        return self.harness.ExperimentConfig(
            l=w.l, snr_db_grid=w.snr_db, trials=1, bound_m=w.bound, lines_j=w.lines,
            master_seed=master_seed, methods=w.methods, prime_p=w.prime)

    def warm_up(self) -> None:
        self.harness.run_trial(self._config(derive_seed(self.w.name, "warmup", 0)), 20.0, 0)

    def run_unit(self, k: int) -> tuple[int, list[str]]:
        """Wall ns of input ``k`` and the reasons its trial fails, if any.
        Input ``k`` is trial index ``k // len(snr_db)`` at SNR point
        ``k % len(snr_db)``."""
        index, snr = divmod(k, len(self.w.snr_db))
        start = time.perf_counter_ns()
        try:
            records = self.harness.run_trial(self.cfg, self.w.snr_db[snr], index)
        except Exception as exc:  # a raised error fails the trial; keep measuring
            elapsed = time.perf_counter_ns() - start
            return elapsed, [type(exc).__name__]
        elapsed = time.perf_counter_ns() - start
        return elapsed, trial_faults(records, self.w.methods)

    def pass_trials(self) -> int:
        return self.w.inputs

    def result(self) -> dict:
        return {}


def serve(runner, trace: bool, outdir: Path, reply) -> dict:
    """Answer the launcher's calls until it sends ``end``; returns the
    result: every call as [input, wall ns, traced, outcome], and with
    tracing the per-layer metrics."""
    recorder = Recorder(time.perf_counter_ns)
    calls: list[list] = []
    absent: list[str] = []
    steps = 0
    for line in iter(sys.stdin.readline, ""):
        if line.strip() == "end":
            break
        k = int(line)
        order = ((True, False) if steps % 2 else (False, True)) if trace else (False,)
        for traced in order:
            installed = Installed(recorder) if traced else None
            try:
                ns, outcome = runner.run_unit(k)
            finally:
                if installed is not None:
                    installed.remove()
                    absent = installed.absent
            calls.append([k, ns, traced, outcome])
            if not traced:
                plain_ns = ns
        steps += 1
        reply(plain_ns)
    out = runner.result()
    out["calls"] = calls
    if trace:
        # the launcher sends whole passes over the inputs
        passes = steps // runner.w.inputs
        write_spans(recorder.spans, outdir / "spans.csv")
        layer = layer_metrics(recorder.spans, runner.pass_trials() * passes, passes, absent)
        traced_ns = sum(c[1] for c in calls if c[2])
        layer["trace.overhead_frac"] = traced_ns / sum(c[1] for c in calls if not c[2]) - 1.0
        out.update(layer=layer, absent=absent, passes=passes)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv) -> int:
    role, name, seed, package, outdir, spawn_ns, *rest = argv
    w = WORKLOADS[name]
    seed, outdir = int(seed), Path(outdir) / package
    outdir.mkdir(parents=True, exist_ok=True)
    ifrx = import_ifrx(PACKAGES[package])
    runner = SweepRunner(ifrx, w, seed, outdir) if isinstance(w, Sweep) else TrialRunner(ifrx, w, seed)
    stdout = sys.stdout

    def reply(value) -> None:
        print(json.dumps(value), file=stdout, flush=True)

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        runner.warm_up()
        reply({"setup_s": (time.monotonic_ns() - int(spawn_ns)) / 1e9})
        if role == "serve":
            reply(serve(runner, rest == ["1"], outdir, reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
