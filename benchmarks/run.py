"""ifrx benchmark launcher.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the ifrx sources in ``src/`` of the checkout
holding this directory, checks every output, and prints one JSON result
as the last line of standard output. The program under test and the
frozen seed copy under ``seedref/`` run in two single-threaded processes
that take turns call by call, so the speed of one is measured against the
other under the same machine load. With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run. Lines before the result start with ``#`` and give the counts behind
the figures. Scratch files go to ``.bench_run/`` in the checkout. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import cells, mismatched_cells
from workloads import WORKLOADS, Sweep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Whole run, every process included, stays under this many seconds.
DEADLINE_S = 170.0
# Processes that only set up, besides the measured one; set-up time is the
# median over all of them. Half run before the measured process and half
# after it, so that they meet the machine in more than one state.
SETUP_PROBES = 8


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_cmd(role: str, args, package: str, outdir: Path) -> list[str]:
    # the spawn time goes last, taken just before the process starts
    return [sys.executable, str(HERE / "child.py"), role, args.workload, str(args.seed),
            package, str(outdir), str(time.monotonic_ns()), str(args.trace)]


def run_setup(args, outdir: Path, deadline: float) -> float:
    """Set-up seconds of one process that only imports and warms up."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for a set-up process")
    try:
        # subprocess.run kills and reaps the child on timeout
        proc = subprocess.run(child_cmd("setup", args, "src", outdir), stdout=subprocess.PIPE,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("set-up process exceeded the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"set-up process exited {proc.returncode}")
    return json.loads(lines[-1])["setup_s"]


class Server:
    """A ``child.py serve`` process, stepped one call at a time."""

    def __init__(self, args, package: str, outdir: Path):
        self.package = package
        self.proc = subprocess.Popen(child_cmd("serve", args, package, outdir), cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.package} process exited {self.proc.wait()}")
        return json.loads(line)

    def send(self, text: str) -> None:
        try:
            self.proc.stdin.write(text + "\n")
            self.proc.stdin.flush()
        except OSError:
            raise BenchError(f"{self.package} process exited {self.proc.wait()}") from None

    def call(self, k: int) -> int:
        self.send(str(k))
        return self.read()

    def finish(self) -> dict:
        self.send("end")
        return self.read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def drive(prog: Server, seed: Server, inputs: int, seconds: float, trace: bool) -> None:
    """Step both processes through whole passes over the inputs, at least
    one, until ``seconds`` have gone by. The two take turns call by call,
    and which goes first alternates. A traced run needs the seed copy's
    outputs only, so that copy runs one pass."""
    stop = time.monotonic() + seconds
    step = 0
    while step < inputs or step % inputs or time.monotonic() < stop:
        for server in ((prog, seed) if step % 2 == 0 else (seed, prog)):
            if server is prog or not trace or step < inputs:
                server.call(step % inputs)
        step += 1


def serve_both(args, w, outdir: Path, deadline: float) -> tuple[dict, dict, float]:
    """Run the program and the seed copy; returns their results and the
    program's set-up seconds."""
    servers: list[Server] = []
    timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                            lambda: [s.proc.kill() for s in servers])
    timer.start()
    try:
        servers.append(Server(args, "src", outdir))
        setup_s = servers[0].read()["setup_s"]
        servers.append(Server(args, "seed", outdir))
        servers[1].read()
        drive(*servers, w.inputs, args.seconds, bool(args.trace))
        got, ref = (s.finish() for s in servers)
    except BenchError:
        if time.monotonic() >= deadline:
            raise BenchError("the run exceeded its deadline") from None
        raise
    finally:
        timer.cancel()
        for s in servers:
            s.stop()
    return got, ref, setup_s


def tail(samples: list[float]) -> tuple[float, float]:
    """The p99 by nearest rank, or the highest percentile that leaves at
    least ten samples beyond it; returns (value, percentile used)."""
    xs = sorted(samples)
    n = len(xs)
    idx = min(math.ceil(0.99 * n) - 1, n - 11) if n > 10 else n - 1
    return xs[idx], 100.0 * (idx + 1) / n


def reference_texts(w: Sweep, ref: dict) -> list[str]:
    """The seed copy's aggregate CSV for each input."""
    texts: dict[int, str] = {}
    for k, _, _, (code, error, tid) in ref["calls"]:
        if code != 0 or error:
            raise BenchError(f"the seed copy failed on input {k}: {code} {error}")
        texts.setdefault(k, ref["texts"][tid])
    for k, text in texts.items():
        if len(cells(text)) != w.cells:
            raise BenchError(f"reference {k} covers {len(cells(text))} cells, expected {w.cells}")
    return [texts[k] for k in range(w.inputs)]


def score_sweep(w: Sweep, got: dict, want: list[str]) -> dict:
    per_text = {}
    failed = identical = 0
    timed = []
    per_call = w.trials_per_invocation
    for k, ns, traced, (code, error, tid) in got["calls"]:
        if (k, tid) not in per_text:
            text = got["texts"][tid]
            bad = mismatched_cells(text, want[k]) if code == 0 and not error else cells(want[k])
            per_text[k, tid] = (len(bad) * w.trials, text == want[k])
        bad_trials, same = per_text[k, tid]
        failed += bad_trials
        identical += same
        if not traced:
            timed.append((k, ns, per_call, per_call - bad_trials))
    n = len(got["calls"])
    return {"attempted": n * per_call, "failed": failed, "timed": timed, "correct": failed == 0,
            "note": f"csv_byte_identical={identical}/{n} invocations={n}"}


def score_trials(got: dict) -> dict:
    faults: dict[str, int] = {}
    timed = []
    checkable = True
    for k, ns, traced, reasons in got["calls"]:
        if not traced:
            timed.append((k, ns, 1, 0 if reasons else 1))
        for reason in reasons:
            kind = reason.split(" ", 1)[0]
            faults[kind] = faults.get(kind, 0) + 1
            checkable &= kind not in ("methods", "duplicate")
    failed = sum(1 for c in got["calls"] if c[3])
    return {"attempted": len(got["calls"]), "failed": failed, "timed": timed,
            "correct": checkable,
            "note": "faults=" + json.dumps(faults, sort_keys=True, separators=(",", ":"))}


def rate(calls: list[tuple[int, int, int, int]]) -> float:
    """Passing trials per wall second of the calls, each (input, wall ns,
    trials attempted, trials passed)."""
    return sum(c[3] for c in calls) / (sum(c[1] for c in calls) / 1e9)


def measure(args) -> dict:
    w = WORKLOADS[args.workload]
    outdir = ROOT / ".bench_run" / w.name
    outdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = [run_setup(args, outdir, deadline) for _ in range(probes)]
    got, ref, setup_s = serve_both(args, w, outdir, deadline)
    setups += [setup_s] + [run_setup(args, outdir, deadline) for _ in range(probes)]
    if isinstance(w, Sweep):
        score = score_sweep(w, got, reference_texts(w, ref))
        per_call = w.trials_per_invocation
    else:
        score = score_trials(got)
        per_call = 1

    attempted, failed = score["attempted"], score["failed"]
    if attempted < 1:
        raise BenchError("no trial was attempted")
    print(f"# {w.name} seed={args.seed} trace={args.trace} attempted={attempted} "
          f"failed={failed} failed_frac={failed / attempted:.6g} {score['note']}")
    timed = score["timed"]
    if args.trace:
        lat = [ns / 1e6 / n for _, ns, n, passed in timed if passed == n]
        if not lat:
            raise BenchError("no call passed its checks")
        p99, pct = tail(lat)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in got["layer"].items()}
        metrics.update({
            "failed_frac": {"value": failed / attempted, "unit": "fraction"},
            "trials_per_s": {"value": rate(timed), "unit": "1/s"},
            "trial_ms_p50": {"value": statistics.median(lat), "unit": "ms"},
            "trial_ms_p99": {"value": p99, "unit": "ms"},
        })
        print(f"# traced passes={got['passes']} absent={','.join(got['absent']) or 'none'}; "
              f"trials_per_s and trial_ms_* are over the {len(timed)} untraced calls, "
              f"trial_ms_p99 is p{pct:.1f} of {len(lat)}; spans={outdir / 'src' / 'spans.csv'}")
    else:
        seed_rate = rate([(k, ns, per_call, per_call) for k, ns, _, _ in ref["calls"]])
        print(f"# trials_per_s={rate(timed):.6g} seed copy {seed_rate:.6g} over "
              f"{len(timed)} calls each; setup_s is the median of {len(setups)} processes")
        metrics = {
            "speedup_vs_seed": {"value": rate(timed) / seed_rate, "unit": "x"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": got["rss_mb"], "unit": "MB"},
        }
    return {"correct": score["correct"], "attempted": attempted, "failed": failed,
            "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith(("_ms_p50", ".self_ms")):
        return "ms"
    if name.endswith(("self_share", "_frac", "accept_ratio")):
        return "fraction"
    if name.endswith("calls_per_trial"):
        return "calls/trial"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ifrx" / "__init__.py").is_file():
        print(f"error: no ifrx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one thread per process: the figures measure the program, not the scheduler
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    os.environ.pop("PYTHONPATH", None)
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
