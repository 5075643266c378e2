"""Span recording around the calls into each ifrx layer, from outside the program.

Each traced function is wrapped at its call-site binding (the module
attribute the caller looks up at call time), so nothing under ``src/``
changes. A span holds its name, start and end (``perf_counter_ns``), the
index of its parent span, the trial it belongs to, the name of the
exception it raised, and a small value probed from its result. Spans are
kept in memory and written out once, after the traced phase.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from dataclasses import dataclass

LAYERS = ("channel", "linalg", "ifcore", "sdm", "select", "fieldrec", "harness", "cli")

# (binding module, attribute, span name). The span name is fixed here, not
# derived from the function, so a metric keeps its name if the function moves.
WRAPS = (
    ("ifrx.harness", "sample_channel", "channel.sample_channel"),
    ("ifrx.harness", "capacity", "channel.capacity"),
    ("ifrx.channel", "det", "linalg.det"),
    ("ifrx.sdm", "sym_eigen", "linalg.sym_eigen"),
    ("ifrx.ifcore", "solve_inverse", "linalg.solve_inverse"),
    ("ifrx.select", "int_rank_independent", "linalg.int_rank_independent"),
    ("ifrx.select", "compute_q", "ifcore.compute_q"),
    ("ifrx.ifcore", "compute_q", "ifcore.compute_q"),
    ("ifrx.select", "optimal_projection", "ifcore.optimal_projection"),
    ("ifrx.harness", "mmse_rates", "ifcore.mmse_rates"),
    ("ifrx.harness", "zf_rates", "ifcore.zf_rates"),
    ("ifrx.select", "candidate_set", "sdm.candidate_set"),
    ("ifrx.sdm", "line_candidates", "sdm.line_candidates"),
    ("ifrx.harness", "design_if", "select.design_if"),
    ("ifrx.select", "greedy_full_rank", "select.greedy_full_rank"),
    ("ifrx.harness", "recover_messages", "fieldrec.recover_messages"),
    ("ifrx.harness", "combine_messages", "fieldrec.combine_messages"),
    ("ifrx.fieldrec", "combine_messages", "fieldrec.combine_messages"),
    ("ifrx.harness", "run_trial", "harness.run_trial"),
    ("ifrx.cli", "run_sweep", "harness.run_sweep"),
    ("ifrx.cli", "write_csv", "harness.write_csv"),
    ("ifrx.cli", "main", "cli.main"),
)

TRIAL_SPAN = "harness.run_trial"


def _omega_size(result):
    return len(getattr(result, "vectors", result))


# Result probes turn a call's return value into the number a counter needs.
PROBES = {
    "sdm.candidate_set": _omega_size,
    "linalg.int_rank_independent": bool,
    "select.greedy_full_rank": lambda rows: rows is None,
}


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into the span list, -1 for a root
    trial: int  # index of the enclosing run_trial span, -1 outside one
    error: str = ""
    value: object = None


class Recorder:
    """In-memory span store with the open-span stack of one thread."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            if name == TRIAL_SPAN:
                trial = idx
            else:
                trial = self.spans[parent].trial if parent >= 0 else -1
            span = Span(name, self.clock(), 0, parent, trial)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if probe is not None:
                span.value = probe(result)
            return result

        return traced


class Installed:
    """Wrappers placed on module bindings; ``absent`` names the span
    names none of whose bindings exist any more."""

    def __init__(self, recorder: Recorder, wraps=WRAPS):
        self._saved = []
        found: dict[str, bool] = {}
        for module_name, attr, span_name in wraps:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            present = module is not None and hasattr(module, attr)
            found[span_name] = found.get(span_name, False) or present
            if present:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, recorder.wrap(span_name, original))
        self.absent = sorted(name for name, ok in found.items() if not ok)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its child spans cover. Spans of
    one thread nest strictly, so children never overlap."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


# Span names whose per-call median self time is reported as
# <name>.self_ms_p50, and those whose calls per trial are reported.
MEDIAN_SELF = (
    "linalg.sym_eigen", "linalg.solve_inverse", "linalg.det", "linalg.int_rank_independent",
    "ifcore.compute_q", "ifcore.optimal_projection", "ifcore.mmse_rates", "ifcore.zf_rates",
    "sdm.candidate_set", "sdm.line_candidates", "select.design_if", "select.greedy_full_rank",
    "fieldrec.recover_messages", "fieldrec.combine_messages", "channel.sample_channel",
    "channel.capacity", "harness.run_trial",
)
CALLS_PER_TRIAL = (
    "linalg.sym_eigen", "linalg.solve_inverse", "linalg.int_rank_independent",
    "ifcore.compute_q", "sdm.line_candidates", "channel.sample_channel",
)


def layer_metrics(spans: list[Span], trials: int, passes: int, absent) -> dict[str, float]:
    """Per-layer metrics of a traced phase of ``trials`` trials made in
    ``passes`` identical passes over the same inputs. Counts are per pass.
    Metrics of a span name in ``absent`` are left out; a median or ratio
    over zero calls reads 0."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def median_ms(name):
        own = [selfs[i] for i in by_name.get(name, ())]
        return statistics.median(own) / 1e6 if own else 0.0

    def values(name):
        # spans that raised carry no probed value
        return [spans[i].value for i in by_name.get(name, ()) if spans[i].value is not None]

    def errors(name, kind=None):
        return sum(1 for i in by_name.get(name, ())
                   if spans[i].error and kind in (None, spans[i].error))

    def ratio(a, b):
        return a / b if b else 0.0

    wall = sum(s.end - s.start for s in spans if s.parent < 0)
    rank_tests = values("linalg.int_rank_independent")
    greedy_failed = values("select.greedy_full_rank")
    omega = values("sdm.candidate_set")

    # metric name -> (span name it needs, value)
    table = {f"{n}.self_ms_p50": (n, lambda n=n: median_ms(n)) for n in MEDIAN_SELF}
    table.update({f"{n}.calls_per_trial": (n, lambda n=n: len(by_name.get(n, ())) / trials)
                  for n in CALLS_PER_TRIAL})
    table.update({
        "linalg.sym_eigen.errors": ("linalg.sym_eigen",
                                    lambda: errors("linalg.sym_eigen") / passes),
        "sdm.omega_size_mean": ("sdm.candidate_set", lambda: ratio(sum(omega), len(omega))),
        "select.greedy.rank_tests_per_design": (
            "select.greedy_full_rank",
            lambda: ratio(len(rank_tests), len(by_name.get("select.greedy_full_rank", ())))),
        "select.greedy.accept_ratio": ("linalg.int_rank_independent",
                                       lambda: ratio(sum(rank_tests), len(rank_tests))),
        "select.fallbacks": ("select.greedy_full_rank", lambda: sum(greedy_failed) / passes),
        "fieldrec.modp_singular": ("fieldrec.recover_messages", lambda: errors(
            "fieldrec.recover_messages", "NotInvertibleModPError") / passes),
        "harness.run_sweep.self_share": ("harness.run_sweep", lambda: ratio(
            sum(selfs[i] for i in by_name.get("harness.run_sweep", ())), wall)),
        "harness.write_csv.self_ms": ("harness.write_csv", lambda: median_ms("harness.write_csv")),
        "cli.main.self_ms": ("cli.main", lambda: median_ms("cli.main")),
    })
    absent = set(absent)
    out = {name: fn() for name, (needs, fn) in table.items() if needs not in absent}
    for layer in LAYERS:
        own = sum(t for s, t in zip(spans, selfs) if s.name.split(".", 1)[0] == layer)
        out[f"{layer}.self_share"] = ratio(own, wall)
    return out


def write_spans(spans: list[Span], path) -> None:
    """One CSV line per span, in start order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_ns,end_ns,parent,trial,error,value\n")
        for i, s in enumerate(spans):
            value = "" if s.value is None else int(s.value)
            fh.write(f"{i},{s.name},{s.start},{s.end},{s.parent},{s.trial},{s.error},{value}\n")
