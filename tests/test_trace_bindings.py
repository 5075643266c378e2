"""The benchmark traces the program by wrapping module attributes that
callers look up at call time. A binding that no longer exists silently
turns its metrics into ``absent``, so every wrapped binding must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

import ifrx
from ifrx.harness import ExperimentConfig, run_sweep

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", BENCHMARKS / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(monkeypatch):
    src = Path(ifrx.__file__).resolve().parent
    missing = []
    for module_name, attr, _ in load_spans(monkeypatch).WRAPS:
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().parent == src
        if not callable(getattr(module, attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_every_round_trip_is_traced_through_the_harness_bindings(monkeypatch):
    spans_module = load_spans(monkeypatch)
    recorder = spans_module.Recorder(lambda: 0)
    installed = spans_module.Installed(recorder)
    try:
        cfg = ExperimentConfig(l=4, snr_db_grid=(10.0, 20.0), trials=2, bound_m=1, lines_j=1,
                               master_seed=5, methods=("if-sdm", "if-exhaustive", "mmse"))
        run_sweep(cfg, "lines_j", [1, 2, 3])
    finally:
        installed.remove()
    spans = recorder.spans
    assert installed.absent == []

    def called_from_a_trial(name):
        return sum(1 for s in spans if s.name == name and spans[s.parent].name == "harness.run_trial")

    designs = called_from_a_trial("select.design_if")
    assert designs == 2 * 3 * 2 * 2
    # the mod-p flag is det A mod p from greedy's echelon: no F_p elimination
    # runs and no messages are combined, in a trial or anywhere else
    assert called_from_a_trial("fieldrec.recover_messages") == 0
    assert called_from_a_trial("fieldrec.combine_messages") == 0
    assert sum(s.name.startswith("fieldrec.") for s in spans) == 0
