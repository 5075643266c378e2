"""The benchmark traces the program by wrapping module attributes that
callers look up at call time. A binding that no longer exists silently
turns its metrics into ``absent``, so every wrapped binding must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

import ifrx

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
