"""Tests of the benchmark's own parts: output checks, span arithmetic and
the wrapping of traced functions.

    python3 -m pytest benchmarks/tests -q
"""

import math
import sys
import time
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checks import CHAIN_RTOL, cells, mismatched_cells, trial_faults  # noqa: E402
from run import drive, rate, tail  # noqa: E402
from spans import Installed, Recorder, Span, layer_metrics, self_times  # noqa: E402
from workloads import METHODS_ALL, derive_seed  # noqa: E402

HEADER = ("method,sweep_param,sweep_value,snr_db,avg_rate_min,avg_rate_sum,"
          "avg_rate_min_success_only,success_prob,trials,master_seed")
REFERENCE = "\n".join([
    HEADER,
    "if-sdm,snr,0.0,0.0,1.25,1.5,1.25,1.0,3,7",
    "if-sdm,snr,10.0,10.0,4.125,4.5,4.125,1.0,3,7",
    "mmse,snr,0.0,0.0,1.0,1.25,1.0,1.0,3,7",
    "mmse,snr,10.0,10.0,3.5,4.0,3.5,1.0,3,7",
]) + "\n"


def _records(**rates):
    base = {"zf": 1.0, "mmse": 2.0, "if-sdm": 2.5, "if-exhaustive": 3.0, "capacity": 4.0}
    base.update(rates)
    return [SimpleNamespace(method=m, rate_min=r, rate_sum=r) for m, r in base.items()]


def test_dominance_chain_holds_on_ordered_rates():
    assert trial_faults(_records(), METHODS_ALL) == []


@pytest.mark.parametrize("rates, fault", [
    ({"zf": 2.5}, "chain zf>mmse"),
    ({"mmse": 3.5}, "chain mmse>if-exhaustive"),
    ({"capacity": 2.9}, "chain if-exhaustive>capacity"),
    ({"if-sdm": 3.01}, "chain if-sdm>if-exhaustive"),
])
def test_planted_chain_violation_is_flagged(rates, fault):
    assert fault in trial_faults(_records(**rates), METHODS_ALL)


def test_chain_allows_rounding_within_tolerance():
    assert trial_faults(_records(**{"if-sdm": 3.0 + 0.5 * CHAIN_RTOL * 3.0}), METHODS_ALL) == []


def test_nonfinite_and_missing_records_are_flagged():
    assert trial_faults(_records(mmse=math.nan), METHODS_ALL) == ["nonfinite mmse"]
    assert trial_faults(_records()[:4], METHODS_ALL) == ["methods"]


def test_identical_csv_passes():
    assert mismatched_cells(REFERENCE, REFERENCE) == set()


def test_changed_csv_rate_is_flagged():
    got = REFERENCE.replace("mmse,snr,10.0,10.0,3.5,", "mmse,snr,10.0,10.0,3.5000035,")
    assert mismatched_cells(got, REFERENCE) == {("10.0", "10.0")}


def test_rate_change_within_tolerance_passes_but_is_not_byte_identical():
    got = REFERENCE.replace(",4.125,4.5,", ",4.125000000001,4.5,")
    assert got != REFERENCE
    assert mismatched_cells(got, REFERENCE) == set()


def test_changed_count_field_is_flagged():
    got = REFERENCE.replace("mmse,snr,0.0,0.0,1.0,1.25,1.0,1.0,3,7", "mmse,snr,0.0,0.0,1.0,1.25,1.0,1.0,2,7")
    assert mismatched_cells(got, REFERENCE) == {("0.0", "0.0")}


def test_missing_or_reordered_output_fails_every_cell():
    every = cells(REFERENCE)
    assert every == {("0.0", "0.0"), ("10.0", "10.0")}
    assert mismatched_cells("", REFERENCE) == every
    lines = REFERENCE.splitlines()
    swapped = "\n".join([lines[0], lines[2], lines[1], *lines[3:]]) + "\n"
    assert mismatched_cells(swapped, REFERENCE) == every


def _tree():
    # root [0,100] with children a [10,40] (child g [15,25]), b [50,60] and
    # c [62,77]
    return [
        Span("cli.main", 0, 100, -1, -1),
        Span("select.design_if", 10, 40, 0, -1),
        Span("linalg.sym_eigen", 15, 25, 1, -1),
        Span("linalg.det", 50, 60, 0, -1),
        Span("linalg.det", 62, 77, 0, -1),
    ]


def test_self_time_subtracts_the_time_of_child_spans():
    assert self_times(_tree()) == [100 - 30 - 10 - 15, 30 - 10, 10, 10, 15]


def test_layer_shares_add_up_to_the_traced_wall_time():
    m = layer_metrics(_tree(), trials=1, passes=1, absent=())
    assert m["cli.self_share"] == pytest.approx(0.45)
    assert m["select.self_share"] == pytest.approx(0.20)
    assert m["linalg.self_share"] == pytest.approx(0.35)
    assert m["linalg.det.self_ms_p50"] == pytest.approx(12.5e-6)
    assert m["linalg.sym_eigen.calls_per_trial"] == 1.0
    assert m["ifcore.zf_rates.self_ms_p50"] == 0.0  # never called


def test_recorder_nests_spans_and_records_errors():
    ticks = iter(range(100))
    rec = Recorder(lambda: next(ticks))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = rec.wrap("linalg.det", inner)
    outer_t = rec.wrap("harness.run_trial", lambda x: inner_t(x))
    assert outer_t(3) == 3
    with pytest.raises(ValueError):
        outer_t(-1)
    names = [(s.name, s.parent, s.trial, s.error) for s in rec.spans]
    assert names == [("harness.run_trial", -1, 0, ""),
                     ("linalg.det", 0, 0, ""),
                     ("harness.run_trial", -1, 2, "ValueError"),
                     ("linalg.det", 2, 2, "ValueError")]


def test_missing_wrapped_function_is_reported_absent(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.present = lambda: 7
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    original = fake.present
    wraps = (("fake_layer", "present", "linalg.det"),
             ("fake_layer", "gone", "linalg.sym_eigen"),
             ("no_such_module_here", "f", "sdm.candidate_set"))
    rec = Recorder(iter(range(100)).__next__)
    installed = Installed(rec, wraps)
    assert installed.absent == ["linalg.sym_eigen", "sdm.candidate_set"]
    assert fake.present() == 7
    installed.remove()
    assert fake.present is original
    m = layer_metrics(rec.spans, trials=1, passes=1, absent=installed.absent)
    assert "linalg.sym_eigen.self_ms_p50" not in m
    assert "linalg.sym_eigen.errors" not in m
    assert "sdm.omega_size_mean" not in m
    assert "linalg.det.self_ms_p50" in m


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    assert tail([float(i) for i in range(1000)]) == (989.0, 99.0)
    value, pct = tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)
    assert sum(1 for i in range(100) if i > value) == 10


def test_seeds_are_reproducible_and_distinct():
    assert derive_seed("w", 1, 0) == derive_seed("w", 1, 0)
    assert len({derive_seed("w", s, k) for s in range(5) for k in range(50)}) == 250
    assert 0 <= derive_seed("w", 1, 0) < 2**63


class _FakeServer:
    def __init__(self, log, name):
        self.log, self.name = log, name

    def call(self, k):
        self.log.append((self.name, k))
        return 1


def test_drive_alternates_call_by_call_over_whole_passes():
    log = []
    drive(_FakeServer(log, "p"), _FakeServer(log, "s"), 3, 1e-9, trace=False)
    assert log == [("p", 0), ("s", 0), ("s", 1), ("p", 1), ("p", 2), ("s", 2)]


def test_traced_drive_runs_the_seed_copy_for_one_pass_only():
    log = []
    start = time.monotonic()
    drive(_FakeServer(log, "p"), _FakeServer(log, "s"), 2, 0.01, trace=True)
    assert time.monotonic() - start >= 0.01
    assert [k for name, k in log if name == "s"] == [0, 1]
    prog = [k for name, k in log if name == "p"]
    assert len(prog) >= 2 and prog == [0, 1] * (len(prog) // 2)


def test_rate_counts_passing_trials_over_all_wall_time():
    assert rate([(0, 2_000_000_000, 4, 4), (1, 2_000_000_000, 4, 0)]) == 1.0
