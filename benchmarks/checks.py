"""Output checks: aggregate CSVs against the frozen seed reference, and
per-trial records against the dominance-chain oracle."""

from __future__ import annotations

import csv
import io
import math

# Aggregate columns compared within RATE_RTOL; every other column must
# match as text, since it is a label, a count or a ratio of counts.
RATE_COLUMNS = ("avg_rate_min", "avg_rate_sum", "avg_rate_min_success_only")
RATE_RTOL = 1e-9

# zf <= mmse <= if-exhaustive <= capacity and if-sdm <= if-exhaustive must
# hold exactly; a pair may be out of order by CHAIN_RTOL * max(1, |upper|)
# to allow for rounding in the last bits.
CHAIN = (("zf", "mmse"), ("mmse", "if-exhaustive"), ("if-exhaustive", "capacity"),
         ("if-sdm", "if-exhaustive"))
CHAIN_RTOL = 1e-9


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _cell(row: dict[str, str]) -> tuple[str, str]:
    return row["sweep_value"], row["snr_db"]


def cells(text: str) -> set[tuple[str, str]]:
    """The (sweep value, SNR point) cells an aggregate CSV covers."""
    return {_cell(r) for r in _rows(text)}


def _rate_matches(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isfinite(a) and abs(a - b) <= RATE_RTOL * max(abs(a), abs(b))


def mismatched_cells(got: str, want: str) -> set[tuple[str, str]]:
    """(sweep value, SNR point) cells of the reference whose rows ``got``
    does not reproduce. A different header, row count or row order fails
    every cell."""
    want_rows = _rows(want)
    every = cells(want)
    got_head, _, _ = got.partition("\n")
    want_head, _, _ = want.partition("\n")
    if got_head != want_head:
        return every
    got_rows = _rows(got)
    if len(got_rows) != len(want_rows):
        return every
    bad = set()
    for g, w in zip(got_rows, want_rows):
        if _cell(g) != _cell(w) or g["method"] != w["method"]:
            return every
        for column, value in w.items():
            if column in RATE_COLUMNS:
                ok = _rate_matches(g[column], value)
            else:
                ok = g[column] == value
            if not ok:
                bad.add(_cell(w))
                break
    return bad


def trial_faults(records, methods) -> list[str]:
    """Reasons one trial's records fail the oracles; empty when it passes.

    ``records`` are the trial's per-method results with ``method``,
    ``rate_min`` and ``rate_sum``."""
    by_method = {}
    for rec in records:
        if rec.method in by_method:
            return [f"duplicate {rec.method}"]
        by_method[rec.method] = rec
    if sorted(by_method) != sorted(methods):
        return ["methods"]
    faults = [f"nonfinite {m}" for m, rec in by_method.items()
              if not (math.isfinite(rec.rate_min) and math.isfinite(rec.rate_sum))]
    if faults:
        return faults
    for lo, hi in CHAIN:
        if lo in by_method and hi in by_method:
            a, b = by_method[lo].rate_min, by_method[hi].rate_min
            if a > b + CHAIN_RTOL * max(1.0, abs(b)):
                faults.append(f"chain {lo}>{hi}")
    return faults
