"""Seeded Monte Carlo experiment runner.

One trial draws a single channel shared by every requested method, so the
per-method curves differ only through the receivers, never the noise of
the draw. A trial's channel is a pure function of (master_seed, trial
index), which makes aggregates independent of execution order. A sweep
draws each trial index once and runs every cell, an (SNR point, search
config) pair, on that draw: the channel's Q, its eigenbasis and, per
bound M, one union of line candidates over the most lines any cell reads,
ranked once by its own Q, are computed once per SNR point, stacked over
the points, and shared by all cells and methods. Q's eigenvectors do not
depend on the power, so the points' unions typically come from one line
pass per bound M (``sdm.prepare_lines``).
Whether an IF design's A is invertible mod p, the only finite-field
result a trial records, is det A mod p != 0, with det A read exactly from
greedy's own integer echelon (``IfDesign.det``): no elimination over F_p
runs and no messages are drawn.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, capacity, prepare_capacity, sample_channel
from .errors import InvalidInputError
# combine_messages and recover_messages stay bound here although the harness
# no longer calls them: benchmarks/spans.py wraps these bindings, and a zero
# count beats a missing one
from .fieldrec import PrimeField, combine_messages, recover_messages  # noqa: F401
from .ifcore import compute_q, mmse_rates, prepare_inverses, zf_rates
from .linalg import int_value, real_value
from .select import METHOD_EXHAUSTIVE, METHOD_FALLBACK, METHOD_SDM, design_if
from .sdm import SearchConfig, prepare_lines

METHODS = ("if-sdm", "if-exhaustive", "mmse", "zf", "capacity")
SWEEPS = ("snr", "lines_j", "bound_m")

DEFAULT_PRIME = 257

AGGREGATE_COLUMNS = (
    "method", "sweep_param", "sweep_value", "snr_db", "avg_rate_min", "avg_rate_sum",
    "avg_rate_min_success_only", "success_prob", "trials", "master_seed",
)
RECORD_COLUMNS = (
    "trial", "method", "snr_db", "rate_min", "rate_sum", "success", "fallback",
    "modp_invertible",
)
# the TrialRecord field behind each record column
_RECORD_FIELDS = ("trial_index", *RECORD_COLUMNS[1:])


def _sequence(values, name: str, items: str) -> tuple:
    """``values`` as a tuple; a str, bytes or non-iterable raises InvalidInputError."""
    try:
        seq = None if isinstance(values, (str, bytes)) else tuple(values)
    except TypeError:
        seq = None
    if seq is None:
        raise InvalidInputError(f"{name} must be a sequence of {items}")
    return seq


@dataclass(frozen=True)
class ExperimentConfig:
    l: int
    snr_db_grid: tuple[float, ...]
    trials: int
    bound_m: int
    lines_j: int
    master_seed: int
    methods: tuple[str, ...] = ("if-sdm", "mmse", "zf", "capacity")
    prime_p: int | None = DEFAULT_PRIME

    def __post_init__(self):
        for name in ("l", "trials", "bound_m", "lines_j", "master_seed"):
            object.__setattr__(self, name, int_value(getattr(self, name), name))
        grid = _sequence(self.snr_db_grid, "snr_db_grid", "SNR points")
        object.__setattr__(self, "snr_db_grid", tuple(real_value(s, "snr_db_grid entry") for s in grid))
        object.__setattr__(self, "methods", _sequence(self.methods, "methods", "method names"))
        if self.l < 2:
            raise InvalidInputError("l must be >= 2")
        if not self.snr_db_grid:
            raise InvalidInputError("snr_db_grid must be nonempty")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        self.search()
        if not 0 <= self.master_seed < 2**64:
            raise InvalidInputError("master_seed must be a nonnegative 64-bit value")
        if not self.methods:
            raise InvalidInputError("methods must be nonempty")
        for i, method in enumerate(self.methods):
            if method not in METHODS:
                raise InvalidInputError(f"unknown method {method!r}")
            if method in self.methods[:i]:
                raise InvalidInputError(f"method {method!r} is repeated")
        if self.prime_p is not None:
            object.__setattr__(self, "prime_p", int_value(self.prime_p, "prime_p"))
            PrimeField(self.prime_p)  # validates the prime

    def search(self, **change) -> SearchConfig:
        """The search config of the bound M and line count J, with the
        fields named in ``change`` replaced, each read as an integer:
        1 <= J <= L - 1, and ``SearchConfig`` checks M >= 1."""
        search = {k: int_value(v, k) for k, v in
                  {"bound_m": self.bound_m, "lines_j": self.lines_j, **change}.items()}
        if not 1 <= search["lines_j"] <= self.l - 1:
            raise InvalidInputError(f"lines_j must be in [1, {self.l - 1}]")
        return SearchConfig(**search)


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    snr_db: float
    method: str
    rate_min: float
    rate_sum: float
    success: bool
    fallback: bool
    modp_invertible: bool | None = None


@dataclass(frozen=True)
class Aggregate:
    method: str
    sweep_param: str
    sweep_value: float | int
    snr_db: float
    avg_rate_min: float
    avg_rate_sum: float
    avg_rate_min_success_only: float
    success_prob: float
    trials: int
    master_seed: int


def _realization(h: np.ndarray, snr_db: float) -> ChannelRealization:
    """``h`` at ``snr_db``; an SNR point whose power overflows or underflows raises."""
    try:
        power = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise InvalidInputError(f"SNR {snr_db:g} dB overflows the transmit power") from None
    return ChannelRealization(h=h, power=power)


def draw_trial(cfg: ExperimentConfig, trial_index: int, cells=None) -> dict:
    """Trial ``trial_index``'s channel, drawn from its seeded words, as
    ``{SNR point: realization}`` over the SNR points of ``cells``,
    (SNR point, search config) pairs, in order of first occurrence; a
    config is read for its bound M and line count J only. By default the
    cells are ``cfg``'s search config at each SNR point of its grid.

    What the configured methods read is computed here for all SNR points
    at once: one ``solve_inverse`` stack for the whiteners, the forms Q and
    the ZF Gram matrix, one ``det`` stack for capacity, and one eigensolve
    stack and, per bound M, one line pass per group of SNR points whose
    eigenvectors agree within ``sdm.line_candidates``' share radius
    (typically one group) for the SDM design. An SNR point
    whose power overflows or underflows raises here, and so does a failing
    stack: the first singular whitener slice with its own error, and a
    failed eigensolve for every point.
    """
    h = sample_channel(cfg.master_seed, trial_index, cfg.l)
    if cells is None:
        cells = [(snr, cfg.search()) for snr in cfg.snr_db_grid]
    cells = list(cells)
    points = dict.fromkeys(real_value(snr, "snr_db") for snr, _ in cells)
    draw = {snr_db: _realization(h, snr_db) for snr_db in points}
    methods = set(cfg.methods)
    prepare_inverses(draw.values(), whiteners=bool(methods & {"if-sdm", "if-exhaustive", "mmse"}),
                     zf="zf" in methods)
    if "capacity" in methods:
        prepare_capacity(draw.values())
    if "if-sdm" in methods:
        forms = [compute_q(ch) for ch in draw.values()]
        lines = {}  # bound M -> the most lines any cell reads
        for _, search in cells:
            lines[search.bound_m] = max(lines.get(search.bound_m, 0), search.lines_j)
        for bound_m, lines_j in lines.items():
            prepare_lines(forms, lines_j, bound_m)
    return draw


def run_trial(cfg: ExperimentConfig, snr_db: float, trial_index: int,
              draw: dict | None = None, search: SearchConfig | None = None) -> list[TrialRecord]:
    """Evaluate every configured method on one shared channel draw.

    The IF designs search by ``search``, by default ``cfg``'s own M and
    J. ``draw`` is the trial index's draw when a sweep shares it between
    cells, and must serve this cell; without one, the channel is drawn
    here for this cell alone. Either way the records are the same.
    """
    snr_db = real_value(snr_db, "snr_db")
    if search is None:
        search = cfg.search()
    if draw is None:
        draw = draw_trial(cfg, trial_index, [(snr_db, search)])
    if snr_db not in draw:
        raise InvalidInputError(f"the trial draw holds no SNR point {snr_db:g} dB")
    ch = draw[snr_db]

    records = []
    for method in cfg.methods:
        success, fallback, modp = True, False, None
        if method in ("if-sdm", "if-exhaustive"):
            tag = METHOD_SDM if method == "if-sdm" else METHOD_EXHAUSTIVE
            design = design_if(ch, search, tag)
            if cfg.prime_p is not None:
                modp = design.det % cfg.prime_p != 0
            rate_min, rate_sum = design.report.total, design.report.sum_form
            success, fallback = design.success, design.method == METHOD_FALLBACK
        elif method == "mmse":
            rep = mmse_rates(ch)
            rate_min, rate_sum = rep.total, rep.sum_form
        elif method == "zf":
            rep = zf_rates(ch)
            rate_min, rate_sum, success = rep.total, rep.sum_form, not rep.singular
        else:  # capacity
            rate_min = rate_sum = capacity(ch)
        records.append(TrialRecord(trial_index, snr_db, method, rate_min, rate_sum,
                                   success, fallback, modp))
    return records


def _add(totals: dict, records: list[TrialRecord]) -> None:
    """Add a cell's records of one trial to its running totals, which keep no record."""
    for rec in records:
        total = totals[rec.method]
        total[0] += rec.rate_min
        total[1] += rec.rate_sum
        if rec.success:
            total[2] += 1
            total[3] += rec.rate_min


def _aggregate(totals: list, cfg: ExperimentConfig, sweep: str, value, snr_db: float,
               method: str) -> Aggregate:
    rate_min, rate_sum, successes, success_rate_min = totals
    return Aggregate(
        method=method,
        sweep_param=sweep,
        sweep_value=value,
        snr_db=snr_db,
        avg_rate_min=rate_min / cfg.trials,
        avg_rate_sum=rate_sum / cfg.trials,
        avg_rate_min_success_only=success_rate_min / successes if successes else 0.0,
        success_prob=successes / cfg.trials,
        trials=cfg.trials,
        master_seed=cfg.master_seed,
    )


def run_sweep(cfg: ExperimentConfig, sweep: str, values) -> list[Aggregate]:
    """Aggregate `cfg.trials` trials per (sweep value, SNR point, method).

    Per-trial seeds depend only on the trial index, so every sweep value
    sees identical channels: each trial index is drawn once and its draw
    is shared by all cells. Each cell adds its records to running totals
    as they arrive, in trial order, so the aggregates match a cell-by-cell
    loop bit for bit and memory does not grow with the trial count. Output
    is ordered by (method, value, snr).
    """
    if sweep not in SWEEPS:
        raise InvalidInputError(f"unknown sweep {sweep!r}")
    values = _sequence(values, "sweep values", "values")
    if not values:
        raise InvalidInputError("sweep values must be nonempty")

    own = cfg.search()
    cells = []  # (value, snr, search config) in output order
    for value in values:
        if sweep == "snr":
            value = real_value(value, f"{sweep} value")
            cells.append((value, value, own))
            continue
        value = int_value(value, f"{sweep} value")
        search = cfg.search(**{sweep: value})
        cells.extend((value, snr, search) for snr in cfg.snr_db_grid)

    # per cell and method: rate_min, rate_sum, successes, rate_min of the successes
    totals = [{m: [0.0, 0.0, 0, 0.0] for m in cfg.methods} for _ in cells]
    served = [(snr, search) for _, snr, search in cells]
    for t in range(cfg.trials):
        # the draw, and all it computes, lives for one trial index only
        draw = draw_trial(cfg, t, served)
        for (_, snr, search), by_method in zip(cells, totals):
            _add(by_method, run_trial(cfg, snr, t, draw, search))

    return [
        _aggregate(by_method[m], cfg, sweep, value, snr, m)
        for m in cfg.methods for (value, snr, _), by_method in zip(cells, totals)
    ]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        # repr of a plain float is the shortest round-trip form; the cast
        # also strips numpy scalar types
        return repr(float(value))
    return str(value)


def write_csv(rows, path) -> None:
    """Write aggregates or trial records with a stable schema; identical
    inputs produce byte-identical files."""
    rows = list(rows)
    if rows and isinstance(rows[0], TrialRecord):
        header, fields = RECORD_COLUMNS, _RECORD_FIELDS
    else:
        header = fields = AGGREGATE_COLUMNS
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(getattr(r, f)) for f in fields] for r in rows)
