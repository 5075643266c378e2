"""Seeded Monte Carlo experiment runner.

One trial draws a single channel shared by every requested method, so the
per-method curves differ only through the receivers, never the noise of
the draw. Per-trial RNG streams are derived from (master_seed, trial
index), which makes aggregates independent of execution order. A sweep
draws each trial index once and runs every (sweep value, SNR point) cell
of it on that draw: the channel's Q, its eigenbasis and, per bound M, one
union of line candidates over the most lines any cell reads are computed
once, stacked over the SNR points, and shared by all cells and methods.
Whether an IF design's A is invertible mod p, the only finite-field
result a trial records, is one elimination of A over F_p; no messages
are drawn.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    ChannelRealization,
    capacity,
    derive_trial_rng,
    prepare_capacity,
    sample_channel,
)
from .errors import IfrxError, InvalidInputError, NotInvertibleModPError, unwrap
# combine_messages stays bound here although the harness no longer calls it:
# benchmarks/spans.py wraps this binding, and a zero count beats a missing one
from .fieldrec import PrimeField, combine_messages, recover_messages  # noqa: F401
from .ifcore import left_sum, mmse_rates, prepare_inverses, zf_rates
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
    # built from prime_p once per config, not once per cell
    prime_field: PrimeField | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "snr_db_grid", tuple(float(s) for s in self.snr_db_grid))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.l < 2:
            raise InvalidInputError("l must be >= 2")
        if not self.snr_db_grid:
            raise InvalidInputError("snr_db_grid must be nonempty")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if self.bound_m < 1:
            raise InvalidInputError("bound_m must be >= 1")
        if not 1 <= self.lines_j <= self.l - 1:
            raise InvalidInputError(f"lines_j must be in [1, {self.l - 1}]")
        if not 0 <= self.master_seed < 2**64:
            raise InvalidInputError("master_seed must be a nonnegative 64-bit value")
        if not self.methods:
            raise InvalidInputError("methods must be nonempty")
        for method in self.methods:
            if method not in METHODS:
                raise InvalidInputError(f"unknown method {method!r}")
        if self.prime_p is not None:
            object.__setattr__(self, "prime_field", PrimeField(self.prime_p))


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


def _invertible_mod_p(a: np.ndarray, field: PrimeField) -> bool:
    """Whether A is invertible over F_p: the Gauss-Jordan elimination of
    ``recover_messages`` on A with an empty right-hand side."""
    try:
        recover_messages(a, np.zeros((a.shape[0], 0), dtype=np.int64), field)
    except NotInvertibleModPError:
        return False
    return True


def _realization(h: np.ndarray, snr_db: float) -> ChannelRealization | IfrxError:
    """``h`` at ``snr_db``, or the error making it raised."""
    try:
        power = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return InvalidInputError(f"SNR {snr_db:g} dB overflows the transmit power")
    try:
        return ChannelRealization(h=h, power=power)
    except IfrxError as exc:
        return exc


@dataclass(frozen=True)
class TrialDraw:
    """The channel of one trial index and its realization at each SNR
    point the draw serves.

    What the configured methods read is computed when the draw is made, for
    all SNR points at once: one ``solve_inverse`` stack for the whiteners,
    the forms Q and the ZF Gram matrix, one ``det`` stack for capacity,
    and one eigensolve stack and one line pass per bound M for the SDM
    design. An error of one SNR point is kept and raised only by the cell
    that reads it.
    """

    h: np.ndarray
    realizations: dict[float, ChannelRealization | IfrxError]
    # (A bytes, p) -> whether A is invertible mod p; the cells of a draw
    # share it, so each distinct A is eliminated once per draw
    modp_flags: dict = field(default_factory=dict, repr=False, compare=False)

    def channel(self, snr_db: float) -> ChannelRealization:
        if snr_db not in self.realizations:
            raise InvalidInputError(f"the trial draw holds no SNR point {snr_db:g} dB")
        return unwrap(self.realizations[snr_db])


def draw_trial(cfg: ExperimentConfig, trial_index: int, cells=None) -> TrialDraw:
    """Draw trial ``trial_index``'s channel from its own seeded stream and
    compute what ``cells``, (SNR point, config) pairs, will read of it.
    The configs may differ in J and M only; by default the cells are
    ``cfg`` at each SNR point of its grid."""
    h = sample_channel(derive_trial_rng(cfg.master_seed, trial_index), cfg.l)
    cells = [(snr, cfg) for snr in cfg.snr_db_grid] if cells is None else list(cells)
    realizations = {}
    for snr_db, _ in cells:
        if snr_db not in realizations:
            realizations[snr_db] = _realization(h, snr_db)
    chs = [ch for ch in realizations.values() if not isinstance(ch, IfrxError)]
    methods = set(cfg.methods)
    if chs:
        prepare_inverses(chs, whiteners=bool(methods & {"if-sdm", "if-exhaustive", "mmse"}),
                         zf="zf" in methods)
        if "capacity" in methods:
            prepare_capacity(chs)
    forms = [ch.memo["q"] for ch in chs
             if "if-sdm" in methods and not isinstance(ch.memo["q"], IfrxError)]
    if forms:
        lines = {}  # bound M -> the most lines any cell reads
        for _, sub in cells:
            lines[sub.bound_m] = max(lines.get(sub.bound_m, 0), sub.lines_j)
        for bound_m, lines_j in lines.items():
            prepare_lines(forms, lines_j, bound_m)
    return TrialDraw(h, realizations)


def run_trial(cfg: ExperimentConfig, snr_db: float, trial_index: int,
              draw: TrialDraw | None = None) -> list[TrialRecord]:
    """Evaluate every configured method on one shared channel draw.

    ``draw`` is the trial index's draw when a sweep shares it between
    cells, and must serve this cell; without one, the channel is drawn
    here for this cell alone. Either way the records are the same.
    """
    if draw is None:
        draw = draw_trial(cfg, trial_index, [(snr_db, cfg)])
    ch = draw.channel(snr_db)

    records = []
    for method in cfg.methods:
        if method in ("if-sdm", "if-exhaustive"):
            tag = METHOD_SDM if method == "if-sdm" else METHOD_EXHAUSTIVE
            design = design_if(ch, SearchConfig(cfg.bound_m, cfg.lines_j), tag)
            modp = None
            if cfg.prime_field is not None:
                key = (design.a.tobytes(), cfg.prime_field.p)
                if key not in draw.modp_flags:
                    draw.modp_flags[key] = _invertible_mod_p(design.a, cfg.prime_field)
                modp = draw.modp_flags[key]
            records.append(TrialRecord(
                trial_index, snr_db, method, design.report.total, design.report.sum_form,
                design.success, design.method == METHOD_FALLBACK, modp,
            ))
        elif method == "mmse":
            rep = mmse_rates(ch)
            records.append(TrialRecord(
                trial_index, snr_db, method, rep.total, rep.sum_form, True, False, None,
            ))
        elif method == "zf":
            rep = zf_rates(ch)
            records.append(TrialRecord(
                trial_index, snr_db, method, rep.total, rep.sum_form,
                not rep.singular, False, None,
            ))
        else:  # capacity
            c = capacity(ch)
            records.append(TrialRecord(
                trial_index, snr_db, method, c, c, True, False, None,
            ))
    return records


def _aggregate(records: list[TrialRecord], cfg: ExperimentConfig, sweep: str,
               value, snr_db: float, method: str) -> Aggregate:
    n = len(records)
    successes = [r for r in records if r.success]
    return Aggregate(
        method=method,
        sweep_param=sweep,
        sweep_value=value,
        snr_db=snr_db,
        avg_rate_min=left_sum(r.rate_min for r in records) / n,
        avg_rate_sum=left_sum(r.rate_sum for r in records) / n,
        avg_rate_min_success_only=(
            left_sum(r.rate_min for r in successes) / len(successes) if successes else 0.0
        ),
        success_prob=len(successes) / n,
        trials=n,
        master_seed=cfg.master_seed,
    )


def run_sweep(cfg: ExperimentConfig, sweep: str, values) -> list[Aggregate]:
    """Aggregate `cfg.trials` trials per (sweep value, SNR point, method).

    Per-trial seeds depend only on the trial index, so every sweep value
    sees identical channels: each trial index is drawn once and its draw
    is shared by all cells. Records reach each cell in trial order, so the
    aggregates match a cell-by-cell loop bit for bit. Output is ordered by
    (method, value, snr).
    """
    if sweep not in SWEEPS:
        raise InvalidInputError(f"unknown sweep {sweep!r}")
    values = list(values)
    if not values:
        raise InvalidInputError("sweep values must be nonempty")

    cells = []  # (value, snr, config) in output order
    for value in values:
        if sweep == "snr":
            cells.append((value, float(value), cfg))
            continue
        if not float(value).is_integer():
            raise InvalidInputError(f"{sweep} values must be integers, got {value!r}")
        sub = replace(cfg, **{sweep: int(value)})
        cells.extend((value, snr, sub) for snr in cfg.snr_db_grid)

    by_cell = [{m: [] for m in cfg.methods} for _ in cells]
    served = [(snr, sub) for _, snr, sub in cells]
    for t in range(cfg.trials):
        # the draw, and all it computes, lives for one trial index only
        draw = draw_trial(cfg, t, served)
        for (_, snr, sub), by_method in zip(cells, by_cell):
            for rec in run_trial(sub, snr, t, draw):
                by_method[rec.method].append(rec)

    return [
        _aggregate(by_method[m], cfg, sweep, value, snr, m)
        for m in cfg.methods for (value, snr, _), by_method in zip(cells, by_cell)
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
    is_records = bool(rows) and isinstance(rows[0], TrialRecord)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if is_records:
            writer.writerow(RECORD_COLUMNS)
            for r in rows:
                writer.writerow([_fmt(v) for v in (
                    r.trial_index, r.method, r.snr_db, r.rate_min, r.rate_sum,
                    r.success, r.fallback, r.modp_invertible,
                )])
        else:
            writer.writerow(AGGREGATE_COLUMNS)
            for a in rows:
                writer.writerow([_fmt(v) for v in (
                    a.method, a.sweep_param, a.sweep_value, a.snr_db, a.avg_rate_min,
                    a.avg_rate_sum, a.avg_rate_min_success_only, a.success_prob,
                    a.trials, a.master_seed,
                )])
