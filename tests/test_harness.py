import random
import weakref
from dataclasses import replace

import numpy as np
import pytest

import ifrx.harness
import ifrx.ifcore
import ifrx.sdm
from ifrx.channel import ChannelRealization, derive_trial_rng, sample_channel
from ifrx.errors import ConvergenceError, InvalidInputError, SingularMatrixError
from ifrx.fieldrec import PrimeField
from ifrx.harness import (
    Aggregate,
    ExperimentConfig,
    TrialRecord,
    _invertible_mod_p,
    draw_trial,
    run_sweep,
    run_trial,
    write_csv,
)
from ifrx.ifcore import mmse_rates, zf_rates
from ifrx.select import METHOD_EXHAUSTIVE, METHOD_FALLBACK, METHOD_SDM, design_if
from ifrx.sdm import SearchConfig
from oracles import bareiss_det, round_trip_invertible


def small_cfg(**kwargs):
    base = dict(
        l=3,
        snr_db_grid=(10.0,),
        trials=4,
        bound_m=1,
        lines_j=2,
        master_seed=20260810,
        methods=("if-sdm", "if-exhaustive", "mmse", "zf", "capacity"),
        prime_p=257,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        small_cfg(lines_j=3)
    with pytest.raises(InvalidInputError):
        small_cfg(trials=0)
    with pytest.raises(InvalidInputError):
        small_cfg(methods=("ml",))
    with pytest.raises(InvalidInputError):
        small_cfg(snr_db_grid=())
    with pytest.raises(InvalidInputError):
        small_cfg(prime_p=15)
    # a repeated method would file both copies' records under one key
    with pytest.raises(InvalidInputError, match="'if-sdm' is repeated"):
        small_cfg(methods=("if-sdm", "mmse", "if-sdm"))
    # integer fields are read through operator.index: a float seed ran as
    # its floor under its own label, the others raised TypeError mid-run
    for name, value in (("master_seed", 1.5), ("trials", 2.5), ("l", 4.0), ("bound_m", 2.5),
                        ("lines_j", 1.5), ("trials", "4")):
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
            small_cfg(**{name: value})
    cfg = small_cfg(l=np.int64(4), master_seed=np.uint64(2**64 - 1))
    assert type(cfg.l) is int and type(cfg.master_seed) is int


def test_config_rejects_seeds_outside_64_bits():
    # the trial streams keep only the low 64 bits of the master seed, so a
    # wider seed would reproduce another seed's rates under its own label
    assert small_cfg(master_seed=2**64 - 1).master_seed == 2**64 - 1
    for seed in (-1, 2**64, 2**64 + 1):
        with pytest.raises(InvalidInputError, match="64-bit"):
            small_cfg(master_seed=seed)


def test_run_trial_deterministic():
    cfg = small_cfg()
    first = run_trial(cfg, 10.0, 3)
    second = run_trial(cfg, 10.0, 3)
    assert first == second


def test_run_trial_method_ordering_and_shared_channel(monkeypatch):
    calls = []
    inner = ifrx.harness.sample_channel
    monkeypatch.setattr(ifrx.harness, "sample_channel", lambda *a: calls.append(1) or inner(*a))
    cfg = small_cfg()
    records = run_trial(cfg, 10.0, 0)
    assert [r.method for r in records] == list(cfg.methods)
    assert len(calls) == 1


def test_run_trial_dominance_chain():
    cfg = small_cfg(trials=1)
    for t in range(200):
        by_method = {r.method: r for r in run_trial(cfg, 10.0, t)}
        zf, mmse = by_method["zf"], by_method["mmse"]
        exh, cap = by_method["if-exhaustive"], by_method["capacity"]
        if zf.success:
            assert mmse.rate_min >= zf.rate_min - 1e-12
        assert exh.rate_min >= mmse.rate_min - 1e-12
        assert cap.rate_min >= exh.rate_min - 1e-9
        assert exh.success


def test_recovery_flags():
    with_prime = run_trial(small_cfg(), 10.0, 1)
    for rec in with_prime:
        if rec.method.startswith("if-"):
            assert rec.modp_invertible is not None
        else:
            assert rec.modp_invertible is None
    without = run_trial(small_cfg(prime_p=None), 10.0, 1)
    assert all(r.modp_invertible is None for r in without)


def test_aggregate_success_counting(monkeypatch):
    # scripted (rate, success) per trial; zf never succeeds
    script = {"if-sdm": [(2.0, True), (4.0, True), (0.0, False), (2.0, True)],
              "zf": [(1.0, False), (0.5, False), (0.0, False), (0.5, False)]}

    def scripted(cfg, snr_db, t, draw):
        return [TrialRecord(t, snr_db, m, script[m][t][0], 2 * script[m][t][0], script[m][t][1],
                            False) for m in cfg.methods]
    monkeypatch.setattr(ifrx.harness, "run_trial", scripted)
    sdm, zf = run_sweep(small_cfg(methods=("if-sdm", "zf")), "snr", [10.0])
    assert (sdm.method, zf.method) == ("if-sdm", "zf")
    assert sdm.success_prob == 0.75
    assert sdm.avg_rate_min == 2.0 and sdm.avg_rate_sum == 4.0
    assert sdm.avg_rate_min_success_only == pytest.approx(8.0 / 3.0)
    assert zf.success_prob == 0.0 and zf.avg_rate_min_success_only == 0.0
    assert zf.avg_rate_min == 0.5 and zf.avg_rate_sum == 1.0
    assert sdm.trials == zf.trials == 4


def test_run_sweep_keeps_no_record_past_its_trial_index(monkeypatch):
    # weakrefs per trial index of every record run_trial returned
    refs = []
    inner_draw, inner_trial = ifrx.harness.draw_trial, ifrx.harness.run_trial

    def drawing(cfg, t, cells):
        assert len(refs) == t
        for earlier in refs:
            assert all(ref() is None for ref in earlier)
        refs.append([])
        return inner_draw(cfg, t, cells)

    def running(cfg, snr_db, t, draw):
        records = inner_trial(cfg, snr_db, t, draw)
        refs[t].extend(map(weakref.ref, records))
        return records
    monkeypatch.setattr(ifrx.harness, "draw_trial", drawing)
    monkeypatch.setattr(ifrx.harness, "run_trial", running)
    cfg = small_cfg(trials=3, methods=("mmse", "zf", "capacity"))
    run_sweep(cfg, "snr", [0.0, 10.0])
    assert [len(r) for r in refs] == [2 * 3] * 3
    assert all(ref() is None for earlier in refs for ref in earlier)


def test_run_sweep_snr_ordering_and_capacity_monotone():
    cfg = small_cfg(trials=8, methods=("mmse", "capacity"))
    aggs = run_sweep(cfg, "snr", [0.0, 10.0, 20.0])
    assert [(a.method, a.sweep_value) for a in aggs] == [
        ("mmse", 0.0), ("mmse", 10.0), ("mmse", 20.0),
        ("capacity", 0.0), ("capacity", 10.0), ("capacity", 20.0),
    ]
    caps = [a.avg_rate_min for a in aggs if a.method == "capacity"]
    assert caps[0] < caps[1] < caps[2]
    assert all(a.sweep_param == "snr" and a.snr_db == a.sweep_value for a in aggs)


def test_run_sweep_lines_shares_channels():
    cfg = small_cfg(l=4, lines_j=1, trials=5, methods=("if-sdm",))
    aggs = run_sweep(cfg, "lines_j", [1, 2, 3])
    assert [a.sweep_value for a in aggs] == [1, 2, 3]
    assert all(a.trials == 5 for a in aggs)
    # wider line budgets see the same channels, so the average cannot
    # collapse when candidate sets only grow; allow fallback noise at J=1
    rates = [a.avg_rate_min for a in aggs]
    assert rates[2] >= rates[1] - 0.5


def test_run_sweep_rejects_bad_input():
    cfg = small_cfg()
    with pytest.raises(InvalidInputError):
        run_sweep(cfg, "power", [1.0])
    with pytest.raises(InvalidInputError):
        run_sweep(cfg, "snr", [])


@pytest.mark.parametrize("sweep", ["lines_j", "bound_m"])
def test_run_sweep_rejects_non_integer_values(sweep):
    with pytest.raises(InvalidInputError, match="integers"):
        run_sweep(small_cfg(methods=("mmse",)), sweep, [1, 1.5])


def test_write_csv_empty_and_single(tmp_path):
    path = tmp_path / "aggregates.csv"
    write_csv([], path)
    assert path.read_text() == (
        "method,sweep_param,sweep_value,snr_db,avg_rate_min,avg_rate_sum,"
        "avg_rate_min_success_only,success_prob,trials,master_seed\n"
    )
    agg = Aggregate("mmse", "snr", 10.0, 10.0, 1.5, 2.0, 1.5, 1.0, 4, 42)
    write_csv([agg], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "mmse,snr,10.0,10.0,1.5,2.0,1.5,1.0,4,42"


def test_write_csv_records_schema(tmp_path):
    cfg = small_cfg(trials=2)
    records = [r for t in range(2) for r in run_trial(cfg, 10.0, t)]
    path = tmp_path / "records.csv"
    write_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,method,snr_db,rate_min,rate_sum,success,fallback,modp_invertible"
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "if-sdm"
    assert first[5] in ("0", "1") and first[6] in ("0", "1")


def test_write_csv_deterministic(tmp_path):
    cfg = small_cfg(trials=3)
    aggs = run_sweep(cfg, "snr", [0.0, 10.0])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(aggs, p1)
    write_csv(run_sweep(cfg, "snr", [0.0, 10.0]), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def reference_run_trial(cfg, snr_db, trial_index):
    """One trial on a fresh stream, channel and realization: run_trial as
    it was before sweeps shared a draw between cells."""
    rng = derive_trial_rng(cfg.master_seed, trial_index)
    ch = ChannelRealization(h=sample_channel(rng, cfg.l), power=10.0 ** (snr_db / 10.0))
    field = PrimeField(cfg.prime_p) if cfg.prime_p is not None else None
    records = []
    for method in cfg.methods:
        if method in ("if-sdm", "if-exhaustive"):
            tag = METHOD_SDM if method == "if-sdm" else METHOD_EXHAUSTIVE
            design = design_if(ch, SearchConfig(cfg.bound_m, cfg.lines_j), tag)
            modp = (round_trip_invertible(design.a, field, random.Random(trial_index))
                    if field is not None else None)
            rec = (design.report.total, design.report.sum_form, design.success,
                   design.method == METHOD_FALLBACK, modp)
        elif method == "mmse":
            rep = mmse_rates(ch)
            rec = (rep.total, rep.sum_form, True, False, None)
        elif method == "zf":
            rep = zf_rates(ch)
            rec = (rep.total, rep.sum_form, not rep.singular, False, None)
        else:
            c = ifrx.harness.capacity(ch)
            rec = (c, c, True, False, None)
        records.append(TrialRecord(trial_index, snr_db, method, *rec))
    return records


def reference_run_sweep(cfg, sweep, values):
    """Cell-major loop: every (value, SNR point, trial) draws its own channel."""
    cells = []
    for value in values:
        if sweep == "snr":
            sub, snr_points = cfg, (float(value),)
        elif sweep == "lines_j":
            sub, snr_points = replace(cfg, lines_j=int(value)), cfg.snr_db_grid
        else:
            sub, snr_points = replace(cfg, bound_m=int(value)), cfg.snr_db_grid
        for snr in snr_points:
            by_method = {m: [] for m in cfg.methods}
            for t in range(cfg.trials):
                for rec in reference_run_trial(sub, snr, t):
                    by_method[rec.method].append(rec)
            cells.append({m: reference_aggregate(by_method[m], cfg, sweep, value, snr, m)
                          for m in cfg.methods})
    return [cell[m] for m in cfg.methods for cell in cells]


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def reference_aggregate(records, cfg, sweep, value, snr_db, method):
    """Means of a cell's records, each total added left to right in trial order."""
    successes = [r for r in records if r.success]
    return Aggregate(
        method, sweep, value, snr_db,
        left_to_right(r.rate_min for r in records) / len(records),
        left_to_right(r.rate_sum for r in records) / len(records),
        (left_to_right(r.rate_min for r in successes) / len(successes) if successes else 0.0),
        len(successes) / len(records), len(records), cfg.master_seed)


ALL_METHODS = ("if-sdm", "if-exhaustive", "mmse", "zf", "capacity")
NO_BOX = ("if-sdm", "mmse", "zf", "capacity")


@pytest.mark.parametrize("l, sweep, values, grid, methods, prime", [
    # L*L odd: the channel takes one stream word more than it uses
    (5, "lines_j", [1, 2, 3, 4], (0.0, 20.0), ALL_METHODS, 257),
    (5, "bound_m", [1, 2, 3], (10.0,), ALL_METHODS, None),
    (5, "snr", [0.0, 10.0, 30.0], (10.0,), ALL_METHODS, 257),
    (8, "lines_j", [1, 2, 3, 4, 5, 6, 7], (10.0, 20.0), ("if-sdm",), None),
    (8, "bound_m", [1, 2, 3], (20.0,), NO_BOX, 257),
    (8, "snr", [0.0, 10.0, 20.0, 30.0], (10.0,), NO_BOX, None),
])
def test_run_sweep_matches_cell_major_reference(monkeypatch, l, sweep, values, grid, methods,
                                                prime):
    cfg = small_cfg(l=l, snr_db_grid=grid, trials=3, bound_m=2, lines_j=l - 1,
                    master_seed=20261018 + l, methods=methods, prime_p=prime)
    ref = reference_run_sweep(cfg, sweep, values)
    # the trial drawn last; (trial, A) of every design; one entry per flag computed
    trial, designed, flagged = [], set(), []
    inner_draw, inner_design = ifrx.harness.draw_trial, ifrx.harness.design_if
    inner_flag = ifrx.harness._invertible_mod_p

    def drawing(c, t, cells):
        trial.append(t)
        return inner_draw(c, t, cells)

    def designing(ch, c, tag):
        design = inner_design(ch, c, tag)
        designed.add((trial[-1], design.a.tobytes()))
        return design
    monkeypatch.setattr(ifrx.harness, "draw_trial", drawing)
    monkeypatch.setattr(ifrx.harness, "design_if", designing)
    monkeypatch.setattr(ifrx.harness, "_invertible_mod_p",
                        lambda a, f: flagged.append(1) or inner_flag(a, f))
    got = run_sweep(cfg, sweep, values)
    # repr tells -0.0 from 0.0, so this is bit identity of every field
    assert repr(got) == repr(ref)
    # the cells of a draw share one flag per distinct A
    assert len(flagged) == (len(designed) if prime is not None else 0)


def test_round_trip_memo_lives_in_its_draw_and_matches_a_fresh_check():
    # p = 2 makes some designs singular mod p, so both flags are kept
    cfg = small_cfg(l=5, snr_db_grid=(0.0, 20.0), trials=6, bound_m=2, lines_j=1, prime_p=2,
                    methods=("if-sdm", "if-exhaustive"))
    cells = [(snr, replace(cfg, lines_j=j)) for j in (1, 2, 3, 4) for snr in cfg.snr_db_grid]
    memos, flags, hits = [], set(), 0
    for t in range(cfg.trials):
        draw = draw_trial(cfg, t, cells)
        for snr, sub in cells:
            # a cell drawn on its own starts with an empty memo
            assert run_trial(sub, snr, t, draw) == run_trial(sub, snr, t)
        for (a, p), flag in draw.modp_flags.items():
            a = np.frombuffer(a, dtype=np.int64).reshape(cfg.l, cfg.l)
            assert p == 2 and flag == round_trip_invertible(a, cfg.prime_field, random.Random(t))
            flags.add(flag)
        hits += 2 * len(cells) - len(draw.modp_flags)
        assert draw_trial(cfg, t, cells).modp_flags == {}
        memos.append(draw.modp_flags)
    assert len({id(memo) for memo in memos}) == len(memos)
    assert flags == {False, True} and hits > 0


@pytest.mark.parametrize("p", [2, 3, 257, 2**64 - 59])
def test_the_mod_p_flag_matches_a_round_trip_and_the_determinant(p):
    gen = random.Random(p)
    field = PrimeField(p)
    flags = []
    for i in range(150):
        l = gen.randint(2, 8)
        a = np.array([[gen.randint(-3, 3) for _ in range(l)] for _ in range(l)], dtype=np.int64)
        if i % 5 == 0:
            # singular over the rationals, so over every F_p
            a[-1] = a[0] + gen.randint(-2, 2) * a[1]
            if p < 1000 and i % 10 == 0:
                # singular mod p only
                a[-1, gen.randrange(l)] += p
        flag = _invertible_mod_p(a, field)
        assert flag == round_trip_invertible(a, field, gen) == (bareiss_det(a.tolist()) % p != 0)
        flags.append(flag)
    assert set(flags) == {False, True}


def test_the_mod_p_flag_rejects_a_non_integer_matrix():
    # a truncating cast read [[0.5, 0], [0, 1]] as singular
    with pytest.raises(InvalidInputError, match="must hold integers"):
        _invertible_mod_p(np.array([[0.5, 0], [0, 1]]), PrimeField(257))


def test_lines_sweep_draws_and_decomposes_each_channel_once(monkeypatch):
    counts = {"sample_channel": 0, "sym_eigen": 0, "line_candidates": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapped(*args):
            counts[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapped)

    counting(ifrx.harness, "sample_channel")
    counting(ifrx.sdm, "sym_eigen")
    counting(ifrx.sdm, "line_candidates")
    trials = 3
    cfg = small_cfg(l=8, snr_db_grid=(20.0,), trials=trials, bound_m=2, lines_j=1,
                    methods=("if-sdm",))
    run_sweep(cfg, "lines_j", range(1, 8))
    # one line pass per draw covers all 7 lines
    assert counts == {"sample_channel": trials, "sym_eigen": trials,
                      "line_candidates": trials}


def test_a_draw_keeps_one_union_per_bound_covering_its_largest_j():
    cfg = small_cfg(l=6, snr_db_grid=(10.0, 20.0), methods=("if-sdm",))
    cells = [(snr, replace(cfg, bound_m=m, lines_j=j))
             for m in (1, 3) for j in range(1, 6) for snr in cfg.snr_db_grid]
    draw = draw_trial(cfg, 0, cells)
    for snr in cfg.snr_db_grid:
        memo = ifrx.ifcore.compute_q(draw.channel(snr)).memo
        assert set(memo) == {"basis", ("union", 1), ("union", 3)}
        assert memo[("union", 1)][2] == memo[("union", 3)][2] == 5


def test_zf_row_norms_are_computed_once_per_trial_draw(monkeypatch):
    calls = []
    inner = ifrx.ifcore.solve_inverse
    monkeypatch.setattr(ifrx.ifcore, "solve_inverse", lambda m: calls.append(1) or inner(m))
    grid = [0.0, 10.0, 20.0, 30.0]
    cfg = small_cfg(l=6, trials=3, methods=("zf",), prime_p=None)
    got = run_sweep(cfg, "snr", grid)
    # the ZF projection does not depend on P, so every SNR point shares it
    assert len(calls) == cfg.trials
    monkeypatch.setattr(ifrx.ifcore, "solve_inverse", inner)
    assert repr(got) == repr(reference_run_sweep(cfg, "snr", grid))


def test_singular_zf_is_flagged_at_every_snr_point(monkeypatch):
    calls = []
    inner = ifrx.ifcore.solve_inverse
    monkeypatch.setattr(ifrx.ifcore, "solve_inverse", lambda m: calls.append(1) or inner(m))
    monkeypatch.setattr(ifrx.harness, "sample_channel", lambda rng, l: np.ones((l, l)))
    cfg = small_cfg(l=4, trials=2, methods=("zf", "mmse"), prime_p=None)
    aggs = run_sweep(cfg, "snr", [0.0, 10.0, 20.0])
    zf = [a for a in aggs if a.method == "zf"]
    assert [(a.success_prob, a.avg_rate_min) for a in zf] == [(0.0, 0.0)] * 3
    # one stack per draw: the three whiteners, then the ZF Gram matrix
    assert len(calls) == cfg.trials


def test_prime_field_is_built_once_per_config(monkeypatch):
    cfg = small_cfg(trials=2)
    assert cfg.prime_field == PrimeField(257)

    def no_field(p):
        raise AssertionError("a cell built its own prime field")
    monkeypatch.setattr(ifrx.harness, "PrimeField", no_field)
    records = run_trial(cfg, 10.0, 0)
    assert all(r.modp_invertible is not None for r in records if r.method.startswith("if-"))
    assert run_sweep(cfg, "snr", [0.0, 10.0])


def rank_deficient(rng, l):
    h = sample_channel(rng, l)
    h[-1] = 2.0 * h[0]
    return h


def test_a_failed_eigensolve_raises_only_in_its_own_cell(monkeypatch):
    cfg = small_cfg(l=4, snr_db_grid=(0.0, 10.0, 20.0), trials=1, lines_j=3, bound_m=2,
                    methods=("mmse", "if-sdm"))
    expected = {snr: run_trial(cfg, snr, 0) for snr in cfg.snr_db_grid}
    # the form the 10 dB cell decomposes, exactly symmetric, so eigh sees it as is
    target = ifrx.ifcore.compute_q(draw_trial(cfg, 0).channel(10.0)).q
    inner = np.linalg.eigh
    calls = []

    def fails_at_10_db(a):
        calls.append(np.ndim(a))
        if any(np.array_equal(s, target) for s in np.reshape(a, (-1, 4, 4))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return inner(a)

    monkeypatch.setattr(np.linalg, "eigh", fails_at_10_db)
    draw = draw_trial(cfg, 0)
    # one stacked call, then each of the three slices alone
    assert calls == [3, 2, 2, 2]
    for snr in (0.0, 20.0):
        assert run_trial(cfg, snr, 0, draw) == expected[snr]
    with pytest.raises(ConvergenceError, match="^eigh did not converge: Eigenvalues"):
        run_trial(cfg, 10.0, 0, draw)
    # the 10 dB MMSE rates read no eigenbasis
    assert mmse_rates(draw.channel(10.0)) == mmse_rates(
        ChannelRealization(h=draw.h, power=10.0))


def test_a_singular_whitener_raises_only_in_its_own_cell(monkeypatch):
    monkeypatch.setattr(ifrx.harness, "sample_channel", rank_deficient)
    cfg = small_cfg(l=4, snr_db_grid=(0.0, 300.0), trials=1, lines_j=3, bound_m=2,
                    methods=("if-sdm", "mmse", "zf", "capacity"))
    draw = draw_trial(cfg, 0)
    assert run_trial(cfg, 0.0, 0, draw) == run_trial(cfg, 0.0, 0)
    with pytest.raises(SingularMatrixError, match="^pivot below threshold at column 3$"):
        run_trial(cfg, 300.0, 0, draw)
    with pytest.raises(SingularMatrixError, match="^pivot below threshold at column 3$"):
        run_sweep(cfg, "snr", [0.0, 300.0])


def test_zf_and_capacity_at_120_db_never_form_a_whitener(monkeypatch):
    monkeypatch.setattr(ifrx.harness, "sample_channel", rank_deficient)
    stacks = []
    inner = ifrx.ifcore.solve_inverse
    monkeypatch.setattr(ifrx.ifcore, "solve_inverse",
                        lambda m: stacks.append(np.array(m)) or inner(m))
    cfg = small_cfg(l=4, snr_db_grid=(120.0,), trials=3, methods=("zf", "capacity"),
                    prime_p=None)
    aggs = run_sweep(cfg, "snr", [100.0, 120.0])
    assert [(a.method, a.success_prob) for a in aggs] == [
        ("zf", 0.0), ("zf", 0.0), ("capacity", 1.0), ("capacity", 1.0)]
    # one stack per draw, holding the ZF Gram matrix H^T H alone
    assert len(stacks) == cfg.trials
    for t, stack in enumerate(stacks):
        h = rank_deficient(derive_trial_rng(cfg.master_seed, t), cfg.l)
        assert stack.shape == (1, 4, 4) and np.array_equal(stack[0], h.T @ h)
    # a method that reads the whitener raises from it
    with pytest.raises(SingularMatrixError):
        run_sweep(replace(cfg, methods=("zf", "capacity", "mmse")), "snr", [100.0, 120.0])
