import random
import weakref
from dataclasses import replace

import numpy as np
import pytest

import ifrx.harness
import ifrx.ifcore
import ifrx.sdm
from ifrx.channel import ChannelRealization, sample_channel
from ifrx.errors import ConvergenceError, IfrxError, InvalidInputError, SingularMatrixError
from ifrx.fieldrec import PrimeField
from ifrx.harness import (
    Aggregate,
    ExperimentConfig,
    TrialRecord,
    draw_trial,
    run_sweep,
    run_trial,
    write_csv,
)
from ifrx.ifcore import mmse_rates, zf_rates
from ifrx.linalg import echelon_det, int_rank_independent
from ifrx.select import (
    METHOD_EXHAUSTIVE,
    METHOD_FALLBACK,
    METHOD_SDM,
    design_if,
    greedy_full_rank,
)
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
    for kwargs, message in (({"l": 1}, "^l must be >= 2$"), ({"bound_m": 0}, "^bound_m must be >= 1$"),
                            ({"methods": ()}, "^methods must be nonempty$"),
                            # None raised a raw TypeError
                            ({"methods": None}, "^methods must be a sequence of method names$")):
        with pytest.raises(InvalidInputError, match=message):
            small_cfg(**kwargs)
    # prime_p is read by the integer rule too; these raised a raw TypeError
    for value in (257.0, "257"):
        with pytest.raises(InvalidInputError, match="^prime_p must be an integer"):
            small_cfg(prime_p=value)
    assert type(small_cfg(prime_p=np.int64(257)).prime_p) is int
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
    # a search config's values are read by that rule before J is checked;
    # these were compared first and raised a raw TypeError
    for name, value in (("bound_m", "2"), ("lines_j", None), ("lines_j", 1.0)):
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
            cfg.search(**{name: value})
    assert cfg.search(bound_m=np.int64(3), lines_j=True) == SearchConfig(bound_m=3, lines_j=1)


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

    def scripted(cfg, snr_db, t, draw, search):
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

    def running(cfg, snr_db, t, draw, search):
        records = inner_trial(cfg, snr_db, t, draw, search)
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
    # None raised a raw TypeError
    with pytest.raises(InvalidInputError, match="^sweep values must be a sequence of values$"):
        run_sweep(cfg, "snr", None)


@pytest.mark.parametrize("sweep", ["lines_j", "bound_m"])
def test_run_sweep_rejects_non_integer_values(sweep):
    with pytest.raises(InvalidInputError, match=f"^{sweep} value must be an integer, got 1.5"):
        run_sweep(small_cfg(methods=("mmse",)), sweep, [1, 1.5])


@pytest.mark.parametrize("methods", [("if-sdm", "mmse"), ("mmse", "zf")])
def test_run_sweep_refuses_out_of_range_values_with_or_without_the_line_pass(methods):
    # a sweep cell is an SNR point and a search config, no longer a whole
    # config; its values keep the config's rules and messages
    cfg = small_cfg(l=4, lines_j=1, trials=1, methods=methods)
    for sweep, bad, message in (("lines_j", 4, r"^lines_j must be in \[1, 3\]$"),
                                ("lines_j", 0, r"^lines_j must be in \[1, 3\]$"),
                                ("bound_m", 0, "^bound_m must be >= 1$"),
                                ("bound_m", -3, "^bound_m must be >= 1$")):
        for values in ([bad], [1, bad, 2]):
            with pytest.raises(InvalidInputError, match=message):
                run_sweep(cfg, sweep, values)
        # the config's own field keeps the same rule and message
        with pytest.raises(InvalidInputError, match=message):
            replace(cfg, **{sweep: bad})
    assert len(run_sweep(cfg, "lines_j", [3])) == len(methods)


@pytest.mark.parametrize("sweep", ["lines_j", "bound_m"])
def test_run_sweep_reads_values_by_the_integer_rule(sweep):
    # values are read by the rule of the config's integer fields: 1.0 ran
    # and was written as "1.0", True as "True", and 10**400 overflowed float()
    cfg = small_cfg(l=4, lines_j=1, trials=1, methods=("if-sdm",))
    with pytest.raises(InvalidInputError, match="must be an integer, got 1.0"):
        run_sweep(cfg, sweep, [1.0])
    aggs = run_sweep(cfg, sweep, [True, np.int64(2)])
    assert [type(a.sweep_value) for a in aggs] == [int, int]
    assert [a.sweep_value for a in aggs] == [1, 2]
    assert repr(aggs[0]) == repr(run_sweep(cfg, sweep, [1])[0])
    with pytest.raises(IfrxError):
        run_sweep(cfg, sweep, [10**400])


def test_snr_points_are_read_by_the_real_rule():
    # "abc" and None raised a raw ValueError or TypeError, a bare 5.0 a
    # TypeError, a complex point lost its imaginary part, and b"10" ran as
    # the points 49.0 and 48.0
    for grid in (("abc",), (None,), (b"10",), (1j,), (10.0 + 0j,)):
        with pytest.raises(InvalidInputError, match="^snr_db_grid entry must be a real number"):
            small_cfg(snr_db_grid=grid)
    for grid in (5.0, None, b"10", "10"):
        with pytest.raises(InvalidInputError, match="^snr_db_grid must be a sequence"):
            small_cfg(snr_db_grid=grid)
    cfg = small_cfg(snr_db_grid=(np.float32(10.0), np.int64(20), True, 30))
    assert cfg.snr_db_grid == (10.0, 20.0, 1.0, 30.0)
    assert all(type(s) is float for s in cfg.snr_db_grid)
    cfg = small_cfg(l=4, lines_j=1, trials=1, methods=("mmse",))
    for value in ("abc", None, "10", 10j):
        with pytest.raises(InvalidInputError, match="^snr value must be a real number"):
            run_sweep(cfg, "snr", [value])
        # a trial's own point, or a draw's, raised a raw TypeError at snr_db / 10
        with pytest.raises(InvalidInputError, match="^snr_db must be a real number"):
            run_trial(cfg, value, 0)
        with pytest.raises(InvalidInputError, match="^snr_db must be a real number"):
            draw_trial(cfg, 0, [(value, cfg.search())])
    aggs = run_sweep(cfg, "snr", [np.float64(10.0), 20])
    assert [(a.sweep_value, a.snr_db) for a in aggs] == [(10.0, 10.0), (20.0, 20.0)]
    assert all(type(a.sweep_value) is float for a in aggs)


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
    """One trial on a fresh channel and realization: run_trial as it was
    before sweeps shared a draw between cells."""
    h = sample_channel(cfg.master_seed, trial_index, cfg.l)
    ch = ChannelRealization(h=h, power=10.0 ** (snr_db / 10.0))
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

    def no_elimination(*args):
        raise AssertionError("the run path eliminated A over F_p")
    # the flag is det A mod p from greedy's echelon: no F_p elimination runs
    monkeypatch.setattr(ifrx.harness, "recover_messages", no_elimination)
    got = run_sweep(cfg, sweep, values)
    # repr tells -0.0 from 0.0, so this is bit identity of every field
    assert repr(got) == repr(ref)


def test_mod_p_flags_of_a_shared_draw_match_a_round_trip():
    # p = 2 makes some designs singular mod p, so both flags are kept
    cfg = small_cfg(l=5, snr_db_grid=(0.0, 20.0), trials=6, bound_m=2, lines_j=1, prime_p=2,
                    methods=("if-sdm", "if-exhaustive"))
    cells = [(snr, replace(cfg, lines_j=j)) for j in (1, 2, 3, 4) for snr in cfg.snr_db_grid]
    field, flags = PrimeField(cfg.prime_p), set()
    for t in range(cfg.trials):
        draw = draw_trial(cfg, t, cells)
        for snr, sub in cells:
            records = run_trial(sub, snr, t, draw)
            # a cell drawn on its own gets the same records
            assert records == run_trial(sub, snr, t)
            ch = draw[snr]
            for rec, tag in zip(records, (METHOD_SDM, METHOD_EXHAUSTIVE)):
                a = design_if(ch, SearchConfig(sub.bound_m, sub.lines_j), tag).a
                expected = round_trip_invertible(a, field, random.Random(t))
                assert rec.modp_invertible == expected
                flags.add(expected)
    assert flags == {False, True}


@pytest.mark.parametrize("p", [2, 3, 257, 2**64 - 59])
def test_the_mod_p_flag_matches_a_round_trip_and_the_determinant(p):
    gen = random.Random(p)
    field = PrimeField(p)
    flags = []
    for i in range(150):
        l = gen.randint(2, 8)
        while True:
            a = np.array([[gen.randint(-3, 3) for _ in range(l)] for _ in range(l)],
                         dtype=np.int64)
            if i % 10 == 0 and p < 1000:
                # singular mod p only: a rationally singular A, one entry moved by p
                a[-1] = a[0] + gen.randint(-2, 2) * a[1]
                a[-1, gen.randrange(l)] += p
            elif i % 10 == 0:
                # det of the leading block is 2^64 - (2^64 - p) = p
                a[:2, :2] = [[2**32, 1], [2**64 - p, 2**32]]
                a[:2, 2:] = a[2:, :2] = 0
            # rationally singular A is covered by test_fieldrec
            if greedy_full_rank(a) is not None:
                break
        # greedy over A's own rows of full rank picks them all, in order
        memo = {}
        assert greedy_full_rank(a, memo).tolist() == a.tolist()
        det = echelon_det(memo["greedy"][2])
        assert det == bareiss_det(a.tolist())
        flag = det % p != 0
        assert flag == round_trip_invertible(a, field, gen)
        flags.append(flag)
    assert set(flags) == {False, True}


def test_the_mod_p_flag_rejects_a_non_integer_matrix():
    # the flag is read from greedy's echelon, whose inputs are integers only:
    # a truncating cast read [[0.5, 0], [0, 1]] as singular
    bad = [[0.5, 0], [0, 1]]
    with pytest.raises(InvalidInputError, match="must be integers"):
        greedy_full_rank(np.array(bad))
    with pytest.raises(InvalidInputError, match="must hold integers"):
        int_rank_independent(bad)


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
        memo = ifrx.ifcore.compute_q(draw[snr]).memo
        assert set(memo) == {"basis", ("union", 1), ("union", 3)}
        assert memo[("union", 1)][2] == memo[("union", 3)][2] == 5
    # the J sweep's designs read those unions and keep no second copy
    for snr, search in cells:
        run_trial(cfg, snr, 0, draw, search)
    for snr in cfg.snr_db_grid:
        memo = ifrx.ifcore.compute_q(draw[snr]).memo
        assert {k for k in memo if isinstance(k, tuple)} == {("union", 1), ("union", 3)}


def test_run_trial_refuses_a_draw_without_its_snr_point():
    cfg = small_cfg(snr_db_grid=(10.0, 20.0))
    draw = draw_trial(cfg, 0, [(10.0, cfg)])
    with pytest.raises(InvalidInputError, match="^the trial draw holds no SNR point 20 dB$"):
        run_trial(cfg, 20.0, 0, draw)


def test_a_draw_holds_one_realization_per_snr_point_shared_by_its_cells(monkeypatch):
    calls = []
    inner = ifrx.sdm.sym_eigen
    monkeypatch.setattr(ifrx.sdm, "sym_eigen", lambda q: calls.append(len(q)) or inner(q))
    cfg = small_cfg(l=4, snr_db_grid=(20.0, 0.0), methods=("if-sdm", "mmse"))
    cells = [(snr, replace(cfg, lines_j=j)) for j in (1, 2, 3) for snr in (20.0, 0.0, 20.0)]
    draw = draw_trial(cfg, 0, cells)
    # first-occurrence order, one eigensolve stack of one slice per point
    assert list(draw) == [20.0, 0.0] and calls == [2]
    assert all(type(ch) is ChannelRealization for ch in draw.values())
    # an SNR point whose power overflows or underflows raises when the draw is made
    for snr, message in ((4000.0, "^SNR 4000 dB overflows the transmit power$"),
                         (-4000.0, "^power must be positive and finite$"),
                         (-3100.0, "^power 1e-310 is too small: 1/P overflows a float$")):
        with pytest.raises(InvalidInputError, match=message):
            draw_trial(cfg, 0, [(20.0, cfg), (snr, cfg)])
    forms = {snr: ifrx.ifcore.compute_q(ch) for snr, ch in draw.items()}
    records = [run_trial(sub, snr, 0, draw) for snr, sub in cells]
    # every cell of a point read its one realization and form, and their memos
    assert calls == [2]
    assert records == [run_trial(sub, snr, 0) for snr, sub in cells]
    for snr, ch in draw.items():
        assert ch.power == 10.0 ** (snr / 10) and ifrx.ifcore.compute_q(ch) is forms[snr]
        assert "greedy" in forms[snr].memo


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
    monkeypatch.setattr(ifrx.harness, "sample_channel", lambda seed, trial, l: np.ones((l, l)))
    cfg = small_cfg(l=4, trials=2, methods=("zf", "mmse"), prime_p=None)
    aggs = run_sweep(cfg, "snr", [0.0, 10.0, 20.0])
    zf = [a for a in aggs if a.method == "zf"]
    assert [(a.success_prob, a.avg_rate_min) for a in zf] == [(0.0, 0.0)] * 3
    # one stack per draw: the three whiteners, then the ZF Gram matrix
    assert len(calls) == cfg.trials


def test_prime_field_is_built_once_per_config(monkeypatch):
    cfg = small_cfg(trials=2)
    assert cfg.prime_p == 257

    def no_field(p):
        raise AssertionError("a cell built its own prime field")
    monkeypatch.setattr(ifrx.harness, "PrimeField", no_field)
    records = run_trial(cfg, 10.0, 0)
    assert all(r.modp_invertible is not None for r in records if r.method.startswith("if-"))
    assert run_sweep(cfg, "snr", [0.0, 10.0])


def rank_deficient(seed, trial, l):
    h = sample_channel(seed, trial, l)
    h[-1] = 2.0 * h[0]
    return h


def test_a_draw_raises_its_failed_eigensolve(monkeypatch):
    cfg = small_cfg(l=4, snr_db_grid=(0.0, 10.0, 20.0), trials=1, lines_j=3, bound_m=2,
                    methods=("mmse", "if-sdm"))
    expected = {snr: run_trial(cfg, snr, 0) for snr in cfg.snr_db_grid}
    # the form the 10 dB cell decomposes, exactly symmetric, so eigh sees it as is
    target = ifrx.ifcore.compute_q(draw_trial(cfg, 0)[10.0]).q
    inner = np.linalg.eigh
    calls = []

    def fails_at_10_db(a):
        calls.append(len(a))
        if any(np.array_equal(s, target) for s in np.reshape(a, (-1, 4, 4))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return inner(a)

    monkeypatch.setattr(np.linalg, "eigh", fails_at_10_db)
    with pytest.raises(ConvergenceError, match="^eigh did not converge: Eigenvalues"):
        draw_trial(cfg, 0)
    # one stacked call raises for every point, and no slice runs again
    assert calls == [3]
    with pytest.raises(ConvergenceError, match="^eigh did not converge: Eigenvalues"):
        run_sweep(cfg, "snr", cfg.snr_db_grid)
    # a cell drawn alone raises only at the failing point
    for snr in (0.0, 20.0):
        assert run_trial(cfg, snr, 0) == expected[snr]
    with pytest.raises(ConvergenceError, match="^eigh did not converge: Eigenvalues"):
        run_trial(cfg, 10.0, 0)
    # the 10 dB MMSE rates read no eigenbasis
    assert mmse_rates(draw_trial(replace(cfg, methods=("mmse",)), 0)[10.0]) == mmse_rates(
        ChannelRealization(h=sample_channel(cfg.master_seed, 0, cfg.l), power=10.0))


def test_a_draw_raises_its_singular_whitener(monkeypatch):
    monkeypatch.setattr(ifrx.harness, "sample_channel", rank_deficient)
    cfg = small_cfg(l=4, snr_db_grid=(0.0, 300.0), trials=1, lines_j=3, bound_m=2,
                    methods=("if-sdm", "mmse", "zf", "capacity"))
    with pytest.raises(SingularMatrixError, match="^pivot below threshold at column 3$"):
        draw_trial(cfg, 0)
    # a cell drawn alone raises only at the failing point
    healthy = replace(cfg, snr_db_grid=(0.0,))
    assert run_trial(cfg, 0.0, 0) == run_trial(healthy, 0.0, 0, draw_trial(healthy, 0))
    with pytest.raises(SingularMatrixError, match="^pivot below threshold at column 3$"):
        run_trial(cfg, 300.0, 0)
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
        h = rank_deficient(cfg.master_seed, t, cfg.l)
        assert stack.shape == (1, 4, 4) and np.array_equal(stack[0], h.T @ h)
    # a method that reads the whitener raises from it
    with pytest.raises(SingularMatrixError):
        run_sweep(replace(cfg, methods=("zf", "capacity", "mmse")), "snr", [100.0, 120.0])
    # capacity alone inverts nothing
    stacks.clear()
    draw = draw_trial(replace(cfg, methods=("capacity",)), 0)
    assert stacks == [] and all("capacity" in ch.memo for ch in draw.values())
