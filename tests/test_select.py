import itertools
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from ifrx import select
from ifrx.channel import ChannelRealization, sample_channel
from ifrx.errors import InstanceTooLargeError, InvalidInputError, SingularMatrixError
from ifrx.harness import ExperimentConfig, draw_trial, run_sweep
from ifrx.ifcore import (
    RateReport,
    compute_q,
    kept_rates,
    mmse_rates,
)
from ifrx.linalg import echelon_det, int_rank_independent
from ifrx.sdm import SearchConfig, _row_f, candidate_set, f_order, leading, prepare_lines
from ifrx.select import design_if, greedy_full_rank, sphere_candidates
from oracles import as_tuples, bareiss_det, make_qform, ranked_copy_greedy

BOX_GUARD = 10**7


def reference_box(l, m):
    """Tuple loop over the box, the rows exhaustive_candidates must equal."""
    out = []
    for vec in itertools.product(range(-m, m + 1), repeat=l):
        for c in vec:
            if c > 0:
                out.append(vec)
                break
            if c < 0:
                break
    return out


@lru_cache(maxsize=8)
def exhaustive_candidates(l, m):
    """Every sign-canonical nonzero integer vector in [-M, M]^L, read-only
    and in lexicographic order: the brute-force box, size ((2M+1)^L - 1) / 2.
    Greedy over it ranked is the design the sphere enumeration must equal."""
    if l < 1 or m < 1:
        raise InvalidInputError("l and m must be >= 1")
    if (2 * m + 1) ** l > BOX_GUARD:
        raise InstanceTooLargeError(f"(2M+1)^L = {(2 * m + 1) ** l} exceeds the box guard {BOX_GUARD}")
    box = np.indices((2 * m + 1,) * l).reshape(l, -1).T
    box -= m
    arr = box[leading(box) > 0]
    arr.setflags(write=False)
    return arr


def reference_sorted_order(arr, q):
    """(f, lex) order by one lexsort, the order f_order must equal."""
    f = ((arr @ q) * arr).sum(axis=1)
    keys = tuple(arr[:, k] for k in reversed(range(arr.shape[1]))) + (f,)
    return np.lexsort(keys)


SOURCES = [("sdm", l, m, j) for l, m, j in ((2, 1, 1), (3, 2, 2), (4, 1, 3), (5, 3, 2), (8, 2, 4),
                                             (8, 2, 7), (10, 1, 5))]
SOURCES += [("box", l, m, None) for l, m in ((1, 1), (2, 1), (3, 3), (4, 2), (8, 2))]


@pytest.mark.parametrize("source,l,m,j", SOURCES)
def test_candidate_arrays_are_distinct_sorted_canonical_in_box(source, l, m, j):
    if source == "box":
        arrays = [exhaustive_candidates(l, m)]
    else:
        arrays = [candidate_set(compute_q(ChannelRealization(h=sample_channel(9, t, l),
                                                             power=100.0)),
                                SearchConfig(bound_m=m, lines_j=j)) for t in range(10)]
    for arr in arrays:
        assert arr.dtype == np.int64 and arr.ndim == 2 and arr.shape[1] == l and len(arr)
        assert not arr.flags.writeable
        vectors = as_tuples(arr)
        assert vectors == sorted(set(vectors)), "rows must be distinct and lexicographic"
        assert all(next((c for c in v if c), 0) > 0 for v in vectors), "zero or non-canonical row"
        assert np.abs(arr).max() <= m


def test_exhaustive_candidates_equal_the_tuple_loop():
    for l in range(1, 9):
        for m in (1, 2, 3):
            if (2 * m + 1) ** l <= 5**8:
                assert as_tuples(exhaustive_candidates(l, m)) == reference_box(l, m), (l, m)


def test_sort_candidates_with_tie_break():
    arr = np.array([[1, -1], [1, 0], [1, 1]])
    ranked = arr[f_order(arr, np.diag([0.2, 0.5]))]
    assert ranked.tolist() == [[1, 0], [1, -1], [1, 1]]


def test_sort_candidates_equal_f_lexicographic():
    arr = np.array([[0, 1], [1, 0]])
    assert arr[f_order(arr, 0.5 * np.eye(2))].tolist() == [[0, 1], [1, 0]]


def test_rank_candidates_equals_the_lexsort_reference():
    rng = np.random.RandomState(6)
    tied = 0
    for trial in range(300):
        l = rng.randint(2, 7)
        m = rng.randint(1, 4)
        if trial % 3 == 0:
            q = compute_q(ChannelRealization(h=rng.standard_normal((l, l)), power=10.0)).q
        else:
            # small-integer diagonal and scaled-identity forms: many rows share one f
            q = np.diag(rng.randint(1, 3, size=l).astype(float)) if trial % 3 == 1 else 0.5 * np.eye(l)
        vectors = {tuple(int(x) for x in rng.randint(-m, m + 1, size=l)) for _ in range(rng.randint(1, 40))}
        arr = np.array(sorted(vectors), dtype=np.int64)
        f = ((arr @ q) * arr).sum(axis=1)
        assert f_order(arr, q).tolist() == reference_sorted_order(arr, q).tolist()
        tied += len(set(f.tolist())) < len(arr)
    assert tied >= 100
    # the shuffled lexsort reference agrees too: ranking depends on the rows only
    arr = exhaustive_candidates(4, 2)
    q = 0.5 * np.eye(4)
    shuffled = arr[rng.permutation(len(arr))]
    assert arr[f_order(arr, q)].tolist() == shuffled[reference_sorted_order(shuffled, q)].tolist()


def test_greedy_picks_earliest_independent():
    got = greedy_full_rank(np.array([(1, 0), (1, -1), (1, 1)]), np.arange(3))
    assert got.dtype == np.int64 and got.tolist() == [[1, 0], [1, -1]]


def test_greedy_fails_on_collinear_set():
    assert greedy_full_rank(np.array([(1, 0), (2, 0)]), np.arange(2)) is None
    assert greedy_full_rank(np.zeros((0, 3), dtype=np.int64), np.arange(0)) is None


def test_greedy_rejects_non_integer_rows():
    # a truncating cast would pick the row [1, 0], which the input does not hold
    for ranked in (np.array([[1.5, 0], [0, 1]]), np.array([[1.0, 0], [0, 1]]), np.eye(2, dtype=bool)):
        with pytest.raises(InvalidInputError, match="must be integers"):
            greedy_full_rank(ranked, np.arange(2))
    rows = np.array([[0, 3], [2, 0]], dtype=np.uint8)
    assert greedy_full_rank(rows, np.arange(2)).tolist() == [[0, 3], [2, 0]]


def reference_greedy(sorted_vectors):
    """Gram + Bareiss determinant from scratch per candidate, the form the
    list echelon in greedy_full_rank must agree with."""
    chosen = []
    for row in sorted_vectors:
        vec = tuple(int(c) for c in row)
        rows = chosen + [vec]
        gram = [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]
        if bareiss_det(gram) != 0:
            chosen.append(vec)
            if len(chosen) == len(vec):
                return chosen
    return None


def test_greedy_matches_gram_bareiss_reference(monkeypatch):
    rng = np.random.RandomState(61)
    small = []
    for _ in range(400):
        l = rng.randint(2, 7)
        m = rng.randint(1, 4)
        rows = [tuple(int(x) for x in rng.randint(-m, m + 1, size=l)) for _ in range(rng.randint(1, 12))]
        # dependent rows: sums and multiples of earlier ones, plus zero rows
        for _ in range(rng.randint(0, 6)):
            a, b = rows[rng.randint(len(rows))], rows[rng.randint(len(rows))]
            k = rng.randint(-2, 3)
            rows.insert(rng.randint(len(rows) + 1), tuple(x + k * y for x, y in zip(a, b)))
        if rng.rand() < 0.2:
            rows.insert(rng.randint(len(rows) + 1), (0,) * l)
        if rng.rand() < 0.2:
            # collinear list: greedy must fall back
            base = rows[0]
            rows = [tuple(k * x for x in base) for k in range(1, 6)]
        arr = np.array(rows, dtype=np.int64)
        small.append(arr[np.argsort((arr**2 * rng.uniform(0.1, 1.0, size=l)).sum(axis=1), kind="stable")])
    # the ranked sets design_if hands greedy at the benchmark's L = 8, M = 2
    # and 20 dB, over J = 1..7; J = 1 yields fallbacks
    designed, real = [], select.greedy_full_rank

    def capture(rows, order, memo=None):
        designed.append(rows[order])
        return real(rows, order, memo)

    monkeypatch.setattr(select, "greedy_full_rank", capture)
    for t in range(6):
        ch = ChannelRealization(h=sample_channel(61, t, 8), power=100.0)
        for j in range(1, 8):
            design_if(ch, SearchConfig(bound_m=2, lines_j=j), "sdm")
    monkeypatch.undo()
    # entries up to 10^4, so the residuals grow far past 64 bits before
    # their gcd is divided out; spans of k < L rows must fall back
    big_rng = np.random.RandomState(62)
    big = []
    for _ in range(120):
        l = big_rng.randint(2, 9)
        if big_rng.rand() < 0.4:
            basis = big_rng.randint(-30, 31, size=(big_rng.randint(1, l), l))
            rows = big_rng.randint(-30, 31, size=(big_rng.randint(1, 12), len(basis))) @ basis
        else:
            rows = big_rng.randint(-10**4, 10**4 + 1, size=(big_rng.randint(1, 12), l))
            for _ in range(big_rng.randint(0, 4)):
                a, b = rows[big_rng.randint(len(rows))], rows[big_rng.randint(len(rows))]
                rows = np.insert(rows, big_rng.randint(len(rows) + 1), a - b, axis=0)
        big.append(rows.astype(np.int64))
    for ranked_sets in (small, designed, big):
        outcomes = set()
        for ranked in ranked_sets:
            got = greedy_full_rank(ranked, np.arange(len(ranked)))
            expected = reference_greedy(ranked)
            assert (got is None and expected is None) or as_tuples(got) == expected
            outcomes.add(got is None)
        assert outcomes == {True, False}
    assert len(designed) == 42 and max(int(np.abs(r).max()) for r in big) > 5000


@pytest.mark.parametrize("l", [4, 8])
def test_resumed_greedy_equals_a_fresh_scan(l):
    # design_if resumes greedy from its form's last scan; over lines_j and
    # bound_m sweeps of one realization each design must be a fresh scan's
    restores_full_rank = resumes_after_fallback = 0
    sweep = ([SearchConfig(bound_m=2, lines_j=j) for j in range(1, l)]
             + [SearchConfig(bound_m=2, lines_j=j) for j in range(l - 2, 0, -1)]
             + [SearchConfig(bound_m=m, lines_j=l // 2) for m in (1, 2, 3, 1)])
    for t in range(6):
        for power in (1.0, 100.0):
            ch = ChannelRealization(h=sample_channel(63, t, l), power=power)
            qform = compute_q(ch)
            for cfg in sweep:
                omega = candidate_set(qform, cfg)
                order = f_order(omega, qform.q)
                fresh_memo = {}
                fresh = greedy_full_rank(omega, order, fresh_memo)
                kept = qform.memo.get("greedy")
                if kept is not None:
                    seen, picks, echelon = kept
                    assert len(picks) == len(echelon)
                    prefix = omega[order].tolist()[:len(seen)] == seen
                    restores_full_rank += prefix and len(picks) == l
                    resumes_after_fallback += len(picks) < l
                design = design_if(ch, cfg, "sdm")
                assert design.success == (fresh is not None)
                assert qform.memo["greedy"] == fresh_memo["greedy"]
                if fresh is not None:
                    assert design.a.tolist() == fresh.tolist()
                    # the resumed scan's echelon gives the fresh scan's det
                    resumed = echelon_det(qform.memo["greedy"][2])
                    assert resumed == echelon_det(fresh_memo["greedy"][2]) == design.det
    assert restores_full_rank and resumes_after_fallback, (restores_full_rank, resumes_after_fallback)


def resume(first, second, monkeypatch):
    """Greedy over ``second`` resumed from its scan of ``first``, checked
    against a fresh scan of ``second``: the same rows, and a memo equal to
    the fresh one's (rows read, picks, echelon entries). Returns the
    resumed scan's rows and its ``echelon_add`` calls."""
    first, second = np.array(first, dtype=np.int64), np.array(second, dtype=np.int64)
    fresh_memo, memo = {}, {}
    fresh = greedy_full_rank(second, np.arange(len(second)), fresh_memo)
    greedy_full_rank(first, np.arange(len(first)), memo)
    calls = []
    real = select.echelon_add
    monkeypatch.setattr(select, "echelon_add", lambda e, v: calls.append(v) or real(e, v))
    got = greedy_full_rank(second, np.arange(len(second)), memo)
    monkeypatch.undo()
    assert (got is None and fresh is None) or got.tolist() == fresh.tolist()
    assert memo["greedy"] == fresh_memo["greedy"]
    return got, calls


def test_resumed_greedy_leaves_a_fresh_scans_memo(monkeypatch):
    # picks at 0, 2 and 4, each followed by a dependent row
    kept = [[1, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]]
    # the shared prefix ends before the last kept pick: row 3 is new and
    # picked, so only rows from 3 on are tested
    got, calls = resume(kept, kept[:3] + [[0, 1, 1], [0, 0, 1]], monkeypatch)
    assert got.tolist() == [[1, 0, 0], [0, 1, 0], [0, 1, 1]] and calls == [[0, 1, 1]]
    # it ends at the last kept pick: row 4 is new and dependent, row 5 picked
    got, calls = resume(kept, kept[:4] + [[2, 2, 0], [0, 0, 3]], monkeypatch)
    assert got.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 3]]
    assert calls == [[2, 2, 0], [0, 0, 3]]
    # it ends after the last kept pick: the scan is replayed, nothing tested
    got, calls = resume(kept, kept[:5] + [[5, 5, 5]], monkeypatch)
    assert got.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]] and calls == []
    # a shorter array that keeps the first two picks, and no third
    got, calls = resume(kept, kept[:4], monkeypatch)
    assert got is None and calls == []
    # a failed scan, then a longer array with the same prefix: the kept
    # rows are replayed and only the rows past them are tested
    failed = [[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 2, 0]]
    got, calls = resume(failed, failed + [[1, 1, 0], [0, 0, 1], [1, 1, 1]], monkeypatch)
    assert got.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert calls == [[1, 1, 0], [0, 0, 1]]
    # a failed scan, then an array that differs in its first row
    got, calls = resume(failed, [[0, 3, 0]] + failed, monkeypatch)
    assert got is None and len(calls) == 5


def test_resumed_greedy_on_random_prefixes(monkeypatch):
    # random arrays with a shared prefix of every length, dependent rows
    # among them, at L = 3 and 4
    rng = np.random.RandomState(27)
    outcomes = set()
    for _ in range(150):
        l = rng.randint(3, 5)
        first = rng.randint(-1, 2, size=(rng.randint(1, 10), l))
        first[rng.rand(len(first)) < 0.4] = first[0]
        cut = rng.randint(len(first) + 1)
        second = np.concatenate([first[:cut], rng.randint(-1, 2, size=(rng.randint(0, 8), l))])
        got, _ = resume(first, second, monkeypatch)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_greedy_reads_only_the_rows_it_scans():
    # the first L rows are independent, so a scan reads one block of the
    # 200,000 and the memo keeps the rows read, not a copy of the array
    l = 8
    ranked = np.random.RandomState(5).randint(-3, 4, size=(200_000, l)).astype(np.int64)
    ranked[:l] = np.eye(l, dtype=np.int64)[::-1] + np.tri(l, k=-1, dtype=np.int64)
    order = np.arange(len(ranked))
    memo = {}
    tracemalloc.start()
    try:
        got = greedy_full_rank(ranked, order, memo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == ranked[:l].tolist()
    assert peak < 1_000_000, peak
    assert memo["greedy"][0] == ranked[:l].tolist()
    # a resumed scan reads no further than the kept rows it compares
    tracemalloc.start()
    try:
        assert greedy_full_rank(ranked, order, memo).tolist() == got.tolist()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_greedy_refuses_a_malformed_order():
    rows = np.array([[1, 0], [0, 1], [1, 1]])
    for order in (np.array([[0, 1]]), np.array([0.0, 1.0]), np.array([True, False]), [0, 1],
                  np.array([0, 3]), np.array([0, -1])):
        with pytest.raises(InvalidInputError, match="order must be a 1-D numpy integer array"):
            greedy_full_rank(rows, order)
    # -1 would wrap to the last row, with which the first is full rank
    assert greedy_full_rank(rows, np.array([0, 2])).tolist() == [[1, 0], [1, 1]]
    assert greedy_full_rank(rows, np.array([1, 0], dtype=np.uint8)).tolist() == [[0, 1], [1, 0]]


def in_place_and_copy(rows, order, memo, ref_memo):
    """Greedy through ``order`` against the reference over the ranked copy
    ``rows[order]``, each resuming its own memo: the same A, picks and
    kept scan. Returns the A."""
    want = ranked_copy_greedy(rows[order], ref_memo)
    got = greedy_full_rank(rows, order, memo)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert memo["greedy"] == ref_memo["greedy"]
    return got


def test_greedy_through_an_order_equals_greedy_over_the_ranked_copy():
    # seeded unions at L = 4..8, M = 2..200: each form's whole f-order, and
    # J's masked orders below the union's coverage, in a sweep's order with
    # one memo per form, as design_if chains them; then the exhaustive
    # design's sphere rounds, chained as _exhaustive_rows chains them
    seen = {"masked": 0, "replayed": 0, "none": 0, "full rank": 0, "sphere": 0}
    for l in (4, 6, 8):
        for t in range(3):
            h = sample_channel(44, 10 * l + t, l)
            for snr in (0.0, 20.0, 40.0):
                form = compute_q(ChannelRealization(h=h, power=10.0 ** (snr / 10)))
                memo, ref_memo = {}, {}
                for m in (2, 20, 200):
                    prepare_lines([form], l - 1, m)
                    union, _, order, _ = form.memo[("union", m)]
                    for rows, order in [(union, order)] + [prepare_lines([form], j, m)[0]
                                                           for j in (1, l // 2, l - 2, 2)]:
                        kept = memo.get("greedy", ((),))[0]
                        seen["replayed"] += bool(kept) and kept[0] == rows[order[0]].tolist()
                        seen["masked"] += len(order) < len(rows)
                        a = in_place_and_copy(rows, order, memo, ref_memo)
                        seen["none" if a is None else "full rank"] += 1
                q, memo, ref_memo = form.q, {}, {}
                g, cap = select._lower_factor(q), q.diagonal().max()
                for radius in (cap / 16, cap / 4, cap):
                    sphere = sphere_candidates(q, g, 2, radius)
                    in_place_and_copy(sphere, f_order(sphere, q), memo, ref_memo)
                    seen["sphere"] += 1
    assert min(seen.values()) >= 5, seen
    # arbitrary orders, none a permutation, over random rows
    rng = np.random.RandomState(44)
    for _ in range(200):
        rows = rng.randint(-2, 3, size=(rng.randint(1, 40), rng.randint(2, 6)))
        memo, ref_memo = {}, {}
        for _ in range(3):
            order = rng.randint(len(rows), size=rng.randint(0, 2 * len(rows)))
            in_place_and_copy(rows, order, memo, ref_memo)


def test_a_design_copies_no_candidate_rows():
    # a design reads its form's union through J's order, so the union's
    # own order (J = 7) and a masked one (J = 4) cost far less memory than
    # the rows (a copy of them read 1.01 of the union's bytes)
    for seed in (1, 2, 3):
        cfg = ExperimentConfig(l=8, snr_db_grid=(20.0,), trials=1, bound_m=200, lines_j=7,
                               master_seed=seed, methods=("if-sdm",))
        ch = draw_trial(cfg, 0)[20.0]
        union = compute_q(ch).memo[("union", 200)][0]
        tracemalloc.start()
        try:
            for j in (7, 4):
                design_if(ch, SearchConfig(bound_m=200, lines_j=j), "sdm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < union.nbytes / 2, (seed, peak, union.nbytes)


def fraction_det(a) -> int:
    """det A by Gaussian elimination over the rationals."""
    m = [[Fraction(int(x)) for x in row] for row in a]
    n, result = len(m), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            result = -result
        result *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    assert result.denominator == 1
    return int(result)


def test_design_det_equals_a_rational_determinant():
    # fresh and resumed SDM designs (J = 1 falls back at L = 8), and
    # exhaustive designs at L <= 8, over seeded channels and powers
    seen = {"fresh": 0, "resumed": 0, "exhaustive": 0, "fallback": 0}
    dets = set()
    for l in (4, 5, 8):
        for t in range(4):
            h = sample_channel(71, t, l)
            for power in (1.0, 100.0, 10.0**4):
                ch = ChannelRealization(h=h, power=power)
                for j in range(1, l):
                    design = design_if(ch, SearchConfig(bound_m=2, lines_j=j), "sdm")
                    kind = "resumed" if j > 1 else "fresh"
                    if not design.success:
                        kind = "fallback"
                        assert design.a.tolist() == np.eye(l, dtype=int).tolist()
                    assert design.det == fraction_det(design.a) != 0
                    seen[kind] += 1
                    dets.add(design.det)
                design = design_if(ch, SearchConfig(bound_m=2, lines_j=1), "exhaustive")
                assert design.success and design.det == fraction_det(design.a)
                seen["exhaustive"] += 1
                dets.add(design.det)
    assert all(seen.values()), seen
    # both signs, and a design that is not unimodular
    assert min(dets) < 0 < max(dets) and max(map(abs, dets)) > 1, dets


def test_greedy_on_exhaustive_identity_q():
    q = make_qform(0.5 * np.eye(2))
    box = exhaustive_candidates(2, 1)
    got = greedy_full_rank(box, f_order(box, q.q))
    assert got.tolist() == [[0, 1], [1, 0]]
    for row in got:
        assert float(row @ q.q @ row) == pytest.approx(0.5)


def test_exhaustive_candidates_counts_and_order():
    assert exhaustive_candidates(2, 1).tolist() == [[0, 1], [1, -1], [1, 0], [1, 1]]
    assert len(exhaustive_candidates(4, 2)) == (5**4 - 1) // 2
    assert len(exhaustive_candidates(8, 2)) == (5**8 - 1) // 2
    with pytest.raises(InstanceTooLargeError):
        exhaustive_candidates(10, 3)
    with pytest.raises(InvalidInputError):
        exhaustive_candidates(0, 1)


def test_design_identity_channel_exhaustive():
    ch = ChannelRealization(h=np.eye(2), power=1.0)
    design = design_if(ch, SearchConfig(bound_m=1, lines_j=1), "exhaustive")
    assert design.success
    assert design.method == "exhaustive"
    assert sorted(map(tuple, design.a.tolist())) == [(0, 1), (1, 0)]
    assert design.report.total == pytest.approx(1.0)


def test_design_sdm_identity_channel():
    # degenerate spectrum corner: the single line yields (1, k) candidates
    # only, so greedy succeeds with worst f = 1.0 and the total clamps to 0
    ch = ChannelRealization(h=np.eye(2), power=1.0)
    design = design_if(ch, SearchConfig(bound_m=1, lines_j=1), "sdm")
    assert design.success
    assert design.a.tolist() == [[1, 0], [1, -1]]
    assert design.report.per_stream == pytest.approx((0.5, 0.0))
    assert design.report.total == 0.0


@pytest.mark.parametrize("cfg, sweep, values", [
    # the jsweep_l8 pin's flags, and a bound sweep beside the exhaustive design
    (ExperimentConfig(l=8, snr_db_grid=(20.0,), trials=3, bound_m=2, lines_j=4, master_seed=15,
                      methods=("if-sdm",), prime_p=257), "lines_j", range(1, 8)),
    (ExperimentConfig(l=4, snr_db_grid=(5.0, 20.0), trials=4, bound_m=2, lines_j=2,
                      master_seed=13, methods=("if-sdm", "if-exhaustive")), "bound_m", range(1, 4)),
], ids=["lines", "bound"])
def test_a_design_of_the_last_designs_a_takes_its_rates_and_det(monkeypatch, cfg, sweep, values):
    import ifrx.harness
    import ifrx.select

    rated = []
    inner_rates = ifrx.select.kept_rates
    monkeypatch.setattr(ifrx.select, "kept_rates", lambda a, q: rated.append(1) or inner_rates(a, q))
    designs = []  # (form, method, design, kept_rates calls)
    inner = ifrx.harness.design_if

    def checked(ch, search, method):
        before = len(rated)
        got = inner(ch, search, method)
        designs.append((compute_q(ch), method, got, len(rated) - before))
        want = inner(ChannelRealization(h=ch.h, power=ch.power), search, method)
        assert (got.a.dtype, got.a.tobytes()) == (want.a.dtype, want.a.tobytes())
        assert (got.det, got.success, got.method) == (want.det, want.success, want.method)
        assert [r.hex() for r in got.report.per_stream] == [r.hex() for r in want.report.per_stream]
        assert got.report.total.hex() == want.report.total.hex()
        return got

    monkeypatch.setattr(ifrx.harness, "design_if", checked)
    run_sweep(cfg, sweep, values)
    last, reused = {}, 0  # form id -> A bytes of its last successful SDM design
    for form, method, design, calls in designs:
        same = method == "sdm" and design.success and last.get(id(form)) == design.a.tobytes()
        # a design of the form's last successful SDM design's A computes no
        # rate, and a fallback takes the MMSE report
        assert calls == (1 if design.success and not same else 0)
        reused += same
        if method == "sdm" and design.success:
            last[id(form)] = design.a.tobytes()
    # consecutive J or M often pick the same A
    assert reused >= cfg.trials


def test_a_fallback_is_never_handed_a_kept_success():
    # J = 2 gives the identity as a full-rank design; one line cannot reach
    # full rank, so J = 1 falls back to the identity, of the same bytes
    h = [[2.591, -0.622, -0.358], [-0.205, 2.511, 0.32], [-0.124, 0.065, 1.93]]
    ch = ChannelRealization(h=h, power=2.5)
    got = [design_if(ch, SearchConfig(bound_m=2, lines_j=j), "sdm") for j in (2, 1, 2)]
    want = [design_if(ChannelRealization(h=h, power=2.5), SearchConfig(bound_m=2, lines_j=j), "sdm")
            for j in (2, 1, 2)]
    assert [(d.success, d.method, d.det, d.a.tolist()) for d in got] \
        == [(d.success, d.method, d.det, d.a.tolist()) for d in want] \
        == [(True, "sdm", 1, np.eye(3).tolist()), (False, "mmse-identity-fallback", 1, np.eye(3).tolist()),
            (True, "sdm", 1, np.eye(3).tolist())]
    assert [d.report for d in got] == [d.report for d in want]


def report_bits(report):
    return ([r.hex() for r in report.per_stream], report.total.hex(), report.sum_form.hex(),
            report.singular)


def test_an_identity_fallback_takes_the_mmse_report(monkeypatch):
    rated = []
    inner_rates = select.kept_rates
    monkeypatch.setattr(select, "kept_rates", lambda a, q: rated.append(1) or inner_rates(a, q))
    # jsweep_l8's shape, L = 8, M = 2 and 20 dB over J = 1..7, and the
    # channel whose J = 1 falls back between two identity successes
    h3 = [[2.591, -0.622, -0.358], [-0.205, 2.511, 0.32], [-0.124, 0.065, 1.93]]
    cases = [(ChannelRealization(h=sample_channel(81, t, 8), power=100.0), range(1, 8))
             for t in range(24)]
    cases.append((ChannelRealization(h=h3, power=2.5), (2, 1, 2)))
    fallbacks = 0
    for ch, lines in cases:
        for j in lines:
            before = len(rated)
            design = design_if(ch, SearchConfig(bound_m=2, lines_j=j), "sdm")
            if design.success:
                continue
            fallbacks += 1
            assert len(rated) == before
            assert design.a.tolist() == np.eye(ch.l).tolist()
            assert report_bits(design.report) == report_bits(mmse_rates(ch))
    assert fallbacks >= 10, fallbacks


def test_kept_rates_of_the_identity_are_the_mmse_report():
    # a^T Q a of a unit row is Q's diagonal entry to the bit, on any kernel,
    # so the fallback may take the MMSE report for the identity's
    cases = 0
    for l in (2, 3, 4, 8, 16):
        for snr in (-10.0, 0.0, 20.0, 40.0, 60.0):
            for t in range(60):
                ch = ChannelRealization(h=sample_channel(83, t, l), power=10.0 ** (snr / 10))
                eye = RateReport(tuple(kept_rates(np.eye(l, dtype=np.int64), compute_q(ch))))
                assert report_bits(eye) == report_bits(mmse_rates(ch)), (l, snr, t)
                cases += 1
    assert cases == 1500


def test_design_rejects_unknown_method():
    ch = ChannelRealization(h=np.eye(2), power=1.0)
    with pytest.raises(InvalidInputError):
        design_if(ch, SearchConfig(bound_m=1, lines_j=1), "annealing")


def test_design_invariants():
    rng = np.random.RandomState(14)
    for _ in range(50):
        ch = ChannelRealization(h=rng.standard_normal((3, 3)), power=10.0)
        design = design_if(ch, SearchConfig(bound_m=2, lines_j=2), "sdm")
        qform = compute_q(ch)
        if design.success:
            assert int_rank_independent([tuple(r) for r in design.a.tolist()])
        per = kept_rates(np.asarray(design.a), qform)
        assert design.report.total == pytest.approx(max(0.0, len(per) * min(per)))


def test_greedy_rows_come_from_list_with_nondecreasing_f():
    rng = np.random.RandomState(15)
    for _ in range(30):
        ch = ChannelRealization(h=rng.standard_normal((4, 4)), power=10.0)
        qform = compute_q(ch)
        box = exhaustive_candidates(4, 1)
        got = greedy_full_rank(box, f_order(box, qform.q))
        assert got is not None
        assert set(as_tuples(got)) <= set(as_tuples(box))
        f = [float(r @ qform.q @ r) for r in got]
        assert all(f[i] <= f[i + 1] + 1e-12 for i in range(len(f) - 1))


def test_exhaustive_dominates_sdm():
    rng = np.random.RandomState(16)
    for trial in range(100):
        ch = ChannelRealization(h=rng.standard_normal((4, 4)), power=10.0)
        cfg = SearchConfig(bound_m=2, lines_j=3)
        sdm_total = design_if(ch, cfg, "sdm").report.total
        exh_total = design_if(ch, cfg, "exhaustive").report.total
        assert exh_total >= sdm_total - 1e-12


def test_exhaustive_dominates_mmse():
    rng = np.random.RandomState(18)
    for trial in range(100):
        ch = ChannelRealization(h=rng.standard_normal((3, 3)), power=10.0)
        exh = design_if(ch, SearchConfig(bound_m=1, lines_j=1), "exhaustive")
        assert exh.success
        assert exh.report.total >= mmse_rates(ch).total - 1e-12


def row_f(arr, q):
    return ((arr @ q) * arr).sum(axis=1)


def grid_index(arr, m):
    """Position of each in-box row in the lexicographic (2M+1)^L grid."""
    return (arr + m) @ (2 * m + 1) ** np.arange(arr.shape[1] - 1, -1, -1)


def check_sphere_against_box(ch, cfg):
    """The exhaustive design equals greedy over the whole ranked box; the
    sphere at the design's largest f holds every box row up to that f, each
    scored bit-identically to its score within the box. Returns whether SDM
    fell back."""
    q = compute_q(ch).q
    m = cfg.bound_m
    box = exhaustive_candidates(ch.l, m)
    design = design_if(ch, cfg, "exhaustive")
    assert design.success and design.method == "exhaustive"
    f_box = row_f(box, q)
    # f_order, with the box scored once
    assert np.array_equal(design.a, greedy_full_rank(box, np.argsort(f_box, kind="stable")))
    radius = row_f(design.a, q).max()
    sphere = sphere_candidates(q, select._lower_factor(q), m, radius)
    assert sphere.dtype == np.int64 and sphere.shape[1] == ch.l
    at = np.searchsorted(grid_index(box, m), grid_index(sphere, m))
    # strictly increasing positions: distinct, lexicographic, canonical, in-box rows
    assert np.all(np.diff(at) > 0) and np.array_equal(box[at], sphere)
    assert row_f(sphere, q).tobytes() == f_box[at].tobytes()
    assert set(np.flatnonzero(f_box <= radius)) <= set(at.tolist())
    return cfg.lines_j < ch.l and not design_if(ch, cfg, "sdm").success


def small_box_cases():
    """Every L >= 1 and M <= 4 with (2M+1)^L <= 5^6, four channels each."""
    for l in range(1, 9):
        for m in range(1, 5):
            if (2 * m + 1) ** l <= 5**6:
                for t in range(4):
                    h = sample_channel(700 + l, 10 * m + t, l)
                    yield h, 10.0 ** (10 * t / 10), SearchConfig(m, 1 + t % max(1, l - 1))


def l8_cases():
    for t in range(30):
        yield sample_channel(708, t, 8), 100.0, SearchConfig(2, 4)


def high_snr_cases():
    for snr in (60, 80, 100):
        for l in (4, 5, 6):
            for t in range(5):
                yield sample_channel(snr, 10 * l + t, l), 10.0 ** (snr / 10), SearchConfig(2, 2)


def tie_cases():
    rng = np.random.RandomState(71)
    for t in range(24):
        l = 3 + t % 4
        if t % 2:
            # Q = I / (1 + P c^2): f depends only on the row's norm
            h = (0.5 + t / 8) * np.linalg.qr(rng.standard_normal((l, l)))[0]
        else:
            h = rng.randint(-2, 3, size=(l, l)).astype(float)
            while abs(np.linalg.det(h)) < 0.5:
                h = rng.randint(-2, 3, size=(l, l)).astype(float)
        yield h, 10.0 ** (rng.choice([0, 10, 20]) / 10), SearchConfig(2, 1 + t % (l - 1))


def fallback_cases():
    # one search line often cannot reach full rank
    for t in range(40):
        l = 4 + t % 3
        yield sample_channel(77, t, l), 100.0, SearchConfig(2, 1)


@pytest.mark.parametrize("cases,min_fallbacks", [(small_box_cases, 0), (l8_cases, 0),
                                                 (high_snr_cases, 0), (tie_cases, 0),
                                                 (fallback_cases, 10)],
                         ids=["small-boxes", "l8", "high-snr", "ties", "sdm-fallback"])
def test_sphere_design_equals_the_box_design(cases, min_fallbacks):
    fallbacks = sum(check_sphere_against_box(ChannelRealization(h=h, power=p), cfg)
                    for h, p, cfg in cases())
    assert fallbacks >= min_fallbacks


def test_sphere_grows_from_a_small_start(monkeypatch):
    # a one-point start makes every design grow its sphere several times
    monkeypatch.setattr(select, "SPHERE_START_POINTS", 1)
    calls = []
    real = select.sphere_candidates

    def counted(q, g, m, radius):
        calls.append(radius)
        return real(q, g, m, radius)

    monkeypatch.setattr(select, "sphere_candidates", counted)
    for t in range(20):
        l = 4 + t % 3
        check_sphere_against_box(ChannelRealization(h=sample_channel(41, t, l),
                                                    power=10.0 ** (t % 4)), SearchConfig(2, 2))
    assert len(calls) >= 60


def test_exhaustive_design_factors_q_once(monkeypatch):
    # a one-point start makes most designs enumerate several spheres
    monkeypatch.setattr(select, "SPHERE_START_POINTS", 1)
    calls = {"factor": 0, "sphere": 0}
    factor, sphere = select._lower_factor, select.sphere_candidates

    def counted_factor(q):
        calls["factor"] += 1
        return factor(q)

    def counted_sphere(*args):
        calls["sphere"] += 1
        return sphere(*args)

    monkeypatch.setattr(select, "_lower_factor", counted_factor)
    monkeypatch.setattr(select, "sphere_candidates", counted_sphere)
    designs = 20
    for t in range(designs):
        ch = ChannelRealization(h=sample_channel(42, t, 8), power=100.0)
        assert design_if(ch, SearchConfig(2, 4), "exhaustive").success
    assert calls["factor"] == designs and calls["sphere"] > 2 * designs


def test_sphere_needs_a_positive_definite_q(monkeypatch):
    def not_positive_definite(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    ch = ChannelRealization(h=np.eye(3), power=10.0)
    with pytest.raises(SingularMatrixError):
        design_if(ch, SearchConfig(bound_m=2, lines_j=2), "exhaustive")
    assert design_if(ch, SearchConfig(bound_m=2, lines_j=2), "sdm").success


def test_sphere_reads_an_integer_bound_only():
    # a bound of 1.5 or 2.0 raised a raw TypeError
    q = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = select._lower_factor(q)
    for m in (1.5, 2.0, "2", None):
        with pytest.raises(InvalidInputError, match="m must be an integer"):
            sphere_candidates(q, g, m, 3.0)
    assert sphere_candidates(q, g, np.int64(2), 3.0).tolist() == sphere_candidates(q, g, 2, 3.0).tolist()


def test_sphere_reads_a_real_radius_and_refuses_nan():
    # a NaN radius compared false everywhere and gave no rows, silently
    q = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = select._lower_factor(q)
    for radius in (math.nan, np.float64("nan")):
        with pytest.raises(InvalidInputError, match="radius must not be NaN"):
            sphere_candidates(q, g, 2, radius)
    for radius in ("3", None, 1j):
        with pytest.raises(InvalidInputError, match="radius must be a real number"):
            sphere_candidates(q, g, 2, radius)
    for radius in (-1.0, -math.inf):
        assert sphere_candidates(q, g, 2, radius).shape == (0, 2)
    want = sphere_candidates(q, g, 2, 3.0).tolist()
    assert len(want) > 2 and sphere_candidates(q, g, 2, np.float32(3.0)).tolist() == want


def test_sphere_row_limit(monkeypatch):
    q = compute_q(ChannelRealization(h=sample_channel(3, 0, 6), power=100.0)).q
    g = select._lower_factor(q)
    rows = len(sphere_candidates(q, g, 2, 1.0))
    monkeypatch.setattr(select, "SPHERE_ROW_LIMIT", rows)
    with pytest.raises(InstanceTooLargeError):
        sphere_candidates(q, g, 2, 1.0)


def test_exhaustive_design_at_l12():
    # the box holds 5^12 / 2 rows here, over the box guard
    for t in range(6):
        ch = ChannelRealization(h=sample_channel(12, t, 12), power=100.0)
        q = compute_q(ch).q
        cfg = SearchConfig(bound_m=2, lines_j=4)
        exhaustive = design_if(ch, cfg, "exhaustive")
        sdm = design_if(ch, cfg, "sdm")
        assert exhaustive.success and sdm.success
        radius = row_f(exhaustive.a, q).max()
        assert radius <= row_f(sdm.a, q).max()
        g = select._lower_factor(q)
        sphere = sphere_candidates(q, g, 2, 2 * radius)
        wider = greedy_full_rank(sphere, f_order(sphere, q))
        assert np.array_equal(exhaustive.a, wider)


def test_exhaustive_design_reads_neither_lines_nor_sdm(monkeypatch):
    calls = []
    real = select.candidate_set

    def counted(qform, cfg):
        calls.append((cfg.lines_j, cfg.bound_m))
        return real(qform, cfg)

    monkeypatch.setattr(select, "candidate_set", counted)
    for l in range(4, 9):
        for t in range(4):
            ch = ChannelRealization(h=sample_channel(11, 10 * l + t, l),
                                    power=10.0 ** (1 + t % 3))
            first = design_if(ch, SearchConfig(bound_m=2, lines_j=1), "exhaustive")
            for j in range(2, l):
                again = design_if(ch, SearchConfig(bound_m=2, lines_j=j), "exhaustive")
                assert np.array_equal(again.a, first.a) and again.report == first.report
    cfg = ExperimentConfig(l=5, snr_db_grid=(10.0, 20.0), trials=3, bound_m=2, lines_j=2,
                           master_seed=4, methods=("if-exhaustive",))
    rows = run_sweep(cfg, "lines_j", [1, 2, 3, 4])
    assert calls == []
    assert len({(r.snr_db, r.avg_rate_min, r.avg_rate_sum) for r in rows}) == 2


@pytest.mark.parametrize("l", [4, 8])
def test_the_ranked_union_and_kept_rates_keep_the_per_j_bits(l, monkeypatch):
    # an SDM design masks J's rows out of the union it keeps in (f, lex)
    # order, which rests on f having the bits of the per-J arrays, row for
    # row (a one-row f, through gemv, need not; one row needs no order);
    # each design's rates are those of its own A on a fresh realization
    handed, real = [], select.greedy_full_rank
    monkeypatch.setattr(select, "greedy_full_rank",
                        lambda rows, order, memo=None: handed.append(rows[order])
                        or real(rows, order, memo))
    masked = 0
    for t in range(5):
        h = sample_channel(71, t, l)
        for snr in (0.0, 20.0, 40.0, 60.0):
            for m in (1, 2, 3):
                power = 10.0 ** (snr / 10)
                ch = ChannelRealization(h=h, power=power)
                form = compute_q(ch)
                # one union for all J, as a sweep's draw holds it
                prepare_lines([form], l - 1, m)
                # the lexicographic union, whose f the line pass sorted
                union, first, _, _ = form.memo[("union", m)]
                for j in range(1, l):
                    cfg = SearchConfig(bound_m=m, lines_j=j)
                    design = design_if(ch, cfg, "sdm")
                    got = handed.pop()
                    own = candidate_set(form, cfg)
                    want = own[f_order(own, form.q)]
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                    if len(own) > 1:
                        whole = _row_f(union, form.q)[first < j]
                        assert whole.tobytes() == _row_f(own, form.q).tobytes()
                    masked += len(got) < len(union)
                    fresh = compute_q(ChannelRealization(h=h, power=power))
                    assert design.report == RateReport(tuple(kept_rates(np.asarray(design.a), fresh)))
    assert masked and not handed


def test_a_design_holds_the_rates_and_det_of_its_a():
    # L = 8, M = 2, J = 4 is the benchmark's size
    for l, cfg in ((3, SearchConfig(bound_m=1, lines_j=2)), (8, SearchConfig(bound_m=2, lines_j=4))):
        for t in range(8):
            h = sample_channel(12, t, l)
            for snr in (10.0, 20.0, 30.0):
                ch = ChannelRealization(h=h, power=10.0 ** (snr / 10))
                for method in ("sdm", "exhaustive"):
                    design = design_if(ch, cfg, method)
                    # a fresh realization at the same power holds no memo
                    fresh = compute_q(ChannelRealization(h=h, power=ch.power))
                    assert design.report == RateReport(tuple(kept_rates(np.asarray(design.a), fresh)))
                    assert design.det == bareiss_det(design.a)
                    assert design.method == (method if design.success else select.METHOD_FALLBACK)
