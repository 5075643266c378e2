import numpy as np
import pytest

from ifrx.channel import ChannelRealization
from ifrx.errors import InstanceTooLargeError, InvalidInputError
from ifrx.ifcore import QForm, compute_q, mmse_rates, optimal_projection, rate_from_q
from ifrx.linalg import int_rank_independent
from ifrx.sdm import SearchConfig
from ifrx.select import design_if, exhaustive_candidates, greedy_full_rank, sort_candidates
from ifrx.sdm import CandidateSet


def make_qform(q):
    return QForm(q=np.asarray(q, dtype=float), power=1.0)


def make_set(vectors, m=1):
    return CandidateSet(vectors=tuple(vectors), config=SearchConfig(bound_m=m, lines_j=1))


def test_sort_candidates_with_tie_break():
    q = make_qform(np.diag([0.2, 0.5]))
    got = sort_candidates(make_set([(1, 0), (1, 1), (1, -1)]), q)
    assert got == [(1, 0), (1, -1), (1, 1)]


def test_sort_candidates_equal_f_lexicographic():
    q = make_qform(0.5 * np.eye(2))
    assert sort_candidates(make_set([(1, 0), (0, 1)]), q) == [(0, 1), (1, 0)]


def test_sort_candidates_is_monotone_permutation():
    rng = np.random.RandomState(6)
    q = make_qform(compute_q(ChannelRealization(h=rng.standard_normal((3, 3)), power=10.0)).q)
    vectors = [tuple(int(x) for x in rng.randint(-2, 3, size=3)) for _ in range(30)]
    vectors = [v for v in vectors if any(v)]
    got = sort_candidates(make_set(vectors, m=2), q)
    assert sorted(got) == sorted(set(vectors)) or sorted(got) == sorted(vectors)
    f = [np.array(v) @ q.q @ np.array(v) for v in got]
    assert all(f[i] <= f[i + 1] + 1e-12 for i in range(len(f) - 1))
    with pytest.raises(InvalidInputError):
        sort_candidates(make_set([]), q)


def test_greedy_picks_earliest_independent():
    rows = greedy_full_rank([(1, 0), (1, -1), (1, 1)])
    assert rows == [(1, 0), (1, -1)]


def test_greedy_fails_on_collinear_set():
    assert greedy_full_rank([(1, 0), (2, 0)]) is None


def reference_bareiss_det(rows):
    n = len(rows)
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def reference_greedy(sorted_vectors):
    """Gram + Bareiss determinant from scratch per candidate, the form the
    incremental echelon in greedy_full_rank must agree with."""
    chosen = []
    for row in sorted_vectors:
        vec = tuple(int(c) for c in row)
        rows = chosen + [vec]
        gram = [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]
        if reference_bareiss_det(gram) != 0:
            chosen.append(vec)
            if len(chosen) == len(vec):
                return chosen
    return None


def test_greedy_matches_gram_bareiss_reference():
    rng = np.random.RandomState(61)
    outcomes = set()
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
        ranked = arr[np.argsort((arr**2 * rng.uniform(0.1, 1.0, size=l)).sum(axis=1), kind="stable")]
        got = greedy_full_rank(ranked)
        assert got == reference_greedy(ranked)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_greedy_on_exhaustive_identity_q():
    q = make_qform(0.5 * np.eye(2))
    ranked = sort_candidates(exhaustive_candidates(2, 1), q)
    rows = greedy_full_rank(ranked)
    assert rows == [(0, 1), (1, 0)]
    for row in rows:
        assert float(np.array(row) @ q.q @ np.array(row)) == pytest.approx(0.5)


def test_exhaustive_candidates_counts_and_order():
    small = exhaustive_candidates(2, 1)
    assert small.vectors == ((0, 1), (1, -1), (1, 0), (1, 1))
    assert len(exhaustive_candidates(4, 2).vectors) == (5**4 - 1) // 2
    assert len(exhaustive_candidates(8, 2).vectors) == (5**8 - 1) // 2
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
        assert np.allclose(design.b, optimal_projection(design.a, ch), atol=1e-12)
        per = [rate_from_q(row, qform) for row in design.a]
        assert design.report.total == pytest.approx(max(0.0, len(per) * min(per)))


def test_greedy_rows_come_from_list_with_nondecreasing_f():
    rng = np.random.RandomState(15)
    for _ in range(30):
        ch = ChannelRealization(h=rng.standard_normal((4, 4)), power=10.0)
        qform = compute_q(ch)
        ranked = sort_candidates(exhaustive_candidates(4, 1), qform)
        rows = greedy_full_rank(ranked)
        assert rows is not None
        assert all(r in ranked for r in rows)
        f = [float(np.array(r) @ qform.q @ np.array(r)) for r in rows]
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
