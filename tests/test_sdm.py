import itertools

import numpy as np
import pytest

from ifrx.channel import ChannelRealization
from ifrx.errors import DegenerateDirectionError, InstanceTooLargeError, InvalidInputError
from ifrx.ifcore import QForm, compute_q
from ifrx.linalg import sym_eigen
from ifrx.sdm import SearchConfig, candidate_set, line_candidates, prepare_lines
from oracles import (
    half_integer_grid,
    reference_candidate_set,
    reference_jump_points,
    reference_line_candidates,
)


def make_qform(q):
    return QForm(q=np.asarray(q, dtype=float))


def as_tuples(arr):
    return list(map(tuple, arr.tolist()))


def canonical_sign(vec):
    """Flip the vector so its first nonzero coordinate is positive."""
    for c in vec:
        if c > 0:
            return vec
        if c < 0:
            return tuple(-x for x in vec)
    return vec


def test_line_candidates_degenerate_direction():
    # one degenerate line fails the whole pass
    with pytest.raises(DegenerateDirectionError):
        line_candidates([[0.5, 0.5], [1.0, 0.0]], [[0.5, -0.5], [0.0, 1e-13]], 1)


def test_line_candidates_takes_only_stacks():
    with pytest.raises(InvalidInputError, match="stacks"):
        line_candidates([1.0, 0.0], [0.0, 1.0], 1)
    with pytest.raises(InvalidInputError, match="stacks"):
        line_candidates([[1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], 1)
    with pytest.raises(InvalidInputError, match="m must be"):
        line_candidates([[1.0, 0.0]], [[0.0, 1.0]], 0)


def test_line_candidates_examples():
    got = line_candidates([[1.0, 0.0], [0.6, 0.0]], [[0.0, 1.0], [0.0, 1.0]], 1)
    assert [c.tolist() for c in got] == [[[1, -1], [1, 0], [1, 1]]] * 2


def test_line_candidates_bound_clearing():
    # a line far from the box in its second coordinate gets intervals cleared
    pts = line_candidates([[0.3, 5.0]], [[1.0, 0.0]], 1)[0]
    assert pts.shape == (0, 2)


def brute_closest_nonzero_in_box(point, m):
    best = None
    dists = {}
    for cand in itertools.product(range(-m, m + 1), repeat=len(point)):
        if not any(cand):
            continue
        d = sum((c - p) ** 2 for c, p in zip(cand, point))
        dists[cand] = d
        if best is None or d < best:
            best = d
    return best, dists


def round_half_away(x):
    return np.trunc(x + np.copysign(0.5, x)).astype(int)


def closest_point_oracle(q, m, j):
    """Re-derive the candidate set with brute-force closest points per
    interval midpoint; asserts rounding optimality along the way."""
    basis = sym_eigen(q[None])[0]
    g1 = basis.vectors[:, 0]
    oracle = set()
    for i in range(2, j + 2):
        gi = basis.vectors[:, i - 1]
        rhos = reference_jump_points(g1, gi, m)
        for t in range(len(rhos) - 1):
            rho = 0.5 * (rhos[t] + rhos[t + 1])
            point = g1 + rho * gi
            cand = round_half_away(point)
            if int(np.max(np.abs(cand))) > m or not cand.any():
                continue
            best, dists = brute_closest_nonzero_in_box(point, m)
            emitted = tuple(int(c) for c in cand)
            assert dists[emitted] <= best + 1e-9, "emitted point is not a closest point"
            oracle.add(canonical_sign(emitted))
    return oracle


def test_candidate_set_matches_brute_force_oracle():
    rng = np.random.RandomState(99)
    for _ in range(40):
        l = int(rng.choice([2, 3]))
        m = int(rng.choice([1, 2]))
        ch = ChannelRealization(h=rng.standard_normal((l, l)), power=10.0)
        qform = compute_q(ch)
        j = l - 1
        omega = candidate_set(qform, SearchConfig(bound_m=m, lines_j=j))
        assert set(as_tuples(omega)) == closest_point_oracle(qform.q, m, j)


def test_candidate_set_diagonal_example():
    omega = candidate_set(make_qform(np.diag([0.2, 0.5])), SearchConfig(bound_m=1, lines_j=1))
    assert as_tuples(omega) == [(1, -1), (1, 0), (1, 1)]


def test_candidate_set_degenerate_spectrum_size():
    omega = candidate_set(make_qform(0.5 * np.eye(2)), SearchConfig(bound_m=1, lines_j=1))
    assert len(omega) == 3


def test_candidate_set_size_bound():
    rng = np.random.RandomState(42)
    for _ in range(20):
        ch = ChannelRealization(h=rng.standard_normal((8, 8)), power=100.0)
        omega = candidate_set(compute_q(ch), SearchConfig(bound_m=2, lines_j=4))
        assert len(omega) <= 4 * (2 * 2 + 2) * 8


def test_candidate_set_invariants_and_inclusion():
    rng = np.random.RandomState(77)
    for _ in range(25):
        l = int(rng.choice([3, 4, 6]))
        ch = ChannelRealization(h=rng.standard_normal((l, l)), power=10.0)
        qform = compute_q(ch)
        previous = set()
        for j in range(1, l):
            omega = candidate_set(qform, SearchConfig(bound_m=2, lines_j=j))
            vectors = set(as_tuples(omega))
            assert previous <= vectors, "candidate sets must grow with j"
            previous = vectors
            for vec in as_tuples(omega):
                assert any(vec)
                assert max(abs(c) for c in vec) <= 2
                assert next(c for c in vec if c != 0) > 0
            assert len(omega) == len(vectors)


def test_candidate_set_equals_the_per_call_reference_in_any_j_order():
    rng = np.random.RandomState(314)
    for l in (4, 8, 12):
        for m in (1, 2, 3):
            for _ in range(2):
                ch = ChannelRealization(h=rng.standard_normal((l, l)),
                                        power=10.0 ** rng.uniform(0, 3))
                q = compute_q(ch).q
                expected = {j: reference_candidate_set(q, j, m) for j in range(1, l)}
                ascending = list(range(1, l))
                for order in (ascending, ascending[::-1], list(rng.permutation(ascending))):
                    form = make_qform(q)
                    # a form whose kept lines stop short of the largest J,
                    # so a later call asks past the union it holds
                    prepare_lines([form], max(1, order[0] - 1), m)
                    for j in order:
                        got = candidate_set(form, SearchConfig(bound_m=m, lines_j=int(j)))
                        want = expected[j]
                        assert got.dtype == want.dtype == np.int64
                        assert got.shape == want.shape and got.tobytes() == want.tobytes()
                        assert got.flags.c_contiguous and not got.flags.writeable
                        assert not np.shares_memory(got, form.memo[("union", m)][0])


def test_candidate_set_past_the_held_union_walks_the_lines_again():
    ch = ChannelRealization(h=np.random.RandomState(12).standard_normal((6, 6)), power=100.0)
    q = compute_q(ch).q
    form = make_qform(q)
    prepare_lines([form], 2, 2)
    assert form.memo[("union", 2)][2] == 2
    for j, covered in ((5, 5), (3, 5)):
        got = candidate_set(form, SearchConfig(bound_m=2, lines_j=j))
        assert got.tobytes() == reference_candidate_set(q, j, 2).tobytes()
        assert set(form.memo) == {"basis", ("union", 2)}
        assert form.memo[("union", 2)][2] == covered


def test_line_pass_refuses_a_line_past_the_point_limit(monkeypatch):
    import ifrx.sdm

    # L * (2M+2) jump points per line: M = 2 fits at L = 4, M = 3 does not
    monkeypatch.setattr(ifrx.sdm, "LINE_POINT_LIMIT", 4 * (2 * 2 + 2))
    g1, gi = np.random.RandomState(3).standard_normal((2, 5, 4))
    # the limit holds per line, whatever the height of the stack
    assert len(line_candidates(g1, gi, 2)) == 5
    for height in (1, 5):
        with pytest.raises(InstanceTooLargeError, match="jump points"):
            line_candidates(g1[:height], gi[:height], 3)


def test_line_pass_walks_its_lines_in_stacks_under_the_point_limit(monkeypatch):
    import ifrx.sdm

    rng = np.random.RandomState(16)
    qs = [compute_q(ChannelRealization(h=rng.standard_normal((6, 6)), power=p)).q
          for p in (1.0, 100.0, 1e4)]
    whole = [make_qform(q) for q in qs]
    prepare_lines(whole, 5, 2)
    # four lines' worth of jump points at L = 6, M = 2, and a few to spare
    monkeypatch.setattr(ifrx.sdm, "LINE_POINT_LIMIT", 4 * 6 * (2 * 2 + 2) + 5)
    heights = []
    inner = ifrx.sdm.line_candidates
    monkeypatch.setattr(ifrx.sdm, "line_candidates",
                        lambda g1, gi, m: heights.append(len(g1)) or inner(g1, gi, m))
    forms = [make_qform(q) for q in qs]
    prepare_lines(forms, 5, 2)
    # 3 forms x 5 lines, split across forms where a stack fills
    assert heights == [4, 4, 4, 3]
    for q, form, ref in zip(qs, forms, whole):
        arr, first, covered = form.memo[("union", 2)]
        ref_arr, ref_first, _ = ref.memo[("union", 2)]
        assert covered == 5
        assert arr.tobytes() == ref_arr.tobytes() and first.tolist() == ref_first.tolist()
        assert arr.tobytes() == reference_candidate_set(q, 5, 2).tobytes()


def test_line_candidates_bit_identical_to_scalar_loop():
    # the oracle's jump points on hand-worked lines: axis-aligned, and two
    # active coordinates that share three crossings
    axis = [-1.5, -0.5, 0.5, 1.5]
    assert reference_jump_points(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1) == axis
    assert reference_jump_points(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1) == axis
    assert reference_jump_points(np.array([0.5, 0.5]), np.array([0.5, -0.5]), 1) \
        == [-4.0, -2.0, 0.0, 2.0, 4.0]
    rng = np.random.RandomState(58)
    lines = [(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
             (np.array([0.0, 0.0]), np.array([1.0, 0.0])),
             (np.array([0.5, 0.5]), np.array([0.5, -0.5]))]
    for _ in range(60):
        l = int(rng.choice([2, 3, 4, 8]))
        ch = ChannelRealization(h=rng.standard_normal((l, l)), power=10.0 ** rng.uniform(0, 4))
        vecs = sym_eigen(compute_q(ch).q[None])[0].vectors
        lines += [(vecs[:, 0], vecs[:, i]) for i in range(1, l)]
        # off-lattice starts, sparse directions and far-away lines
        gi = rng.standard_normal(l) * (rng.rand(l) < 0.6)
        gi[rng.randint(l)] = 1.0
        lines.append((rng.uniform(-3, 3, l), gi))
        lines.append((np.round(rng.uniform(-2, 2, l)) + 0.5, rng.standard_normal(l)))
    lines.append((np.array([0.3, 5.0]), np.array([1.0, 0.0])))
    # one pass per line length and bound, each line checked in the pass and alone
    for l in {len(g1) for g1, _ in lines}:
        group = [line for line in lines if len(line[0]) == l]
        g1s, gis = np.array([g for g, _ in group]), np.array([d for _, d in group])
        for m in (1, 2, 3):
            for (g1, gi), cands in zip(group, line_candidates(g1s, gis, m)):
                expected = reference_line_candidates(g1, gi, m)
                assert as_tuples(cands) == expected
                assert as_tuples(line_candidates(g1[None], gi[None], m)[0]) == expected


@pytest.mark.parametrize("bad", [(0, 0), (3, 0), (1, -3)])
def test_candidate_set_checks_its_invariants(monkeypatch, bad):
    # a zero row, and rows outside the M=2 box in the first and in a later coordinate
    import ifrx.sdm

    # the line pass gives one array per line of its stack
    monkeypatch.setattr(ifrx.sdm, "line_candidates",
                        lambda g1, gi, m: [np.array([(1, 0), bad]) for _ in g1])
    with pytest.raises(RuntimeError):
        candidate_set(make_qform(np.diag([0.2, 0.5])), SearchConfig(bound_m=2, lines_j=1))


def test_candidate_set_rejects_too_many_lines():
    with pytest.raises(InvalidInputError):
        candidate_set(make_qform(0.5 * np.eye(2)), SearchConfig(bound_m=1, lines_j=2))


def test_search_config_validation():
    with pytest.raises(InvalidInputError):
        SearchConfig(bound_m=0, lines_j=1)
    with pytest.raises(InvalidInputError):
        SearchConfig(bound_m=1, lines_j=0)


def chain_lines(l):
    """Lines of length l whose jump points come in near-duplicate chains:
    k coordinates cross each midpoint about ``step`` apart. With
    step < RHO_MERGE_TOL < 2 * step, merging against the last kept rho
    keeps every other rho of a chain; merging against the predecessor
    would keep only the first."""
    lines = []
    for step in (0.4e-12, 0.6e-12, 0.9e-12):
        for k in (2, 3, l):
            g1 = np.full(l, 0.3)
            g1[:k] -= step * np.arange(k)
            gi = np.zeros(l)
            gi[:k] = 1.0
            lines.append((g1, gi))
    # a chain among coordinates with other directions
    g1 = np.linspace(-1.0, 1.0, l)
    g1[1] = g1[0] - 0.7e-12
    gi = np.linspace(0.5, 1.5, l)
    gi[1] = gi[0]
    lines.append((g1, gi))
    return lines


def degenerate_lines(l):
    """Eigenvector lines of forms with one repeated eigenvalue."""
    k, n = np.meshgrid(np.arange(l), np.arange(l), indexing="ij")
    dct = np.sqrt(2.0 / l) * np.cos(np.pi * (n + 0.5) * k / l)
    dct[0] /= np.sqrt(2.0)
    lines = []
    for h in (np.eye(l), 2.5 * dct):
        for p in (1.0, 10.0, 100.0, 1000.0):
            vecs = sym_eigen(compute_q(ChannelRealization(h=h, power=p)).q[None])[0].vectors
            lines += [(vecs[:, 0], vecs[:, i]) for i in range(1, l)]
    return lines


@pytest.mark.parametrize("l", [3, 4, 8])
def test_stacked_line_pass_equals_the_scalar_oracles(l):
    rng = np.random.RandomState(70 + l)
    lines = chain_lines(l) + degenerate_lines(l)
    lines += [(rng.uniform(-2, 2, l), rng.standard_normal(l) * (rng.rand(l) < 0.7) + 1e-3)
              for _ in range(20)]
    g1 = np.array([g for g, _ in lines])
    gi = np.array([d for _, d in lines])
    chains = 0
    for m in (1, 2, 3):
        got = line_candidates(g1, gi, m)
        assert len(got) == len(lines)
        for (a, d), cands in zip(lines, got):
            rhos = reference_jump_points(a, d, m)
            assert as_tuples(cands) == reference_line_candidates(a, d, m)
            assert cands.dtype == np.int64 and cands.shape[1] == l
            # count lines where a merge against the predecessor would differ
            raw = sorted((mj - a[k]) / d[k] for k in range(l) if abs(d[k]) >= 1e-12
                         for mj in half_integer_grid(m))
            chains += sum(1 for x, y in zip(raw, raw[1:]) if y - x <= 1e-12) > len(raw) - len(rhos)
    assert chains >= 9
