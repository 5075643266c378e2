import itertools

import numpy as np
import pytest

from ifrx.channel import ChannelRealization
from ifrx.errors import DegenerateDirectionError, InstanceTooLargeError, InvalidInputError
from ifrx.harness import ExperimentConfig, draw_trial
from ifrx.ifcore import compute_q
from ifrx.linalg import sym_eigen
from ifrx.sdm import (SearchConfig, _share_radius, candidate_set, line_candidates, prepare_lines,
                      rank_candidates)
from oracles import (
    as_tuples,
    canonical_sign,
    half_integer_grid,
    make_qform,
    reference_candidate_set,
    reference_jump_points,
    reference_line_candidates,
)


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
    # a NaN coordinate silently gave no candidates, a string a raw ValueError
    for g1, what in (([[np.nan, 0.2]], "non-finite"), ([["1", "0"]], "real numbers")):
        with pytest.raises(InvalidInputError, match=f"^g1 .*{what}"):
            line_candidates(g1, [[1.0, 0.0]], 1)


def test_the_line_pass_checks_j_against_l():
    # J = L raised "g1 and gi must be (P, L) stacks of equal shape", and J
    # of 0 or -1 returned with no union
    q = make_qform(np.diag([0.1, 0.2, 0.3]))
    for lines_j in (3, 0, -1):
        with pytest.raises(InvalidInputError, match=r"^lines_j must be in \[1, 2\] for L = 3$"):
            prepare_lines([q], lines_j, 2)
        assert not q.memo
    with pytest.raises(InvalidInputError, match=r"^lines_j must be in \[1, 2\]"):
        candidate_set(q, SearchConfig(bound_m=2, lines_j=3))


def test_line_pass_reads_integer_bounds_only():
    # an m of 1.5 made the jump grid integers instead of half-integers, 2.0
    # ran and "2" raised a raw TypeError; so did a J or M of 1.5 in the pass
    g1, gi = [[-0.8, -0.8]], [[-0.8, -0.6]]
    for m in (1.5, 2.0, "2", None):
        with pytest.raises(InvalidInputError, match="m must be an integer"):
            line_candidates(g1, gi, m)
    got = line_candidates(g1, gi, np.int64(1))
    assert [c.tolist() for c in got] == [[[1, 1], [1, 0], [0, -1], [-1, -1]]]
    q = make_qform([[2.0, 0.5], [0.5, 1.0]])
    for lines_j, bound_m, name in ((1.5, 2, "lines_j"), (1, 1.5, "bound_m"), (1, 2.0, "bound_m")):
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
            prepare_lines([q], lines_j, bound_m)
    # an integer of any type reads as its value, which keys the union
    prepare_lines([q], np.int64(1), np.uint8(2))
    assert [k for k in q.memo if k != "basis"] == [("union", 2)]
    assert type(q.memo[("union", 2)][2]) is int


def test_search_config_reads_integer_fields():
    # SearchConfig(2, 1.0) ran an exhaustive design before
    for args in ((2, 1.0), (2.5, 1), ("2", 1), (2, None)):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            SearchConfig(*args)
    for args in ((0, 1), (1, 0)):
        with pytest.raises(InvalidInputError, match=">= 1"):
            SearchConfig(*args)
    cfg = SearchConfig(np.int64(2), True)
    assert (cfg.bound_m, cfg.lines_j) == (2, 1) and type(cfg.bound_m) is int


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
                        # J's rows in rank order, walked here when J is past the kept union
                        rows = prepare_lines([form], int(j), m)[0]
                        union, _, covered = form.memo[("union", m)]
                        assert rows.tobytes() == rank_candidates(expected[j], q).tobytes()
                        if covered == j:
                            assert rows is union and not rows.flags.writeable
                        else:
                            assert not np.shares_memory(rows, union)
                        got = candidate_set(form, SearchConfig(bound_m=m, lines_j=int(j)))
                        want = expected[j]
                        assert got.dtype == want.dtype == np.int64
                        assert got.shape == want.shape and got.tobytes() == want.tobytes()
                        assert got.flags.c_contiguous and not got.flags.writeable
                        assert not np.shares_memory(got, union)


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
        # a grown union is ranked again, as it is built
        ranked = rank_candidates(reference_candidate_set(q, covered, 2), q)
        assert form.memo[("union", 2)][0].tobytes() == ranked.tobytes()


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
    # 3 forms of distinct channels x 5 lines: each form walks its own lines
    # in stacks of at most four, and releases them before the next pass
    assert heights == [4, 1] * 3
    for q, form, ref in zip(qs, forms, whole):
        arr, first, covered = form.memo[("union", 2)]
        ref_arr, ref_first, _ = ref.memo[("union", 2)]
        assert covered == 5
        assert arr.tobytes() == ref_arr.tobytes() and first.tolist() == ref_first.tolist()
        # the union is kept in rank order
        assert arr.tobytes() == rank_candidates(reference_candidate_set(q, 5, 2), q).tobytes()
        assert not arr.flags.writeable


def test_a_draw_walks_one_line_pass_per_bound(monkeypatch):
    import ifrx.sdm

    passes = []
    inner = ifrx.sdm.line_candidates
    monkeypatch.setattr(ifrx.sdm, "line_candidates",
                        lambda g1, gi, m: passes.append((m, len(g1))) or inner(g1, gi, m))
    cfg = ExperimentConfig(l=8, snr_db_grid=(0.0, 10.0, 20.0, 30.0), trials=1, bound_m=2,
                           lines_j=4, master_seed=5, methods=("if-sdm",))
    cells = [(snr, cfg.search(**change)) for change in ({}, {"bound_m": 5, "lines_j": 3})
             for snr in cfg.snr_db_grid]
    for trial in range(3):
        passes.clear()
        draw = draw_trial(cfg, trial, cells)
        # Q's eigenvectors do not depend on the power: per bound, the four
        # points share one pass over one form's J lines
        assert passes == [(2, 4), (5, 3)]
        for snr in cfg.snr_db_grid:
            form = compute_q(draw[snr])
            for m, j in ((2, 4), (5, 3)):
                alone = make_qform(form.q)
                prepare_lines([alone], j, m)
                got, want = form.memo[("union", m)], alone.memo[("union", m)]
                assert [got[0].tobytes(), got[1].tobytes(), got[2]] \
                    == [want[0].tobytes(), want[1].tobytes(), want[2]]


def own_lines(vectors, j, m):
    """Each line 2 .. J+1 of an eigenbasis as its own ``line_candidates``
    pass gives it, and the lines' share radius."""
    g1, gi = np.repeat(vectors[None, :, 0], j, axis=0), vectors[:, 1:j + 1].T
    return [c.tobytes() for c in line_candidates(g1, gi, m)], _share_radius(g1, gi, m)


@pytest.mark.parametrize("l, j", [(4, 3), (8, 4)])
@pytest.mark.parametrize("m", [2, 200])
def test_forms_share_a_line_pass_only_within_the_radius(monkeypatch, l, j, m):
    import ifrx.sdm

    walked = []
    inner = ifrx.sdm.line_candidates
    monkeypatch.setattr(ifrx.sdm, "line_candidates",
                        lambda g1, gi, bound: walked.append(g1[0].tobytes()) or inner(g1, gi, bound))
    rng = np.random.RandomState(34 * l + m)
    shared = 0
    for _ in range(8):
        h = rng.standard_normal((l, l))
        forms = [compute_q(ChannelRealization(h=h, power=10.0 ** (snr / 10))) for snr in (0, 20, 40, 60)]
        walked.clear()
        prepare_lines(forms, j, m)
        bases = [f.memo["basis"].vectors[:, :j + 1] for f in forms]
        lines, radii = zip(*(own_lines(b, j, m) for b in bases))
        for b, r, rows in zip(bases, radii, lines):
            # a basis anywhere within the radius walks the same rows
            if r > 0:
                near = b + 0.99 * r * rng.choice([-1.0, 1.0], size=b.shape)
                assert own_lines(near, j, m)[0] == rows
        for k, b in enumerate(bases):
            near = [i for i in range(len(bases)) if np.abs(b - bases[i]).max() <= radii[i]]
            # a form within another form's radius walks that form's rows
            assert all(lines[k] == lines[i] for i in near)
            if b[:, 0].tobytes() not in walked:
                # a form that walked no lines took the union of an earlier
                # walked form, within whose radius it lies
                shared += 1
                assert any(i < k and bases[i][:, 0].tobytes() in walked for i in near)
    # most of the 24 later forms share
    assert shared >= 12


@pytest.mark.parametrize("master_seed", [74, 83, 90, 115, 172, 192])
def test_the_radius_keeps_each_points_own_candidates(master_seed):
    # on these draws the 60 dB form's own lines give other rows than the
    # 0 dB form's, so a draw that handed every point the first point's
    # union, with no radius, changed one union (though no CSV byte)
    cfg = ExperimentConfig(l=4, snr_db_grid=(0.0, 20.0, 40.0, 60.0), trials=1, bound_m=200,
                           lines_j=3, master_seed=master_seed, methods=("if-sdm",))
    search = cfg.search()
    draw = draw_trial(cfg, 0)
    alone = [candidate_set(make_qform(compute_q(draw[snr]).q), search) for snr in cfg.snr_db_grid]
    assert any(set(as_tuples(a)) != set(as_tuples(alone[0])) for a in alone[1:])
    for snr, want in zip(cfg.snr_db_grid, alone):
        assert candidate_set(compute_q(draw[snr]), search).tobytes() == want.tobytes()


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
