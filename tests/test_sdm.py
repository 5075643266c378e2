import itertools

import numpy as np
import pytest

from ifrx.channel import ChannelRealization
from ifrx.errors import DegenerateDirectionError, InstanceTooLargeError, InvalidInputError
from ifrx.harness import ExperimentConfig, draw_trial
from ifrx.ifcore import compute_q
from ifrx.linalg import sym_eigen
from ifrx.sdm import (SearchConfig, _jumps, candidate_set, line_candidates, prepare_lines,
                      rank_candidates)
from oracles import (
    as_tuples,
    canonical_sign,
    half_integer_grid,
    make_qform,
    reference_candidate_set,
    reference_jump_points,
    reference_line_candidates,
    reference_share_radius,
)


def per_line(g1, gi, m):
    """The rows ``line_candidates`` gives each line of a stack, split on
    the line each row comes from."""
    rows, line, _ = line_candidates(g1, gi, m)
    # every row comes from one line of the stack, in line order
    assert (np.diff(line) >= 0).all() and 0 <= line.min(initial=0) <= line.max(initial=0) < len(gi)
    return [rows[line == k] for k in range(len(gi))]


def by_start(lines):
    """(g1, gi) lines grouped by their start g1, in first-seen order: one
    (g1, (P, L) stack of directions) pair per start."""
    groups = {}
    for g1, gi in lines:
        groups.setdefault(g1.tobytes(), (g1, []))[1].append(gi)
    return [(g1, np.array(gis)) for g1, gis in groups.values()]


def test_line_candidates_degenerate_direction():
    # one degenerate line fails the whole pass
    with pytest.raises(DegenerateDirectionError):
        line_candidates([0.5, 0.5], [[0.5, -0.5], [0.0, 1e-13]], 1)


def test_line_candidates_takes_only_stacks():
    # the directions are a (P, L) stack; g1, where every line starts, one vector
    with pytest.raises(InvalidInputError, match=r"^gi of the \(P, L\) stack must be a 2-D array"):
        line_candidates([1.0, 0.0], [0.0, 1.0], 1)
    with pytest.raises(InvalidInputError, match="^g1 must be a 1-D array"):
        line_candidates([[1.0, 0.0]], [[0.0, 1.0]], 1)
    with pytest.raises(InvalidInputError, match="^g1 must be of length L = 2, got shape"):
        line_candidates([1.0, 0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], 1)
    with pytest.raises(InvalidInputError, match="m must be"):
        line_candidates([1.0, 0.0], [[0.0, 1.0]], 0)
    # a NaN coordinate silently gave no candidates, a string a raw ValueError
    for g1, what in (([np.nan, 0.2], "non-finite"), (["1", "0"], "real numbers")):
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
    g1, gi = [-0.8, -0.8], [[-0.8, -0.6]]
    for m in (1.5, 2.0, "2", None):
        with pytest.raises(InvalidInputError, match="m must be an integer"):
            line_candidates(g1, gi, m)
    rows, line, _ = line_candidates(g1, gi, np.int64(1))
    assert rows.tolist() == [[1, 1], [1, 0], [0, -1], [-1, -1]] and line.tolist() == [0] * 4
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
    rows, line, _ = line_candidates([1.0, 0.0], [[0.0, 1.0], [0.0, -1.0]], 1)
    assert rows.tolist() == [[1, -1], [1, 0], [1, 1], [1, 1], [1, 0], [1, -1]]
    assert line.tolist() == [0, 0, 0, 1, 1, 1]
    rows, line, _ = line_candidates([0.6, 0.0], [[0.0, 1.0]], 1)
    assert rows.tolist() == [[1, -1], [1, 0], [1, 1]] and line.tolist() == [0, 0, 0]


def test_line_candidates_bound_clearing():
    # a line far from the box in its second coordinate gets intervals cleared
    rows, line, _ = line_candidates([0.3, 5.0], [[1.0, 0.0]], 1)
    assert rows.shape == (0, 2) and line.shape == (0,)


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
    vectors = sym_eigen(q[None])[0]
    g1 = vectors[:, 0]
    oracle = set()
    for i in range(2, j + 2):
        gi = vectors[:, i - 1]
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
    rng = np.random.RandomState(3)
    g1, gi = rng.standard_normal(4), rng.standard_normal((5, 4))
    # the limit holds per line, whatever the height of the stack: five
    # lines are walked in five stacks, each as it is walked alone
    assert [c.tobytes() for c in per_line(g1, gi, 2)] \
        == [line_candidates(g1, gi[k:k + 1], 2)[0].tobytes() for k in range(5)]
    for height in (1, 5):
        with pytest.raises(InstanceTooLargeError, match="jump points"):
            line_candidates(g1, gi[:height], 3)


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
    inner = ifrx.sdm._jumps
    monkeypatch.setattr(ifrx.sdm, "_jumps",
                        lambda g1, gi, m, **kw: heights.append(len(gi)) or inner(g1, gi, m, **kw))
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
                        lambda g1, gi, m, **kw: passes.append((m, len(gi)))
                        or inner(g1, gi, m, **kw))
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
    rows, line, radius = line_candidates(vectors[:, 0], vectors[:, 1:j + 1].T, m)
    return [rows[line == k].tobytes() for k in range(j)], radius


@pytest.mark.parametrize("l, j", [(4, 3), (8, 4)])
@pytest.mark.parametrize("m", [2, 200])
def test_forms_share_a_line_pass_only_within_the_radius(monkeypatch, l, j, m):
    import ifrx.sdm

    walked = []
    inner = ifrx.sdm.line_candidates
    monkeypatch.setattr(ifrx.sdm, "line_candidates",
                        lambda g1, gi, bound, **kw: walked.append(g1.tobytes())
                        or inner(g1, gi, bound, **kw))
    rng = np.random.RandomState(34 * l + m)
    shared = 0
    for _ in range(8):
        h = rng.standard_normal((l, l))
        forms = [compute_q(ChannelRealization(h=h, power=10.0 ** (snr / 10))) for snr in (0, 20, 40, 60)]
        walked.clear()
        prepare_lines(forms, j, m)
        bases = [f.memo["basis"][:, :j + 1] for f in forms]
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


def test_a_lone_forms_pass_computes_no_radius(monkeypatch):
    import ifrx.sdm

    asked, reported = [], []
    inner_jumps, inner_lines = ifrx.sdm._jumps, ifrx.sdm.line_candidates
    monkeypatch.setattr(ifrx.sdm, "_jumps",
                        lambda g1, gi, m, **kw: asked.append(kw) or inner_jumps(g1, gi, m, **kw))

    def lines(g1, gi, m, **kw):
        out = inner_lines(g1, gi, m, **kw)
        reported.append(out[2])
        return out

    monkeypatch.setattr(ifrx.sdm, "line_candidates", lines)
    rng = np.random.RandomState(36)
    for l, j, m in ((4, 3, 2), (8, 4, 2), (6, 5, 200)):
        form = compute_q(ChannelRealization(h=rng.standard_normal((l, l)), power=100.0))
        asked.clear(), reported.clear()
        prepare_lines([form], j, m)
        # one pass, of stacks that build none of the radius' arrays
        assert asked and all(kw == {"radius": False} for kw in asked)
        assert reported == [0.0]
        alone = make_qform(form.q)
        prepare_lines([alone], j, m)
        got, want = form.memo[("union", m)], alone.memo[("union", m)]
        assert [got[0].tobytes(), got[1].tobytes()] == [want[0].tobytes(), want[1].tobytes()]


@pytest.mark.parametrize("master_seed", [1, 74, 83, 90, 115, 172, 192])
def test_a_draw_shares_as_when_every_pass_computes_its_radius(monkeypatch, master_seed):
    # the six M = 200 draws split into groups, the later ones of a lone
    # form; which forms walk, and every union, stay those of a pass that
    # always computes its radius
    import ifrx.sdm

    inner = ifrx.sdm.line_candidates
    cfg = ExperimentConfig(l=4, snr_db_grid=(0.0, 20.0, 40.0, 60.0), trials=1, bound_m=200,
                           lines_j=3, master_seed=master_seed, methods=("if-sdm",))
    runs = []
    for always in (False, True):
        walked = []

        def lines(g1, gi, m, **kw):
            walked.append((g1.tobytes(), kw.get("radius", True)))
            return inner(g1, gi, m, **({"radius": True} if always else kw))

        monkeypatch.setattr(ifrx.sdm, "line_candidates", lines)
        draw = draw_trial(cfg, 0)
        unions = [compute_q(draw[snr]).memo[("union", 200)] for snr in cfg.snr_db_grid]
        runs.append(([g1 for g1, _ in walked], [(a.tobytes(), f.tobytes(), c) for a, f, c in unions]))
        # only a pass with a second form to read its radius asks for one
        assert [asked for _, asked in walked][:1] == [True]
    assert runs[0] == runs[1]


def radius_stacks():
    """Seeded (g1, gi, m) stacks: eigenbasis lines at L = 4 and 8, random
    lines through one random g1, lines with a small coordinate, and a line
    whose radius is the cap min |gi| - COORD_EPS."""
    rng = np.random.RandomState(35)
    stacks = []
    for l in (4, 8):
        for m in (1, 2, 200):
            for _ in range(6):
                ch = ChannelRealization(h=rng.standard_normal((l, l)), power=10.0 ** rng.uniform(0, 6))
                vecs = sym_eigen(compute_q(ch).q[None])[0]
                j = rng.randint(1, l)
                stacks.append((vecs[:, 0], vecs[:, 1:j + 1].T, m))
                p = rng.randint(1, 6)
                stacks.append((rng.uniform(-2, 2, l),
                               rng.standard_normal((p, l)) * 10.0 ** rng.uniform(-3, 1, (p, l)), m))
    stacks.append((np.array([0.1, 0.3]), np.array([[1.2e-12, 1.0]]), 1))
    return stacks


def test_the_share_radius_equals_the_scalar_loop(monkeypatch):
    import ifrx.sdm

    radii = []
    for g1, gi, m in radius_stacks():
        radius = line_candidates(g1, gi, m)[2]
        assert type(radius) is float
        assert radius.hex() == reference_share_radius(g1, gi, m).hex()
        least = np.abs(gi).min()
        radii.append((radius, min(least / 2, least - 1e-12)))
    # most radii are set by a gap, below the cap; the last one is the cap
    assert sum(0 < r < cap for r, cap in radii) >= len(radii) // 2
    assert radii[-1][0] == radii[-1][1] > 0
    # walked one line per stack, the lines' radius is the smallest of the stacks'
    monkeypatch.setattr(ifrx.sdm, "LINE_POINT_LIMIT", 8 * (2 * 200 + 2))
    for (g1, gi, m), (radius, _) in zip(radius_stacks(), radii):
        assert line_candidates(g1, gi, m)[2].hex() == radius.hex()


@pytest.mark.filterwarnings("error")
def test_the_share_radius_is_zero_on_zero_coordinates_and_merged_jumps():
    signed = np.zeros((4, 4))
    signed[np.arange(4), [1, 3, 0, 2]] = [1.0, -1.0, 1.0, -1.0]
    stacks = []
    for basis in (np.eye(4), signed):
        stacks.append((basis[:, 0], basis[:, 1:].T))
    # two coordinates that cross each half-integer within RHO_MERGE_TOL
    stacks.append((np.array([0.3, 0.3 + 0.5e-12, 0.1]), np.array([[1.0, 1.0, 0.7]])))
    for g1, gi in stacks:
        assert line_candidates(g1, gi, 2)[2] == 0.0
        assert reference_share_radius(g1, gi, 2) == 0.0
    # each of the pair's six crossings is one jump point
    assert len(_jumps(*stacks[-1], 2)[0]) == 2 * 6


def test_a_pass_without_its_radius_walks_the_same_rows():
    for g1, gi, m in radius_stacks():
        rows, line, radius = line_candidates(g1, gi, m)
        assert radius.hex() == reference_share_radius(g1, gi, m).hex()
        assert line_candidates(g1, gi, m, radius=True)[2].hex() == radius.hex()
        bare = line_candidates(g1, gi, m, radius=False)
        assert [bare[0].tobytes(), bare[1].tobytes(), bare[2]] \
            == [rows.tobytes(), line.tobytes(), 0.0]


def test_an_empty_stack_gives_no_rows():
    rows, line, radius = line_candidates(np.zeros(3), np.empty((0, 3)), 2)
    assert rows.shape == (0, 3) and rows.dtype == np.int64
    assert line.shape == (0,) and line.dtype.kind == "i"
    assert radius == np.inf


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
        vecs = sym_eigen(compute_q(ch).q[None])[0]
        lines += [(vecs[:, 0], vecs[:, i]) for i in range(1, l)]
        # off-lattice starts, sparse directions and far-away lines
        gi = rng.standard_normal(l) * (rng.rand(l) < 0.6)
        gi[rng.randint(l)] = 1.0
        lines.append((rng.uniform(-3, 3, l), gi))
        lines.append((np.round(rng.uniform(-2, 2, l)) + 0.5, rng.standard_normal(l)))
    lines.append((np.array([0.3, 5.0]), np.array([1.0, 0.0])))
    # one pass per start and bound, each line checked in the pass and alone
    for g1, gis in by_start(lines):
        for m in (1, 2, 3):
            for gi, cands in zip(gis, per_line(g1, gis, m)):
                expected = reference_line_candidates(g1, gi, m)
                assert as_tuples(cands) == expected
                assert as_tuples(line_candidates(g1, gi[None], m)[0]) == expected


@pytest.mark.parametrize("bad", [(0, 0), (3, 0), (1, -3)])
def test_candidate_set_checks_its_invariants(monkeypatch, bad):
    # a zero row, and rows outside the M=2 box in the first and in a later coordinate
    import ifrx.sdm

    # the line pass gives both rows to each line of its stack
    monkeypatch.setattr(ifrx.sdm, "line_candidates",
                        lambda g1, gi, m, **kw: (np.array([(1, 0), bad] * len(gi)),
                                           np.repeat(np.arange(len(gi)), 2), 0.0))
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
            vecs = sym_eigen(compute_q(ChannelRealization(h=h, power=p)).q[None])[0]
            lines += [(vecs[:, 0], vecs[:, i]) for i in range(1, l)]
    return lines


@pytest.mark.parametrize("l", [3, 4, 8])
def test_stacked_line_pass_equals_the_scalar_oracles(l):
    rng = np.random.RandomState(70 + l)
    lines = chain_lines(l) + degenerate_lines(l)
    lines += [(rng.uniform(-2, 2, l), rng.standard_normal(l) * (rng.rand(l) < 0.7) + 1e-3)
              for _ in range(20)]
    chains = 0
    for m in (1, 2, 3):
        # one pass per start
        got = [(a, d, cands) for a, gi in by_start(lines)
               for d, cands in zip(gi, per_line(a, gi, m))]
        assert len(got) == len(lines)
        for a, d, cands in got:
            rhos = reference_jump_points(a, d, m)
            assert as_tuples(cands) == reference_line_candidates(a, d, m)
            assert cands.dtype == np.int64 and cands.shape[1] == l
            # count lines where a merge against the predecessor would differ
            raw = sorted((mj - a[k]) / d[k] for k in range(l) if abs(d[k]) >= 1e-12
                         for mj in half_integer_grid(m))
            chains += sum(1 for x, y in zip(raw, raw[1:]) if y - x <= 1e-12) > len(raw) - len(rhos)
    assert chains >= 9


def hadamard(l):
    h = np.ones((1, 1))
    while len(h) < l:
        h = np.block([[h, h], [h, -h]])
    return h / np.sqrt(l)


@pytest.mark.parametrize("m", [2, 8])
def test_a_hadamard_line_merges_its_long_chains(m):
    # at L = 1024, 512 coordinates cross each half-integer at one rho, so
    # each jump point is a chain of 512; a merge that walked back over the
    # chain for each member took O(512^2) steps per jump point
    h = hadamard(1024)
    # offsets of 0.45e-12 in rho (|gi[k]| = 1/32) chain each jump point's
    # copies into runs that the merge thins to every other run
    jitter = 0.45e-12 / 32 * np.random.RandomState(m).randint(-2, 3, 1024)
    for g1, gi in ((h[:, 0], h[:, 1]), (h[:, 0] + jitter, h[:, 5])):
        rho, line, _ = _jumps(g1, gi[None], m)
        assert rho.tolist() == reference_jump_points(g1, gi, m)
        assert not line.any()
