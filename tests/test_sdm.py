import itertools

import numpy as np
import pytest

from ifrx.channel import ChannelRealization
from ifrx.errors import DegenerateDirectionError, InvalidInputError
from ifrx.ifcore import QForm, compute_q
from ifrx.linalg import sym_eigen
from ifrx.sdm import (
    SearchConfig,
    candidate_set,
    jump_points,
    line_candidates,
    midpoint_grid,
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


def test_midpoint_grid():
    assert midpoint_grid(1) == [-1.5, -0.5, 0.5, 1.5]
    assert midpoint_grid(2) == [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]
    grid3 = midpoint_grid(3)
    assert len(grid3) == 8
    assert grid3[0] == -3.5 and grid3[-1] == 3.5
    assert np.allclose(np.diff(grid3), 1.0)
    with pytest.raises(InvalidInputError):
        midpoint_grid(0)


def test_jump_points_axis_aligned():
    assert jump_points([1.0, 0.0], [0.0, 1.0], 1) == [-1.5, -0.5, 0.5, 1.5]
    assert jump_points([0.0, 0.0], [1.0, 0.0], 1) == [-1.5, -0.5, 0.5, 1.5]


def test_jump_points_two_active_coordinates():
    got = jump_points([0.5, 0.5], [0.5, -0.5], 1)
    expected = sorted({(m - 0.5) / 0.5 for m in midpoint_grid(1)}
                      | {(m - 0.5) / -0.5 for m in midpoint_grid(1)})
    assert got == pytest.approx(expected)
    assert len(got) <= (2 * 1 + 2) * 2


def test_jump_points_degenerate_direction():
    with pytest.raises(DegenerateDirectionError):
        jump_points([1.0, 0.0], [0.0, 1e-13], 1)


def test_line_candidates_examples():
    assert line_candidates([1.0, 0.0], [0.0, 1.0], 1).tolist() == [[1, -1], [1, 0], [1, 1]]
    assert line_candidates([0.6, 0.0], [0.0, 1.0], 1).tolist() == [[1, -1], [1, 0], [1, 1]]


def test_line_candidates_bound_clearing():
    # a line far from the box in its second coordinate gets intervals cleared
    pts = line_candidates([0.3, 5.0], [1.0, 0.0], 1)
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
    basis = sym_eigen(q)
    g1 = basis.vectors[:, 0]
    oracle = set()
    for i in range(2, j + 2):
        gi = basis.vectors[:, i - 1]
        rhos = jump_points(g1, gi, m)
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


def reference_jump_points(g1, gi, m):
    """Scalar per-coordinate loop, the form jump_points must match exactly."""
    rhos = []
    for k in range(gi.shape[0]):
        if abs(gi[k]) < 1e-12:
            continue
        rhos.extend((mj - g1[k]) / gi[k] for mj in midpoint_grid(m))
    rhos.sort()
    merged = [rhos[0]]
    for rho in rhos[1:]:
        if rho - merged[-1] > 1e-12:
            merged.append(rho)
    return merged


def reference_line_candidates(g1, gi, m):
    """Scalar per-midpoint loop, the form line_candidates must match exactly."""
    rhos = reference_jump_points(g1, gi, m)
    points = []
    for j in range(len(rhos) - 1):
        x = g1 + 0.5 * (rhos[j] + rhos[j + 1]) * gi
        cand = np.trunc(x + np.copysign(0.5, x)).astype(int)
        if int(np.max(np.abs(cand))) > m or not cand.any():
            continue
        points.append(tuple(int(c) for c in cand))
    return points


def test_line_candidates_bit_identical_to_scalar_loop():
    rng = np.random.RandomState(58)
    lines = []
    for _ in range(60):
        l = int(rng.choice([2, 3, 4, 8]))
        ch = ChannelRealization(h=rng.standard_normal((l, l)), power=10.0 ** rng.uniform(0, 4))
        vecs = sym_eigen(compute_q(ch).q).vectors
        lines += [(vecs[:, 0], vecs[:, i]) for i in range(1, l)]
        # off-lattice starts, sparse directions and far-away lines
        gi = rng.standard_normal(l) * (rng.rand(l) < 0.6)
        gi[rng.randint(l)] = 1.0
        lines.append((rng.uniform(-3, 3, l), gi))
        lines.append((np.round(rng.uniform(-2, 2, l)) + 0.5, rng.standard_normal(l)))
    lines.append((np.array([0.3, 5.0]), np.array([1.0, 0.0])))
    for g1, gi in lines:
        for m in (1, 2, 3):
            assert jump_points(g1, gi, m) == reference_jump_points(g1, gi, m)
            assert as_tuples(line_candidates(g1, gi, m)) == reference_line_candidates(g1, gi, m)


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
            vecs = sym_eigen(compute_q(ChannelRealization(h=h, power=p)).q).vectors
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
            assert jump_points(a, d, m) == rhos
            assert as_tuples(cands) == reference_line_candidates(a, d, m)
            assert cands.dtype == np.int64 and cands.shape[1] == l
            # count lines where a merge against the predecessor would differ
            raw = sorted((mj - a[k]) / d[k] for k in range(l) if abs(d[k]) >= 1e-12
                         for mj in midpoint_grid(m))
            chains += sum(1 for x, y in zip(raw, raw[1:]) if y - x <= 1e-12) > len(raw) - len(rhos)
    assert chains >= 9
