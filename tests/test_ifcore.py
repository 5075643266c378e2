import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ifrx.channel import ChannelRealization, capacity, prepare_capacity, sample_channel
from ifrx.errors import IfrxError, InvalidInputError, SingularMatrixError
from ifrx.ifcore import (
    QForm,
    compute_q,
    kept_rates,
    mmse_rates,
    optimal_projection,
    prepare_inverses,
    total_rate,
    zf_rates,
)
from ifrx.sdm import SearchConfig, candidate_set
from ifrx.select import design_if
from oracles import rate_from_ab

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def random_channel(rng, l, power):
    return ChannelRealization(h=rng.standard_normal((l, l)), power=power)


def test_a_row_of_energy_one_rates_positive_zero():
    # (1/2) log2(1 / 1) came out as -0.0, which prints as -0.000000
    rates = kept_rates(np.asarray([[1.0, 0.0], [1.0, 1.0]]), QForm(q=np.eye(2)))
    assert [math.copysign(1.0, r) for r in rates] == [1.0, -1.0]
    assert rates == [0.0, -0.5]


def test_compute_q_identity_channel():
    q = compute_q(ChannelRealization(h=np.eye(2), power=1.0))
    assert np.allclose(q.q, 0.5 * np.eye(2), atol=1e-12)


def test_noise_whitener_computed_once_per_channel(monkeypatch):
    import ifrx.ifcore

    calls = []
    inner = ifrx.ifcore.solve_inverse
    monkeypatch.setattr(ifrx.ifcore, "solve_inverse", lambda m: calls.append(1) or inner(m))
    ch = random_channel(np.random.RandomState(4), 4, 100.0)
    q = compute_q(ch)
    mmse_rates(ch)
    b = optimal_projection(np.eye(4), ch)
    assert len(calls) == 1
    assert np.array_equal(compute_q(ch).q, q.q)
    w = np.linalg.inv(ch.h @ ch.h.T + np.eye(4) / ch.power)
    assert np.allclose(b, ch.h.T @ w, atol=1e-12)
    with pytest.raises(ValueError):
        ch.memo["whitener"][0, 0] = 0.0
    # a new realization of the same matrix computes its own
    compute_q(ChannelRealization(h=ch.h, power=1.0))
    assert len(calls) == 2


def test_q_is_computed_once_and_read_only():
    ch = random_channel(np.random.RandomState(5), 4, 100.0)
    q = compute_q(ch)
    assert compute_q(ch) is q
    with pytest.raises(ValueError):
        q.q[0, 0] = 0.0
    # a hand-built form copies its input and never shares the channel's
    # memo, so its basis and lines stay its own
    raw = np.diag([0.1, 0.2, 0.3, 0.4])
    fake = QForm(q=raw)
    raw[0, 0] = 0.9
    assert fake.q[0, 0] == 0.1
    cfg = SearchConfig(bound_m=2, lines_j=3)
    fake_set = candidate_set(fake, cfg)
    assert fake.memo is not q.memo
    assert np.array_equal(candidate_set(q, cfg), candidate_set(
        compute_q(ChannelRealization(h=ch.h, power=ch.power)), cfg))
    assert np.array_equal(candidate_set(fake, cfg), fake_set)
    assert not np.array_equal(fake_set, candidate_set(q, cfg))


def test_array_inputs_are_finite_real_matrices():
    # a complex Q lost its imaginary part with a ComplexWarning, strings and
    # complex rows raised raw errors, and a NaN in A gave NaN rows or a
    # SingularMatrixError
    ch = ChannelRealization(h=np.eye(2), power=1.0)
    for bad in (np.eye(2) * (1 + 1j), [[np.nan, 0.0], [0.0, 1.0]], np.ones((2, 3))):
        with pytest.raises(InvalidInputError, match="^q "):
            QForm(q=bad)
    for a in ([["a", "b"], ["c", "d"]], [[1j, 1], [0, 1]], [[np.nan, 0.0], [0.0, 1.0]],
              [[1, 0], [0]]):
        with pytest.raises(InvalidInputError, match="^coefficient matrix "):
            optimal_projection(a, ch)


def test_compute_q_zero_channel():
    q = compute_q(ChannelRealization(h=np.zeros((3, 3)), power=10.0))
    assert np.allclose(q.q, np.eye(3), atol=1e-12)


def test_compute_q_woodbury_identity():
    rng = np.random.RandomState(2)
    for _ in range(300):
        l = int(rng.choice([2, 4, 8]))
        p = float(rng.choice([1.0, 10.0, 100.0]))
        ch = random_channel(rng, l, p)
        q = compute_q(ch).q
        # independent oracle: (I + P H^T H)^-1 via numpy
        oracle = np.linalg.inv(np.eye(l) + p * ch.h.T @ ch.h)
        assert np.linalg.norm(q - oracle) <= 1e-9 * np.linalg.norm(q)


def test_q_eigenvalues_in_unit_interval():
    rng = np.random.RandomState(8)
    for _ in range(100):
        l = int(rng.choice([2, 4]))
        ch = random_channel(rng, l, float(rng.choice([1.0, 100.0])))
        q = compute_q(ch)
        eig = np.linalg.eigvalsh(q.q)
        assert np.all(eig > 0.0)
        assert np.all(eig <= 1.0 + 1e-12)
        # consequence: unit coefficient vectors never get a negative rate
        assert min(kept_rates(np.eye(l, dtype=int), q)) >= -1e-12


def test_optimal_projection_examples():
    ch = ChannelRealization(h=np.eye(2), power=1.0)
    assert np.allclose(optimal_projection(np.eye(2), ch), 0.5 * np.eye(2))
    ch0 = ChannelRealization(h=np.zeros((2, 2)), power=1.0)
    assert np.allclose(optimal_projection(np.eye(2), ch0), np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        optimal_projection(np.eye(3), ch)


def test_optimal_projection_is_stationary():
    rng = np.random.RandomState(13)
    for _ in range(20):
        ch = random_channel(rng, 3, 10.0)
        a = rng.randint(-2, 3, size=(3, 3))
        b = optimal_projection(a, ch)
        for m in range(3):
            base = rate_from_ab(a[m], b[m], ch)
            for _ in range(100):
                delta = rng.standard_normal(3)
                delta *= 1e-3 / np.linalg.norm(delta)
                assert rate_from_ab(a[m], b[m] + delta, ch) <= base + 1e-12


def test_rate_from_ab_examples():
    ch = ChannelRealization(h=np.eye(2), power=1.0)
    assert rate_from_ab([1, 0], [0.5, 0.0], ch) == pytest.approx(0.5)
    assert rate_from_ab([1, 0], [0.0, 0.0], ch) == pytest.approx(0.0)
    b = optimal_projection(np.array([[2, 0], [0, 1]]), ch)
    assert rate_from_ab([2, 0], b[0], ch) == pytest.approx(-0.5)
    with pytest.raises(InvalidInputError):
        rate_from_ab([0, 0], [0.0, 0.0], ch)


def test_rate_from_q_examples():
    ch = ChannelRealization(h=np.eye(2), power=1.0)
    q = compute_q(ch)
    assert kept_rates(np.asarray([[1, 0], [1, 1]]), q) == pytest.approx([0.5, 0.0])


def test_rate_forms_agree():
    # both rate expressions coincide once b is the optimal projection row
    rng = np.random.RandomState(4)
    for _ in range(300):
        l = int(rng.choice([2, 4]))
        ch = random_channel(rng, l, float(rng.choice([1.0, 10.0, 100.0])))
        q = compute_q(ch)
        a = rng.randint(-3, 4, size=(l, l))
        while not a.any(axis=1).all():
            a = rng.randint(-3, 4, size=(l, l))
        b = optimal_projection(a, ch)
        for m, rate in enumerate(kept_rates(np.asarray(a), q)):
            assert abs(rate_from_ab(a[m], b[m], ch) - rate) <= 1e-9


def stacked_product_mismatches():
    """Inputs on which a rate product of the package differs in any bit
    from the per-row product: ``kept_rates`` against ``a_m @ q @ a_m`` of
    each row of ``a.astype(float)``, the ZF row norms against
    ``b[m] @ b[m]``, and the MMSE rates against ``q[m, m]``. Run with ``ifcore._rate_from_energy`` read as ``float``,
    so each rate is the product itself."""
    import ifrx.ifcore
    from ifrx.linalg import solve_inverse

    assert ifrx.ifcore._rate_from_energy is float
    bad = []

    def check(tag, got, want):
        if [v.hex() for v in got] != [float(v).hex() for v in want]:
            bad.append(tag)

    rng = np.random.RandomState(37)
    for l in (4, 8, 16):
        for snr in (0, 20, 40):
            for t in range(6):
                ch = ChannelRealization(h=sample_channel(37, t, l), power=10.0 ** (snr / 10))
                q = compute_q(ch)
                a = design_if(ch, SearchConfig(2, -(-l // 2)), "sdm").a
                check(("design", l, snr, t), kept_rates(np.asarray(a), q),
                      [a_m @ q.q @ a_m for a_m in a.astype(float)])
                prepare_inverses([ch], zf=True)
                b = solve_inverse([ch.h.T @ ch.h])[0] @ ch.h.T
                check(("zf", l, snr, t), ch.memo["zf_row_norms"], [b[m] @ b[m] for m in range(l)])
                check(("mmse", l, snr, t), mmse_rates(ch).per_stream,
                      [q.q[m, m] for m in range(l)])
    for k in range(400):
        l = rng.randint(2, 17)
        q = compute_q(random_channel(rng, l, 10.0 ** rng.uniform(-1, 4)))
        a = rng.randint(-4, 5, size=(2 * l + 1, l + 2))
        a[:, 0] = rng.randint(1, 5, size=len(a))
        # C-ordered, F-ordered, strided and non-integer rows of length L
        a = {0: a[:, :l].copy(), 1: np.asfortranarray(a[:, :l]), 2: a[::2, ::-1][:, 2:],
             3: a[:, :l] + rng.standard_normal((len(a), l))}[k % 4]
        check(("rows", k), kept_rates(np.asarray(a), q), [a_m @ q.q @ a_m for a_m in a.astype(float)])
    return bad


def test_stacked_rate_products_keep_the_per_row_bits(monkeypatch):
    import ifrx.ifcore

    monkeypatch.setattr(ifrx.ifcore, "_rate_from_energy", float)
    assert stacked_product_mismatches() == []


def test_stacked_rate_products_keep_the_per_row_bits_under_an_avx2_kernel():
    # OPENBLAS_CORETYPE picks the kernel of the child process alone
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_VERBOSE": "2",
           "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")])}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True,
                           text=True)
    if probe.returncode != 0 or "Core: Haswell" not in probe.stderr:
        pytest.skip(f"OpenBLAS cannot load its Haswell kernel here: {probe.stderr.strip()!r}")
    script = ("import ifrx.ifcore, test_ifcore\n"
              "ifrx.ifcore._rate_from_energy = float\n"
              "print(test_ifcore.stacked_product_mismatches())")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_total_rate():
    rep = total_rate([0.5, 0.5])
    assert rep.total == pytest.approx(1.0)
    assert total_rate([0.5, -0.2]).total == 0.0
    assert total_rate([0.5, -0.2]).per_stream == (0.5, -0.2)
    assert total_rate([1.0]).total == pytest.approx(1.0)
    with pytest.raises(InvalidInputError):
        total_rate([])


def test_sum_form():
    rep = total_rate([0.5, -0.2, 1.0])
    assert rep.sum_form == pytest.approx(1.5)


def test_zf_rates_examples():
    rep = zf_rates(ChannelRealization(h=np.eye(2), power=1.0))
    assert rep.per_stream == pytest.approx((0.0, 0.0))
    assert rep.total == 0.0
    rep4 = zf_rates(ChannelRealization(h=np.eye(2), power=4.0))
    assert rep4.per_stream == pytest.approx((1.0, 1.0))
    assert rep4.total == pytest.approx(2.0)
    singular = zf_rates(ChannelRealization(h=np.ones((2, 2)), power=1.0))
    assert singular.singular
    assert singular.total == 0.0


def test_zf_rates_past_the_float_range_of_p_over_a_row_norm():
    # P / ||b_m||^2 overflowed: each rate read inf, and so did the CSV of
    # simulate --l 2 --snr-db 3080 --methods zf
    rep = zf_rates(ChannelRealization(h=10.0 * np.eye(2), power=1e308))
    norm = 0.1 * 0.1
    expected = 0.5 * (math.log2(1e308) - math.log2(norm))
    assert rep.per_stream == (expected, expected) and rep.total == 2 * expected
    assert not rep.singular and math.isfinite(rep.sum_form)
    # where the ratio is finite, the rate is still its log
    rep = zf_rates(ChannelRealization(h=10.0 * np.eye(2), power=1e300))
    assert rep.per_stream == (0.5 * math.log2(1e300 / norm),) * 2
    # H^T H whose inverse overflows a float is flagged singular: the
    # rates read (nan, nan), not flagged
    tiny = zf_rates(ChannelRealization(h=1e-160 * np.eye(2), power=1.0))
    assert tiny.singular and tiny.per_stream == (0.0, 0.0) and tiny.total == 0.0


def test_zf_row_norms_computed_once_per_realization(monkeypatch):
    import ifrx.ifcore

    calls = []
    inner = ifrx.ifcore.solve_inverse
    monkeypatch.setattr(ifrx.ifcore, "solve_inverse", lambda m: calls.append(1) or inner(m))
    ch = random_channel(np.random.RandomState(6), 4, 100.0)
    assert zf_rates(ch) == zf_rates(ch)
    assert len(calls) == 1
    # a standalone realization of the same matrix computes its own
    other = ChannelRealization(h=ch.h, power=10.0)
    rep = zf_rates(other)
    assert len(calls) == 2
    # realizations of one matrix prepared together share one inverse
    pair = [ChannelRealization(h=ch.h, power=p) for p in (10.0, 1000.0)]
    prepare_inverses(pair, whiteners=False, zf=True)
    assert len(calls) == 3
    assert zf_rates(pair[0]) == rep
    assert zf_rates(pair[1]).per_stream != rep.per_stream
    assert len(calls) == 3


def test_stacked_preparers_read_each_realizations_own_h(monkeypatch):
    # the stacked preparers read the first realization's H for every slice,
    # so b read 3.245 for MMSE, 3.084 for ZF and a capacity of 3.526
    import ifrx.ifcore

    def pair():
        return (ChannelRealization(h=[[0.9, 0.3], [-0.2, 1.1]], power=10),
                ChannelRealization(h=[[2, 0], [0.5, 0.1]], power=10))

    alone = [(mmse_rates(ch), zf_rates(ch), capacity(ch)) for ch in pair()]
    a, b = pair()
    # a second realization of a's H, at another power, shares its ZF slice
    a2 = ChannelRealization(h=a.h, power=1000.0)
    stacks = []
    inner = ifrx.ifcore.solve_inverse
    monkeypatch.setattr(ifrx.ifcore, "solve_inverse", lambda m: stacks.append(len(m)) or inner(m))
    prepare_inverses([a, b, a2], zf=True)
    prepare_capacity([a, b, a2])
    assert stacks == [5]
    assert [(mmse_rates(ch), zf_rates(ch), capacity(ch)) for ch in (a, b)] == alone
    assert zf_rates(b).total == 0.0 and round(mmse_rates(b).total, 3) == 0.130
    assert round(capacity(b), 3) == 2.786
    assert a2.memo["zf_row_norms"] == a.memo["zf_row_norms"] and stacks == [5]
    # realizations of two sizes make no stack
    mixed = [ChannelRealization(h=np.eye(2), power=1.0), ChannelRealization(h=np.eye(3), power=1.0)]
    for prepare in (prepare_inverses, prepare_capacity):
        with pytest.raises(InvalidInputError, match="^m must be a rectangular array$"):
            prepare(mixed)


def test_mmse_rates_examples():
    rep = mmse_rates(ChannelRealization(h=np.eye(2), power=1.0))
    assert rep.per_stream == pytest.approx((0.5, 0.5))
    assert rep.total == pytest.approx(1.0)
    zero = mmse_rates(ChannelRealization(h=np.zeros((2, 2)), power=5.0))
    assert zero.per_stream == pytest.approx((0.0, 0.0))
    assert zero.total == 0.0


def test_mmse_dominates_zf_per_stream():
    rng = np.random.RandomState(21)
    checked = 0
    for _ in range(1000):
        ch = random_channel(rng, int(rng.choice([2, 4])), float(rng.choice([1.0, 10.0])))
        zf = zf_rates(ch)
        if zf.singular:
            continue
        mmse = mmse_rates(ch)
        checked += 1
        for r_mmse, r_zf in zip(mmse.per_stream, zf.per_stream):
            assert r_mmse >= r_zf - 1e-12
    assert checked > 900


def test_every_method_at_200_db_gives_finite_rates_or_a_typed_error():
    # Q = I - H^T (H H^T + I/P)^-1 H cancels to rounding noise here, so
    # a^T Q a and Q_mm can come out <= 0
    raised = 0
    for t in range(50):
        ch = ChannelRealization(h=sample_channel(7, t, 4), power=1e20)
        for run in (lambda: design_if(ch, SearchConfig(2, 3), "sdm").report,
                    lambda: design_if(ch, SearchConfig(2, 3), "exhaustive").report,
                    lambda: mmse_rates(ch), lambda: zf_rates(ch)):
            try:
                rep = run()
            except IfrxError:
                raised += 1
                continue
            assert all(math.isfinite(r) for r in rep.per_stream + (rep.total,))
        assert math.isfinite(capacity(ch))
    assert raised > 0


def test_a_kept_error_is_raised_with_a_fresh_traceback_on_every_read():
    # the whitener of this channel fails; no memo keeps the error, so every
    # read computes the slice again and raises it afresh
    ch = ChannelRealization(h=np.ones((3, 3)), power=1e30)
    depths = []
    for _ in range(3):
        with pytest.raises(SingularMatrixError, match="^pivot below threshold") as info:
            compute_q(ch)
        depths.append(len(info.traceback))
    assert depths[0] == depths[1] == depths[2]
