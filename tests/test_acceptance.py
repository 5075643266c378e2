"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one `ACCEPTANCE nn <label>: PASS/FAIL` line so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist. Failures keep
the first offending detail in the assertion message.
"""

import itertools

import numpy as np

from ifrx.channel import ChannelRealization, sample_channel
from ifrx.cli import main
from ifrx.errors import NotInvertibleModPError
from ifrx.fieldrec import PrimeField, combine_messages, recover_messages
from ifrx.harness import ExperimentConfig, run_trial
from ifrx.ifcore import compute_q, kept_rates, optimal_projection
from ifrx.linalg import sym_eigen
from ifrx.sdm import SearchConfig, candidate_set
from ifrx.select import design_if
from oracles import bareiss_det, canonical_sign, rate_from_ab, rayleigh, reference_jump_points

L8_CFG = dict(l=8, bound_m=2, snr_db=20.0)


def report(number, label, ok, detail=""):
    print(f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def seeded_channel(seed, trial, l, power):
    h = sample_channel(seed, trial, l)
    return ChannelRealization(h=h, power=power)


def test_01_woodbury_identity():
    rng = np.random.RandomState(101)
    worst = 0.0
    for _ in range(1000):
        l = int(rng.choice([2, 4, 8]))
        p = float(rng.choice([1.0, 10.0, 100.0]))
        ch = ChannelRealization(h=rng.standard_normal((l, l)), power=p)
        q = compute_q(ch).q
        oracle = np.linalg.inv(np.eye(l) + p * ch.h.T @ ch.h)
        worst = max(worst, np.linalg.norm(q - oracle) / np.linalg.norm(q))
    report(1, "woodbury identity", worst <= 1e-9, f"worst relative error {worst:.3e}")


def test_02_rate_form_equivalence():
    rng = np.random.RandomState(102)
    worst = 0.0
    for _ in range(1000):
        l = int(rng.choice([2, 4, 8]))
        p = float(rng.choice([1.0, 10.0, 100.0]))
        ch = ChannelRealization(h=rng.standard_normal((l, l)), power=p)
        q = compute_q(ch)
        a = rng.randint(-3, 4, size=l)
        while not a.any():
            a = rng.randint(-3, 4, size=l)
        b = optimal_projection(np.tile(a, (l, 1)), ch)[0]
        worst = max(worst, abs(rate_from_ab(a, b, ch) - kept_rates(np.asarray([a]), q)[0]))
    report(2, "rate form equivalence", worst <= 1e-9, f"worst rate gap {worst:.3e}")


def test_03_eigensolver_bounds():
    rng = np.random.RandomState(103)
    worst_resid, worst_orth = 0.0, 0.0
    for _ in range(1000):
        n = rng.randint(1, 9)
        a = rng.standard_normal((n, n))
        q = 0.5 * (a + a.T)
        vectors = sym_eigen(q[None])[0]
        values = rayleigh(q, vectors)
        norm = np.linalg.norm(q)
        for i in range(n):
            resid = np.linalg.norm(q @ vectors[:, i] - values[i] * vectors[:, i])
            worst_resid = max(worst_resid, resid / max(norm, 1e-300))
        gram_err = np.max(np.abs(vectors.T @ vectors - np.eye(n)))
        worst_orth = max(worst_orth, gram_err)
    ok = worst_resid <= 1e-10 and worst_orth <= 1e-10
    report(3, "eigensolver bounds", ok,
           f"worst residual {worst_resid:.3e}, worst orthonormality {worst_orth:.3e}")


def brute_closest_set(q, m, lines_j):
    """Independent candidate oracle: per interval midpoint, the brute-force
    closest nonzero in-box integer point over all (2M+1)^L candidates."""
    vectors = sym_eigen(q[None])[0]
    g1 = vectors[:, 0]
    l = q.shape[0]
    box = [c for c in itertools.product(range(-m, m + 1), repeat=l) if any(c)]
    box_arr = np.array(box)
    oracle = set()
    for i in range(2, lines_j + 2):
        gi = vectors[:, i - 1]
        rhos = reference_jump_points(g1, gi, m)
        for t in range(len(rhos) - 1):
            point = g1 + 0.5 * (rhos[t] + rhos[t + 1]) * gi
            rounded = np.trunc(point + np.copysign(0.5, point)).astype(int)
            if int(np.max(np.abs(rounded))) > m or not rounded.any():
                continue
            dists = ((box_arr - point) ** 2).sum(axis=1)
            best = int(np.argmin(dists))
            emitted = tuple(int(c) for c in rounded)
            if dists[box.index(emitted)] > dists[best] + 1e-9:
                return None  # rounding missed the closest point
            oracle.add(canonical_sign(box[best]))
    return oracle


def test_04_candidate_search_matches_brute_force():
    failures = []
    for trial in range(100):
        ch = seeded_channel(104, trial, 3, 10.0)
        qform = compute_q(ch)
        cfg = SearchConfig(bound_m=2, lines_j=2)
        omega = set(map(tuple, candidate_set(qform, cfg).tolist()))
        oracle = brute_closest_set(qform.q, 2, 2)
        if oracle is None or omega != oracle:
            failures.append(trial)
    report(4, "candidate search vs brute force", not failures,
           f"mismatching trials {failures[:5]}")


def test_05_per_trial_dominance_chain():
    cfg = ExperimentConfig(
        l=4, snr_db_grid=(0.0, 10.0, 20.0, 30.0), trials=250, bound_m=2, lines_j=3,
        master_seed=105, methods=("if-sdm", "if-exhaustive", "mmse", "zf", "capacity"),
    )
    bad = []
    for snr in cfg.snr_db_grid:
        for t in range(cfg.trials):
            rec = {r.method: r for r in run_trial(cfg, snr, t)}
            checks = [
                rec["if-exhaustive"].rate_min >= rec["if-sdm"].rate_min - 1e-12,
                rec["if-exhaustive"].rate_min >= rec["mmse"].rate_min - 1e-12,
                (not rec["zf"].success) or rec["mmse"].rate_min >= rec["zf"].rate_min - 1e-12,
                rec["capacity"].rate_min >= rec["if-exhaustive"].rate_min - 1e-9,
            ]
            if not all(checks):
                bad.append((snr, t, checks))
    report(5, "per-trial dominance chain", not bad, f"violations {bad[:3]}")


def test_06_success_probability():
    trials = 1000
    power = 10.0 ** (L8_CFG["snr_db"] / 10.0)
    sdm_success = 0
    exhaustive_success = 0
    for t in range(trials):
        ch = seeded_channel(106, t, L8_CFG["l"], power)
        cfg = SearchConfig(bound_m=L8_CFG["bound_m"], lines_j=4)
        if design_if(ch, cfg, "sdm").success:
            sdm_success += 1
        if design_if(ch, cfg, "exhaustive").success:
            exhaustive_success += 1
    prob = sdm_success / trials
    ok = prob >= 0.95 and exhaustive_success == trials
    report(6, "construction success probability", ok,
           f"sdm success {prob:.3f}, exhaustive success {exhaustive_success}/{trials}")


def test_07_j_plateau_and_inclusion():
    # plateau measured on the per-stream bottleneck rate (total / L); the
    # line also reports the total-scale gap for reference
    trials = 1000
    power = 10.0 ** (L8_CFG["snr_db"] / 10.0)
    l, m = L8_CFG["l"], L8_CFG["bound_m"]
    totals = {4: 0.0, 7: 0.0}
    inclusion_ok = True
    for t in range(trials):
        ch = seeded_channel(107, t, l, power)
        qform = compute_q(ch)
        previous = set()
        for j in range(1, l):
            vectors = set(map(tuple, candidate_set(qform, SearchConfig(bound_m=m, lines_j=j)).tolist()))
            if not previous <= vectors:
                inclusion_ok = False
            previous = vectors
        for j in (4, 7):
            totals[j] += design_if(ch, SearchConfig(bound_m=m, lines_j=j), "sdm").report.total
    gap = (totals[7] - totals[4]) / trials / l
    ok = inclusion_ok and gap <= 0.05
    report(7, "j plateau and inclusion", ok,
           f"J7-J4 gap {gap:.4f} bits/stream ({gap * l:.4f} total), inclusion ok {inclusion_ok}")


def test_08_m_plateau():
    trials = 1000
    l = L8_CFG["l"]
    power = 10.0 ** (L8_CFG["snr_db"] / 10.0)
    totals = {2: 0.0, 3: 0.0}
    for t in range(trials):
        ch = seeded_channel(108, t, l, power)
        for m in (2, 3):
            totals[m] += design_if(ch, SearchConfig(bound_m=m, lines_j=4), "sdm").report.total
    gap = (totals[3] - totals[2]) / trials / l
    report(8, "m plateau", gap <= 0.05,
           f"M3-M2 gap {gap:.4f} bits/stream ({gap * l:.4f} total)")


def test_09_finite_field_round_trip():
    ok = True
    detail = ""
    for p in (3, 257):
        field = PrimeField(p)
        rng = np.random.RandomState(109 + p)
        recovered = 0
        trial = 0
        while recovered < 100 and trial < 500:
            ch = seeded_channel(109, trial, 4, 10.0)
            trial += 1
            design = design_if(ch, SearchConfig(bound_m=2, lines_j=3), "sdm")
            a = design.a
            w = np.array([rng.randint(0, p, size=4) for _ in range(4)])
            u = combine_messages(a, w, field)
            if bareiss_det(a.tolist()) % p != 0:
                if not np.array_equal(recover_messages(a, u, field), w):
                    ok, detail = False, f"round trip mismatch at p={p}, trial {trial}"
                    break
                recovered += 1
            else:
                try:
                    recover_messages(a, u, field)
                    ok, detail = False, f"det=0 mod {p} did not raise"
                    break
                except NotInvertibleModPError:
                    pass
        if recovered < 100 and ok:
            ok, detail = False, f"only {recovered} invertible designs found for p={p}"
        # a full-real-rank matrix that is singular mod p must raise
        singular = np.eye(4, dtype=int)
        singular[0, 0] = p
        try:
            recover_messages(singular, np.zeros((4, 1), dtype=np.int64), field)
            ok, detail = False, f"constructed det=0 mod {p} case did not raise"
        except NotInvertibleModPError:
            pass
    report(9, "finite-field round trip", ok, detail)


def test_10_cli_determinism(tmp_path, capsys):
    args = ["simulate", "--l", "4", "--snr-db", "0:10:20", "--trials", "25",
            "--bound", "2", "--lines", "2", "--seed", "424242",
            "--methods", "if-sdm,mmse,zf,capacity"]
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    ok = main(args + ["--out", str(csv_a)]) == 0
    ok = main(args + ["--out", str(csv_b)]) == 0 and ok
    ok = ok and csv_a.read_bytes() == csv_b.read_bytes()
    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    for target in (svg_a, svg_b):
        code = main(["plot", "--in", str(csv_a), "--out", str(target),
                     "--x", "snr_db", "--y", "avg_rate_min", "--series", "method"])
        ok = ok and code == 0
    ok = ok and svg_a.read_bytes() == svg_b.read_bytes()
    capsys.readouterr()
    report(10, "cli byte determinism", ok, "csv or svg bytes differ between runs")
