import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ifrx.channel import ChannelRealization, sample_channel
from ifrx.errors import ConvergenceError, InvalidInputError, SingularMatrixError
from ifrx.ifcore import compute_q
from ifrx.linalg import (PIVOT_RTOL, det, int_rank_independent, int_rows, real_value,
                          solve_inverse, sym_eigen)
from oracles import column_loop_det, column_loop_solve_inverse, rayleigh


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def alone(kernel):
    """``kernel`` on one matrix as a stack of one: the slice's result, or
    its listed error raised."""
    def run(m):
        got = kernel(np.array(m, dtype=float)[None])[0]
        if isinstance(got, Exception):
            raise got
        return got
    return run


def test_sym_eigen_diagonal():
    q = np.diag([0.5, 0.2])
    vectors = alone(sym_eigen)(q)
    assert np.allclose(rayleigh(q, vectors), [0.2, 0.5])
    assert np.allclose(vectors[:, 0], [0.0, 1.0])
    assert np.allclose(vectors[:, 1], [1.0, 0.0])


def test_sym_eigen_2x2_closed_form():
    q = np.array([[2.0, 1.0], [1.0, 2.0]])
    vectors = alone(sym_eigen)(q)
    assert np.allclose(rayleigh(q, vectors), [1.0, 3.0])
    s = 1.0 / np.sqrt(2.0)
    # canonical signs: largest-magnitude coordinate positive, ties -> lowest index
    assert np.allclose(vectors[:, 0], [s, -s])
    assert np.allclose(vectors[:, 1], [s, s])


def test_sym_eigen_reconstruction_random_8x8():
    rng = np.random.RandomState(7)
    q = random_symmetric(rng, 8)
    vectors = alone(sym_eigen)(q)
    rebuilt = (vectors * rayleigh(q, vectors)) @ vectors.T
    assert np.linalg.norm(rebuilt - q) <= 1e-9 * np.linalg.norm(q)


def test_sym_eigen_invariants_random():
    rng = np.random.RandomState(123)
    for _ in range(200):
        n = rng.randint(1, 9)
        q = random_symmetric(rng, n)
        vectors = alone(sym_eigen)(q)
        values = rayleigh(q, vectors)
        norm = np.linalg.norm(q)
        assert np.all(np.diff(values) >= 0)
        for i in range(n):
            resid = q @ vectors[:, i] - values[i] * vectors[:, i]
            assert np.linalg.norm(resid) <= 1e-10 * norm
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
        # independent check on the spectrum itself
        assert np.allclose(values, np.linalg.eigvalsh(q), atol=1e-9 * max(norm, 1.0))


def test_sym_eigen_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        sym_eigen(np.ones((1, 2, 3)))
    with pytest.raises(InvalidInputError):
        alone(sym_eigen)([[1.0, 2.0], [0.0, 1.0]])


def test_an_empty_matrix_is_refused_after_the_square_check():
    # a (0, 0) channel reached the whitener guard's max(), and an n = 0
    # stack eigh's argmax, each a raw ValueError
    with pytest.raises(InvalidInputError, match=r"^h must be nonempty, got shape \(0, 0\)$"):
        ChannelRealization(h=np.zeros((0, 0)), power=1.0)
    with pytest.raises(InvalidInputError, match=r"^q must be nonempty, got shape \(1, 0, 0\)$"):
        sym_eigen(np.zeros((1, 0, 0)))
    with pytest.raises(InvalidInputError, match=r"^h must be square, got shape \(1, 0\)$"):
        ChannelRealization(h=[[]], power=1.0)


def test_solve_inverse_examples():
    assert np.allclose(alone(solve_inverse)(2.0 * np.eye(2)), 0.5 * np.eye(2))
    inv = alone(solve_inverse)([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(inv, [[-2.0, 1.0], [1.5, -0.5]])
    with pytest.raises(SingularMatrixError):
        alone(solve_inverse)([[1.0, 1.0], [1.0, 1.0]])


def test_solve_inverse_two_sided_identity():
    rng = np.random.RandomState(5)
    for _ in range(100):
        n = rng.randint(1, 9)
        m = rng.standard_normal((n, n))
        try:
            inv = alone(solve_inverse)(m)
        except SingularMatrixError:
            continue
        assert np.linalg.norm(m @ inv - np.eye(n)) <= 1e-9
        assert np.linalg.norm(inv @ m - np.eye(n)) <= 1e-9


def test_det_examples():
    assert alone(det)(np.eye(3)) == pytest.approx(1.0)
    assert alone(det)([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0)
    assert alone(det)([[1.0, 1.0], [2.0, 2.0]]) == 0.0
    with pytest.raises(InvalidInputError):
        det(np.ones((1, 2, 3)))


def fraction_det(m):
    """Oracle: the determinant of a float matrix in exact rational arithmetic."""
    m = [[Fraction(x) for x in row] for row in m]
    total = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            total = -total
        total *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return total


def test_det_of_a_finite_determinant_whose_pivot_product_overflows_midway():
    # the running product of pivots 1e200 * 1e200 came out inf
    rng = np.random.RandomState(5)
    # columns scaled, so each pivot is a column's scale times an O(1) value
    scaled = rng.standard_normal((3, 3)) @ np.diag([1e200, 1e200, 1e-200])
    stack = [np.diag([1e200, 1e200, 1e-200]), np.diag([1e-200, 1e-200, 1e200]), scaled]
    for m, got in zip(stack, det(stack)):
        expected = fraction_det(m.tolist())
        assert math.isfinite(got) and abs(got - expected) <= 1e-12 * abs(expected)
    assert det([np.diag([1e200, 1e200])]) == [np.inf]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_det_keeps_the_term_an_underflowing_multiplier_drops():
    # rows scaled 1e-200 and 1e200 apart: the multiplier 1e-200 / 1e200
    # flushes to 0, and the term it carries, as large as the row it should
    # update, is dropped (6.048e199 where the determinant is 1.487e200)
    m = np.diag([1e-200, 1e200, 1e200]) @ np.random.RandomState(5).standard_normal((3, 3))
    expected = fraction_det(m.tolist())
    assert abs(alone(det)(m) - expected) <= 1e-12 * abs(expected)


def cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def test_det_matches_cofactor_expansion_on_integer_matrices():
    rng = np.random.RandomState(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(-5, 6, size=(n, n))
        expected = cofactor_det(m.tolist())
        assert alone(det)(m) == pytest.approx(expected, abs=1e-9)


def rational_independent(rows):
    """Oracle: row reduction in exact rational arithmetic."""
    m = [[Fraction(int(x)) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot_row = m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / pivot_row[col]
                m[r] = [a - factor * b for a, b in zip(m[r], pivot_row)]
        rank += 1
    return rank == len(rows)


def test_int_rank_examples():
    assert int_rank_independent([(1, 0), (0, 1)])
    assert not int_rank_independent([(1, 0), (2, 0)])
    assert not int_rank_independent([(1, 1, 0), (0, 1, 1), (1, 0, -1)])
    with pytest.raises(InvalidInputError):
        int_rank_independent([(1, 0), (1, 0, 0)])
    with pytest.raises(InvalidInputError):
        int_rank_independent([])
    with pytest.raises(InvalidInputError, match="^3 vectors of length 2 can never be independent$"):
        int_rank_independent([(1, 0), (0, 1), (1, 1)])



def test_real_value_refuses_an_integer_beyond_the_float_range():
    with pytest.raises(InvalidInputError, match="^x must be a real number, got 1000"):
        real_value(10**400, "x")
    assert real_value(10**300, "x") == 1e300


def test_int_rank_rejects_non_integer_entries():
    # int() would truncate 0.5 to 0 and call two independent vectors dependent;
    # like greedy_full_rank's integer dtype, only integers are accepted
    for bad in (0.5, -1.25, 2.0, np.float64(1.0), float("nan"), float("inf"), "1"):
        with pytest.raises(InvalidInputError, match="must hold integers"):
            int_rank_independent([(bad, 0), (0, 1)])
    assert int_rank_independent([(2, 0), (np.int64(0), np.uint8(1))])
    assert not int_rank_independent([(np.uint8(3), 6), (1, 2)])

def test_int_rows_reads_any_integer_matrix_as_python_ints():
    big = np.array([[2**64 - 1, 0]], dtype=np.uint64)
    for m, rows in (([(1, -2), (3, 4)], [[1, -2], [3, 4]]), (big, [[2**64 - 1, 0]]),
                    (np.array([[True, False]]), [[1, 0]]),
                    (np.zeros((2, 0), dtype=np.int8), [[], []])):
        got = int_rows(m, "m")
        assert got == rows and all(type(x) is int for row in got for x in row)
    for bad in ([], [(1, 0), (1,)], [1, 2], np.zeros((0, 3), dtype=int), np.arange(3), 5):
        with pytest.raises(InvalidInputError, match="m must be a nonempty rectangular matrix"):
            int_rows(bad, "m")
    with pytest.raises(InvalidInputError, match="vectors must be a nonempty rectangular matrix"):
        int_rank_independent([(1, 0), (1, 0, 0)])


def test_int_rank_exhaustive_pairs_l2():
    vectors = [v for v in itertools.product(range(-2, 3), repeat=2)]
    for a, b in itertools.combinations(vectors, 2):
        if not any(a) or not any(b):
            continue
        assert int_rank_independent([a, b]) == rational_independent([a, b])


def test_int_rank_matches_rational_oracle_randomly():
    rng = np.random.RandomState(29)
    for _ in range(2000):
        l = rng.randint(2, 5)
        k = rng.randint(1, l + 1)
        vecs = [tuple(int(x) for x in rng.randint(-2, 3, size=l)) for _ in range(k)]
        if any(not any(v) for v in vecs):
            continue
        assert int_rank_independent(vecs) == rational_independent(vecs)


def test_sym_eigen_maps_lapack_failure_to_convergence_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(ConvergenceError):
        alone(sym_eigen)(np.eye(3))


@pytest.mark.filterwarnings("error")
def test_sym_eigen_near_the_float_limit():
    # the symmetric part 0.5 * (q + q^T) overflowed, with "overflow
    # encountered in add", and the identity came back; the symmetry check's
    # norms overflowed too, and let an antisymmetric slice through
    exact = np.array([[1e308, 1e307], [1e307, 1e308]])
    near = exact.copy()
    near[0, 1] *= 1.0 + 1e-14
    s = 1.0 / np.sqrt(2.0)
    for q in (exact, near):
        assert np.allclose(alone(sym_eigen)(q), [[s, s], [-s, s]], rtol=0, atol=1e-15)
    got = sym_eigen(np.array([exact, near]))
    assert [v.tobytes() for v in got] == [alone(sym_eigen)(q).tobytes() for q in (exact, near)]
    for bad in ([[0.0, 1e308], [-1e308, 0.0]], [[1e308, 1e308], [0.0, 1e308]]):
        with pytest.raises(InvalidInputError, match="^q is not symmetric within tolerance$"):
            alone(sym_eigen)(bad)


def test_sym_eigen_on_100db_q():
    # 16 of these 40 forms made the earlier Jacobi solver exhaust its sweeps
    for t in range(40):
        h = sample_channel(2024, t, 4)
        q = compute_q(ChannelRealization(h=h, power=1e10)).q
        vectors = alone(sym_eigen)(q)
        values = rayleigh(q, vectors)
        norm = np.linalg.norm(q)
        assert np.all(np.diff(values) >= 0)
        resid = q @ vectors - vectors * values
        assert np.linalg.norm(resid) <= 1e-12 * norm
        assert np.max(np.abs(vectors.T @ vectors - np.eye(4))) <= 1e-12
        peak = np.abs(vectors).argmax(axis=0)
        assert np.all(vectors[peak, np.arange(4)] > 0)


def reference_solve_inverse(m):
    """Row-loop Gauss-Jordan, the form solve_inverse must match bit for bit."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        raise SingularMatrixError("matrix is zero")
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < PIVOT_RTOL * scale:
            raise SingularMatrixError(f"pivot below threshold at column {col}")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        for r in range(n):
            if r != col and aug[r, col] != 0.0:
                aug[r] -= aug[r, col] * aug[col]
    return aug[:, n:]


def inverse_outcome(fn, m):
    try:
        return fn(m).tobytes()
    except SingularMatrixError as exc:
        return str(exc)


def test_solve_inverse_bit_identical_to_row_loop():
    rng = np.random.RandomState(41)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 10)
        cases.append(rng.standard_normal((n, n)))
        # sparse integer matrices: exact zeros exercise the skipped rows
        cases.append(rng.randint(-2, 3, size=(n, n)) * (rng.rand(n, n) < 0.4))
    for n in range(2, 13):
        cases.append(1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0))  # Hilbert
        u = rng.standard_normal((n, n))
        cases.append(u @ np.diag(np.logspace(0, -11, n)) @ u.T)  # just above the pivot floor
        cases.append(u @ np.diag(np.logspace(0, -14, n)) @ u.T)  # below it
        low = rng.standard_normal((n, n - 1))
        cases.append(low @ rng.standard_normal((n - 1, n)))  # rank n-1
    cases.append(np.zeros((3, 3)))
    singular = 0
    for m in cases:
        got = inverse_outcome(alone(solve_inverse), m)
        assert got == inverse_outcome(reference_solve_inverse, m)
        singular += isinstance(got, str)
    assert 0 < singular < len(cases)


def reference_det(m):
    """Row-loop elimination, the form det must match bit for bit."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    sign, result = 1.0, 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return 0.0
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            sign = -sign
        result *= a[col, col]
        for r in range(col + 1, n):
            a[r] -= (a[r, col] / a[col, col]) * a[col]
    return sign * result


def reference_sym_eigen(q):
    """One LAPACK call and the sign rule, column by column."""
    _, vectors = np.linalg.eigh(0.5 * (q + q.T))
    for j in range(vectors.shape[1]):
        if vectors[np.argmax(np.abs(vectors[:, j])), j] < 0:
            vectors[:, j] = -vectors[:, j]
    return vectors


def outcome(fn, m):
    """Bytes of a kernel's result, or the type and message of its error."""
    try:
        got = fn(m)
    except (InvalidInputError, SingularMatrixError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return stacked_outcome(got)


def stacked_outcome(got):
    if isinstance(got, Exception):
        return f"{type(got).__name__}: {got}"
    return np.asarray(got, dtype=float).tobytes()


def kernel_stacks():
    """Seeded (S, n, n) stacks of the matrices the harness stacks: whitener
    inputs H H^T + I/P up to 100 dB, Gram matrices H^T H of full and
    deficient rank, capacity inputs I + P H H^T and the forms Q, with a
    zero, an exactly singular and a non-finite slice mixed in."""
    rng = np.random.RandomState(2026)
    stacks = []
    for k in range(240):
        n = (4, 8, 12)[k % 3]
        h = rng.standard_normal((n, n))
        if k % 5 == 0:
            h[-1] = 2.0 * h[0]
        powers = 10.0 ** (rng.choice([0.0, 1.0, 2.0, 3.0, 6.0, 10.0], size=rng.randint(1, 5)))
        hh = h @ h.T
        whiteners = [hh + np.eye(n) / p for p in powers]
        grams = [h.T @ h]
        caps = [np.eye(n) + p * hh for p in powers]
        forms = []
        for p in powers:
            q = np.eye(n) - h.T @ np.linalg.inv(hh + np.eye(n) / p) @ h
            forms.append(0.5 * (q + q.T))
        odd = [np.zeros((n, n)), np.ones((n, n)), np.full((n, n), np.inf)][k % 3]
        stacks.append(("solve", np.array(whiteners + grams + ([odd] if k % 4 == 0 else []))))
        stacks.append(("det", np.array(caps + ([odd] if k % 4 == 1 else []))))
        stacks.append(("eig", np.array(forms + ([odd] if k % 4 == 2 else []))))
    return stacks


def test_every_stacked_slice_is_byte_identical_to_its_single_call():
    # each slice of a finite stack against the same matrix as a stack of
    # one, and against the row-loop reference; only solve_inverse lists a
    # failed slice, and a stack with a non-finite slice raises whole
    kernels = {
        "solve": (solve_inverse, reference_solve_inverse),
        "det": (det, reference_det),
        "eig": (sym_eigen, reference_sym_eigen),
    }
    listed, raised = 0, {"solve": 0, "det": 0, "eig": 0}
    for kind, stack in kernel_stacks():
        kernel, reference = kernels[kind]
        if not np.isfinite(stack).all():
            with pytest.raises(InvalidInputError, match=r"^(m|q) contains non-finite entries$"):
                kernel(stack)
            raised[kind] += 1
            continue
        got = kernel(stack)
        assert isinstance(got, list) and len(got) == len(stack)
        for m, slice_result in zip(stack, got):
            single = outcome(alone(kernel), m)
            assert stacked_outcome(slice_result) == single == outcome(reference, m)
            listed += isinstance(slice_result, Exception)
    # singular whiteners and Gram matrices were listed beside healthy slices
    assert listed > 10 and all(count > 10 for count in raised.values())


def test_a_kernel_takes_only_a_stack():
    # a malformed stack gets the messages a malformed square matrix gets
    cases = [
        (np.eye(2), r"must be a 3-D array, got shape \(2, 2\)"),
        (np.ones(3), r"must be a 3-D array, got shape \(3,\)"),
        (np.ones((2, 2, 3)), r"must be square, got shape \(2, 2, 3\)"),
        (np.ones((1, 1, 2, 2)), r"must be a 3-D array, got shape \(1, 1, 2, 2\)"),
        ([np.eye(2), np.eye(3)], "must be a rectangular array"),
        ([[[1j]]], "must hold real numbers, got dtype complex128"),
        ([[["1", "2"], ["2", "4"]]], "must hold real numbers, got dtype <U1"),
        ([[[None]]], "entry must be a real number, got None"),
        ([[[np.inf]]], "contains non-finite entries"),
    ]
    for kernel, name in ((solve_inverse, "m"), (det, "m"), (sym_eigen, "q")):
        for bad, message in cases:
            with pytest.raises(InvalidInputError, match=f"^{name} {message}$"):
                kernel(bad)


def test_sym_eigen_raises_a_failed_stack_in_its_one_call(monkeypatch):
    inner = np.linalg.eigh
    calls = []
    bad = np.diag([1.0, 2.0, 3.0])

    def fails_on_bad(a):
        calls.append(np.shape(a))
        if any(np.array_equal(s, bad) for s in np.reshape(a, (-1, 3, 3))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return inner(a)

    monkeypatch.setattr(np.linalg, "eigh", fails_on_bad)
    good = np.diag([3.0, 1.0, 2.0])
    with pytest.raises(ConvergenceError, match="^eigh did not converge: Eigenvalues did not converge$") \
            as info:
        sym_eigen(np.array([good, bad, good]))
    # one stacked call and no slice run again
    assert calls == [(3, 3, 3)]
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    got = sym_eigen(np.array([good, good]))
    assert calls[1:] == [(2, 3, 3)]
    for vectors in got:
        assert vectors.tobytes() == sym_eigen(good[None])[0].tobytes()


def test_a_kept_error_holds_no_other_slice_and_no_frames(monkeypatch):
    good = np.array([[2.0, 1.0], [1.0, 3.0]])
    lapack_fails = np.diag([5.0, 7.0])
    inner = np.linalg.eigh

    def fails_on_one_slice(a):
        if any(np.array_equal(s, lapack_fails) for s in np.reshape(a, (-1, 2, 2))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return inner(a)

    monkeypatch.setattr(np.linalg, "eigh", fails_on_one_slice)
    # solve_inverse keeps a singular slice's error in its place, never
    # raised; the subnormal slice's floor underflows to 0 and its inverse
    # overflows
    stack = np.array([good, np.zeros((2, 2)), good, np.ones((2, 2)), good, 1e-320 * np.eye(2)])
    before = stack.copy()
    got = solve_inverse(stack)
    assert stack.tobytes() == before.tobytes()
    for s in (0, 2, 4):
        assert got[s].tobytes() == solve_inverse(good[None])[0].tobytes()
    assert [str(err) for err in got[1::2]] == [
        "matrix is zero", "pivot below threshold at column 1", "inverse leaves the float range"]
    for err in got[1::2]:
        assert type(err) is SingularMatrixError
        assert err.__traceback__ is None and err.__cause__ is None and err.__context__ is None
    # det and sym_eigen keep no error: a stack with a failing slice raises whole
    raising = {
        det: ((np.full((2, 2), np.nan), InvalidInputError, "^m contains non-finite entries$"),
              (np.full((2, 2), np.inf), InvalidInputError, "^m contains non-finite entries$")),
        sym_eigen: ((lapack_fails, ConvergenceError, "^eigh did not converge: Eigenvalues"),
                    (np.array([[1.0, 2.0], [0.0, 1.0]]), InvalidInputError,
                     "^q is not symmetric within tolerance$")),
    }
    for kernel, cases in raising.items():
        for bad, kind, message in cases:
            stack = np.array([good, bad, good])
            before = stack.copy()
            with pytest.raises(kind, match=message):
                kernel(stack)
            assert np.array_equal(stack, before, equal_nan=True)


def oracle_slices(rng, n):
    """One seeded n x n slice of a kind the column loop must be matched on."""
    kind = rng.randint(9)
    a = rng.standard_normal((n, n))
    if kind == 1:  # sparse integers with signed zeros: zero factors, masked updates
        a = rng.randint(-2, 3, size=(n, n)) * (rng.rand(n, n) < 0.4) * rng.choice([1.0, -1.0], (n, n))
    elif kind == 2:  # ties in |pivot|
        a = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(n, n))
    elif kind == 3 and n > 1:  # an exact zero pivot: two equal rows
        a[-1] = a[0]
    elif kind == 4 and n > 1:  # a pivot below the floor, above it at n - 1
        u = rng.standard_normal((n, n))
        a = u @ np.diag(np.logspace(0, -14 + 3 * rng.randint(2), n)) @ u.T
    elif kind == 5:  # 1e+-300 as a whole
        a *= 10.0 ** rng.choice([-300, 300])
    elif kind == 6:  # entries 1e-300 .. 1e300: overflowing updates and inverses
        a *= 10.0 ** rng.randint(-300, 301, size=(n, n))
    elif kind == 7:
        a = np.zeros((n, n)) * rng.choice([1.0, -1.0], (n, n))
    elif kind == 8:  # a subnormal slice: the floor underflows, the inverse overflows
        a = 1e-320 * np.eye(n)
    return a


def test_kernels_match_the_column_loop_oracle():
    # the kernels store pivots and swaps in the column loop and read the
    # floor, the sign and the product off them after it; every slice must
    # get the bytes, or the error type and message, of the loop that kept
    # that bookkeeping in each column step
    rng = np.random.RandomState(39)
    seen = set()
    for _ in range(400):
        size, n = rng.randint(1, 7), rng.randint(1, 9)
        stack = np.array([oracle_slices(rng, n) for _ in range(size)])
        for kernel, oracle in ((solve_inverse, column_loop_solve_inverse),
                               (det, column_loop_det)):
            got, want = kernel(stack.copy()), oracle(stack.copy())
            assert len(got) == len(want) == size
            for g, w in zip(got, want):
                assert stacked_outcome(g) == stacked_outcome(w)
                if isinstance(g, Exception):
                    seen.add(str(g).rstrip("0123456789"))
                elif np.ndim(g) == 0:
                    seen.add("det " + ("0" if g == 0 else "not finite" if not np.isfinite(g)
                                       else "negative" if g < 0 else "positive"))
    assert seen == {"matrix is zero", "pivot below threshold at column ",
                    "inverse leaves the float range",
                    "det 0", "det not finite", "det negative", "det positive"}
