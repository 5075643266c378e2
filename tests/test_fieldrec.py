import random

import numpy as np
import pytest

from ifrx.errors import InvalidInputError, NotInvertibleModPError
from ifrx.fieldrec import (
    MessageBlock,
    PrimeField,
    combine_messages,
    recover_messages,
)


def reference_inverse_mod_p(a, p):
    """List-based Gauss-Jordan inverse over F_p, pivot inverses by Fermat
    exponentiation: the oracle for the array and one-elimination paths."""
    m = [[int(x) % p for x in row] for row in a]
    n = len(m)
    aug = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise NotInvertibleModPError(f"matrix is singular modulo {p}")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [(x * inv) % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(x - factor * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def inverse_mod_p(a, field):
    """A^-1 over F_p: recover_messages run against the identity block."""
    n = len(a)
    identity = MessageBlock(rows=tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    return [list(row) for row in recover_messages(a, identity, field).rows]


def reference_combine(a, rows, p):
    """Row-by-row accumulation of sum_l a_ml w_l (mod p) in Python ints."""
    out = []
    for coeff_row in a:
        acc = [0] * len(rows[0])
        for coeff, wrow in zip(coeff_row, rows):
            acc = [(x + (int(coeff) % p) * y) % p for x, y in zip(acc, wrow)]
        out.append(tuple(acc))
    return tuple(out)


ORACLE_PRIMES = (2, 3, 5, 7, 257, 2**31 - 1, 2**61 - 1)


def oracle_cases():
    """(p, A, W) with L = 2..10: int64 arrays and lists of Python ints,
    entries small, near p and beyond int64, and a share of matrices made
    singular mod p by setting one row to a combination of two others."""
    gen = random.Random(2026)
    cases = []
    for i in range(420):
        p = ORACLE_PRIMES[i % len(ORACLE_PRIMES)]
        l = 2 + i % 9
        span = (3, p, 2**62, 2**70)[i % 4]
        a = [[gen.randrange(-span, span) for _ in range(l)] for _ in range(l)]
        if i % 5 == 0:
            dst = gen.randrange(l)
            j, k = (gen.choice([r for r in range(l) if r != dst]) for _ in range(2))
            c, d = gen.randrange(p), gen.randrange(p)
            a[dst] = [x * c + y * d + p * gen.randrange(-3, 4) for x, y in zip(a[j], a[k])]
        w = tuple(tuple(gen.randrange(p) for _ in range(1 + i % 5)) for _ in range(l))
        if span < 2**63 and max(abs(x) for row in a for x in row) < 2**63 and i % 3:
            a = np.array(a, dtype=np.int64)
        cases.append((p, a, w))
    return cases


def test_fieldrec_matches_the_list_oracle():
    singular = {p: 0 for p in ORACLE_PRIMES}
    for p, a, w_rows in oracle_cases():
        field = PrimeField(p)
        w = MessageBlock(rows=w_rows)
        u = combine_messages(a, w, field)
        assert u.rows == reference_combine(a, w_rows, p)
        assert all(type(x) is int for row in u.rows for x in row)
        try:
            expected = reference_inverse_mod_p(a, p)
        except NotInvertibleModPError:
            singular[p] += 1
            with pytest.raises(NotInvertibleModPError):
                inverse_mod_p(a, field)
            with pytest.raises(NotInvertibleModPError):
                recover_messages(a, u, field)
            continue
        assert inverse_mod_p(a, field) == expected
        recovered = recover_messages(a, u, field)
        assert recovered.rows == w_rows
        assert recovered.rows == reference_combine(expected, u.rows, p)
    assert all(n >= 10 for n in singular.values()), singular


def test_prime_field_validation():
    PrimeField(2)
    PrimeField(257)
    PrimeField(2**61 - 1)
    PrimeField(2**64 - 59)  # the largest prime below 2^64
    assert PrimeField(np.int64(257)) == PrimeField(257)
    # Carmichael number, strong pseudoprime to base 2, and to bases 2, 3, 5, 7
    for bad in (0, 1, 4, 9, 255, 561, 2047, 3215031751, 2**61 + 1, 2**64 - 1):
        with pytest.raises(InvalidInputError):
            PrimeField(bad)
    for too_wide in (2**64, 2**64 + 13, 2**89 - 1):
        with pytest.raises(InvalidInputError, match="2\\^64"):
            PrimeField(too_wide)


def test_primality_agrees_with_trial_division():
    for n in range(2, 20000):
        try:
            PrimeField(n)
            accepted = True
        except InvalidInputError:
            accepted = False
        assert accepted == all(n % d for d in range(2, int(n ** 0.5) + 1)), n


def test_inverse_unipotent():
    assert inverse_mod_p([[1, 1], [0, 1]], PrimeField(3)) == [[1, 2], [0, 1]]


def test_inverse_identity():
    for p in (2, 3, 5, 257):
        assert inverse_mod_p(np.eye(3, dtype=int), PrimeField(p)) == [
            [1, 0, 0], [0, 1, 0], [0, 0, 1],
        ]


def test_inverse_singular_raises():
    with pytest.raises(NotInvertibleModPError):
        inverse_mod_p([[1, 1], [1, 1]], PrimeField(5))
    # full real rank but singular mod 3 (det = 3)
    with pytest.raises(NotInvertibleModPError):
        inverse_mod_p([[1, 2], [-1, 1]], PrimeField(3))


def test_combine_messages_examples():
    field = PrimeField(3)
    w = MessageBlock(rows=((1,), (2,)))
    u = combine_messages([[1, 1], [0, 1]], w, field)
    assert u.rows == ((0,), (2,))
    assert combine_messages(np.eye(2, dtype=int), w, field).rows == w.rows
    neg = combine_messages([[-1]], MessageBlock(rows=((1,),)), field)
    assert neg.rows == ((2,),)


def test_recover_round_trip_example():
    field = PrimeField(3)
    a = [[1, 1], [0, 1]]
    w = MessageBlock(rows=((1,), (2,)))
    assert recover_messages(a, combine_messages(a, w, field), field).rows == w.rows


def test_round_trip_random_matrices():
    rng = np.random.RandomState(37)
    field = PrimeField(3)
    done = 0
    while done < 100:
        a = rng.randint(-2, 3, size=(4, 4))
        w = MessageBlock(rows=tuple(tuple(int(x) for x in rng.randint(0, 3, size=6))
                                    for _ in range(4)))
        u = combine_messages(a, w, field)
        try:
            recovered = recover_messages(a, u, field)
        except NotInvertibleModPError:
            continue
        assert recovered.rows == w.rows
        done += 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_round_trip_across_primes(p):
    rng = np.random.RandomState(41 + p)
    field = PrimeField(p)
    done = 0
    while done < 25:
        a = rng.randint(-3, 4, size=(3, 3))
        try:
            inv = inverse_mod_p(a, field)
        except NotInvertibleModPError:
            continue
        # inverse really is an inverse mod p
        prod = (np.array(inv) @ np.array([[x % p for x in row] for row in a])) % p
        assert np.array_equal(prod, np.eye(3, dtype=int))
        w = MessageBlock(rows=tuple(tuple(int(x) for x in rng.randint(0, p, size=5))
                                    for _ in range(3)))
        assert recover_messages(a, combine_messages(a, w, field), field).rows == w.rows
        done += 1


def test_combine_is_linear():
    rng = np.random.RandomState(43)
    field = PrimeField(5)
    a = rng.randint(-2, 3, size=(3, 3))
    w1 = rng.randint(0, 5, size=(3, 4))
    w2 = rng.randint(0, 5, size=(3, 4))
    blocks = [MessageBlock(rows=tuple(map(tuple, w.tolist()))) for w in (w1, w2, (w1 + w2) % 5)]
    u1 = np.array(combine_messages(a, blocks[0], field).rows)
    u2 = np.array(combine_messages(a, blocks[1], field).rows)
    u12 = np.array(combine_messages(a, blocks[2], field).rows)
    assert np.array_equal((u1 + u2) % 5, u12)


def test_dimension_validation():
    field = PrimeField(3)
    with pytest.raises(InvalidInputError):
        combine_messages([[1, 0]], MessageBlock(rows=((1,),)), field)
    with pytest.raises(InvalidInputError):
        combine_messages([[1, 0], [0, 1]], MessageBlock(rows=((1,), (1, 2))), field)
