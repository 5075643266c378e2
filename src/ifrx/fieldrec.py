"""Finite-field message recovery behind a designed coefficient matrix.

A destination that decoded the integer combinations u = A w (mod p) gets
the original messages back by solving A w = u over F_p. A matrix of full
real rank can still be singular mod p; that case is surfaced as its own
error so callers can count it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotInvertibleModPError
from .linalg import int_rows, int_value

# Miller-Rabin with these bases (the first 12 primes) is exact for every
# n < 3.18e23 (Sorenson and Webster 2015), which covers every p < 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_INT64_LIMIT = 2**63


@functools.lru_cache(maxsize=256)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 2 <= n < 2^64."""
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """F_p for a prime 2 <= p < 2^64, an integer (``linalg.int_value``)."""

    p: int

    def __post_init__(self):
        p = int_value(self.p, "field modulus")
        object.__setattr__(self, "p", p)
        if p < 2:
            raise InvalidInputError("field modulus must be >= 2")
        if p >= 2**64:
            raise InvalidInputError("field modulus must be below 2^64")
        if not _is_prime(p):
            raise InvalidInputError(f"{p} is not prime")


def _residues(m, p: int, what: str) -> list[list[int]]:
    """A 2-D integer matrix, read by ``int_rows``, with its entries reduced
    into [0, p)."""
    return [[x % p for x in row] for row in int_rows(m, what)]


def _residue_array(rows: list[list[int]], p: int) -> np.ndarray:
    """Residue rows as an array: int64 when p < 2^63, Python ints in an
    object array otherwise."""
    return np.array(rows, dtype=np.int64 if p < _INT64_LIMIT else object)


def combine_messages(a, w, field: PrimeField) -> np.ndarray:
    """u_m = sum_l a_ml w_l (mod p), entrywise over the message columns of
    the (L, n) message matrix w, in Python ints. Returns a residue array."""
    p = field.p
    coeffs = _residues(a, p, "coefficient matrix")
    words = _residues(w, p, "message block")
    if len(coeffs[0]) != len(words):
        raise InvalidInputError("coefficient matrix width must match the message count")
    cols = list(zip(*words))
    return _residue_array([[sum(map(operator.mul, row, col)) % p for col in cols]
                           for row in coeffs], p)


def recover_messages(a, u, field: PrimeField) -> np.ndarray:
    """Undo combine_messages: solve A w = u (mod p) in Python ints by one
    Gauss-Jordan sweep of [A | u], and return w as a residue array. Raises
    NotInvertibleModPError when A is singular mod p."""
    p = field.p
    m = _residues(a, p, "coefficient matrix")
    rhs = _residues(u, p, "message block")
    n = len(m)
    if len(m[0]) != n:
        raise InvalidInputError("coefficient matrix must be square and nonempty")
    if len(rhs) != n:
        raise InvalidInputError("coefficient matrix width must match the message count")
    aug = [row + r for row, r in zip(m, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise NotInvertibleModPError(f"matrix is singular modulo {p}")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        # columns left of col are already zero in the pivot row
        prow = [x * inv % p for x in aug[col][col:]]
        aug[col][col:] = prow
        for r in range(n):
            factor = aug[r][col]
            if factor and r != col:
                aug[r][col:] = [(x - factor * y) % p for x, y in zip(aug[r][col:], prow)]
    return _residue_array([row[n:] for row in aug], p)
