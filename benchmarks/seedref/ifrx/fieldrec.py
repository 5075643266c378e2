"""Finite-field message recovery behind a designed coefficient matrix.

A destination that decoded the integer combinations u = A w (mod p) gets
the original messages back by inverting A over F_p. A matrix of full real
rank can still be singular mod p; that case is surfaced as its own error
so callers can count it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError, NotInvertibleModPError


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        p = self.p
        if p < 2:
            raise InvalidInputError("field modulus must be >= 2")
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise InvalidInputError(f"{p} is not prime")


@dataclass(frozen=True)
class MessageBlock:
    """L message vectors of equal length with entries in [0, p-1]."""

    rows: tuple[tuple[int, ...], ...]


def _reduced_rows(a, p: int) -> list[list[int]]:
    rows = [[int(x) % p for x in row] for row in a]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise InvalidInputError("coefficient matrix must be square and nonempty")
    return rows


def mat_inverse_mod_p(a, field: PrimeField) -> list[list[int]]:
    """Invert an integer matrix over F_p by Gauss-Jordan elimination,
    pivot inverses via Fermat exponentiation."""
    p = field.p
    m = _reduced_rows(a, p)
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


def combine_messages(a, w: MessageBlock, field: PrimeField) -> MessageBlock:
    """u_m = sum_l a_ml w_l (mod p), entrywise over the message columns."""
    p = field.p
    coeffs = [[int(x) % p for x in row] for row in a]
    rows = w.rows
    if len(coeffs) == 0 or any(len(r) != len(rows) for r in coeffs):
        raise InvalidInputError("coefficient matrix width must match the message count")
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InvalidInputError("message rows must be nonempty and the same length")
    k = len(rows[0])
    out = []
    for coeff_row in coeffs:
        acc = [0] * k
        for coeff, wrow in zip(coeff_row, rows):
            if coeff:
                acc = [(x + coeff * y) % p for x, y in zip(acc, wrow)]
        out.append(tuple(acc))
    return MessageBlock(rows=tuple(out))


def recover_messages(a, u: MessageBlock, field: PrimeField) -> MessageBlock:
    """Undo combine_messages: apply A^-1 (mod p) to the combined block."""
    return combine_messages(mat_inverse_mod_p(a, field), u, field)
