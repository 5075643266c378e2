"""Reference formulas the tests check the package against."""

import math

import numpy as np

from ifrx.channel import ChannelRealization
from ifrx.errors import InvalidInputError


def rate_from_ab(a_m, b_m, ch: ChannelRealization) -> float:
    """Rate (1/2) log2(P / (||b||^2 + P ||H^T b - a||^2)) of one (a, b) pair,
    straight from the channel, with no quadratic form in between."""
    a = np.asarray(a_m, dtype=float)
    b = np.asarray(b_m, dtype=float)
    if a.shape != (ch.l,) or b.shape != (ch.l,):
        raise InvalidInputError("a_m and b_m must both have length L")
    resid = ch.h.T @ b - a
    den = float(b @ b) + ch.power * float(resid @ resid)
    if den == 0.0:
        raise InvalidInputError("zero denominator: a_m and b_m are both zero")
    return 0.5 * math.log2(ch.power / den)
