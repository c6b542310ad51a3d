"""Extremal sign sequences for the two-sided limits of linear sieving.

Splitting the integers by the sign of the completely multiplicative
function lambda(n) = (-1)^Omega(n) produces two sequences whose sifting
counts hug the linear-sieve limit curves: the minus-signed integers sift
down to almost nothing below s = 2 while the plus-signed ones keep a full
prime count alive through s = 3.  Everything here is counted exactly from
the factor tables; the curve predictions are F(s) and f(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import EULER_GAMMA, PrimeTables
from .buchstab import evaluate
from .errors import CapacityError, InputError, finite, integer

#: root_ceiling settles t**a >= x**b in integers while both have at most this many bits
ROOT_EXACT_BITS = 1 << 16


@dataclass(frozen=True)
class ParityRow:
    """Exact extremal counts next to their limit-curve predictions."""

    x: int
    s: float
    exact_plus: int
    exact_minus: int
    predict_plus: float
    predict_minus: float


def L_summatory(x: int, tables: PrimeTables) -> int:
    """Exact partial sum of lambda(n) for n <= x, read from the tables' summatory."""
    x = integer(x, "x", least=1)
    tables.reach(x, f"x={x}")
    return int(tables.liouville_summatory()[x])


def root_ceiling(x: int, s: float) -> int:
    """Smallest integer t with t**s >= x, i.e. the ceiling of x^(1/s).

    s is taken at its exact binary value a/b.  While x**b and t**a stay
    within ROOT_EXACT_BITS bits (every integer s, and dyadic s such as 2.5
    or 3.75 at any x this package tabulates) t**a >= x**b is settled in
    integers, so perfect powers land on the boundary instead of drifting
    across it.  Other exponents keep the float estimate with a small snap.
    """
    x = integer(x, "x", least=1)
    try:
        t = max(1, math.ceil(x ** (1.0 / finite(s, "s", above=0)) - 1e-9))
    except OverflowError:
        raise CapacityError(f"x^(1/s) = {x}^(1/{s}) is past the range of a float") from None
    a, b = float(s).as_integer_ratio()
    if max(a * t.bit_length(), b * x.bit_length()) <= ROOT_EXACT_BITS:
        n = x**b  # t = ceil(n^(1/a)), by integer Newton steps from the float estimate
        t = ((a - 1) * t + n // t ** (a - 1)) // a  # now at or above floor(n^(1/a))
        while (nxt := ((a - 1) * t + n // t ** (a - 1)) // a) < t:
            t = nxt
        t += t**a < n
    return t


def rough_signed_count(limit: int, p_min: int, sign: int, tables: PrimeTables) -> int:
    """Count m <= limit with smallest prime factor >= p_min and fixed sign.

    sign +1 selects lambda(m) = -1, sign -1 selects lambda(m) = +1.  The
    unit m = 1 has an empty factorization, so it passes any p_min and
    carries lambda = +1.
    """
    if sign not in (1, -1):
        raise InputError(f"sign must be +1 or -1, got {sign}")
    limit, p_min = integer(limit, "limit"), finite(p_min, "p_min")
    if limit < 1:
        return 0
    tables.reach(limit, f"x={limit}")
    base = 1 if sign == -1 else 0
    if limit == 1:
        return base
    spf = tables.spf[2 : limit + 1]
    liou = tables.liouville_table()[2 : limit + 1]
    want = -1 if sign == 1 else 1
    return base + int(np.count_nonzero((spf >= p_min) & (liou == want)))


def S_pm_exact(x: int, s: float, sign: int, tables: PrimeTables) -> int:
    """Exact sifted count of the signed sequence down to z = x^(1/s), for s >= 1."""
    finite(s, "s", least=1)
    return rough_signed_count(x, root_ceiling(x, s), sign, tables)


def recursion_check(x: int, s: float, sign: int, tables: PrimeTables) -> tuple[int, int]:
    """Both sides of the exact pull-out-the-smallest-prime identity.

    Every counted n > 1 factors as n = p * m with p its smallest prime
    factor, so the count equals a sum over p in [x^(1/s), x] of opposite-
    sign counts at limit x // p with floor p, plus 1 on the minus side for
    the unit.  Returns (lhs, rhs); they must be equal.
    """
    lhs = S_pm_exact(x, s, sign, tables)
    t = root_ceiling(x, s)
    ps = tables.primes
    ps = ps[(ps >= t) & (ps <= x)]
    total = 1 if sign == -1 else 0
    for p in ps:
        p = int(p)
        total += rough_signed_count(x // p, p, -sign, tables)
    return lhs, total


def prediction_row(x: int, s: float, tables: PrimeTables) -> ParityRow:
    """Exact extremal counts with their first-order predictions.

    The predictions scale the limit curves by (x/2) / (e^gamma log x^(1/s)),
    the density-times-Mertens factor of a half-density sequence sifted to
    z = x^(1/s).
    """
    x = integer(x, "x", least=2)  # log x = 0 leaves the prediction's scale undefined
    finite(s, "s", above=1)
    scale = (x / 2.0) / (math.exp(EULER_GAMMA) * math.log(x) / s)
    return ParityRow(
        x=x,
        s=float(s),
        exact_plus=S_pm_exact(x, s, 1, tables),
        exact_minus=S_pm_exact(x, s, -1, tables),
        predict_plus=scale * evaluate(s, "F"),
        predict_minus=scale * evaluate(s, "f"),
    )
