"""Combinatorial sieve built from cubic-truncation support chains.

The classical trick for turning inclusion-exclusion into a one-sided bound
is to keep only part of the Moebius support.  Write a squarefree modulus as
d = p1 p2 ... pr with p1 > p2 > ... > pr.  The upper-bound support keeps d
when every odd position l satisfies

    p1 p2 ... p_{l-1} * p_l^3 < y,

and the lower-bound support checks the even positions instead.  The empty
product d = 1 belongs to both.  Summing mu(d) #A_d over either support
bounds the sifted count from one side, and the main terms, normalized by
the Mertens product W(z), track the linear-sieve limit curves F and f at
s = log y / log z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arith import squarefree_primes
from .buchstab import BuchstabGrid, evaluate
from .errors import CapacityError, InputError, finite, integer
from .legendre import problem_W
from .problem import (
    Admit,
    SieveProblem,
    divisor_walk,
    fsum_columns,
    remainder,
    sieve_primes,
    sift_exact,
    whole_densities,
)
from .selberg import SieveReport, one_sided_report

#: truncated_mobius_sum is exact with at most this many sieve primes, float above
EXACT_MOBIUS_PRIMES = 30


def _chain_admit(y: float, sign: int) -> Admit:
    """The support's step rule for a walk over the primes, largest first.

    q at position nu + 1 (odd positions for sign = +1, even ones otherwise)
    fails when d q^3 >= y, that is q^3 > (ceil(y) - 1) // d; every extension
    keeps that prefix, so the whole branch goes.

    Raises:
        InputError: sign is neither +1 nor -1.
    """
    if sign not in (1, -1):
        raise InputError(f"sign must be +1 or -1, got {sign}")
    # checked at the parity of nu(d) where position nu + 1 is checked
    return Admit(max(math.ceil(y) - 1, 0), 3, 0 if sign == 1 else 1)


def truncated_mobius_sum(p: SieveProblem, y: float, z: float, sign: int) -> Fraction | float:
    """Main-term density sum over the truncated support.

    Computes the sum of mu(d) w(d) / d over support members built from the
    problem's sieve primes below z: an exact rational with at most
    EXACT_MOBIUS_PRIMES primes, a float with more.  The exact path sums
    mu(d) w(d) (L / d), an integer wherever w is, with L the product of the
    primes, and divides by L once at the end.  The float path carries each
    term as the product of -w(q)/q in the order the walk adds the primes,
    largest first.
    """
    admit = _chain_admit(finite(y, "level y", above=1), sign)
    primes = sieve_primes(p, z).tolist()
    exact = len(primes) <= EXACT_MOBIUS_PRIMES
    # negated factors: the walk's carried product is mu(d) w(d), or mu(d) w(d) / d
    if exact:
        factors = {q: -w for q, w in whole_densities(p.omega, primes).items()}
    else:
        factors = {q: -float(p.omega.at_prime(q)) / q for q in primes}
    walk = divisor_walk(None, primes[::-1], admit, factors)
    if not exact:
        return fsum_columns([walk.v])
    lcm = math.prod(primes)
    return Fraction((lcm // walk.d.astype(object) * walk.v.astype(object)).sum()) / lcm


@dataclass
class BoundPair:
    """Two-sided sieve result: S is trapped between lower and upper."""

    upper: SieveReport
    lower: SieveReport


def combinatorial_bounds(p: SieveProblem, y: float, z: float, with_exact: bool = True) -> BoundPair:
    """Upper and lower sieve bounds from the truncated supports.

    The bound for each side is X * M(sign) plus/minus the sum of |R_d|
    over the support; every support member automatically has d < y once
    z <= y, so the remainder stays controlled by the level.

    Raises:
        InputError: z is not a finite number > 1, or y not a finite number >= z.
    """
    finite(y, "level y", least=finite(z, "cut z", above=1))
    notes = f"X*W(z) = {p.X * problem_W(p, z).W:.6g}"
    desc = sieve_primes(p, z).tolist()[::-1]
    exact = sift_exact(p, z) if with_exact else None
    out = {}
    for sign in (1, -1):
        m = truncated_mobius_sum(p, y, z, sign)
        walk = divisor_walk(p, desc, _chain_admit(y, sign))
        rem = fsum_columns([np.abs(remainder(p, walk.d, walk.count, walk.v).r)])
        out[sign] = one_sided_report(p, y, z, sign, p.X * float(m), rem, exact, notes)
    return BoundPair(upper=out[1], lower=out[-1])


def sandwich_values(m: int, y: float, tables) -> tuple[int, int, int]:
    """Divisor sums showing the supports really bracket the unit indicator.

    For squarefree m returns (lower_sum, indicator, upper_sum) where each
    sum runs the truncated mu over all divisors of m; the defining property
    of the construction is lower_sum <= indicator <= upper_sum with
    indicator = 1 exactly when m = 1.
    """
    finite(y, "level y")
    facs = squarefree_primes(integer(m, "m", least=1), tables)
    if len(facs) > 20:
        raise CapacityError(f"{m} has {len(facs)} prime factors; cap is 20")
    mu = dict.fromkeys(facs, -1)  # the walk's carried product is then mu(d)
    lo, hi = (
        int(divisor_walk(None, facs[::-1], _chain_admit(y, s), mu).v.sum()) for s in (-1, 1)
    )
    return lo, (1 if m == 1 else 0), hi


def chain_divisor_sums(n: int, y: float, sign: int, tables) -> np.ndarray:
    """The truncated mu summed over the divisors of every m <= n, by m.

    out[m] is sandwich_values(m, y)'s lower sum (sign -1) or upper sum
    (sign +1) for squarefree m: whether d is in a support depends on d's
    own primes alone, so one walk over the primes up to n gives the support
    and each member d <= n adds mu(d) to its multiples.  out[0] is 0.
    """
    n = integer(n, "n", least=1)
    tables.reach(n, f"n={n}")
    primes = tables.primes[: np.searchsorted(tables.primes, n, side="right")]
    walk = divisor_walk(None, primes[::-1].tolist(), _chain_admit(finite(y, "level y"), sign),
                        dict.fromkeys(primes.tolist(), -1))
    out = np.zeros(n + 1, dtype=np.int64)
    keep = walk.d <= n
    for d, mu in zip(walk.d[keep].tolist(), walk.v[keep].tolist()):
        out[d::d] += mu
    return out


@dataclass(frozen=True)
class FundamentalRow:
    """One (s, z) slice comparing exact sifting against the limit curves."""

    s: float
    z: float
    exact: int
    scaled: float
    lower_curve: float
    upper_curve: float


def fundamental_lemma_report(
    p: SieveProblem, y: float, s_values: Sequence[float], grid: BuchstabGrid
) -> list[FundamentalRow]:
    """Tabulate S(z) / (X W(z)) against f(s) and F(s) for z = y^(1/s).

    As s grows both curves pinch to 1 and the scaled exact count should sit
    near, and eventually between, them.

    Raises:
        InputError: y not a finite number > 1, or an s not one >= 1 (so z <= y).
    """
    finite(y, "level y", above=1)
    rows = []
    for s in s_values:
        z = y ** (1.0 / finite(s, "s", least=1))
        mv = problem_W(p, z)
        exact = sift_exact(p, z)
        denom = p.X * mv.W
        rows.append(
            FundamentalRow(
                s=float(s),
                z=z,
                exact=exact,
                scaled=exact / denom,
                lower_curve=evaluate(grid, float(s), "f"),
                upper_curve=evaluate(grid, float(s), "F"),
            )
        )
    return rows
