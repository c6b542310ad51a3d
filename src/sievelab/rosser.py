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
from typing import Sequence

import numpy as np

from .buchstab import evaluate
from .errors import InputError, finite, integer
from .legendre import problem_W
from .problem import (
    Admit,
    SieveProblem,
    SieveReport,
    divisor_walk,
    fsum_columns,
    one_sided_report,
    remainder,
    sieve_primes,
    sift_exact,
)

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


def truncated_mobius_sum(p: SieveProblem, y: float, z: float, sign: int) -> float:
    """Main-term density sum over the truncated support.

    Computes the sum of mu(d) w(d) / d over support members built from the
    problem's sieve primes below z, as the fsum of one float per member:
    the product of -w(q)/q in the order the walk adds the primes, largest
    first.
    """
    admit = _chain_admit(finite(y, "level y", above=1), sign)
    primes = sieve_primes(p, z).tolist()
    # negated factors: the walk's carried product is mu(d) w(d) / d
    factors = {q: -float(p.omega.at_prime(q)) / q for q in primes}
    return fsum_columns([divisor_walk(None, primes[::-1], admit, factors).v])


@dataclass
class BoundPair:
    """Two-sided sieve result: S is trapped between lower and upper."""

    upper: SieveReport
    lower: SieveReport


def combinatorial_bounds(p: SieveProblem, y: float, z: float, with_exact: bool = True) -> BoundPair:
    """Upper and lower sieve bounds from the truncated supports.

    The bound for each side is X * M(sign) plus/minus the sum of |R_d|
    over the support; every support member automatically has d < y once
    z <= y, so the remainder stays controlled by the level.  X * M(sign) is
    the fsum of mu(d) X w(d)/d, the main terms the R_d are taken against,
    so a bound the exact identity makes tight is not pushed past the exact
    count by a rounding of M(sign) scaled by X.

    Raises:
        InputError: z is not a finite number > 1, or y not a finite number >= z.
    """
    finite(y, "level y", least=finite(z, "cut z", above=1))
    notes = f"X*W(z) = {p.X * problem_W(p, z).W:.6g}"
    desc = sieve_primes(p, z).tolist()[::-1]
    exact = sift_exact(p, z) if with_exact else None
    out = {}
    for sign in (1, -1):
        walk = divisor_walk(p, desc, _chain_admit(y, sign))
        rec = remainder(p, walk.d, walk.count, walk.v)
        main = fsum_columns([np.where(walk.nu % 2 == 1, -rec.main, rec.main)])
        rem = fsum_columns([np.abs(rec.r)])
        out[sign] = one_sided_report(p, y, z, sign, main, rem, exact, notes)
    return BoundPair(upper=out[1], lower=out[-1])


def chain_divisor_sums(n: int, y: float, sign: int, tables) -> np.ndarray:
    """The truncated mu summed over the divisors of every m <= n, by m.

    out[m] is the lower sum (sign -1) or upper sum (sign +1) over the
    divisors of m; for squarefree m, lower <= [m = 1] <= upper is what makes
    the supports bracket the sifted count.  Whether d is in a support
    depends on d's own primes alone, so one walk over the primes up to n,
    held to d <= n at every node, gives the support's members d <= n, and
    each adds mu(d) to its multiples.  out[0] is 0.
    """
    n = integer(n, "n", least=1)
    tables.reach(n, f"n={n}")
    primes = tables.primes[: np.searchsorted(tables.primes, n, side="right")]
    admit = _chain_admit(finite(y, "level y"), sign)._replace(cap=n)
    walk = divisor_walk(None, primes[::-1].tolist(), admit, dict.fromkeys(primes.tolist(), -1))
    out = np.zeros(n + 1, dtype=np.int64)
    for d, mu in zip(walk.d.tolist(), walk.v.tolist()):
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
    p: SieveProblem, y: float, s_values: Sequence[float]
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
                lower_curve=evaluate(float(s), "f"),
                upper_curve=evaluate(float(s), "F"),
            )
        )
    return rows
