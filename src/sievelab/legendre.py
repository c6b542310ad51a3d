"""Inclusion-exclusion sieve counts and Mertens-type Euler products.

The inclusion-exclusion count over squarefree divisors of the product of
sieve primes below z is exact but exponential in the number of primes, so
it is capped; it serves as a second ground truth against the strike sift.
The remainder sum walks the count's pruned tree and adds what it prunes
in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import EULER_GAMMA, PrimeTables
from .errors import finite, within
from .problem import (
    Admit,
    MultiplicativeDensity,
    PrimeSet,
    SieveProblem,
    Walk,
    divisor_walk,
    fsum_columns,
    primes_below,
    remainder,
    sieve_primes,
)

#: refuse inclusion-exclusion, and its remainder sum, over more primes than this
MAX_SUBSET_PRIMES = 25


@dataclass(frozen=True)
class MertensValue:
    """Euler products over the primes below z.

    V is the product of (1 - 1/p) over all primes p < z; W is the product of
    (1 - w(p)/p) over the sieve primes below z.  Both are only read as
    floats, so each is exp of the fsum of its factors' log1p.
    """

    z: float
    V: float
    W: float

    def v_normalized(self) -> float:
        """V(z) log z e^gamma, which drifts to 1 as z grows."""
        return self.V * math.log(self.z) * math.exp(EULER_GAMMA)


def mertens_products(
    z: float,
    omega: MultiplicativeDensity,
    prime_set: PrimeSet,
    tables: PrimeTables,
) -> MertensValue:
    """Compute V(z) and W(z; w) from the prime table.

    Raises:
        CapacityError: z exceeds what the tables cover.
    """
    ps_all = primes_below(z, PrimeSet(), tables)
    v = math.fsum(math.log1p(-1.0 / int(p)) for p in ps_all)
    w = math.fsum(math.log1p(-float(omega.at_prime(int(p))) / int(p))
                  for p in prime_set.select(ps_all))
    return MertensValue(z=float(z), V=math.exp(v), W=math.exp(w))


def problem_W(p: SieveProblem, z: float) -> MertensValue:
    """Mertens products for a problem's own density and prime set."""
    return mertens_products(z, p.omega, p.prime_set, p.tables)


def _subset_primes(p: SieveProblem, z: float) -> list[int]:
    rp = [int(q) for q in sieve_primes(p, finite(z, "cut z", above=1))]
    within(len(rp), MAX_SUBSET_PRIMES, "inclusion-exclusion sieve primes")
    return rp


def _pruned_walk(p: SieveProblem, rp: list[int]) -> Walk:
    """The divisors d <= n_bound, not below a node with #A_d = 0."""
    return divisor_walk(p, rp, Admit(p.n_bound), prune_empty=True)


def legendre_count(p: SieveProblem, z: float) -> int:
    """Exact sifted count by inclusion-exclusion over the primes below z.

    Equals sift_exact's count; subtrees whose divisor already exceeds the
    largest member (or has no multiples in A) are pruned since every deeper
    term is zero.

    Raises:
        InputError: z is not a finite number > 1.
        CapacityError: more than MAX_SUBSET_PRIMES sieve primes below z, or
            a walk past problem.MAX_CHAIN_NODES nodes.
    """
    walk = _pruned_walk(p, _subset_primes(p, z))
    # |sum| <= sum of #A_d <= members * nodes; past int64 it is added as ints
    signed = np.where(walk.nu % 2 == 1, -walk.count, walk.count)
    small = p.n_bound * walk.d.size < 2**63
    return int(signed.sum()) if small else sum(signed.tolist())


def legendre_remainder_sum(p: SieveProblem, z: float) -> float:
    """Sum of |R_d| over every squarefree d composed of sieve primes below z.

    Together with X W(z; w) this brackets the sifted count from both sides.
    It walks legendre_count's pruned tree.  A_dm lies in A_d, so below an
    empty node, and below a child past the largest member, each |R_dm| is
    its main term X w(dm)/dm.  With suf[j] the product of 1 + w(q)/q over
    the sieve primes from the j-th on, an empty node whose later primes
    start at the i-th adds X w(d)/d suf[i] (itself included), and any other
    node |#A_d - X w(d)/d| plus X w(d)/d (suf[j] - 1) for its children
    refused from the j-th prime on.

    Raises:
        InputError: z is not a finite number > 1.
        CapacityError: more than MAX_SUBSET_PRIMES sieve primes below z, or
            a walk past problem.MAX_CHAIN_NODES nodes.
    """
    rp = _subset_primes(p, z)
    suf = [1.0] * (len(rp) + 1)
    for j in range(len(rp) - 1, -1, -1):
        suf[j] = suf[j + 1] * (1.0 + float(p.omega.at_prime(rp[j])) / rp[j])
    suf = np.array(suf)
    walk = _pruned_walk(p, rp)

    def terms():  # a slice of nodes at a time, so no column of the whole walk is copied
        for k in range(0, walk.d.size, 1 << 16):
            d, c, w, i = (col[k:k + (1 << 16)] for col in (walk.d, walk.count, walk.v, walk.i))
            rec = remainder(p, d, c, w)
            empty = c == 0
            j = np.maximum(i, np.searchsorted(rp, p.n_bound // d, side="right"))
            yield rec.main[empty] * suf[i[empty]]
            yield np.abs(rec.r[~empty])
            yield rec.main[~empty] * (suf[j[~empty]] - 1.0)

    return fsum_columns(terms())
