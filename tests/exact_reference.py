"""The exact rational sums the package now keeps only as floats, kept as references.

V(z), W(z), the truncated Moebius sums M+- and Selberg's G(xi, z) are read
only as floats, so the package sums them in floats alone.  These are the
``Fraction`` computations it carried before: the Mertens products, M+-
scaled by the product L of the sieve primes (mu(d) w(d) (L / d) is an
integer wherever w is) and the ``Fraction`` sum of g(l).  The floats are
held to them within bounds fixed before they were first compared:

- V, W and G: relative error at most ``TOL``;
- M+-: error at most ``TOL`` times the sum of |mu(d) w(d) / d| over the
  walked support, since where terms cancel the value itself can be far
  smaller than its terms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sievelab.problem import PrimeSet, divisor_walk, primes_below, sieve_primes, whole_densities
from sievelab.rosser import _chain_admit
from sievelab.selberg import _g_at, _g_walk, _relevant_primes

TOL = Fraction(1, 10**14)  # 1e-14, as an exact rational


def exact_mertens(z, omega, prime_set, tables) -> tuple[Fraction, Fraction]:
    """(V, W): the products of (1 - 1/p) over every prime p < z and of
    (1 - w(p)/p) over the prime set's primes below z."""
    ps_all = primes_below(z, PrimeSet(), tables)
    v = Fraction(1)
    for p in ps_all:
        v *= Fraction(int(p) - 1, int(p))
    w = Fraction(1)
    for p in prime_set.select(ps_all):
        w *= 1 - omega.at_prime(int(p)) / int(p)
    return v, w


def exact_mobius(p, y, z, sign) -> tuple[Fraction, Fraction]:
    """(M, A): M the sum of mu(d) w(d) / d over the truncated support of the
    given sign, A the sum of |mu(d) w(d) / d| over it."""
    primes = sieve_primes(p, z).tolist()
    factors = {q: -w for q, w in whole_densities(p.omega, primes).items()}
    walk = divisor_walk(None, primes[::-1], _chain_admit(y, sign), factors)
    lcm = math.prod(primes)
    scaled = lcm // walk.d.astype(object) * walk.v.astype(object)
    return Fraction(scaled.sum()) / lcm, Fraction(abs(scaled).sum()) / lcm


def exact_G(xi, z, omega, prime_set, tables) -> Fraction:
    """G(xi, z), the sum of g(l) over the squarefree l < xi from the sieve primes."""
    ps = _relevant_primes(z, omega, prime_set, tables)
    return sum(_g_walk(xi, ps, _g_at(ps, omega)).v.tolist(), Fraction(0))


def close(got: float, exact: Fraction) -> bool:
    """|got - exact| <= TOL |exact|, compared exactly."""
    return abs(Fraction(got) - exact) <= TOL * abs(exact)


def mobius_close(got: float, exact: Fraction, scale: Fraction) -> bool:
    """|got - exact| <= TOL scale, compared exactly."""
    return abs(Fraction(got) - exact) <= TOL * scale
