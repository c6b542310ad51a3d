"""Computations the package replaced, kept as references for its tests.

The first part holds the exact rational sums the package now keeps only as
floats.  V(z), W(z), the truncated Moebius sums M+- and Selberg's G(xi, z)
are read only as floats, so the package sums them in floats alone.  These
are the ``Fraction`` computations it carried before: the Mertens products, M+-
scaled by the product L of the sieve primes (mu(d) w(d) (L / d) is an
integer wherever w is) and the ``Fraction`` sum of g(l).  The floats are
held to them within bounds fixed before they were first compared:

- V, W and G: relative error at most ``TOL``;
- M+-: error at most ``TOL`` times the sum of |mu(d) w(d) / d| over the
  walked support, since where terms cancel the value itself can be far
  smaller than its terms.

The second part holds the exact kernels that now do less work for the same
result: ``bv_scan`` with every modulus scanned (the package derives each
k = 2 (mod 4) row from its odd half), and lambda_weights and y_values with
each node factored from scratch and each term added into all 2^nu of its
divisors (the package sums over supersets).  These are held ``==`` to the
package, except on the float path past MAX_EXACT_SUPPORT, where the sums
run in another order and ``FLOAT_WEIGHT_CHANGE`` bounds the change.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import sievelab.selberg as selberg
from sievelab.arith import mult_stats, prime_pi, squarefree_primes
from sievelab.errors import ZeroDensityError, finite
from sievelab.harness import BVScanResult, _li_at_primes
from sievelab.problem import PrimeSet, divisor_walk, primes_below, sieve_primes, whole_densities
from sievelab.rosser import _chain_admit
from sievelab.selberg import SelbergWeights, _g_at, _g_walk, _multiplicative, _relevant_primes

TOL = Fraction(1, 10**14)  # 1e-14, as an exact rational

#: bound on the change of a float-fallback value from the old summation
#: orders (each term added into its 2^nu divisors, over the support depth
#: first or level by level) to the superset sums: for lambda_d relative to
#: lambda_d, for y_l relative to the sum of its terms' |w(d) lambda_d / d|,
#: since y_l cancels (relative to y_l itself the change reached 1.1e-12 for
#: w(p) = 2 at xi = z = 1e5).  The largest seen were 8.4e-14 for lambda, at
#: xi = z = 175,000 (support 106,384, unforced), and 1.5e-15 for y
FLOAT_WEIGHT_CHANGE = 1e-13


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


def reference_bv_scan(x, q_max, tables) -> BVScanResult:
    """bv_scan with every modulus k <= q_max scanned over all primes <= x."""
    n = prime_pi(x, tables)
    ps = tables.primes[:n]
    li, li_x = _li_at_primes(ps, x)
    rem_type = np.uint8 if q_max <= 256 else np.uint16
    ps32, ranks = ps.astype(np.uint32), np.arange(1.0, n + 1)
    rows = []
    for k in range(1, q_max + 1):
        phi = mult_stats(k, tables).phi
        rem = (ps32 - ps32 // k * k).astype(rem_type)
        order = np.argsort(rem, kind="stable")
        cls = rem[order]
        starts = np.flatnonzero(np.diff(cls, prepend=cls[:1] + 1))
        sizes = np.diff(starts, append=n)
        j = ranks - np.repeat(starts, sizes)
        at = li[order] / phi
        jump = np.maximum.reduceat(np.maximum(j - at, at - (j - 1)), starts)
        coprime = np.gcd(cls[starts], np.int64(k)) == 1
        ends = np.abs(sizes[coprime] - li_x / phi)
        empty = li_x / phi if ends.size < phi else 0.0
        best = max(np.max(jump[coprime], initial=0.0), np.max(ends, initial=empty))
        rows.append((k, float(best)))
    return BVScanResult(x=x, q_max=q_max, rows=rows, total=math.fsum(e for _, e in rows))


def _divisors(facs: tuple[int, ...]) -> list[int]:
    """Every divisor of the squarefree product of the primes in ``facs``."""
    divs = [1]
    for p in facs:
        divs += [d * p for d in divs]
    return divs


def reference_lambda_weights(xi, z, omega, prime_set, tables) -> SelbergWeights:
    """lambda_weights with each node factored by squarefree_primes and each
    g(m) added into its 2^nu(m) divisors; floats past MAX_EXACT_SUPPORT."""
    ps = _relevant_primes(z, omega, prime_set, tables)
    walk = _g_walk(finite(xi, "xi"), ps, _g_at(ps, omega))
    g_values = dict(zip(walk.d.tolist(), walk.v.tolist()))
    g_values[1] = Fraction(1)
    support = [(d, tuple(squarefree_primes(d, tables))) for d in g_values]
    exact = len(support) <= selberg.MAX_EXACT_SUPPORT
    w_values = _multiplicative(support, {p: omega.at_prime(p) for p in ps})
    G = sum(g_values.values(), Fraction(0))
    if G == 0:
        raise ZeroDensityError("G(xi, z) = 0: no usable divisors below xi")
    if exact:
        g, total = g_values, G
    else:
        g = {d: float(v) for d, v in g_values.items()}
        total = math.fsum(g.values())
    multiples = dict.fromkeys(g, Fraction(0) if exact else 0.0)
    for m, facs in support:
        for d in _divisors(facs):
            multiples[d] += g[m]
    lambdas = {}
    for d, facs in support:
        scale = d / w_values[d] if exact else d / float(w_values[d])
        sign = -1 if len(facs) % 2 else 1
        lambdas[d] = sign * scale * multiples[d] / total
    return SelbergWeights(
        xi=float(xi), z=float(z), G=G, lambdas=lambdas,
        g_values=g_values, factors=dict(support), omega=omega, primes=ps, exact=exact,
    )


def reference_y_values(w: SelbergWeights) -> dict:
    """y_values with each numerator added into its 2^nu(d) divisors."""
    w_values = _multiplicative(w.factors.items(), {p: w.omega.at_prime(p) for p in w.primes})
    terms = {d: w_values[d] * lam / d for d, lam in w.lambdas.items()}
    nums, den = selberg.over_common_denominator(terms) if w.exact else (terms, 1)
    out = dict.fromkeys(w.lambdas, 0)
    for d, a in nums.items():
        for l in _divisors(w.factors[d]):
            out[l] += a
    return {l: Fraction(a, den) for l, a in out.items()} if w.exact else out


def y_term_scale(w: SelbergWeights) -> dict[int, float]:
    """For each l, the sum of |w(d) lambda_d / d| over the support multiples d of l."""
    w_values = _multiplicative(w.factors.items(), {p: w.omega.at_prime(p) for p in w.primes})
    out = dict.fromkeys(w.lambdas, 0.0)
    for d, lam in w.lambdas.items():
        for l in _divisors(w.factors[d]):
            out[l] += abs(float(w_values[d] * lam / d))
    return out
