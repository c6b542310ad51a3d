"""Quadratic-form sieve upper bounds with exact rational weight algebra.

The upper-bound weights lambda_d are the minimizers of the quadratic form
sum over (d1, d2) of lambda_d1 lambda_d2 w([d1,d2])/[d1,d2] subject to
lambda_1 = 1, supported on squarefree d < xi built from the sieve primes
below z.  The weights are kept in exact rationals while the support is
small, so the structural identities (the Moebius-inversion identity linking
lambda to the diagonalized variables, the monotonicity inequality that
forces |lambda_d| <= 1) can be asserted with == rather than tolerances.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import PrimeTables, factorize, mult_stats, pi_ap
from .errors import InputError, finite, integer, within
from .problem import (
    MultiplicativeDensity,
    PrimeSet,
    SieveProblem,
    SieveReport,
    Walk,
    below,
    divisor_walk,
    fsum_columns,
    make_problem,
    one_sided_report,
    primes_below,
    remainder,
    sieve_primes,
    sift_exact,
    whole_densities,
)

#: 3^nu as floats, for nu up to the 15 primes a divisor within int64 can have
_POW3 = np.array([float(3**k) for k in range(16)])

#: supports larger than this drop from exact rationals to floats
MAX_EXACT_SUPPORT = 100_000

#: refuse supports larger than this outright
MAX_SUPPORT = 400_000

#: refuse mu+ expansions over more (d1, d2) pairs than this (xi = 1000: 3.7e5)
MAX_MU_PLUS_PAIRS = 1_000_000

#: the twin-prime constant C2 = 2 prod over odd primes p of (1 - (p-1)^-2), as
#: 2 exp(numpy sum of log1p(-(p-1)^-2)) over the odd primes p <= 1e7 (tail below 1e-7)
TWIN_CONSTANT = 1.3203236394309112


@dataclass
class SelbergWeights:
    """Optimal upper-bound weights and the algebra that produced them."""

    xi: float
    z: float
    G: Fraction
    lambdas: dict[int, Fraction]
    g_values: dict[int, Fraction]
    factors: dict[int, tuple[int, ...]]
    w_values: dict[int, int | Fraction]
    omega: MultiplicativeDensity
    primes: list[int]
    exact: bool = True


@dataclass(frozen=True)
class SieveWeights:
    """A finite upper/lower sieve weight mu*(d) with support below y."""

    y: float
    values: dict[int, Fraction]


def _sieve_densities(
    z: float, omega: MultiplicativeDensity, prime_set: PrimeSet, tables: PrimeTables
) -> dict[int, int | Fraction]:
    """w(p) for the sieve primes p < z with w(p) > 0, ascending, read once each
    (an int where it is whole, as whole_densities gives it)."""
    w_at = whole_densities(omega, primes_below(z, prime_set, tables).tolist())
    return {p: w for p, w in w_at.items() if w > 0}


def _g_at(w_at: dict[int, int | Fraction]) -> dict[int, Fraction]:
    """g(p) = w(p)/(p - w(p)) for each prime of w_at."""
    return {p: Fraction(w, p - w) for p, w in w_at.items()}


def _g_walk(xi: float, ps: list[int], g_at: dict) -> Walk:
    """Walk the squarefree d < xi from ps, carrying g(d) from g_at (Fractions or floats)."""
    return divisor_walk(None, ps, below(xi), g_at, max_nodes=MAX_SUPPORT)


def big_G(
    xi: float,
    z: float,
    omega: MultiplicativeDensity,
    prime_set: PrimeSet,
    tables: PrimeTables,
) -> float:
    """G(xi, z) = sum of g(l) over squarefree l < xi from the sieve primes.

    The fsum of one float per l, g(l) carried as a product of the float g(p).
    """
    w_at = _sieve_densities(z, omega, prime_set, tables)
    g_at = {p: float(g) for p, g in _g_at(w_at).items()}
    return fsum_columns([_g_walk(xi, list(w_at), g_at).v])


def over_common_denominator(values: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """(nums, den): den is the lcm of the values' denominators, nums[k] = values[k] * den."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den


def _multiples_by_prime(support: dict[int, tuple[int, ...]]) -> dict[int, list[int]]:
    """The members m of the support that each prime q divides, primes in the
    order the members first name them."""
    by_prime: dict[int, list[int]] = defaultdict(list)
    for m, facs in support.items():
        for q in facs:
            by_prime[q].append(m)
    return by_prime


def _superset_sums(support: dict[int, tuple[int, ...]], values: dict) -> dict:
    """F(d) = sum of values[m] over the support multiples m of d.

    The support holds every divisor of each of its members, so the sums run
    over supersets one prime q at a time (Yates): F(m / q) += F(m) for each m
    that q divides.  Each value travels along nu(m) edges instead of being
    added into all 2^nu(m) divisors.
    """
    out = dict(values)
    for q, ms in _multiples_by_prime(support).items():
        for m in ms:
            out[m // q] += out[m]
    return out


def _superset_pair_sums(support: dict[int, tuple[int, ...]], num: dict, den: dict) -> None:
    """_superset_sums of rationals held as int pairs in lowest terms, in place:
    num[d] / den[d] becomes the sum over the support multiples of d.

    Each add is Fraction's own gcd-reduced sum, inlined (Knuth, TAOCP vol. 2,
    4.5.1): with g = gcd(da, db) and s = da / g, a/da + b/db is
    t / (s db) with t = a (db / g) + b s, and gcd(t, s db) = gcd(t, g).  So
    every pair stays in lowest terms and no Fraction is built.
    """
    gcd = math.gcd
    for q, ms in _multiples_by_prime(support).items():
        for m in ms:
            t = m // q
            na, da, nb, db = num[t], den[t], num[m], den[m]
            g = gcd(da, db)
            if g == 1:
                num[t], den[t] = na * db + da * nb, da * db
                continue
            s = da // g
            n = na * (db // g) + nb * s
            g2 = gcd(n, g)
            if g2 == 1:
                num[t], den[t] = n, s * db
            else:
                num[t], den[t] = n // g2, s * (db // g2)


def lambda_weights(
    xi: float,
    z: float,
    omega: MultiplicativeDensity,
    prime_set: PrimeSet,
    tables: PrimeTables,
) -> SelbergWeights:
    """Compute the optimal weights lambda_d for squarefree d < xi.

    lambda_d = mu(d) (d / w(d)) M(d) / G, with M(d) the sum of g(m) over the
    support multiples m of d and G = M(1).  The walk carries w(d) as its
    column (int64 where every w(p) is whole), and each node's primes and g(d)
    come from its parent's in the ascending walk: factors[d] = factors[d / q]
    + (q,) and g(d) = g(d / q) g(q), from the integer numerator and
    denominator of the parent's g.  The M(d) are superset sums, nu(m)
    additions per m, of those numerators and denominators as int pairs in
    lowest terms (_superset_pair_sums), so no Fraction is built in the walk
    or the sums.  With w(d) = a(d)/b(d), an exact lambda_d is one Fraction,
    Fraction(mu(d) d b(d) M_num, a(d) M_den), times 1/G (made once).  Past
    MAX_EXACT_SUPPORT the M(d) are float sums, divided by the fsum of the
    float g(l); G stays the exact sum.

    lambda_1 is exactly 1 and every |lambda_d| <= 1; both are consequences
    of the closed-form solution and are asserted by the test suite rather
    than enforced here.
    """
    w_at = _sieve_densities(z, omega, prime_set, tables)
    ps = list(w_at)
    walk = divisor_walk(None, ps, below(finite(xi, "xi")), w_at, max_nodes=MAX_SUPPORT)
    ds = walk.d.tolist()
    w_values: dict[int, int | Fraction] = dict(zip(ds, walk.v.tolist()))
    g_at = {p: (g.numerator, g.denominator) for p, g in _g_at(w_at).items()}
    factors: dict[int, tuple[int, ...]] = {1: ()}
    g_values = {1: Fraction(1)}
    num, den = {1: 1}, {1: 1}  # g(d) in lowest terms; the exact path sums them into M(d)
    for d, i in zip(ds[1:], walk.i[1:].tolist()):
        q = ps[i - 1]  # the walk is ascending: d's largest prime
        t = d // q
        factors[d] = factors[t] + (q,)
        a, b = g_at[q]
        g_d = g_values[d] = Fraction(num[t] * a, den[t] * b)
        num[d], den[d] = g_d.numerator, g_d.denominator
    exact = len(factors) <= MAX_EXACT_SUPPORT
    if exact:
        _superset_pair_sums(factors, num, den)
        G = Fraction(num[1], den[1])
        inv_G = 1 / G
        lambdas = {}
        for d, f in factors.items():
            w = w_values[d]
            a, b = (w, 1) if type(w) is int else (w.numerator, w.denominator)
            lambdas[d] = Fraction((-d if len(f) % 2 else d) * b * num[d], a * den[d]) * inv_G
    else:
        g = {d: float(v) for d, v in g_values.items()}
        multiples, total = _superset_sums(factors, g), math.fsum(g.values())
        G = sum(g_values.values(), Fraction(0))
        lambdas = {d: (-1 if len(f) % 2 else 1) * (d / float(w_values[d])) * multiples[d] / total
                   for d, f in factors.items()}
    return SelbergWeights(
        xi=float(xi), z=float(z), G=G, lambdas=lambdas, g_values=g_values,
        factors=factors, w_values=w_values, omega=omega, primes=ps, exact=exact,
    )


def mu_plus(w: SelbergWeights) -> SieveWeights:
    """Expand the squared weights into an upper sieve mu+ on d < xi**2.

    mu+(d) = sum of lambda_d1 lambda_d2 over pairs with [d1, d2] = d, so
    sum over d | n of mu+(d) = (sum of lambda_d over d | n)^2 >= 0, with
    value exactly 1 when n shares no prime with the sieve support.  With
    lambda_d = a_d / D, each unordered pair adds the int a_d1 a_d2 (twice if
    d1 != d2), and each mu+(d) is one Fraction over D^2.

    Raises:
        CapacityError: |support|^2 pairs exceed MAX_MU_PLUS_PAIRS.
    """
    within(len(w.lambdas) ** 2, MAX_MU_PLUS_PAIRS, f"mu+ pairs of {len(w.lambdas)} weights")
    nums, den = over_common_denominator(w.lambdas)
    items = list(nums.items())
    sums: dict[int, int] = defaultdict(int)
    for i, (d1, a1) in enumerate(items):
        sums[d1] += a1 * a1
        for d2, a2 in items[i + 1:]:
            sums[math.lcm(d1, d2)] += 2 * a1 * a2
    den *= den
    return SieveWeights(y=w.xi * w.xi, values={m: Fraction(a, den) for m, a in sums.items()})


def y_values(w: SelbergWeights) -> dict[int, Fraction]:
    """Diagonalized variables y_l = sum over multiples d of l of w(d) lambda_d / d.

    w(d) is the one lambda_weights built (an int where the density is
    whole).  The sums over multiples are superset sums, as in
    lambda_weights; exact weights add int numerators over one common
    denominator D, each term w(d) lambda_d / d built as one Fraction from
    the numerators and denominators (w(d) an int or a Fraction).
    """
    wv, lams = w.w_values, w.lambdas.items()
    if not w.exact:
        return _superset_sums(w.factors, {d: lam * wv[d] / d for d, lam in lams})
    terms = {d: Fraction(lam.numerator * wv[d].numerator, lam.denominator * wv[d].denominator * d)
             for d, lam in lams}
    nums, den = over_common_denominator(terms)
    return {l: Fraction(a, den) for l, a in _superset_sums(w.factors, nums).items()}


def fundamental_upper_bound(
    p: SieveProblem, y: float, z: float, with_exact: bool = True
) -> SieveReport:
    """Upper bound X/G(sqrt(y), z) + sum over d < y of 3^nu(d) |R_d|.

    The remainder enumerates every squarefree d < y built from the sieve
    primes below z, including those with no multiples among the members.

    Raises:
        InputError: y or z is not a finite number > 1.
    """
    finite(y, "level y", above=1)
    ps = sieve_primes(p, finite(z, "cut z", above=1)).tolist()
    # the remainder's support (d < y) holds G's (d < sqrt(y)), so a walk past
    # the cap is refused here before G's walk is built
    walk = divisor_walk(p, ps, below(y), max_nodes=MAX_SUPPORT)
    r = remainder(p, walk.d, walk.count, walk.v).r
    rem = fsum_columns([_POW3[walk.nu] * np.abs(r)])
    G = big_G(math.sqrt(y), z, p.omega, p.prime_set, p.tables)
    return one_sided_report(
        p, y, z, 1, float(p.X) / G, rem, sift_exact(p, z) if with_exact else None,
        f"quadratic-form sieve, G support primes={len(ps)}",
    )


@dataclass(frozen=True)
class BrunTitchmarshReport:
    """Primes in a progression against the two upper bounds."""

    x: float
    k: int
    l: int
    z: float
    sieve_bound: float
    asymptotic_bound: float
    exact: int


def brun_titchmarsh(x: float, k: int, l: int, tables: PrimeTables) -> BrunTitchmarshReport:
    """Bound the count of primes <= x in the class l mod k.

    The sieve bound sifts the progression below z = (x/k)^(1/2) log(x/k)^-3
    and adds z/k + 1 for the small primes; the asymptotic form is
    2x / (phi(k) log(x/k)).
    """
    x, k, l = integer(x, "x"), integer(k, "modulus k", least=1), integer(l, "residue l")
    if math.gcd(l, k) != 1:
        raise InputError(f"need gcd(l, k) = 1, got k={k} l={l}")
    logq = math.log(finite(x / k, "x/k", above=math.e))
    z = math.sqrt(x / k) / logq**3
    z_eff = max(z, 2.0)
    prob = make_problem("arithmetic_progression", {"x": x, "k": k, "l": l}, tables)
    rep = fundamental_upper_bound(prob, y=max(z_eff * z_eff, 4.0), z=z_eff, with_exact=False)
    return BrunTitchmarshReport(
        x=float(x), k=k, l=l % k, z=z,
        sieve_bound=rep.upper_bound + 1.0 + z_eff / k,
        asymptotic_bound=2.0 * x / (mult_stats(k, tables).phi * logq),
        exact=pi_ap(x, k, l, tables),
    )


def singular_factor(n: int, tables: PrimeTables) -> float:
    """prod over odd primes p | n of (p - 1)/(p - 2), multiplied in ascending p."""
    prod = 1.0
    for q, _ in factorize(n, tables):
        if q > 2:
            prod *= (q - 1) / (q - 2)
    return prod


@dataclass(frozen=True)
class PairBoundReport:
    """Exact additive-pair count against its sieve upper bound."""

    kind: str
    scale: int
    exact: int
    reference: float
    bound: float
    ratio: float | None


def goldbach_report(n_half: int, tables: PrimeTables) -> PairBoundReport:
    """Ordered representations of 2N as p + q against 4 a(N).

    a(N) = prod over odd p | 2N of (p-1)/(p-2) times C2 2N / (log N)^2.
    """
    n_half = integer(n_half, "N", least=3)
    two_n = 2 * n_half
    tables.reach(two_n, f"2N={two_n}")  # singular_factor factors 2N
    spf = tables.spf
    ps = tables.primes[tables.primes <= two_n - 2]
    exact = int(np.count_nonzero(spf[two_n - ps] == (two_n - ps)))
    a_val = singular_factor(two_n, tables) * TWIN_CONSTANT * two_n / math.log(n_half) ** 2
    return PairBoundReport(
        kind="goldbach", scale=two_n, exact=exact, reference=a_val,
        bound=4.0 * a_val, ratio=4.0 * a_val / exact if exact else None,
    )


def twin_report(x: int, k: int, tables: PrimeTables) -> PairBoundReport:
    """Primes p <= x with p + 2k also prime, against the sieve bound."""
    x, k = integer(x, "x", least=3), integer(k, "k", least=1)
    tables.reach(x + 2 * k, f"x + 2k = {x + 2 * k}")
    spf = tables.spf
    ps = tables.primes[tables.primes <= x]
    exact = int(np.count_nonzero(spf[ps + 2 * k] == (ps + 2 * k)))
    prod = singular_factor(2 * k, tables)
    bound = 4.0 * prod * TWIN_CONSTANT * x / math.log(x) ** 2
    return PairBoundReport(
        kind="twin", scale=x, exact=exact, reference=prod * TWIN_CONSTANT,
        bound=bound, ratio=bound / exact if exact else None,
    )
