"""Quadratic-form sieve upper bounds with exact rational weight algebra.

The upper-bound weights lambda_d are the minimizers of the quadratic form
sum over (d1, d2) of lambda_d1 lambda_d2 w([d1,d2])/[d1,d2] subject to
lambda_1 = 1, supported on squarefree d < xi built from the sieve primes
below z.  Everything here is kept in exact rationals while the support is
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

from .arith import PrimeTables, factorize, mult_stats, pi_ap, squarefree_primes
from .errors import CapacityError, InputError, ZeroDensityError, finite, integer
from .problem import (
    MultiplicativeDensity,
    PrimeSet,
    SieveProblem,
    Walk,
    below,
    divisor_walk,
    fsum_columns,
    make_problem,
    primes_below,
    remainder,
    sieve_primes,
    sift_exact,
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
class SieveReport:
    """Common envelope for one sieve bound against the exact count."""

    problem: str
    X: float
    z: float | None = None
    y: float | None = None
    s: float | None = None
    main_term: float = 0.0
    remainder_bound: float = 0.0
    upper_bound: float | None = None
    lower_bound: float | None = None
    exact_count: int | None = None
    ratio: float | None = None
    notes: str = ""


def one_sided_report(
    p: SieveProblem, y: float, z: float, sign: int, main: float, rem: float,
    exact: int | None, notes: str,
) -> SieveReport:
    """The report of one bound main + rem (sign +1, upper) or main - rem (sign -1).

    s = log y / log z for the level y > 1 and the cut z > 1 its caller checked;
    ratio = bound / exact for a positive exact count.
    """
    bound = main + rem if sign == 1 else main - rem
    return SieveReport(
        problem=p.label, X=float(p.X), z=float(z), y=float(y),
        s=math.log(y) / math.log(z),
        main_term=main, remainder_bound=rem,
        upper_bound=bound if sign == 1 else None,
        lower_bound=None if sign == 1 else bound,
        exact_count=exact, ratio=bound / exact if exact else None, notes=notes,
    )


@dataclass
class SelbergWeights:
    """Optimal upper-bound weights and the algebra that produced them."""

    xi: float
    z: float
    G: Fraction
    lambdas: dict[int, Fraction]
    g_values: dict[int, Fraction]
    factors: dict[int, tuple[int, ...]]
    omega: MultiplicativeDensity
    primes: list[int]
    exact: bool = True


@dataclass(frozen=True)
class SieveWeights:
    """A finite upper/lower sieve weight mu*(d) with support below y."""

    y: float
    values: dict[int, Fraction]


def _relevant_primes(
    z: float, omega: MultiplicativeDensity, prime_set: PrimeSet, tables: PrimeTables
) -> list[int]:
    return [int(q) for q in primes_below(z, prime_set, tables) if omega.at_prime(int(q)) > 0]


def _g_walk(xi: float, ps: list[int], omega: MultiplicativeDensity) -> Walk:
    """Walk the squarefree d < xi from ps, carrying g(d): g(p) = w(p)/(p - w(p))."""
    g_at = {p: (w := omega.at_prime(p)) / (p - w) for p in ps}
    return divisor_walk(None, ps, below(xi), g_at, max_nodes=MAX_SUPPORT)


def big_G(
    xi: float,
    z: float,
    omega: MultiplicativeDensity,
    prime_set: PrimeSet,
    tables: PrimeTables,
) -> Fraction:
    """G(xi, z) = sum of g(l) over squarefree l < xi from the sieve primes."""
    ps = _relevant_primes(z, omega, prime_set, tables)
    return sum(_g_walk(xi, ps, omega).v.tolist(), Fraction(0))


def over_common_denominator(values: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """(nums, den): den is the lcm of the values' denominators, nums[k] = values[k] * den."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den


def _multiplicative(support, at: dict[int, Fraction]) -> dict[int, Fraction]:
    """f(d) for each (d, factors) of a support, f multiplicative with f(p) = at[p].

    Every d must follow d / (its largest prime), as in an ascending walk.
    """
    out: dict[int, Fraction] = {}
    for d, facs in support:
        out[d] = out[d // facs[-1]] * at[facs[-1]] if facs else Fraction(1)
    return out


def _divisors(facs: tuple[int, ...]) -> list[int]:
    """Every divisor of the squarefree product of the primes in ``facs``."""
    divs = [1]
    for p in facs:
        divs += [d * p for d in divs]
    return divs


def lambda_weights(
    xi: float,
    z: float,
    omega: MultiplicativeDensity,
    prime_set: PrimeSet,
    tables: PrimeTables,
) -> SelbergWeights:
    """Compute the optimal weights lambda_d for squarefree d < xi.

    lambda_d = mu(d) (d / w(d)) sum of g(m) over support multiples m of d, / G;
    each g(m) is added into its 2^nu(m) divisors, not |support|^2 pair tests.

    lambda_1 is exactly 1 and every |lambda_d| <= 1; both are consequences
    of the closed-form solution and are asserted by the test suite rather
    than enforced here.
    """
    ps = _relevant_primes(z, omega, prime_set, tables)
    walk = _g_walk(finite(xi, "xi"), ps, omega)
    g_values = dict(zip(walk.d.tolist(), walk.v.tolist()))
    g_values[1] = Fraction(1)  # the walk starts from the int 1
    support = [(d, tuple(squarefree_primes(d, tables))) for d in g_values]
    exact = len(support) <= MAX_EXACT_SUPPORT
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
    lambdas: dict[int, Fraction] = {}
    for d, facs in support:
        scale = d / w_values[d] if exact else d / float(w_values[d])
        sign = -1 if len(facs) % 2 else 1
        lambdas[d] = sign * scale * multiples[d] / total
    return SelbergWeights(
        xi=float(xi), z=float(z), G=G, lambdas=lambdas,
        g_values=g_values, factors=dict(support), omega=omega, primes=ps, exact=exact,
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
    n = len(w.lambdas)
    if n**2 > MAX_MU_PLUS_PAIRS:
        raise CapacityError(f"mu+ over {n} weights is {n**2} pairs; cap is {MAX_MU_PLUS_PAIRS}")
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

    Exact weights add int numerators over one common denominator D.
    """
    w_values = _multiplicative(w.factors.items(), {p: w.omega.at_prime(p) for p in w.primes})
    terms = {d: w_values[d] * lam / d for d, lam in w.lambdas.items()}
    nums, den = over_common_denominator(terms) if w.exact else (terms, 1)
    out = dict.fromkeys(w.lambdas, 0)
    for d, a in nums.items():
        for l in _divisors(w.factors[d]):
            out[l] += a
    return {l: Fraction(a, den) for l, a in out.items()} if w.exact else out


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
    # the cap is refused here before G's exact sum is spent on it
    walk = divisor_walk(p, ps, below(y), max_nodes=MAX_SUPPORT)
    r = remainder(p, walk.d, walk.count, walk.v).r
    rem = fsum_columns([_POW3[walk.nu] * np.abs(r)])
    G = big_G(math.sqrt(y), z, p.omega, p.prime_set, p.tables)
    return one_sided_report(
        p, y, z, 1, float(p.X) / float(G), rem, sift_exact(p, z) if with_exact else None,
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
