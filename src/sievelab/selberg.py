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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import EULER_GAMMA, PrimeTables, factorize, mult_stats, pi_ap
from .errors import CapacityError, InputError, ZeroDensityError
from .problem import (
    MultiplicativeDensity,
    PrimeSet,
    SieveProblem,
    divisor_walk,
    make_problem,
    remainder,
    sift_exact,
)

#: supports larger than this drop from exact rationals to floats
MAX_EXACT_SUPPORT = 100_000

#: refuse supports larger than this outright
MAX_SUPPORT = 400_000

#: refuse mu+ expansions over more (d1, d2) pairs than this (xi = 1000: 3.7e5)
MAX_MU_PLUS_PAIRS = 1_000_000


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
    ps = tables.primes[tables.primes < z]
    return [int(q) for q in prime_set.select(ps) if omega.at_prime(int(q)) > 0]


def _support(ps: list[int], bound: float, skip: tuple[int, ...] = ()) -> list[tuple[int, tuple[int, ...]]]:
    """All squarefree products d < bound of primes from ps avoiding ``skip``."""
    items: list[tuple[int, tuple[int, ...]]] = []
    usable = [p for p in ps if p not in skip]
    stack: list[tuple[int, int, tuple[int, ...]]] = [(0, 1, ())]
    while stack:
        i, d, facs = stack.pop()
        items.append((d, facs))
        if len(items) > MAX_SUPPORT:
            raise CapacityError(f"support exceeds {MAX_SUPPORT} divisors")
        for j in range(i, len(usable)):
            nd = d * usable[j]
            if nd >= bound:
                break
            stack.append((j + 1, nd, facs + (usable[j],)))
    return items


def big_G(
    xi: float,
    z: float,
    omega: MultiplicativeDensity,
    prime_set: PrimeSet,
    tables: PrimeTables,
    skip: tuple[int, ...] = (),
) -> Fraction:
    """G(xi, z) = sum of g(l) over squarefree l < xi from the sieve primes.

    ``skip`` restricts the sum to l coprime to the given primes, which is the
    shifted sum appearing in the weight formula.
    """
    ps = _relevant_primes(z, omega, prime_set, tables)
    w_at = {p: omega.at_prime(p) for p in ps}
    g = _multiplicative(_support(ps, xi, skip), {p: w / (p - w) for p, w in w_at.items()})
    return sum(g.values(), Fraction(0))


def _multiplicative(support, at: dict[int, Fraction]) -> dict[int, Fraction]:
    """f(d) for each (d, factors) of a support, f multiplicative with f(p) = at[p].

    Every d must follow d / (its largest prime), as in ``_support``.
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
    support = _support(ps, xi)
    exact = len(support) <= MAX_EXACT_SUPPORT
    w_at = {p: omega.at_prime(p) for p in ps}
    g_values = _multiplicative(support, {p: w / (p - w) for p, w in w_at.items()})
    w_values = _multiplicative(support, w_at)
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
    value exactly 1 when n shares no prime with the sieve support.

    Raises:
        CapacityError: |support|^2 pairs exceed MAX_MU_PLUS_PAIRS.
    """
    items = list(w.lambdas.items())
    if len(items) ** 2 > MAX_MU_PLUS_PAIRS:
        raise CapacityError(
            f"mu+ over {len(items)} weights is {len(items) ** 2} pairs; cap is {MAX_MU_PLUS_PAIRS}"
        )
    values: dict[int, Fraction] = {}
    for d1, l1 in items:
        for d2, l2 in items:
            m = d1 * d2 // math.gcd(d1, d2)
            values[m] = values.get(m, Fraction(0)) + l1 * l2
    return SieveWeights(y=w.xi * w.xi, values=values)


def y_values(w: SelbergWeights) -> dict[int, Fraction]:
    """Diagonalized variables y_l = sum over multiples d of l of w(d) lambda_d / d."""
    w_values = _multiplicative(w.factors.items(), {p: w.omega.at_prime(p) for p in w.primes})
    out: dict[int, Fraction] = dict.fromkeys(w.lambdas, Fraction(0))
    for d, lam in w.lambdas.items():
        term = w_values[d] * lam / d
        for l in _divisors(w.factors[d]):
            out[l] += term
    return out


def fundamental_upper_bound(
    p: SieveProblem, y: float, z: float, with_exact: bool = True
) -> SieveReport:
    """Upper bound X/G(sqrt(y), z) + sum over d < y of 3^nu(d) |R_d|.

    The remainder enumerates every squarefree d < y built from the sieve
    primes below z, including those with no multiples among the members.
    """
    if y <= 1:
        raise InputError(f"need level y > 1, got {y}")
    xi = math.sqrt(y)
    G = big_G(xi, z, p.omega, p.prime_set, p.tables)
    main = float(p.X) / float(G)
    ps = _relevant_primes(z, p.omega, p.prime_set, p.tables)
    walk = divisor_walk(p, ps, lambda d, nu, q: d * q < y, max_nodes=MAX_SUPPORT)
    rem = math.fsum(3**nu * abs(remainder(p, d, c, w).r) for d, nu, w, c in walk)
    report = SieveReport(
        problem=p.label, X=float(p.X), z=float(z), y=float(y),
        s=math.log(y) / math.log(z) if z > 1 else None,
        main_term=main, remainder_bound=rem, upper_bound=main + rem,
        notes=f"quadratic-form sieve, G support primes={len(ps)}",
    )
    if with_exact:
        report.exact_count = sift_exact(p, z)
        if report.exact_count > 0:
            report.ratio = report.upper_bound / report.exact_count
    return report


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
    if k < 1 or math.gcd(l, k) != 1:
        raise InputError(f"need k >= 1 and gcd(l, k) = 1, got k={k} l={l}")
    if x / k <= math.e:
        raise InputError(f"need x/k > e, got {x / k}")
    logq = math.log(x / k)
    z = math.sqrt(x / k) / logq**3
    z_eff = max(z, 2.0)
    prob = make_problem("arithmetic_progression", {"x": int(x), "k": k, "l": l}, tables)
    rep = fundamental_upper_bound(prob, y=max(z_eff * z_eff, 4.0), z=z_eff, with_exact=False)
    return BrunTitchmarshReport(
        x=float(x), k=k, l=l % k, z=z,
        sieve_bound=rep.upper_bound + 1.0 + z_eff / k,
        asymptotic_bound=2.0 * x / (mult_stats(k, tables).phi * logq),
        exact=pi_ap(x, k, l, tables),
    )


_C2_CACHE: dict[int, float] = {}


def twin_constant(bound: int = 10_000_000) -> float:
    """2 prod over odd primes p <= bound of (1 - (p-1)^-2); tail < 1e-7 at 1e7."""
    if bound not in _C2_CACHE:
        if bound < 100:
            raise InputError(f"constant needs bound >= 100, got {bound}")
        sieve = np.ones(bound + 1, dtype=bool)
        sieve[:2] = False
        for q in range(2, math.isqrt(bound) + 1):
            if sieve[q]:
                sieve[q * q :: q] = False
        ps = np.nonzero(sieve)[0][1:].astype(np.float64)  # odd primes
        _C2_CACHE[bound] = 2.0 * math.exp(float(np.log1p(-((ps - 1.0) ** -2)).sum()))
    return _C2_CACHE[bound]


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
    two_n = 2 * n_half
    if n_half < 3:
        raise InputError(f"need N >= 3, got {n_half}")
    if two_n - 2 > tables.limit:
        raise CapacityError(f"2N={two_n} beyond table limit {tables.limit}")
    spf = tables.spf
    ps = tables.primes[tables.primes <= two_n - 2]
    exact = int(np.count_nonzero(spf[two_n - ps] == (two_n - ps)))
    a_val = singular_factor(two_n, tables) * twin_constant() * two_n / math.log(n_half) ** 2
    return PairBoundReport(
        kind="goldbach", scale=two_n, exact=exact, reference=a_val,
        bound=4.0 * a_val, ratio=4.0 * a_val / exact if exact else None,
    )


def twin_report(x: int, k: int, tables: PrimeTables) -> PairBoundReport:
    """Primes p <= x with p + 2k also prime, against the sieve bound."""
    if x < 3 or k < 1:
        raise InputError(f"need x >= 3 and k >= 1, got x={x} k={k}")
    if x + 2 * k > tables.limit:
        raise CapacityError(f"x + 2k = {x + 2 * k} beyond table limit {tables.limit}")
    spf = tables.spf
    ps = tables.primes[tables.primes <= x]
    exact = int(np.count_nonzero(spf[ps + 2 * k] == (ps + 2 * k)))
    prod = singular_factor(2 * k, tables)
    bound = 4.0 * prod * twin_constant() * x / math.log(x) ** 2
    return PairBoundReport(
        kind="twin", scale=x, exact=exact, reference=prod * twin_constant(),
        bound=bound, ratio=bound / exact if exact else None,
    )


@dataclass(frozen=True)
class DimensionReport:
    """Fitted sieve dimension and the classical sanity bounds around it."""

    w: float
    z: float
    kappa_hat: float
    drift: float
    rounded_kappa: float
    main_term: float
    envelope_bounds_ok: bool


def dimension_diagnostics(p: SieveProblem, w: float, z: float) -> DimensionReport:
    """Fit kappa from sum of w(q) log q / q over w <= q < z and report it.

    The main term readout is X W(z) e^(gamma kappa) Gamma(kappa + 1) with
    kappa rounded to the nearest half integer; the envelope check verifies
    sum over d < x of mu(d)^2 h^nu(d) <= x (1 + log x)^h (and the /d variant
    <= (1 + log x)^h) for h in {1, 2, 3} on a small grid of x.
    """
    if not 2 <= w < z:
        raise InputError(f"need 2 <= w < z, got w={w} z={z}")
    ps = p.tables.primes[(p.tables.primes >= w) & (p.tables.primes < z)]
    ps = p.prime_set.select(ps)
    log_zw = math.log(z / w)
    acc = 0.0
    partials: list[tuple[float, float]] = []
    for q in ps:
        q = int(q)
        acc += float(p.omega.at_prime(q)) * math.log(q) / q
        partials.append((math.log(q / w), acc))
    kappa_hat = acc / log_zw
    drift = max((abs(s - kappa_hat * lg) for lg, s in partials), default=0.0)
    rounded = round(2 * kappa_hat) / 2
    from .legendre import problem_W

    mw = problem_W(p, z)
    main = float(p.X) * mw.W * math.exp(EULER_GAMMA * rounded) * math.gamma(rounded + 1)

    mu = p.tables.mobius_table()
    ok = True
    for x in (100, 1_000, 10_000):
        nu = np.zeros(x, dtype=np.int16)
        for q in p.tables.primes[p.tables.primes < x]:
            nu[int(q):: int(q)] += 1
        sf = mu[:x] != 0
        d = np.arange(x)
        for h in (1, 2, 3):
            powers = np.power(float(h), nu[sf][1:])
            s1 = powers.sum()
            s2 = (powers / d[sf][1:]).sum()
            cap = (1 + math.log(x)) ** h
            ok = ok and s1 <= x * cap and s2 <= cap
    return DimensionReport(
        w=float(w), z=float(z), kappa_hat=kappa_hat, drift=drift,
        rounded_kappa=rounded, main_term=main, envelope_bounds_ok=bool(ok),
    )
