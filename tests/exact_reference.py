"""What is left of the computations the package replaced: the references
that check what the oracle (``oracle.py``) does not.

1. Rounding bounds.  V(z), W(z), M+- and G(xi, z) are floats in the package.
   ``exact_mertens`` and ``exact_G`` give V, W and G as exact rationals, over
   the oracle's primes and supports (the oracle's ``mobius_exact`` gives M+-
   and the sum A of its terms' sizes).  The floats are held to them within
   bounds fixed before they were first compared: V, W and G to a relative
   error of ``TOL`` (``close``), M+- to ``TOL`` times A (``mobius_close``),
   since where terms cancel the value itself can be far smaller than A.
2. Exact kernels that now do less work for the same result: ``bv_scan`` with
   every modulus scanned at every jump, and lambda_weights and y_values with each node
   factored alone and each term added into its 2^nu divisors (``reference_*``)
   or as they were before the superset sums (``previous_*``).  They are held
   ``==`` to the package, and on the float path past MAX_EXACT_SUPPORT either
   bit for bit (``previous_*``) or within ``FLOAT_WEIGHT_CHANGE``.
3. The weighted sieve's per-member loops, each survivor factored alone:
   W_exact, repeated_window_factor_count, chen_report's triple count, and
   pr_count reading Omega from the big_omega_table.  Held ``==``.
4. The delay grid as composite Simpson integrated it, one unit panel at a
   time, with a full column of s beside F and f, and ``evaluate`` as cubic
   interpolation through its four nearest points.  The package's per-unit
   series are held to it within bounds fixed before they were first
   compared: 1e-13 at step 1e-4 and below, where the grid's own error is
   4.8e-14, and that times (step/1e-4)^4, Simpson's order, at coarser steps.
   On (3, 3 + step) the cubic reaches across s = 3, where F'' jumps, and is
   no reference (1.9e-10 off at step 1e-4); the tests hold F to quadrature
   there.  ``evaluate``'s F at s <= 3 and f at s <= 4 are held ``==``.
5. The grid's two CSV exports as the Simpson grid's writers wrote them,
   before they shared one chunked row writer.  The package's exports keep
   their header, row count and row format, and each value is within 1e-13
   of the Simpson grid's before it is rounded to the export's digits.
6. ``integrate_adaptive`` as it was before each level passed f at its end
   points and midpoint down: every Simpson estimate evaluated f at all
   three of its points, six calls per refined interval.  Held ``==``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from fractions import Fraction

import numpy as np
from oracle import below, brute, primes_below, support, w_product

import sievelab.selberg as selberg
import sievelab.weighted as weighted
from sievelab.arith import (
    EULER_GAMMA, BVScanResult, _li_past, _li_steps, factorize, mult_stats, prime_pi,
)
from sievelab.errors import CapacityError, finite
from sievelab.problem import sifted_members
from sievelab.selberg import SelbergWeights, _g_at, _g_walk, _sieve_densities, _superset_sums

TOL = Fraction(1, 10**14)  # 1e-14, as an exact rational

#: bound on the change of a float-fallback value from the old summation
#: orders (each term added into its 2^nu divisors, over the support depth
#: first or level by level) to the superset sums: for lambda_d relative to
#: lambda_d, for y_l relative to the sum of its terms' |w(d) lambda_d / d|,
#: since y_l cancels (relative to y_l itself the change reached 1.1e-12 for
#: w(p) = 2 at xi = z = 1e5).  The largest seen were 8.4e-14 for lambda, at
#: xi = z = 175,000 (support 106,384, unforced), and 1.5e-15 for y
FLOAT_WEIGHT_CHANGE = 1e-13


def exact_mertens(z, omega, prime_set) -> tuple[Fraction, Fraction]:
    """(V, W): the products of (1 - 1/p) over every prime p < z and of
    (1 - w(p)/p) over the prime set's primes below z."""
    ps = primes_below(z)
    v = math.prod((Fraction(p - 1, p) for p in ps), start=Fraction(1))
    selected = prime_set.select(np.array(ps, dtype=np.int64)).tolist()
    return v, w_product(lambda p: 1 - omega.at_prime(p) / p, selected)


def exact_G(xi, z, omega, prime_set) -> Fraction:
    """G(xi, z), the sum of g(l) over the squarefree l < xi from the sieve
    primes (the prime set's primes below z with w(p) > 0)."""
    ps = prime_set.select(np.array(primes_below(z), dtype=np.int64)).tolist()
    g = {p: brute.g_value([p], omega.at_prime) for p in ps if omega.at_prime(p) > 0}
    return sum((v for _, _, v, _, _ in support(list(g), below(xi), g)), Fraction(0))


def close(got: float, exact: Fraction) -> bool:
    """|got - exact| <= TOL |exact|, compared exactly."""
    return abs(Fraction(got) - exact) <= TOL * abs(exact)


def mobius_close(got: float, exact: Fraction, scale: Fraction) -> bool:
    """|got - exact| <= TOL scale, compared exactly."""
    return abs(Fraction(got) - exact) <= TOL * scale


def li_at_primes(ps, x) -> tuple[np.ndarray, float]:
    """Li at each prime of ps, the primes up to x, as one cumulative sum of
    the steps from p = 2, and Li(x): what ``PrimeTables.li_column`` grows."""
    li = np.zeros(ps.size, dtype=np.float64)
    np.cumsum(_li_steps(ps), out=li[1:])
    return li, li[-1] + _li_past(ps[-1], x)


def reference_bv_scan(x, q_max, tables) -> BVScanResult:
    """bv_scan with every modulus k <= q_max scanned over all primes <= x."""
    n = prime_pi(x, tables)
    ps = tables.primes[:n]
    li, li_x = li_at_primes(ps, x)
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


def _multiplicative(support, at: dict[int, Fraction]) -> dict[int, Fraction]:
    """f(d) for each (d, factors) of a support, f multiplicative with f(p) = at[p].

    Every d must follow d / (its largest prime), as in an ascending walk.
    """
    out: dict[int, Fraction] = {}
    for d, facs in support:
        out[d] = out[d // facs[-1]] * at[facs[-1]] if facs else Fraction(1)
    return out


def reference_lambda_weights(xi, z, omega, prime_set, tables) -> SelbergWeights:
    """lambda_weights with each node factored by trial division by the sieve
    primes and each g(m) added into its 2^nu(m) divisors; floats past
    MAX_EXACT_SUPPORT."""
    w_at = _sieve_densities(z, omega, prime_set, tables)
    ps = list(w_at)
    walk = _g_walk(finite(xi, "xi"), ps, _g_at(w_at))
    g_values = dict(zip(walk.d.tolist(), walk.v.tolist()))
    g_values[1] = Fraction(1)
    support = [(d, tuple(q for q in ps if d % q == 0)) for d in g_values]
    exact = len(support) <= selberg.MAX_EXACT_SUPPORT
    w_values = _multiplicative(support, {p: omega.at_prime(p) for p in ps})
    G = sum(g_values.values(), Fraction(0))
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
        g_values=g_values, factors=dict(support), w_values=w_values, omega=omega, primes=ps,
        exact=exact,
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


def previous_lambda_weights(xi, z, omega, prime_set, tables) -> SelbergWeights:
    """lambda_weights as it was before G came from the superset sums: w(d) a
    product of Fractions, G a second sum of the g(l), and each lambda_d four
    Fraction operations.  Its float path past MAX_EXACT_SUPPORT is the one
    the package keeps, so the two agree bit for bit there."""
    w_at = _sieve_densities(z, omega, prime_set, tables)
    ps = list(w_at)
    walk = _g_walk(finite(xi, "xi"), ps, _g_at(w_at))
    g_values = dict(zip(walk.d.tolist(), walk.v.tolist()))
    g_values[1] = Fraction(1)
    factors: dict[int, tuple[int, ...]] = {1: ()}
    for d, i in zip(walk.d[1:].tolist(), walk.i[1:].tolist()):
        q = ps[i - 1]
        factors[d] = factors[d // q] + (q,)
    exact = len(factors) <= selberg.MAX_EXACT_SUPPORT
    w_values = _multiplicative(factors.items(), {p: omega.at_prime(p) for p in ps})
    G = sum(g_values.values(), Fraction(0))
    if exact:
        g, total = g_values, G
    else:
        g = {d: float(v) for d, v in g_values.items()}
        total = math.fsum(g.values())
    multiples = _superset_sums(factors, g)
    lambdas = {}
    for d, facs in factors.items():
        scale = d / w_values[d] if exact else d / float(w_values[d])
        sign = -1 if len(facs) % 2 else 1
        lambdas[d] = sign * scale * multiples[d] / total
    return SelbergWeights(
        xi=float(xi), z=float(z), G=G, lambdas=lambdas, g_values=g_values, factors=factors,
        w_values=w_values, omega=omega, primes=ps, exact=exact,
    )


def previous_y_values(w: SelbergWeights) -> dict:
    """y_values as it was before it read the weights' w(d): w(d) rebuilt as
    a product of Fractions, each term w(d) lambda_d / d."""
    w_values = _multiplicative(w.factors.items(), {p: w.omega.at_prime(p) for p in w.primes})
    terms = {d: w_values[d] * lam / d for d, lam in w.lambdas.items()}
    nums, den = selberg.over_common_denominator(terms) if w.exact else (terms, 1)
    out = _superset_sums(w.factors, nums)
    return {l: Fraction(a, den) for l, a in out.items()} if w.exact else out


def reference_member_weight_term(n, cfg, tables) -> float:
    """1 minus the window weight sum of one member, factored alone."""
    lo = cfg.alpha * math.log(cfg.N)
    hi = cfg.beta * math.log(cfg.N)
    total = 0.0
    for q, _ in factorize(n, tables):
        lq = math.log(q)
        if lo <= lq < hi:
            total += weighted.richert_weight(q, cfg)
    return 1.0 - total


def reference_W_exact(p, cfg) -> float:
    """W_exact with each survivor factored alone."""
    z = weighted.presieve_cut(cfg.N, cfg.alpha)
    terms = [reference_member_weight_term(int(n), cfg, p.tables) for n in sifted_members(p, z)]
    return math.fsum(terms)


def reference_pr_count(p, r, alpha, N) -> int:
    """pr_count with Omega read from the big_omega_table of the whole tables."""
    surv = sifted_members(p, weighted.presieve_cut(N, alpha))
    if surv.size == 0:
        return 0
    p.tables.reach(int(surv.max()))
    return int(np.count_nonzero(p.tables.big_omega_table()[surv] <= r))


def reference_repeated_window_factor_count(p, cfg) -> int:
    """repeated_window_factor_count with each survivor factored alone."""
    z = weighted.presieve_cut(cfg.N, cfg.alpha)
    lo = cfg.alpha * math.log(cfg.N)
    hi = cfg.beta * math.log(cfg.N)
    count = 0
    for n in sifted_members(p, z):
        for q, e in factorize(int(n), p.tables):
            if e >= 2 and lo <= math.log(q) < hi:
                count += 1
                break
    return count


def reference_triple_count(N, tables) -> int:
    """chen_report's triple_count with each m = N - p of Omega(m) = 3 factored alone."""
    ps = tables.primes
    m = N - ps[(ps >= 3) & (ps <= N - 3)]
    big = tables.big_omega_table()
    cut = N ** (1.0 / 3.0)
    triple = 0
    for n in m[big[m] == 3]:
        fac = []
        for q, e in factorize(int(n), tables):
            fac.extend([q] * e)
        fac.sort()
        if fac[0] < cut <= fac[1]:
            triple += 1
    return triple


@dataclass
class PreviousGrid:
    """The delay grid with its column of s_k = k/m."""

    step: float
    s_max: float
    s: np.ndarray
    F_values: np.ndarray
    f_values: np.ndarray
    join_error: float


def _previous_cumulative_simpson(g: np.ndarray, h: float) -> np.ndarray:
    out = np.empty(g.size)
    out[0] = 0.0
    pair = (h / 3.0) * (g[0:-2:2] + 4.0 * g[1:-1:2] + g[2::2])
    out[2::2] = np.cumsum(pair)
    out[1::2] = out[0:-2:2] + (h / 12.0) * (5.0 * g[0:-2:2] + 8.0 * g[1:-1:2] - g[2::2])
    return out


def _previous_closed_F(s: np.ndarray) -> np.ndarray:
    return 2.0 * math.exp(EULER_GAMMA) / s


def _previous_closed_f(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    hi = s > 2.0
    out[hi] = 2.0 * math.exp(EULER_GAMMA) * np.log(s[hi] - 1.0) / s[hi]
    return out


def previous_build_grid(s_max: int, step: float) -> PreviousGrid:
    """build_grid with a full-size s column and full-size temporaries."""
    m = round(1.0 / step)
    k_top = s_max * m
    s = np.arange(k_top + 1, dtype=np.float64) / m
    s[0] = np.nan
    F = np.full(k_top + 1, np.nan)
    f = np.full(k_top + 1, np.nan)
    h = 1.0 / m
    F[1 : 3 * m + 1] = _previous_closed_F(s[1 : 3 * m + 1])
    f[1 : 4 * m + 1] = _previous_closed_f(s[1 : 4 * m + 1])
    probe = np.empty(2 * m + 1)
    start = 0.0
    for j in (2, 3):
        seg = _previous_cumulative_simpson(_previous_closed_F(s[(j - 1) * m : j * m + 1]), h)
        probe[(j - 2) * m : (j - 1) * m + 1] = start + seg
        start += seg[-1]
    join_error = float(
        np.max(np.abs(probe[1:] / s[2 * m + 1 : 4 * m + 1] - f[2 * m + 1 : 4 * m + 1]))
    )
    for j in range(3, s_max):
        base = j * F[j * m]
        seg = _previous_cumulative_simpson(f[(j - 1) * m : j * m + 1], h)
        F[j * m : (j + 1) * m + 1] = (base + seg) / s[j * m : (j + 1) * m + 1]
        if j >= 4:
            base = j * f[j * m]
            seg = _previous_cumulative_simpson(F[(j - 1) * m : j * m + 1], h)
            f[j * m : (j + 1) * m + 1] = (base + seg) / s[j * m : (j + 1) * m + 1]
    return PreviousGrid(h, float(s_max), s, F, f, join_error)


def previous_evaluate(grid: PreviousGrid, s: float, which: str) -> float:
    """evaluate with its four points read from the s column as float64."""
    if which == "F" and s <= 3.0:
        return 2.0 * math.exp(EULER_GAMMA) / s
    if which == "f":
        if s <= 2.0:
            return 0.0
        if s <= 4.0:
            return 2.0 * math.exp(EULER_GAMMA) * math.log(s - 1.0) / s
    vals = grid.F_values if which == "F" else grid.f_values
    m = round(1.0 / grid.step)
    k = int(math.floor(s * m))
    lo = min(max(k - 1, 1), vals.size - 4)
    xs = grid.s[lo : lo + 4]
    ys = vals[lo : lo + 4]
    out = 0.0
    for i in range(4):
        term = ys[i]
        for j in range(4):
            if j != i:
                term *= (s - xs[j]) / (xs[i] - xs[j])
        out += term
    return float(out)


def previous_csv_text(grid: PreviousGrid) -> str:
    """What ``buchstab --format csv`` printed: every row joined, then print's newline."""
    cols = (grid.s[1:].tolist(), grid.F_values[1:].tolist(), grid.f_values[1:].tolist())
    return "\n".join(["s,F,f", *(f"{s:.12g},{F:.12g},{f:.12g}" for s, F, f in zip(*cols))]) + "\n"


def previous_save_grid(grid: PreviousGrid, path) -> None:
    """save_grid with each chunk of 8,192 rows formatted one f-string per row."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write("s,F,f\n")
            for lo in range(1, grid.F_values.size, 8192):
                hi = min(lo + 8192, grid.F_values.size)
                cols = (grid.s[lo:hi], grid.F_values[lo:hi], grid.f_values[lo:hi])
                fh.write("".join(
                    f"{s:.17g},{F:.17g},{f:.17g}\n" for s, F, f in zip(*(c.tolist() for c in cols))
                ))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# -- 6. the adaptive quadrature -------------------------------------------


def _previous_simpson(f, a: float, b: float) -> float:
    out = (b - a) / 6.0 * (f(a) + 4.0 * f(0.5 * (a + b)) + f(b))
    if not math.isfinite(out):
        raise CapacityError(f"Simpson estimate {out} on [{a:.6g}, {b:.6g}] is not finite")
    return out


def _previous_adaptive_simpson(f, a, b, whole, eps, depth):
    m = 0.5 * (a + b)
    left = _previous_simpson(f, a, m)
    right = _previous_simpson(f, m, b)
    delta = left + right - whole
    if abs(delta) <= 15.0 * eps or depth <= 0:
        return left + right + delta / 15.0
    return _previous_adaptive_simpson(f, a, m, left, 0.5 * eps, depth - 1) + (
        _previous_adaptive_simpson(f, m, b, right, 0.5 * eps, depth - 1)
    )


def previous_integrate_adaptive(f, a: float, b: float, rel_tol: float = 1e-10) -> float:
    """integrate_adaptive with f evaluated at all three points of every Simpson estimate."""
    finite(rel_tol, "rel_tol", above=0)
    if finite(b, "b") <= finite(a, "a"):
        return 0.0
    whole = _previous_simpson(f, a, b)
    return _previous_adaptive_simpson(f, a, b, whole, rel_tol * max(abs(whole), 1e-30), 48)
