"""Cross-module verification suites binding every bound to brute force.

Each suite replays one family of guarantees, from exact identities to the
empirical bound checks, against freshly computed ground truth.  The
registry at the bottom maps suite names to their runners and declares
which package invariant each suite owns; a static coverage check keeps
that ownership exactly one-to-one.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import (
    EULER_GAMMA,
    PrimeTables,
    build_tables,
    integrate_adaptive,
    li_eval,
    mult_stats,
    prime_pi,
)
from .buchstab import BuchstabGrid, build_grid, evaluate
from .errors import CapacityError, InputError, integer
from .legendre import legendre_count, legendre_remainder_sum, mertens_products, problem_W
from .parity import S_pm_exact, recursion_check, prediction_row
from .problem import MultiplicativeDensity, PrimeSet, kind_shape, make_problem, sift_exact
from .rosser import chain_divisor_sums, combinatorial_bounds, fundamental_lemma_report
from .selberg import (
    fundamental_upper_bound,
    goldbach_report,
    lambda_weights,
    mu_plus,
    over_common_denominator,
    twin_report,
    y_values,
)
from .weighted import (
    WeightedConfig,
    W_exact,
    chen_report,
    lambda_r,
    level_condition,
    pr_count,
    repeated_window_factor_count,
)

_CTX: dict[str, object] = {}


def shared_tables() -> PrimeTables:
    """Factor tables to 10^6, built once per process."""
    if "tables" not in _CTX:
        _CTX["tables"] = build_tables(1_000_200)
    return _CTX["tables"]  # type: ignore[return-value]


def shared_grid() -> BuchstabGrid:
    """The production F/f grid, built once per process."""
    if "grid" not in _CTX:
        _CTX["grid"] = build_grid(30.0, 1e-4)
    return _CTX["grid"]  # type: ignore[return-value]


@dataclass
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    cases: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, case_id: str, relation: str, ok: bool, observed: str = "") -> None:
        self.cases += 1
        if not ok:
            self.failures.append((case_id, relation, observed))

    def check_bulk(
        self, case_id: str, relation: str, total: int, violations: list[str]
    ) -> None:
        self.cases += total
        if violations:
            head = "; ".join(violations[:5])
            self.failures.append(
                (case_id, relation, f"{len(violations)} violations: {head}")
            )


def _suite_legendre(seed) -> SuiteResult:
    res = SuiteResult("legendre-exactness")
    t = shared_tables()
    start = time.monotonic()
    probs = [
        make_problem("interval", {"x": 0, "y": 10_000}, t),
        make_problem("interval", {"x": 123, "y": 9877}, t),
        make_problem("goldbach_product", {"two_N": 10_000}, t),
        make_problem("shifted_prime", {"N": 10_000}, t),
        make_problem("square_plus_one", {"x": 10_000}, t),
        make_problem("liouville_plus", {"x": 10_000}, t),
        make_problem("liouville_minus", {"x": 10_000}, t),
    ]
    for p in probs:
        for z in (2.0, 3.0, 11.0, 29.5, 30.0):
            got = legendre_count(p, z)
            want = sift_exact(p, z)
            res.check(
                f"{p.label} z={z}",
                "inclusion-exclusion == brute force",
                got == want,
                f"{got} vs {want}",
            )
    for p in probs:
        mv = problem_W(p, 25.0)
        s = sift_exact(p, 25.0)
        gap = abs(s - p.X * mv.W)
        rem = legendre_remainder_sum(p, 25.0)
        res.check(
            f"{p.label} bracket z=25",
            "|S - X W| <= sum |R_d|",
            gap <= rem + 1e-9,
            f"gap={gap:.3f} rem={rem:.3f}",
        )
    dt = time.monotonic() - start
    res.check("runtime", "under 10 s", dt < 10.0, f"{dt:.2f}s")
    return res


def _contract_densities() -> list[tuple[str, MultiplicativeDensity, PrimeSet]]:
    """(name, w, prime set) of four problem kinds; "twin" is the Goldbach w at 2N = 8."""
    shapes = [
        ("ones", kind_shape("interval", {"x": 0, "y": 1})),
        ("twin", kind_shape("goldbach_product", {"two_N": 8})),
        ("gold20", kind_shape("goldbach_product", {"two_N": 20})),
        ("quad", kind_shape("square_plus_one", {"x": 1})),
    ]
    return [(name, shape.omega, shape.prime_set) for name, shape in shapes]


def _suite_selberg_weights(seed) -> SuiteResult:
    res = SuiteResult("selberg-validity")
    t = shared_tables()
    for name, omega, pset in _contract_densities():
        for z in (20.0, 50.0):
            for xi in (50.0, 200.0):
                w = lambda_weights(xi, z, omega, pset, t)
                cid = f"{name} z={z} xi={xi}"
                res.check(cid, "weights exact rationals", w.exact, "float fallback")
                res.check(
                    cid, "lambda_1 == 1", w.lambdas.get(1) == 1, str(w.lambdas.get(1))
                )
                res.check(
                    cid,
                    "|lambda_d| <= 1 exactly",
                    all(-1 <= v <= 1 for v in w.lambdas.values()),
                    "out of range",
                )
                ys = y_values(w)
                ok = all(
                    ys[l] == (-1 if len(w.factors[l]) % 2 else 1) * w.g_values[l] / w.G
                    for l in w.lambdas
                )
                res.check(cid, "y_l == mu(l) g(l) / G exactly", ok, "identity broken")
                mono = all(
                    math.prod(Fraction(p) / (p - omega.at_prime(p)) for p in facs)
                    * sum((g for l, g in w.g_values.items()
                           if l < xi / d and all(l % p for p in facs)), Fraction(0))
                    <= w.G
                    for d, facs in w.factors.items()
                )
                res.check(cid, "restricted sum * correction <= G exactly", mono, "monotonicity")
    return res


def _mu_plus_divisor_sums(values: dict[int, Fraction], n_max: int) -> tuple[np.ndarray, int]:
    """(sums, den): den is the lcm of the denominators, sums[n] is den * (sum over d | n) as int64."""
    scaled, den = over_common_denominator(values)
    if sum(map(abs, scaled.values())) >= 2**63:
        raise CapacityError(f"divisor sums scaled by {den} could overflow int64")
    sums = np.zeros(n_max + 1, dtype=np.int64)
    for d, v in scaled.items():
        sums[d::d] += v
    return sums, den


def _suite_sieve_validity(seed) -> SuiteResult:
    res = SuiteResult("sieve-validity")
    t = shared_tables()
    # quadratic-form upper weights dominate the coprimality indicator
    ones = kind_shape("interval", {"x": 0, "y": 1})  # w = 1 on every prime
    w = lambda_weights(30.0, 20.0, ones.omega, ones.prime_set, t)
    n_max = 100_000
    sums, den = _mu_plus_divisor_sums(mu_plus(w).values, n_max)
    coprime = np.ones(n_max + 1, dtype=np.int64)
    for q in (2, 3, 5, 7, 11, 13, 17, 19):
        coprime[q::q] = 0
    low = np.flatnonzero(sums[1:] < coprime[1:] * den) + 1
    res.check_bulk(
        "sum of mu+(d) over d | n, n <= 1e5",
        ">= [gcd(n, P) = 1]",
        n_max,
        [f"n={n} sum={Fraction(int(sums[n]), den)}" for n in low.tolist()],
    )
    # the chain supports bracket the unit indicator on every divisor sum
    mob = t.mobius_table()
    squarefree = np.flatnonzero(mob[1:10_001]) + 1
    chains = []
    for y in (100.0, 1000.0, 10_000.0):
        lo, hi = (chain_divisor_sums(10_000, y, sign, t) for sign in (-1, 1))
        chains += [(m, y, lo[m], int(m == 1), hi[m]) for m in squarefree.tolist()]
    total = len(chains)
    bad_lo = [f"m={m} y={y} lo={lo}" for m, y, lo, mid, _ in chains if not lo <= mid]
    bad_hi = [f"m={m} y={y} hi={hi}" for m, y, _, mid, hi in chains if not mid <= hi]
    res.check_bulk(
        "lower chain sum, squarefree m <= 1e4", "<= [m = 1]", total, bad_lo
    )
    res.check_bulk(
        "upper chain sum, squarefree m <= 1e4", ">= [m = 1]", total, bad_hi
    )
    return res


def _sandwich_configs(t: PrimeTables) -> list[tuple]:
    return [
        (make_problem("interval", {"x": 0, "y": 100_000}, t), 10_000.0, 50.0),
        (make_problem("interval", {"x": 0, "y": 100_000}, t), 1000.0, 30.0),
        (make_problem("interval", {"x": 1000, "y": 80_000}, t), 2000.0, 25.0),
        (make_problem("interval", {"x": 0, "y": 1_000_000}, t), 10_000.0, 100.0),
        (make_problem("interval", {"x": 0, "y": 1_000_000}, t), 100_000.0, 40.0),
        (make_problem("interval", {"x": 12_345, "y": 200_000}, t), 5000.0, 60.0),
        (make_problem("arithmetic_progression", {"x": 100_000, "k": 3, "l": 2}, t), 3000.0, 20.0),
        (make_problem("arithmetic_progression", {"x": 100_000, "k": 7, "l": 3}, t), 5000.0, 30.0),
        (make_problem("arithmetic_progression", {"x": 500_000, "k": 10, "l": 9}, t), 8000.0, 35.0),
        (make_problem("arithmetic_progression", {"x": 200_000, "k": 11, "l": 5}, t), 2000.0, 15.0),
        (make_problem("goldbach_product", {"two_N": 2000}, t), 500.0, 15.0),
        (make_problem("goldbach_product", {"two_N": 10_000}, t), 2000.0, 25.0),
        (make_problem("goldbach_product", {"two_N": 50_000}, t), 1000.0, 20.0),
        (make_problem("square_plus_one", {"x": 20_000}, t), 1000.0, 15.0),
        (make_problem("square_plus_one", {"x": 50_000}, t), 3000.0, 20.0),
        (make_problem("square_plus_one", {"x": 100_000}, t), 2000.0, 12.0),
        (make_problem("liouville_plus", {"x": 50_000}, t), 3000.0, 40.0),
        (make_problem("liouville_minus", {"x": 50_000}, t), 1000.0, 20.0),
        (make_problem("shifted_prime", {"N": 10_000}, t), 500.0, 10.0),
        (make_problem("shifted_prime", {"N": 100_000}, t), 2000.0, 25.0),
    ]


def _suite_bound_sandwich(seed) -> SuiteResult:
    res = SuiteResult("bound-sandwich")
    t = shared_tables()
    start = time.monotonic()
    configs = _sandwich_configs(t)
    for p, y, z in configs:
        pair = combinatorial_bounds(p, y, z, with_exact=True)
        exact = pair.upper.exact_count
        upper_q = fundamental_upper_bound(p, y, z, with_exact=False).upper_bound
        cid = f"{p.label} y={y:g} z={z:g}"
        res.check(
            cid,
            "chain lower <= exact <= min(chain upper, quadratic upper)",
            pair.lower.lower_bound <= exact + 1e-9
            and exact <= pair.upper.upper_bound + 1e-9
            and exact <= upper_q + 1e-9,
            f"lo={pair.lower.lower_bound:.1f} exact={exact} "
            f"hi={pair.upper.upper_bound:.1f} quad={upper_q:.1f}",
        )
    res.check(
        "config count", ">= 20 configurations", len(configs) >= 20, str(len(configs))
    )
    dt = time.monotonic() - start
    res.check("runtime", "under 5 min", dt < 300.0, f"{dt:.1f}s")
    return res


def _suite_mertens(seed) -> SuiteResult:
    res = SuiteResult("mertens-products")
    t = shared_tables()
    ones = kind_shape("interval", {"x": 0, "y": 1})  # w = 1 on every prime
    for z in (1000.0, 10_000.0, 100_000.0):
        mv = mertens_products(z, ones.omega, ones.prime_set, t)
        drift = abs(mv.v_normalized() - 1.0)
        res.check(
            f"z={z:g}",
            "|V(z) log z e^gamma - 1| <= 0.05",
            drift <= 0.05,
            f"drift={drift:.5f}",
        )
    return res


def _suite_delay_grid(seed) -> SuiteResult:
    res = SuiteResult("delay-grid")
    g = shared_grid()
    eg = math.exp(EULER_GAMMA)
    res.check(
        "f(3)",
        "matches 2 e^gamma log 2 / 3 to 1e-9",
        abs(evaluate(g, 3, "f") - 2 * eg * math.log(2) / 3) <= 1e-9,
        f"{evaluate(g, 3, 'f')!r}",
    )
    res.check(
        "f(4)",
        "matches 2 e^gamma log 3 / 4 to 1e-9",
        abs(evaluate(g, 4, "f") - 2 * eg * math.log(3) / 4) <= 1e-9,
        f"{evaluate(g, 4, 'f')!r}",
    )
    inner = integrate_adaptive(lambda u: math.log(u) / (1.0 + u), 1.0, 2.0, 1e-13)
    oracle = 0.5 * eg * (1.0 + inner)
    res.check(
        "F(4)",
        "matches independent quadrature to 1e-6",
        abs(evaluate(g, 4, "F") - oracle) <= 1e-6,
        f"grid={evaluate(g, 4, 'F')!r} quad={oracle!r}",
    )
    res.check(
        "panel joins", "continuity defect <= 1e-6", g.join_error <= 1e-6,
        f"{g.join_error:.2e}",
    )
    res.check(
        "F(15)", "|F(15) - 1| <= 1e-3", abs(evaluate(g, 15, "F") - 1) <= 1e-3,
        f"{evaluate(g, 15, 'F')!r}",
    )
    res.check(
        "f(15)", "|f(15) - 1| <= 1e-3", abs(evaluate(g, 15, "f") - 1) <= 1e-3,
        f"{evaluate(g, 15, 'f')!r}",
    )
    fine = build_grid(30.0, 5e-5)
    ratio = round(g.step / fine.step)
    idx = np.arange(1, g.s.size) * ratio
    worst = max(
        float(np.nanmax(np.abs(g.F_values[1:] - fine.F_values[idx]))),
        float(np.nanmax(np.abs(g.f_values[1:] - fine.f_values[idx]))),
    )
    res.check(
        "halved step", "grid values stable to 1e-8", worst <= 1e-8, f"{worst:.2e}"
    )
    return res


def _suite_fundamental_lemma(seed) -> SuiteResult:
    res = SuiteResult("fundamental-lemma")
    t = shared_tables()
    g = shared_grid()
    p = make_problem("interval", {"x": 0, "y": 1_000_000}, t)
    for row in fundamental_lemma_report(p, 10_000.0, [3.0, 4.0, 6.0, 8.0], g):
        res.check(
            f"s={row.s:g} z={row.z:.2f}",
            "S / (X W) within [f(s) - 0.05, F(s) + 0.05]",
            row.lower_curve - 0.05 <= row.scaled <= row.upper_curve + 0.05,
            f"scaled={row.scaled:.4f} f={row.lower_curve:.4f} F={row.upper_curve:.4f}",
        )
    return res


def _suite_parity(seed) -> SuiteResult:
    res = SuiteResult("parity-extremal")
    t = shared_tables()
    g = shared_grid()
    for x in (10**4, 10**5, 10**6):
        for s in (1.0, 1.5, 2.0):
            v = S_pm_exact(x, s, -1, t)
            res.check(
                f"minus x={x:g} s={s}", "count <= 2 below s = 2", v <= 2, str(v)
            )
        for s in (1.5, 2.5, 3.0):
            got = S_pm_exact(x, s, 1, t)
            ref = prime_pi(x, t) - prime_pi(x ** (1.0 / s), t)
            res.check(
                f"plus x={x:g} s={s}",
                "within 2 of pi(x) - pi(x^(1/s))",
                abs(got - ref) <= 2,
                f"{got} vs {ref}",
            )
    for x in (100, 999, 5000, 10_000):
        for s in (1.5, 2.0, 2.5, 3.0, 4.0):
            for sign in (1, -1):
                lhs, rhs = recursion_check(x, s, sign, t)
                res.check(
                    f"recursion x={x} s={s} sign={sign:+d}",
                    "exact identity",
                    lhs == rhs,
                    f"{lhs} vs {rhs}",
                )
    x = 10**6
    err_unit = x / math.log(x) ** 2
    for s in (2.3, 2.5, 2.8):
        row = prediction_row(x, s, g, t)
        gap = abs(row.exact_minus - row.predict_minus)
        res.check(
            f"prediction x=1e6 s={s}",
            "minus count within 2.0 x / (log x)^2 of prediction",
            gap <= 2.0 * err_unit,
            f"gap={gap:.1f} unit={err_unit:.1f}",
        )
    row = prediction_row(x, 2.8, g, t)
    ratio = row.exact_minus / row.predict_minus
    res.check(
        "prediction ratio x=1e6 s=2.8",
        "within [0.75, 1.25]",
        0.75 <= ratio <= 1.25,
        f"{ratio:.4f}",
    )
    return res


def _progression_cases(x: int, k_max: int, tables: PrimeTables):
    """(k, l, pi(x; k, l), 2x / (phi(k) log(x/k))) for k <= k_max and l coprime to k."""
    ps = tables.primes[: np.searchsorted(tables.primes, x, side="right")]
    for k in range(1, k_max + 1):
        ceiling = 2.0 * x / (mult_stats(k, tables).phi * math.log(x / k))
        counts = np.bincount(ps % k, minlength=k).tolist()
        yield from ((k, l, counts[l], ceiling) for l in range(k) if math.gcd(l, k) == 1)


def _check_progressions(res: SuiteResult, x: int, k_max: int, tables: PrimeTables) -> None:
    cases = list(_progression_cases(x, k_max, tables))
    bad = [f"k={k} l={l}: {got} > {cap:.1f}" for k, l, got, cap in cases if not got <= cap]
    res.check_bulk(
        f"pi(1e{round(math.log10(x))}; k, l) for k <= {k_max}",
        "<= 2x / (phi(k) log(x/k))", len(cases), bad,
    )


def _suite_brun_titchmarsh(seed) -> SuiteResult:
    res = SuiteResult("brun-titchmarsh")
    _check_progressions(res, 1_000_000, 50, shared_tables())
    return res


def _suite_pair_bounds(seed) -> SuiteResult:
    res = SuiteResult("pair-bounds")
    t = shared_tables()
    small = twin_report(1000, 1, t)
    res.check("twin exact x=1000", "count == 35", small.exact == 35, str(small.exact))
    for x in (10**4, 10**5, 10**6):
        rep = twin_report(x, 1, t)
        res.check(
            f"twin x={x:g}",
            "bound >= exact",
            rep.bound >= rep.exact,
            f"bound={rep.bound:.1f} exact={rep.exact}",
        )
        if x == 10**6:
            res.check(
                "twin ratio x=1e6",
                "bound/exact within [2.5, 4.5]",
                2.5 <= rep.ratio <= 4.5,
                f"{rep.ratio:.3f}",
            )
    g100 = goldbach_report(50, t)
    res.check(
        "pair count 2N=100", "ordered representations == 12", g100.exact == 12,
        str(g100.exact),
    )
    bad: list[str] = []
    count = 0
    for n_half in range(1000, 50_001, 1000):
        rep = goldbach_report(n_half, t)
        count += 1
        if not rep.bound >= rep.exact:
            bad.append(f"2N={2 * n_half}: {rep.bound:.1f} < {rep.exact}")
    res.check_bulk("pair bound, 50 even sizes <= 1e5", ">= exact count", count, bad)
    return res


def _suite_weighted(seed) -> SuiteResult:
    res = SuiteResult("weighted-margins")
    t = shared_tables()
    g = shared_grid()
    l2 = lambda_r(2)
    res.check(
        "Lambda_2",
        "equals 1.834043767146470 to 1e-9",
        abs(l2 - 1.834043767146470) <= 1e-9,
        f"{l2!r}",
    )
    res.check("Lambda_2 floor", ">= 11/6", l2 >= 11 / 6, f"{l2!r}")
    ok = all(r - 2 / 7 < lambda_r(r) < r - 1 / 7 for r in range(2, 13))
    res.check("Lambda_r bracket r=2..12", "r - 2/7 < Lambda_r < r - 1/7", ok, "")
    rng = random.Random(seed)
    checked = 0
    worst = 0.0
    sign_ok = True
    while checked < 100:
        r = rng.choice([2, 3, 4])
        gl = rng.uniform(0.3, 0.9)
        a = rng.uniform(gl / 4, gl / 2)
        b_lo = max(a * 1.05, 1.0 / (r + 1) + 1e-3)
        if b_lo >= gl * 0.98:
            continue
        b = rng.uniform(b_lo, gl * 0.98)
        cfg = WeightedConfig(N=10**6, r=r, alpha=a, beta=b, gamma_level=gl)
        mi, mc = level_condition(cfg, g)
        worst = max(worst, abs(mi - mc))
        if min(abs(mi), abs(mc)) > 1e-9 and (mi > 0) != (mc > 0):
            sign_ok = False
        checked += 1
    res.check(
        "margin forms, 100 admissible configs",
        "integral and closed agree to 1e-6",
        worst <= 1e-6,
        f"worst={worst:.2e}",
    )
    res.check(
        "margin signs, 100 admissible configs", "same sign", sign_ok, "disagreement"
    )
    shifted = make_problem("shifted_prime", {"N": 10_000}, t)
    interval = make_problem("interval", {"x": 0, "y": 100_000}, t)
    configs = [
        (shifted, WeightedConfig(N=10_000, r=3, alpha=0.49 / 4,
                                 beta=0.49 / (1 + 3.0**-3), gamma_level=0.49)),
        (shifted, WeightedConfig(N=10_000, r=2, alpha=0.55 / 4,
                                 beta=0.55 / (1 + 3.0**-2), gamma_level=0.55)),
        (interval, WeightedConfig(N=100_000, r=2, alpha=0.14, beta=0.45,
                                  gamma_level=0.5)),
    ]
    for p, cfg in configs:
        w = W_exact(p, cfg)
        cap = pr_count(p, cfg.r, cfg.alpha, N=cfg.N)
        sq = repeated_window_factor_count(p, cfg)
        res.check(
            f"{p.label} r={cfg.r}",
            "weighted sum <= almost-prime count + square-factor count",
            w <= cap + sq + 1e-9,
            f"W={w:.2f} count={cap} squares={sq}",
        )
    return res


def _suite_chen(seed) -> SuiteResult:
    res = SuiteResult("chen-almost-primes")
    t = shared_tables()
    res.check(
        "N=20 enumeration", "count == 6", chen_report(20, t).count == 6, ""
    )
    for n in (10**4, 10**5, 2 * 10**5):
        rep = chen_report(n, t)
        res.check(
            f"N={n:g}",
            "count >= 0.335 C2 (prod (p-1)/(p-2)) N / (log N)^2",
            rep.count >= rep.reference,
            f"count={rep.count} ref={rep.reference:.1f}",
        )
    return res


#: most evaluations bv_scan takes on; one modulus costs pi(x) + _BV_SCAN_K_COST
BV_SCAN_MAX_WORK = 10**8
_BV_SCAN_K_COST = 2_000


@dataclass(frozen=True)
class BVScanResult:
    """Max progression errors per modulus and their running total."""

    x: int
    q_max: int
    rows: list[tuple[int, float]]
    total: float


def _li_at_primes(ps: np.ndarray, x: int) -> tuple[np.ndarray, float]:
    a = ps[:-1].astype(np.float64)
    b = ps[1:].astype(np.float64)
    h = (b - a) / 4.0
    seg = h / 3.0 * (
        1.0 / np.log(a) + 4.0 / np.log(a + h) + 2.0 / np.log(a + 2 * h)
        + 4.0 / np.log(a + 3 * h) + 1.0 / np.log(b)
    )
    # fixed panels are not accurate enough while 1/log u is still curved
    for i in np.nonzero(a < 10_000.0)[0]:
        seg[i] = integrate_adaptive(
            lambda u: 1.0 / math.log(u), float(a[i]), float(b[i]), 1e-12
        )
    li = np.zeros(ps.size, dtype=np.float64)
    np.cumsum(seg, out=li[1:])
    tail = 0.0
    last = float(ps[-1])
    if x > last:
        tail = integrate_adaptive(lambda u: 1.0 / math.log(u), last, float(x), 1e-10)
    return li, li[-1] + tail


def bv_scan(x: int, q_max: int, tables: PrimeTables) -> BVScanResult:
    """Worst progression error per modulus k <= q_max, scanned exactly.

    For each k and each residue l coprime to k this takes the max over all
    prime jump points y <= x (both sides of each jump, and the endpoint) of
    |pi(y; k, l) - Li(y)/phi(k)|, then keeps the largest l.  k = 1 measures
    |pi(y) - Li(y)| itself.  Li(y)/phi(k) only grows between two jumps of a
    class, so only the jumps and y = x are evaluated: O(pi(x)) per modulus.
    Scans beyond BV_SCAN_MAX_WORK, or with q_max beyond the tables, raise
    CapacityError before they start.

    Per k the residues are radix sorted (uint8 to q_max = 256, else uint16),
    classes start where the sorted residue changes, ranks j come from one
    repeat and coprimality is tested on the class labels.  With
    t = Li(p)/phi(k), monotone rounding makes max(|j - t|, |(j - 1) - t|)
    equal max(fl(j - t), fl(t - (j - 1))), and a class's error from its last
    prime to x peaks at one of the two ends: the rows are bit-identical.
    """
    x = integer(x, "x", least=2)
    tables.reach(x, f"x={x}")
    q_max = integer(q_max, "q_max", least=1)
    tables.reach(q_max, f"q_max={q_max}")
    n = prime_pi(x, tables)
    if q_max * (n + _BV_SCAN_K_COST) > BV_SCAN_MAX_WORK:
        raise CapacityError(f"{q_max} moduli over {n} primes: cap is {BV_SCAN_MAX_WORK}")
    ps = tables.primes[:n]
    li, li_x = _li_at_primes(ps, x)
    rem_type = np.uint8 if q_max <= 256 else np.uint16  # the cap admits < 2**16 moduli
    ps32, ranks = ps.astype(np.uint32), np.arange(1.0, n + 1)
    rows = []
    for k in range(1, q_max + 1):
        phi = mult_stats(k, tables).phi
        rem = (ps32 - ps32 // k * k).astype(rem_type)  # // by a scalar is vectorised; % is not
        # a stable sort of small ints is a radix sort: positions ascend per class
        order = np.argsort(rem, kind="stable")
        cls = rem[order]
        starts = np.flatnonzero(np.diff(cls, prepend=cls[:1] + 1))  # x + 1 != x, wrapped too
        sizes = np.diff(starts, append=n)
        # the j-th prime of a class lifts its count from j - 1 to j
        j = ranks - np.repeat(starts, sizes)
        at = li[order] / phi
        jump = np.maximum.reduceat(np.maximum(j - at, at - (j - 1)), starts)
        coprime = np.gcd(cls[starts], np.int64(k)) == 1
        ends = np.abs(sizes[coprime] - li_x / phi)
        # a coprime class without primes counts 0; its error peaks at y = x
        empty = li_x / phi if ends.size < phi else 0.0
        best = max(np.max(jump[coprime], initial=0.0), np.max(ends, initial=empty))
        rows.append((k, float(best)))
    return BVScanResult(
        x=x, q_max=q_max, rows=rows, total=math.fsum(e for _, e in rows)
    )


def _suite_bv(seed) -> SuiteResult:
    res = SuiteResult("progression-errors")
    t = shared_tables()
    scan = bv_scan(1_000_000, 50, t)
    res.check(
        "sum of E1(1e6, k), k <= 50",
        "<= 1e6 / log(1e6)",
        scan.total <= 1_000_000 / math.log(1_000_000),
        f"total={scan.total:.1f}",
    )
    e1 = dict(scan.rows)[1]
    direct = abs(prime_pi(1_000_000, t) - li_eval(1_000_000.0))
    res.check(
        "k=1 row",
        ">= |pi(x) - Li(x)| at the endpoint",
        e1 >= direct - 1e-3,
        f"E1={e1:.2f} endpoint={direct:.2f}",
    )
    return res


def _suite_extended(seed) -> SuiteResult:
    """Spot checks rerun at ten times the quick-suite scale.

    Not part of 'all'; the command line gates it behind its own flag
    because the larger factor tables take a while to build.
    """
    res = SuiteResult("extended")
    if "tables10" not in _CTX:
        _CTX["tables10"] = build_tables(10_000_200)
    t: PrimeTables = _CTX["tables10"]  # type: ignore[assignment]
    x = 10_000_000
    p = make_problem("interval", {"x": 0, "y": x}, t)
    for z in (11.0, 30.0):
        got = legendre_count(p, z)
        want = sift_exact(p, z)
        res.check(
            f"interval 1e7 z={z:g}",
            "inclusion-exclusion == brute force",
            got == want,
            f"{got} vs {want}",
        )
    rep = twin_report(x, 1, t)
    res.check(
        "twin x=1e7",
        "bound >= exact and bound/exact within [2.5, 4.5]",
        rep.bound >= rep.exact and 2.5 <= rep.ratio <= 4.5,
        f"ratio={rep.ratio:.3f}",
    )
    _check_progressions(res, x, 20, t)
    for s in (1.5, 2.0):
        v = S_pm_exact(x, s, -1, t)
        res.check(f"minus x=1e7 s={s}", "count <= 2 below s = 2", v <= 2, str(v))
    got_p = S_pm_exact(x, 2.5, 1, t)
    ref_p = prime_pi(x, t) - prime_pi(x ** (1 / 2.5), t)
    res.check(
        "plus x=1e7 s=2.5",
        "within 2 of pi(x) - pi(x^(1/s))",
        abs(got_p - ref_p) <= 2,
        f"{got_p} vs {ref_p}",
    )
    return res


#: every package invariant owned by exactly one suite below
STATIC_INVARIANTS: tuple[str, ...] = (
    "legendre-exact-equality",
    "legendre-remainder-bracket",
    "selberg-lambda-unit",
    "selberg-lambda-bounded",
    "selberg-diagonal-identity",
    "selberg-sum-monotonicity",
    "selberg-upper-dominates-indicator",
    "chain-divisor-sandwich",
    "two-sided-bound-sandwich",
    "mertens-normalized-drift",
    "delay-closed-forms",
    "delay-independent-quadrature",
    "delay-join-continuity",
    "delay-tail-limits",
    "delay-step-stability",
    "fundamental-lemma-window",
    "parity-minus-floor",
    "parity-plus-prime-count",
    "parity-recursion-exact",
    "parity-prediction-window",
    "progression-upper-bound",
    "twin-bound-ratio",
    "goldbach-bound-examples",
    "almost-prime-threshold-values",
    "margin-form-agreement",
    "weighted-sum-dominated",
    "chen-count-floor",
    "chen-frozen-example",
    "progression-error-ceiling",
)

SUITES: dict[str, tuple] = {
    "legendre-exactness": (
        _suite_legendre,
        ("legendre-exact-equality", "legendre-remainder-bracket"),
    ),
    "selberg-validity": (
        _suite_selberg_weights,
        (
            "selberg-lambda-unit",
            "selberg-lambda-bounded",
            "selberg-diagonal-identity",
            "selberg-sum-monotonicity",
        ),
    ),
    "sieve-validity": (
        _suite_sieve_validity,
        ("selberg-upper-dominates-indicator", "chain-divisor-sandwich"),
    ),
    "bound-sandwich": (_suite_bound_sandwich, ("two-sided-bound-sandwich",)),
    "mertens-products": (_suite_mertens, ("mertens-normalized-drift",)),
    "delay-grid": (
        _suite_delay_grid,
        (
            "delay-closed-forms",
            "delay-independent-quadrature",
            "delay-join-continuity",
            "delay-tail-limits",
            "delay-step-stability",
        ),
    ),
    "fundamental-lemma": (_suite_fundamental_lemma, ("fundamental-lemma-window",)),
    "parity-extremal": (
        _suite_parity,
        (
            "parity-minus-floor",
            "parity-plus-prime-count",
            "parity-recursion-exact",
            "parity-prediction-window",
        ),
    ),
    "brun-titchmarsh": (_suite_brun_titchmarsh, ("progression-upper-bound",)),
    "pair-bounds": (
        _suite_pair_bounds,
        ("twin-bound-ratio", "goldbach-bound-examples"),
    ),
    "weighted-margins": (
        _suite_weighted,
        (
            "almost-prime-threshold-values",
            "margin-form-agreement",
            "weighted-sum-dominated",
        ),
    ),
    "chen-almost-primes": (
        _suite_chen,
        ("chen-count-floor", "chen-frozen-example"),
    ),
    "progression-errors": (_suite_bv, ("progression-error-ceiling",)),
    "extended": (_suite_extended, ()),
}

#: acceptance criterion number -> suite carrying it
ACCEPTANCE_SUITES: dict[int, str] = {
    1: "legendre-exactness",
    2: "selberg-validity",
    3: "sieve-validity",
    4: "bound-sandwich",
    5: "mertens-products",
    6: "delay-grid",
    7: "fundamental-lemma",
    8: "parity-extremal",
    9: "brun-titchmarsh",
    10: "pair-bounds",
    11: "weighted-margins",
    12: "chen-almost-primes",
}


def coverage_problems() -> list[str]:
    """Invariant tags missing from or duplicated in the suite registry."""
    seen: dict[str, int] = {}
    for _, (_, covers) in SUITES.items():
        for tag in covers:
            seen[tag] = seen.get(tag, 0) + 1
    problems = []
    for tag in STATIC_INVARIANTS:
        n = seen.pop(tag, 0)
        if n != 1:
            problems.append(f"{tag}: registered {n} times")
    for tag, n in seen.items():
        problems.append(f"{tag}: not in the static list ({n} registrations)")
    return problems


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    """Run one registered suite, or 'all' for every suite in order.

    seed feeds the sampled checks.
    """
    if name == "all":
        shared_tables()
        shared_grid()
        agg = SuiteResult("all")
        for sub in (run_suite(n, seed) for n in SUITES if n != "extended"):
            agg.cases += sub.cases
            agg.elapsed += sub.elapsed
            for cid, rel, obs in sub.failures:
                agg.failures.append((f"{sub.name}: {cid}", rel, obs))
        return agg
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choices: {', '.join(SUITES)}, all")
    start = time.monotonic()
    result = SUITES[name][0](seed)
    result.elapsed = time.monotonic() - start
    return result
