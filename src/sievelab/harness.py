"""Cross-module verification suites binding every bound to brute force.

Each suite replays one family of guarantees, from exact identities to the
empirical bound checks, against freshly computed ground truth.  Every
check names the package invariant it tests, and a suite's result counts
its cases per invariant; the registry at the bottom maps suite names to
their runners.  The test suite holds the 29 invariants and asserts that
each is observed in exactly one quick suite.
"""

from __future__ import annotations

import functools
import math
import random
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import (
    EULER_GAMMA,
    PrimeTables,
    build_tables,
    bv_scan,
    integrate_adaptive,
    li_eval,
    mult_stats,
    prime_pi,
)
from .buchstab import TERMS, UNITS, build_grid, curves, evaluate
from .errors import InputError, within
from .legendre import legendre_count, legendre_remainder_sum, mertens_products, problem_W
from .parity import S_pm_exact, recursion_check, prediction_row
from .problem import (
    INT64_MAX, kind_shape, make_problem, sift_exact,
)
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

@functools.cache
def shared_tables() -> PrimeTables:
    """Factor tables to 10^6, built once per process."""
    return build_tables(1_000_200)


@dataclass
class SuiteResult:
    """Outcome of one verification suite, with its cases per invariant tag."""

    name: str
    cases: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    elapsed: float = 0.0
    invariants: Counter[str] = field(default_factory=Counter)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, tag: str, case_id: str, relation: str, ok: bool, observed: str = "") -> None:
        self.cases += 1
        self.invariants[tag] += 1
        if not ok:
            self.failures.append((case_id, relation, observed))

    def check_bulk(
        self, tag: str, case_id: str, relation: str, total: int, violations: list[str]
    ) -> None:
        self.cases += total
        self.invariants[tag] += total
        if violations:
            head = "; ".join(violations[:5])
            self.failures.append(
                (case_id, relation, f"{len(violations)} violations: {head}")
            )


def _check_legendre(res: SuiteResult, problems, zs) -> None:
    for p in problems:
        for z in zs:
            got, want = legendre_count(p, z), sift_exact(p, z)
            res.check("legendre-exact-equality", f"{p.label} z={z}",
                      "inclusion-exclusion == brute force", got == want, f"{got} vs {want}")


def _suite_legendre(res: SuiteResult, seed: int) -> None:
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
    _check_legendre(res, probs, (2.0, 3.0, 11.0, 29.5, 30.0))
    for p in probs:
        mv = problem_W(p, 25.0)
        s = sift_exact(p, 25.0)
        gap = abs(s - p.X * mv.W)
        rem = legendre_remainder_sum(p, 25.0)
        res.check(
            "legendre-remainder-bracket",
            f"{p.label} bracket z=25",
            "|S - X W| <= sum |R_d|",
            gap <= rem + 1e-9,
            f"gap={gap:.3f} rem={rem:.3f}",
        )
    dt = time.monotonic() - start
    res.check("legendre-exact-equality", "runtime", "under 10 s", dt < 10.0, f"{dt:.2f}s")


def _suite_selberg_weights(res: SuiteResult, seed: int) -> None:
    t = shared_tables()
    shapes = [  # the densities of four problem kinds; "twin" is the Goldbach w at 2N = 8
        ("ones", kind_shape("interval", {"x": 0, "y": 1})),
        ("twin", kind_shape("goldbach_product", {"two_N": 8})),
        ("gold20", kind_shape("goldbach_product", {"two_N": 20})),
        ("quad", kind_shape("square_plus_one", {"x": 1})),
    ]
    for name, shape in shapes:
        for z in (20.0, 50.0):
            for xi in (50.0, 200.0):
                w = lambda_weights(xi, z, shape.omega, shape.prime_set, t)
                cid = f"{name} z={z} xi={xi}"
                res.check("selberg-diagonal-identity", cid, "weights exact rationals",
                          all(type(v) is Fraction for v in (w.G, *w.lambdas.values())),
                          "not a Fraction")
                res.check("selberg-lambda-unit", cid, "lambda_1 == 1",
                          w.lambdas.get(1) == 1, str(w.lambdas.get(1)))
                res.check(
                    "selberg-lambda-bounded",
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
                res.check("selberg-diagonal-identity", cid, "y_l == mu(l) g(l) / G exactly",
                          ok, "identity broken")
                mono = all(
                    math.prod(Fraction(p) / (p - shape.omega.at_prime(p)) for p in facs)
                    * sum((g for l, g in w.g_values.items()
                           if l < xi / d and all(l % p for p in facs)), Fraction(0))
                    <= w.G
                    for d, facs in w.factors.items()
                )
                res.check("selberg-sum-monotonicity", cid,
                          "restricted sum * correction <= G exactly", mono, "monotonicity")


def _mu_plus_divisor_sums(values: dict[int, Fraction], n_max: int) -> tuple[np.ndarray, int]:
    """(sums, den): den is the lcm of the denominators, sums[n] is den * (sum over d | n) as int64."""
    scaled, den = over_common_denominator(values)
    within(sum(map(abs, scaled.values())), INT64_MAX, f"divisor sums scaled by {den} (int64)")
    sums = np.zeros(n_max + 1, dtype=np.int64)
    for d, v in scaled.items():
        sums[d::d] += v
    return sums, den


def _suite_sieve_validity(res: SuiteResult, seed: int) -> None:
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
        "selberg-upper-dominates-indicator",
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
    res.check_bulk("chain-divisor-sandwich", "lower chain sum, squarefree m <= 1e4",
                   "<= [m = 1]", total, bad_lo)
    res.check_bulk("chain-divisor-sandwich", "upper chain sum, squarefree m <= 1e4",
                   ">= [m = 1]", total, bad_hi)


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


def _suite_bound_sandwich(res: SuiteResult, seed: int) -> None:
    t = shared_tables()
    start = time.monotonic()
    configs = _sandwich_configs(t)
    for p, y, z in configs:
        pair = combinatorial_bounds(p, y, z, with_exact=True)
        exact = pair.upper.exact_count
        upper_q = fundamental_upper_bound(p, y, z, with_exact=False).upper_bound
        cid = f"{p.label} y={y:g} z={z:g}"
        res.check(
            "two-sided-bound-sandwich",
            cid,
            "chain lower <= exact <= min(chain upper, quadratic upper)",
            pair.lower.lower_bound <= exact + 1e-9
            and exact <= pair.upper.upper_bound + 1e-9
            and exact <= upper_q + 1e-9,
            f"lo={pair.lower.lower_bound:.1f} exact={exact} "
            f"hi={pair.upper.upper_bound:.1f} quad={upper_q:.1f}",
        )
    res.check("two-sided-bound-sandwich", "config count", ">= 20 configurations",
              len(configs) >= 20, str(len(configs)))
    dt = time.monotonic() - start
    res.check("two-sided-bound-sandwich", "runtime", "under 5 min", dt < 300.0, f"{dt:.1f}s")


def _suite_mertens(res: SuiteResult, seed: int) -> None:
    t = shared_tables()
    ones = kind_shape("interval", {"x": 0, "y": 1})  # w = 1 on every prime
    for z in (1000.0, 10_000.0, 100_000.0):
        mv = mertens_products(z, ones.omega, ones.prime_set, t)
        drift = abs(mv.v_normalized() - 1.0)
        res.check(
            "mertens-normalized-drift",
            f"z={z:g}",
            "|V(z) log z e^gamma - 1| <= 0.05",
            drift <= 0.05,
            f"drift={drift:.5f}",
        )


def _suite_delay_grid(res: SuiteResult, seed: int) -> None:
    eg = math.exp(EULER_GAMMA)
    inner = integrate_adaptive(lambda u: math.log(u) / (1.0 + u), 1.0, 2.0, 1e-13)
    closed, tails = "delay-closed-forms", "delay-tail-limits"
    points = (  # (tag, which, s, target, tol, relation)
        (closed, "f", 3, 2 * eg * math.log(2) / 3, 1e-9, "matches 2 e^gamma log 2 / 3 to 1e-9"),
        (closed, "f", 4, 2 * eg * math.log(3) / 4, 1e-9, "matches 2 e^gamma log 3 / 4 to 1e-9"),
        ("delay-independent-quadrature", "F", 4, 0.5 * eg * (1.0 + inner), 1e-6,
         "matches independent quadrature to 1e-6"),
        (tails, "F", 15, 1, 1e-3, "|F(15) - 1| <= 1e-3"),
        (tails, "f", 15, 1, 1e-3, "|f(15) - 1| <= 1e-3"),
    )
    for tag, which, s, target, tol, relation in points:
        got = evaluate(s, which)
        res.check(tag, f"{which}({s})", relation, abs(got - target) <= tol,
                  f"{got!r} vs {target!r}")
    join = build_grid(30.0, 1e-4).join_error
    res.check("delay-join-continuity", "series f on (2, 4] against its closed form",
              "continuity defect <= 1e-6", join <= 1e-6, f"{join:.2e}")
    # the same recursion with half the terms per unit, at s = k/m, one unit of nodes at a time
    worst, m = 0.0, 10_000
    for j in range(3, UNITS):
        s = np.arange(j * m + 1, (j + 1) * m + 1) / m
        worst = max(worst, float(np.max(np.abs(curves(s) - curves(s, TERMS // 2)))))
    res.check("delay-step-stability", "half the series terms",
              f"values on (3, {UNITS}] stable to 1e-8", worst <= 1e-8, f"{worst:.2e}")


def _suite_fundamental_lemma(res: SuiteResult, seed: int) -> None:
    t = shared_tables()
    p = make_problem("interval", {"x": 0, "y": 1_000_000}, t)
    for row in fundamental_lemma_report(p, 10_000.0, [3.0, 4.0, 6.0, 8.0]):
        res.check(
            "fundamental-lemma-window",
            f"s={row.s:g} z={row.z:.2f}",
            "S / (X W) within [f(s) - 0.05, F(s) + 0.05]",
            row.lower_curve - 0.05 <= row.scaled <= row.upper_curve + 0.05,
            f"scaled={row.scaled:.4f} f={row.lower_curve:.4f} F={row.upper_curve:.4f}",
        )


def _check_signed_counts(res: SuiteResult, x: int, minus_s, plus_s, t: PrimeTables) -> None:
    for s in minus_s:
        v = S_pm_exact(x, s, -1, t)
        res.check("parity-minus-floor", f"minus x={x:g} s={s}", "count <= 2 below s = 2",
                  v <= 2, str(v))
    for s in plus_s:
        got = S_pm_exact(x, s, 1, t)
        ref = prime_pi(x, t) - prime_pi(x ** (1.0 / s), t)
        res.check("parity-plus-prime-count", f"plus x={x:g} s={s}",
                  "within 2 of pi(x) - pi(x^(1/s))", abs(got - ref) <= 2, f"{got} vs {ref}")


def _suite_parity(res: SuiteResult, seed: int) -> None:
    t = shared_tables()
    for x in (10**4, 10**5, 10**6):
        _check_signed_counts(res, x, (1.0, 1.5, 2.0), (1.5, 2.5, 3.0), t)
    for x in (100, 999, 5000, 10_000):
        for s in (1.5, 2.0, 2.5, 3.0, 4.0):
            for sign in (1, -1):
                lhs, rhs = recursion_check(x, s, sign, t)
                res.check(
                    "parity-recursion-exact",
                    f"recursion x={x} s={s} sign={sign:+d}",
                    "exact identity",
                    lhs == rhs,
                    f"{lhs} vs {rhs}",
                )
    x = 10**6
    err_unit = x / math.log(x) ** 2
    for s in (2.3, 2.5, 2.8):
        row = prediction_row(x, s, t)
        gap = abs(row.exact_minus - row.predict_minus)
        res.check(
            "parity-prediction-window",
            f"prediction x=1e6 s={s}",
            "minus count within 2.0 x / (log x)^2 of prediction",
            gap <= 2.0 * err_unit,
            f"gap={gap:.1f} unit={err_unit:.1f}",
        )
    ratio = row.exact_minus / row.predict_minus  # the last row, s = 2.8
    res.check(
        "parity-prediction-window",
        "prediction ratio x=1e6 s=2.8",
        "within [0.75, 1.25]",
        0.75 <= ratio <= 1.25,
        f"{ratio:.4f}",
    )


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
        "progression-upper-bound",
        f"pi(1e{round(math.log10(x))}; k, l) for k <= {k_max}",
        "<= 2x / (phi(k) log(x/k))", len(cases), bad,
    )


def _suite_brun_titchmarsh(res: SuiteResult, seed: int) -> None:
    _check_progressions(res, 1_000_000, 50, shared_tables())


def _suite_pair_bounds(res: SuiteResult, seed: int) -> None:
    t = shared_tables()
    small = twin_report(1000, 1, t)
    res.check("twin-bound-ratio", "twin exact x=1000", "count == 35", small.exact == 35,
              str(small.exact))
    for x in (10**4, 10**5, 10**6):
        rep = twin_report(x, 1, t)
        res.check(
            "twin-bound-ratio",
            f"twin x={x:g}",
            "bound >= exact",
            rep.bound >= rep.exact,
            f"bound={rep.bound:.1f} exact={rep.exact}",
        )
        if x == 10**6:
            res.check(
                "twin-bound-ratio",
                "twin ratio x=1e6",
                "bound/exact within [2.5, 4.5]",
                2.5 <= rep.ratio <= 4.5,
                f"{rep.ratio:.3f}",
            )
    g100 = goldbach_report(50, t)
    res.check("goldbach-bound-examples", "pair count 2N=100",
              "ordered representations == 12", g100.exact == 12, str(g100.exact))
    reps = [(n, goldbach_report(n, t)) for n in range(1000, 50_001, 1000)]
    bad = [f"2N={2 * n}: {r.bound:.1f} < {r.exact}" for n, r in reps if not r.bound >= r.exact]
    res.check_bulk("goldbach-bound-examples", "pair bound, 50 even sizes <= 1e5",
                   ">= exact count", len(reps), bad)


def _suite_weighted(res: SuiteResult, seed: int) -> None:
    t = shared_tables()
    l2 = lambda_r(2)
    thresholds = "almost-prime-threshold-values"
    res.check(
        thresholds,
        "Lambda_2",
        "equals 1.834043767146470 to 1e-9",
        abs(l2 - 1.834043767146470) <= 1e-9,
        f"{l2!r}",
    )
    res.check(thresholds, "Lambda_2 floor", ">= 11/6", l2 >= 11 / 6, f"{l2!r}")
    ok = all(r - 2 / 7 < lambda_r(r) < r - 1 / 7 for r in range(2, 13))
    res.check(thresholds, "Lambda_r bracket r=2..12", "r - 2/7 < Lambda_r < r - 1/7", ok, "")
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
        mi, mc = level_condition(cfg)
        worst = max(worst, abs(mi - mc))
        if min(abs(mi), abs(mc)) > 1e-9 and (mi > 0) != (mc > 0):
            sign_ok = False
        checked += 1
    res.check(
        "margin-form-agreement",
        "margin forms, 100 admissible configs",
        "integral and closed agree to 1e-6",
        worst <= 1e-6,
        f"worst={worst:.2e}",
    )
    res.check("margin-form-agreement", "margin signs, 100 admissible configs", "same sign",
              sign_ok, "disagreement")
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
            "weighted-sum-dominated",
            f"{p.label} r={cfg.r}",
            "weighted sum <= almost-prime count + square-factor count",
            w <= cap + sq + 1e-9,
            f"W={w:.2f} count={cap} squares={sq}",
        )


def _suite_chen(res: SuiteResult, seed: int) -> None:
    t = shared_tables()
    res.check("chen-frozen-example", "N=20 enumeration", "count == 6",
              chen_report(20, t).count == 6, "")
    for n in (10**4, 10**5, 2 * 10**5):
        rep = chen_report(n, t)
        res.check(
            "chen-count-floor",
            f"N={n:g}",
            "count >= 0.335 C2 (prod (p-1)/(p-2)) N / (log N)^2",
            rep.count >= rep.reference,
            f"count={rep.count} ref={rep.reference:.1f}",
        )


def _suite_bv(res: SuiteResult, seed: int) -> None:
    t = shared_tables()
    scan = bv_scan(1_000_000, 50, t)
    res.check(
        "progression-error-ceiling",
        "sum of E1(1e6, k), k <= 50",
        "<= 1e6 / log(1e6)",
        scan.total <= 1_000_000 / math.log(1_000_000),
        f"total={scan.total:.1f}",
    )
    e1 = dict(scan.rows)[1]
    direct = abs(prime_pi(1_000_000, t) - li_eval(1_000_000.0))
    res.check(
        "progression-error-ceiling",
        "k=1 row",
        ">= |pi(x) - Li(x)| at the endpoint",
        e1 >= direct - 1e-3,
        f"E1={e1:.2f} endpoint={direct:.2f}",
    )


def _suite_extended(res: SuiteResult, seed: int) -> None:
    """Spot checks rerun at ten times the quick-suite scale.

    Not part of 'all', because the larger factor tables take a while to
    build; ``verify --suite extended`` runs it.
    """
    t = build_tables(10_000_200)
    x = 10_000_000
    _check_legendre(res, [make_problem("interval", {"x": 0, "y": x}, t)], (11.0, 30.0))
    rep = twin_report(x, 1, t)
    res.check(
        "twin-bound-ratio",
        "twin x=1e7",
        "bound >= exact and bound/exact within [2.5, 4.5]",
        rep.bound >= rep.exact and 2.5 <= rep.ratio <= 4.5,
        f"ratio={rep.ratio:.3f}",
    )
    _check_progressions(res, x, 20, t)
    _check_signed_counts(res, x, (1.5, 2.0), (2.5,), t)


#: suite name -> runner; a runner records its checks on the result it is given
SUITES: dict[str, Callable[[SuiteResult, int], None]] = {
    "legendre-exactness": _suite_legendre,
    "selberg-validity": _suite_selberg_weights,
    "sieve-validity": _suite_sieve_validity,
    "bound-sandwich": _suite_bound_sandwich,
    "mertens-products": _suite_mertens,
    "delay-grid": _suite_delay_grid,
    "fundamental-lemma": _suite_fundamental_lemma,
    "parity-extremal": _suite_parity,
    "brun-titchmarsh": _suite_brun_titchmarsh,
    "pair-bounds": _suite_pair_bounds,
    "weighted-margins": _suite_weighted,
    "chen-almost-primes": _suite_chen,
    "progression-errors": _suite_bv,
    "extended": _suite_extended,
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


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    """Run one registered suite, or 'all' for every suite in order.

    seed feeds the sampled checks.
    """
    if name == "all":
        shared_tables()
        agg = SuiteResult("all")
        for sub in (run_suite(n, seed) for n in SUITES if n != "extended"):
            agg.cases += sub.cases
            agg.elapsed += sub.elapsed
            agg.invariants.update(sub.invariants)
            agg.failures += [(f"{sub.name}: {cid}", rel, obs) for cid, rel, obs in sub.failures]
        return agg
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choices: {', '.join(SUITES)}, all")
    res = SuiteResult(name)
    start = time.monotonic()
    SUITES[name](res, seed)
    res.elapsed = time.monotonic() - start
    return res
