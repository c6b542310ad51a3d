from __future__ import annotations

import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from exact_reference import previous_integrate_adaptive

from sievelab import weighted
from sievelab.arith import (
    MAX_QUAD_INTERVALS,
    MAX_TABLE_ENTRIES,
    _li_steps,
    build_tables,
    factor_columns,
    factorize,
    integrate_adaptive,
    li_eval,
    mult_stats,
    pi_ap,
    prime_pi,
)
from sievelab.errors import CapacityError, InputError


def _is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_primes_match_trial_division():
    t = build_tables(2_000)
    oracle = [n for n in range(2, 2_001) if _is_prime_trial(n)]
    assert t.primes.tolist() == oracle


def test_tables_compare_and_hash_by_limit():
    from sievelab.problem import make_problem

    a, b = build_tables(1_000), build_tables(1_000)
    a.mobius_table()  # a cache filled on one side only is not part of the value
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != build_tables(1_001) and a != a.limit
    # so problems built on distinct but equal tables compare equal too
    for kind in ("interval", "liouville_plus"):
        params = {"x": 10, "y": 50} if kind == "interval" else {"x": 500}
        assert make_problem(kind, params, a) == make_problem(kind, params, b), kind


def test_spf_is_smallest_prime_factor(tables_small):
    spf = tables_small.spf
    assert spf[1] == 1
    for n in range(2, 10_001):
        p = int(spf[n])
        assert n % p == 0
        assert _is_prime_trial(p) or n < 4
        # nothing smaller divides n
        for q in (2, 3, 5, 7):
            if q < p:
                assert n % q != 0


def test_factorize_reconstructs(tables_small):
    for n in range(1, 10_001):
        prod = 1
        for p, e in factorize(n, tables_small):
            prod *= p**e
        assert prod == n


def test_factor_columns_equal_factorize(tables_small):
    n = np.concatenate([np.arange(1, 10_001), np.arange(10_000, 0, -7), [1, 1, 4096, 9973]])
    got = [[] for _ in range(n.size)]
    for rows, q, e in factor_columns(n, tables_small):
        for row, qq, ee in zip(rows.tolist(), q.tolist(), e.tolist()):
            got[row].append((qq, ee))
    assert got == [factorize(int(v), tables_small) for v in n.tolist()]
    assert factor_columns(np.array([], dtype=np.int64), tables_small) == []
    with pytest.raises(CapacityError, match="member 10001 beyond table limit"):
        factor_columns(np.array([5, 10_001, 7]), tables_small)


def test_mult_stats_values(tables_small):
    s = mult_stats(60, tables_small)
    assert (s.mu, s.nu, s.big_omega, s.liouville, s.phi) == (0, 3, 4, 1, 16)
    one = mult_stats(1, tables_small)
    assert (one.mu, one.nu, one.big_omega, one.liouville, one.phi) == (1, 0, 0, 1, 1)


def test_mobius_divisor_sums_vanish(tables_mid):
    # sum of mu(d) over d | n is 1 at n=1 and 0 otherwise
    limit = 100_000
    mu = tables_mid.mobius_table()
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        m = int(mu[d])
        if m:
            acc[d::d] += m
    assert acc[1] == 1
    assert not acc[2:].any()


def test_tables_agree_with_mult_stats(tables_small):
    mu = tables_small.mobius_table()
    liou = tables_small.liouville_table()
    big = tables_small.big_omega_table()
    for n in range(1, 10_001, 7):
        s = mult_stats(n, tables_small)
        assert int(mu[n]) == s.mu
        assert int(liou[n]) == s.liouville
        assert int(big[n]) == s.big_omega


def _reference_spf_and_primes(limit):
    """The masked spf sieve the tables were built with before one store per prime:
    each prime stores itself only where no smaller prime has."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    idx = np.arange(limit + 1, dtype=np.int32)
    unset = spf == 0
    spf[unset] = idx[unset]
    primes = np.nonzero(spf == idx)[0].astype(np.int64)
    return spf, primes[primes >= 2]


def _reference_prime_factor_counts(limit, primes, powers):
    """The two passes Omega (powers) and nu were counted with before the
    recurrence: strided adds for the primes up to sqrt(limit), then the
    larger primes added by cofactor."""
    out = np.zeros(limit + 1, dtype=np.int16)
    split = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    for p in primes[:split].tolist():
        q = p
        while q <= limit:
            out[q::q] += 1
            q = q * p if powers else limit + 1
    large = primes[split:]
    for m in range(1, limit // (math.isqrt(limit) + 1) + 1):
        out[m * large[: np.searchsorted(large, limit // m, side="right")]] += 1
    return out


@pytest.mark.parametrize(
    "limit",
    # prime squares, then both sides of the 2^20 chunk and Omega block edges
    [2, 3, 48, 49, 50, 120, 121, 122, 10_200, 1_000_200, 2**20 - 1, 2**20, 2**20 + 1, 2**21 + 1],
)
def test_tables_equal_the_masked_sieve_and_two_pass_reference(limit):
    spf, primes = _reference_spf_and_primes(limit)
    big = _reference_prime_factor_counts(limit, primes, powers=True)
    nu = _reference_prime_factor_counts(limit, primes, powers=False)
    liou = np.where(big & 1, -1, 1).astype(np.int8)
    liou[0] = 0
    mu = np.where(nu == big, np.where(nu & 1, -1, 1), 0).astype(np.int8)
    mu[0] = 0
    t = build_tables(limit)
    got = {"mu": t.mobius_table(), "lambda": t.liouville_table(), "Omega": t.big_omega_table(),
           "L": t.liouville_summatory(), "spf": t.spf, "primes": t.primes}
    want = {"mu": mu, "lambda": liou, "Omega": big, "L": np.cumsum(liou, dtype=np.int32),
            "spf": spf, "primes": primes}
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype and np.array_equal(got[name], arr), (name, limit)
    assert not t.primes.flags.writeable


def _traced_peak(build) -> int:
    """Peak bytes traced while build() runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tables_build_without_full_size_temporaries():
    limit = 4_000_200
    entries = limit + 1
    assert _traced_peak(lambda: build_tables(limit)) <= 7 * entries
    t = build_tables(limit)  # fresh: no Omega, lambda or mu yet
    assert _traced_peak(lambda: (t.liouville_table(), t.mobius_table())) <= 6 * entries


def test_pi_ap_frozen_values(tables_small):
    assert pi_ap(100, 4, 1, tables_small) == 11
    assert pi_ap(100, 4, 3, tables_small) == 13
    assert pi_ap(100, 1, 0, tables_small) == 25


def test_pi_ap_classes_partition_primes(tables_small):
    # residue classes mod k partition the primes not dividing k
    for k in (3, 4, 10, 30):
        total = sum(pi_ap(10_000, k, l, tables_small) for l in range(k) if math.gcd(l, k) == 1)
        dividing = sum(1 for p in (2, 3, 5, 7) if k % p == 0 and _is_prime_trial(p))
        assert total == prime_pi(10_000, tables_small) - dividing


def test_li_against_fine_simpson():
    # independent oracle: composite Simpson on a fixed fine grid
    for x in (10.0, 1000.0):
        n = 200_000
        h = (x - 2.0) / n
        ts = 2.0 + h * np.arange(n + 1)
        vals = 1.0 / np.log(ts)
        oracle = h / 3.0 * (
            vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()
        )
        assert abs(li_eval(x) - oracle) <= 1e-9 * oracle


def test_li_frozen_and_vs_prime_count(tables_big):
    assert abs(li_eval(10) - 5.1204) < 1e-4
    assert li_eval(2) == 0.0
    assert abs(li_eval(10**6) - prime_pi(10**6, tables_big)) < 300


def test_integrate_adaptive_polynomial_exact():
    val = integrate_adaptive(lambda t: t**3 - 2 * t, 0.0, 2.0)
    assert abs(val - (4.0 - 4.0)) < 1e-12


def test_input_errors(tables_small):
    with pytest.raises(InputError):
        build_tables(1)
    with pytest.raises(CapacityError):
        build_tables(MAX_TABLE_ENTRIES)  # refused before it allocates
    with pytest.raises(InputError):
        li_eval(1.5)
    with pytest.raises(InputError):
        pi_ap(100, 0, 1, tables_small)
    with pytest.raises(CapacityError):
        mult_stats(10**7, tables_small)


_REACH_LIMIT = 1000  # even, so the goldbach and chen boundaries fall on it


def _reach_calls():
    """Every call that holds a read against the tables, called to read at n; the
    flag says whether a NaN n reaches the check."""
    from sievelab.arith import bv_scan
    from sievelab.parity import L_summatory, S_pm_exact, prediction_row, rough_signed_count
    from sievelab.problem import PrimeSet, make_problem, primes_below, sift_exact
    from sievelab.selberg import goldbach_report, twin_report
    from sievelab.weighted import chen_report, pr_count

    interval = lambda t: make_problem("interval", {"x": 0, "y": 100}, t)
    calls = [
        ("factorize", lambda t, n: factorize(n, t), True),
        ("prime_pi", lambda t, n: prime_pi(n, t), True),
        ("pi_ap", lambda t, n: pi_ap(n, 3, 1, t), True),
        # the need comes from integer parameters, so no NaN reaches it
        ("make_problem", lambda t, n: make_problem("liouville_plus", {"x": n}, t), False),
        ("primes_below", lambda t, n: primes_below(n + 1, PrimeSet(), t), True),
        ("sift_exact", lambda t, n: sift_exact(interval(t), n + 1), True),
        ("L_summatory", lambda t, n: L_summatory(n, t), True),
        ("rough_signed_count", lambda t, n: rough_signed_count(n, 2, 1, t), True),
        ("S_pm_exact", lambda t, n: S_pm_exact(n, 2, 1, t), True),
        ("prediction_row", lambda t, n: prediction_row(n, 2.5, t), True),
        # 2N and N below are even: the read past the limit is at limit + 2
        ("goldbach_report", lambda t, n: goldbach_report((n + 1) // 2, t), True),
        ("twin_report", lambda t, n: twin_report(n - 2, 1, t), True),
        ("chen_report", lambda t, n: chen_report(n + n % 2, t), True),
        # a one-member problem sifted at z = 1: its survivor is n itself
        ("pr_count", lambda t, n: pr_count(
            make_problem("interval", {"x": n - 1, "y": 1}, t), 1, 0.0, N=2), False),
        ("bv_scan x", lambda t, n: bv_scan(n, 1, t), True),
        ("bv_scan q_max", lambda t, n: bv_scan(100, n, t), True),
    ]
    return [pytest.param(call, takes_nan, id=name) for name, call, takes_nan in calls]


@pytest.mark.parametrize("call, takes_nan", _reach_calls())
def test_every_table_read_passes_at_the_limit_and_not_past_it(call, takes_nan):
    t = build_tables(_REACH_LIMIT)
    call(t, _REACH_LIMIT)
    with pytest.raises(CapacityError, match=f"beyond table limit {_REACH_LIMIT}"):
        call(t, _REACH_LIMIT + 1)
    if takes_nan:
        with pytest.raises(InputError):
            call(t, math.nan)


def test_reach_refuses_non_finite_reads():
    t = build_tables(100)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            t.reach(bad)
    with pytest.raises(CapacityError):
        t.reach(10**400)  # an int past any float still compares


@pytest.mark.parametrize("x", [-1, 0, 1, 1.5, 2, 1000, 999_983.5, 1_000_000, "limit"])
def test_pi_ap_counts_as_the_int64_remainder_did(tables_big, x):
    # pi_ap scans the primes (k = 1, 2 and 3 at every x >= 2) or reads the class's
    # strided spf entries (at x = 1e6 from k = 97, and wherever its least member passes x)
    x = tables_big.limit if x == "limit" else x
    ps = tables_big.primes[tables_big.primes <= x]
    for k in (1, 2, 3, 7, 10, 97, 210, 1000, 65_537, 999_983, tables_big.limit):
        for l in {0, 1, k, k + 1, k - 1, 5 % k, 2 * k + 1}:  # l = 0 and 1 mod k among them
            assert pi_ap(x, k, l, tables_big) == int(np.count_nonzero(ps % k == l % k)), (x, k, l)


def test_non_finite_simpson_estimate_ends_the_quadrature():
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="not finite"):
        integrate_adaptive(lambda u: 1.0 + u, 0, 1e300)
    with pytest.raises(CapacityError, match="not finite"):
        integrate_adaptive(lambda u: math.inf if u > 0.3 else 1.0, 0, 1)
    assert time.perf_counter() - start < 1.0
    assert integrate_adaptive(lambda u: 1.0 + u, 0, 1e150) == pytest.approx(5e299)


def test_a_quadrature_that_does_not_settle_is_refused_within_a_second():
    noise = random.Random(0)  # no refinement of noise ever agrees with the one before
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"quadrature intervals refined: {MAX_QUAD_INTERVALS + 1}"):
        integrate_adaptive(lambda u: noise.random(), 0.0, 1.0)
    assert time.perf_counter() - start < 1.0


def _both_quadratures(f, a, b, rel_tol):
    """The previous recursion and integrate_adaptive on f, each with the
    points it evaluated.  integrate_adaptive may call f 3 + 2n times where
    the previous recursion called it 3 + 6n times; one more call fails at
    once, so a kernel that stops converging fails instead of running on."""
    old_at, new_at = [], []
    old = previous_integrate_adaptive(lambda u: old_at.append(u) or f(u), a, b, rel_tol)
    budget = 3 + (len(old_at) - 3) // 3

    def counted(u):
        assert len(new_at) < budget, f"more than {budget} calls on [{a}, {b}]"
        new_at.append(u)
        return f(u)

    return integrate_adaptive(counted, a, b, rel_tol), old, new_at, old_at


#: the level_condition grid: gamma, alpha / gamma and the place of beta in
#: [max(1.05 alpha, 1/(r+1) + 0.001), 0.98 gamma], for r = 2, 3, 4
LEVEL_GAMMAS = (0.3, 0.45, 0.6, 0.75, 0.9)
LEVEL_ALPHA_SHARES = (0.25, 0.3, 0.375, 0.45, 0.5)
LEVEL_BETA_PLACES = (0.0, 1 / 3, 2 / 3, 1.0)

#: where li_eval is held to the previous recursion
LI_XS = (2.5, 3.0, 10.0, 97.5, 1e3, 1e4, 1e5, 1e6, 2e7)


def _level_integrands(monkeypatch) -> list[tuple]:
    """(f, a, b, rel_tol) of every level_condition quadrature over the grid."""
    seen = []

    def capture(f, a, b, rel_tol=1e-10):
        seen.append((f, a, b, rel_tol))
        return previous_integrate_adaptive(f, a, b, rel_tol)

    monkeypatch.setattr(weighted, "integrate_adaptive", capture)
    for r in (2, 3, 4):
        for g in LEVEL_GAMMAS:
            for share in LEVEL_ALPHA_SHARES:
                a = g * share
                lo, hi = max(1.05 * a, 1.0 / (r + 1) + 1e-3), 0.98 * g
                for place in LEVEL_BETA_PLACES if lo < hi else ():
                    b = lo + (hi - lo) * place
                    weighted.level_condition(weighted.WeightedConfig(10**6, r, a, b, g))
    return seen


def test_quadrature_equals_the_previous_recursion_with_a_third_of_the_calls(monkeypatch):
    # each refined interval evaluates f at its two quarter points only; the
    # values, and the order of the new points, are the previous recursion's
    inv_log = lambda u: 1.0 / math.log(u)  # noqa: E731
    ps = build_tables(10_000).primes.tolist()
    cases = _level_integrands(monkeypatch)
    assert len(cases) == 280
    cases += [(inv_log, float(a), float(b), 1e-12) for a, b in zip(ps, ps[1:])]
    cases += [(inv_log, 2.0, x, 1e-10) for x in LI_XS]
    for f, a, b, rel_tol in cases:
        new, old, new_at, old_at = _both_quadratures(f, a, b, rel_tol)
        assert new == old, (a, b)
        # 3 + 2 calls per refined interval, against 3 + 6
        assert len(old_at) - 3 == 3 * (len(new_at) - 3), (a, b)
        assert list(dict.fromkeys(old_at)) == new_at, (a, b)
    # the package's own callers: li_eval and the Li steps below 10^4
    assert [li_eval(x) for x in LI_XS] == [
        previous_integrate_adaptive(inv_log, 2.0, x) for x in LI_XS
    ]
    steps = _li_steps(np.array(ps))
    assert steps.tolist() == [
        previous_integrate_adaptive(inv_log, float(a), float(b), 1e-12) for a, b in zip(ps, ps[1:])
    ]


def test_quadrature_fails_where_the_previous_recursion_failed():
    def raises_inside(u):
        if 0.3 < u < 0.31:
            raise ZeroDivisionError(repr(u))
        return math.sin(20.0 * u)

    for f in (raises_inside, lambda u: math.inf if u > 0.3 else 1.0):
        errors = []
        for quad in (integrate_adaptive, previous_integrate_adaptive):
            with pytest.raises((ZeroDivisionError, CapacityError)) as info:
                quad(f, 0.0, 1.0, 1e-12)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
