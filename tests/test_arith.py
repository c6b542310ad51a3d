from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievelab.arith import (
    MAX_TABLE_ENTRIES,
    build_tables,
    factorize,
    integrate_adaptive,
    li_eval,
    mult_stats,
    pi_ap,
    prime_pi,
    squarefree_primes,
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


def _reference_omega_and_mobius(t):
    """The per-prime slice loops the tables were built with before the two-pass rewrite."""
    big = np.zeros(t.limit + 1, dtype=np.int16)
    nu = np.zeros(t.limit + 1, dtype=np.int16)
    squarefree = np.ones(t.limit + 1, dtype=bool)
    for p in t.primes:
        q = int(p)
        nu[q::q] += 1
        while q <= t.limit:
            big[q::q] += 1
            q *= int(p)
        if int(p) * int(p) <= t.limit:
            squarefree[int(p) * int(p) :: int(p) * int(p)] = False
    mu = np.where(squarefree, np.where(nu & 1, -1, 1), 0).astype(np.int8)
    mu[0] = 0
    return big, mu


@pytest.mark.parametrize("limit", [2, 3, 48, 49, 50, 120, 121, 122, 10_200, 1_000_200])
def test_omega_and_mobius_equal_slice_reference(limit):
    # limits on and around prime squares move primes across the sqrt(limit) split
    t = build_tables(limit)
    big, mu = _reference_omega_and_mobius(t)
    assert t.big_omega_table().dtype == np.int16 and t.mobius_table().dtype == np.int8
    assert np.array_equal(t.big_omega_table(), big)
    assert np.array_equal(t.mobius_table(), mu)


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


def _trial_primes(n: int) -> list[int]:
    """Prime factors of n with multiplicity, by trial division."""
    out, f = [], 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    return out + [n] if n > 1 else out


# tables_small has limit 1e4, so most draws take the trial-division branch
@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=1, max_value=10**8))
def test_squarefree_primes_against_trial_division(tables_small, n):
    want = _trial_primes(n)
    if len(set(want)) < len(want):
        with pytest.raises(InputError, match="not squarefree"):
            squarefree_primes(n, tables_small)
    else:
        assert squarefree_primes(n, tables_small) == want


def test_squarefree_primes_domain(tables_small):
    assert squarefree_primes(1, tables_small) == []
    assert squarefree_primes(9973 * 10007, tables_small) == [9973, 10007]
    for bad in (0, -6):
        with pytest.raises(InputError):
            squarefree_primes(bad, tables_small)
    with pytest.raises(InputError):
        squarefree_primes(4 * 10007, tables_small)
    # a cofactor above limit^2 cannot be certified prime by the table primes
    with pytest.raises(CapacityError):
        squarefree_primes(10007 * 10009, tables_small)


_REACH_LIMIT = 1000  # even, so the goldbach and chen boundaries fall on it


def _root_prime(n):
    """The smallest prime m with isqrt(m) == n (NaN passes through)."""
    if n != n:
        return n
    return next(m for m in range(n * n, (n + 1) ** 2) if _is_prime_trial(m))


def _reach_calls():
    """Every call that holds a read against the tables, called to read at n; the
    flag says whether a NaN n reaches the check."""
    from sievelab.buchstab import build_grid
    from sievelab.harness import bv_scan
    from sievelab.parity import L_summatory, S_pm_exact, prediction_row, rough_signed_count
    from sievelab.problem import PrimeSet, make_problem, primes_below, sift_exact
    from sievelab.selberg import goldbach_report, twin_report
    from sievelab.weighted import chen_report, pr_count

    grid = build_grid(6, 1e-3)
    interval = lambda t: make_problem("interval", {"x": 0, "y": 100}, t)
    calls = [
        ("factorize", lambda t, n: factorize(n, t), True),
        ("squarefree_primes", lambda t, n: squarefree_primes(_root_prime(n), t), True),
        ("prime_pi", lambda t, n: prime_pi(n, t), True),
        ("pi_ap", lambda t, n: pi_ap(n, 3, 1, t), True),
        # the need comes from integer parameters, so no NaN reaches it
        ("make_problem", lambda t, n: make_problem("liouville_plus", {"x": n}, t), False),
        ("primes_below", lambda t, n: primes_below(n + 1, PrimeSet(), t), True),
        ("sift_exact", lambda t, n: sift_exact(interval(t), n + 1), True),
        ("L_summatory", lambda t, n: L_summatory(n, t), True),
        ("rough_signed_count", lambda t, n: rough_signed_count(n, 2, 1, t), True),
        ("S_pm_exact", lambda t, n: S_pm_exact(n, 2, 1, t), True),
        ("prediction_row", lambda t, n: prediction_row(n, 2.5, grid, t), True),
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


@pytest.mark.parametrize("x", [1, 2, 1000, 999_983.5, 1_000_000])
def test_pi_ap_counts_as_the_int64_remainder_did(tables_big, x):
    ps = tables_big.primes[tables_big.primes <= x]
    for k in (1, 2, 3, 7, 10, 97, 210, 1000, 65_537, 999_983):
        for l in {1, k - 1, 5 % k, 2 * k + 1}:
            assert pi_ap(x, k, l, tables_big) == int(np.count_nonzero(ps % k == l % k)), (x, k, l)


def test_non_finite_simpson_estimate_ends_the_quadrature():
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="not finite"):
        integrate_adaptive(lambda u: 1.0 + u, 0, 1e300)
    with pytest.raises(CapacityError, match="not finite"):
        integrate_adaptive(lambda u: math.inf if u > 0.3 else 1.0, 0, 1)
    assert time.perf_counter() - start < 1.0
    assert integrate_adaptive(lambda u: 1.0 + u, 0, 1e150) == pytest.approx(5e299)
