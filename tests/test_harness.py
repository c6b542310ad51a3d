import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from exact_reference import li_at_primes, reference_bv_scan

from sievelab import arith
from sievelab.arith import (
    _BV_SCAN_K_COST,
    BV_SCAN_MAX_WORK,
    build_tables,
    bv_scan,
    li_eval,
    mult_stats,
    pi_ap,
    prime_pi,
)
from sievelab.errors import CapacityError, InputError
from sievelab.harness import (
    ACCEPTANCE_SUITES,
    SUITES,
    SuiteResult,
    _mu_plus_divisor_sums,
    _progression_cases,
    run_suite,
)

#: the package invariants; each is observed, with at least one case, in
#: exactly one quick suite (the extended suite reruns some of them)
INVARIANTS = (
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


def test_coverage_registry_is_one_to_one():
    assert sorted(ACCEPTANCE_SUITES) == list(range(1, 13))
    assert len(set(ACCEPTANCE_SUITES.values())) == 12
    for name in ACCEPTANCE_SUITES.values():
        assert name in SUITES


def test_suite_result_bookkeeping():
    r = SuiteResult("demo")
    assert r.passed
    r.check("t", "a", "x == y", True, "fine")
    assert r.cases == 1 and r.passed
    r.check("u", "b", "x <= y", False, "3 vs 2")
    assert r.cases == 2 and not r.passed
    assert r.failures == [("b", "x <= y", "3 vs 2")]
    r2 = SuiteResult("bulk")
    r2.check_bulk("t", "scan", ">= 0", 50, [])
    assert r2.cases == 50 and r2.passed
    r2.check_bulk("t", "scan2", ">= 0", 10, ["n=4", "n=9"])
    assert r2.cases == 60 and len(r2.failures) == 1
    assert "2 violations" in r2.failures[0][2]
    r2.check("u", "c", "x == y", True)
    assert r.invariants == {"t": 1, "u": 1} and r2.invariants == {"t": 60, "u": 1}


def test_unknown_suite_rejected():
    with pytest.raises(InputError, match="unknown suite"):
        run_suite("no-such-suite")


def test_quick_suites_pass():
    for name in ("mertens-products", "delay-grid"):
        r = run_suite(name)
        assert r.passed, r.failures
        assert r.cases > 0
        assert r.elapsed >= 0.0
    assert run_suite("mertens-products").cases == 3


def test_all_aggregates_and_passes():
    r = run_suite("all")
    assert r.passed, r.failures[:5]
    assert r.name == "all"
    assert r.cases > 130_000
    assert r.elapsed > 0.0
    assert sorted(r.invariants) == sorted(INVARIANTS)
    assert sum(r.invariants.values()) == r.cases


#: each quick suite's number of cases; a fold of shared checks keeps them all
SUITE_CASES = {
    "legendre-exactness": 43,
    "selberg-validity": 80,
    "sieve-validity": 136_498,
    "bound-sandwich": 22,
    "mertens-products": 3,
    "delay-grid": 7,
    "fundamental-lemma": 4,
    "parity-extremal": 62,
    "brun-titchmarsh": 774,
    "pair-bounds": 56,
    "weighted-margins": 8,
    "chen-almost-primes": 4,
    "progression-errors": 2,
}


def test_each_suite_keeps_its_case_count():
    assert list(SUITE_CASES) == [n for n in SUITES if n != "extended"]
    runs = [run_suite(name) for name in SUITE_CASES]
    # each invariant in exactly one quick suite, and no tag outside the list
    assert Counter(tag for r in runs for tag in r.invariants) == Counter(INVARIANTS)
    assert all(n >= 1 for r in runs for n in r.invariants.values())
    assert {r.name: r.cases for r in runs} == SUITE_CASES
    assert sum(SUITE_CASES.values()) == 137_563


@pytest.mark.parametrize("seed", [57, 146])
def test_weighted_margins_pass_at_once_failing_seeds(seed):
    # a 1e-8 quadrature tolerance put the two margin forms 1.1e-6 and
    # 3.8e-5 apart at these seeds, against the suite's 1e-6
    assert run_suite("weighted-margins", seed).passed


def test_bv_scan_matches_direct_recomputation(tables_small):
    x = 3000
    scan = bv_scan(x, 4, tables_small)
    assert [k for k, _ in scan.rows] == [1, 2, 3, 4]
    assert scan.total == pytest.approx(math.fsum(e for _, e in scan.rows), abs=1e-12)
    ps = [int(p) for p in tables_small.primes if p <= x]
    li = [li_eval(float(p)) for p in ps]
    li_x = li_eval(float(x))
    got = dict(scan.rows)
    for k, phi in ((1, 1), (3, 2), (4, 2)):
        best = 0.0
        residues = [l for l in range(k) if math.gcd(l, k) == 1] or [0]
        for l in residues:
            c = 0
            for p, li_p in zip(ps, li):
                before = abs(c - li_p / phi)
                if p % k == l % k:
                    c += 1
                after = abs(c - li_p / phi)
                best = max(best, before, after)
            best = max(best, abs(c - li_x / phi))
        assert got[k] == pytest.approx(best, abs=1e-7)


def test_bv_scan_k1_tracks_prime_count_error(tables_small):
    scan = bv_scan(10_000, 1, tables_small)
    endpoint = abs(prime_pi(10_000, tables_small) - li_eval(10_000.0))
    assert scan.rows[0][1] >= endpoint - 1e-6


def _cumsum_scan(x, q_max, tables):
    """Reference scan: one cumulative count over all primes per residue class."""
    ps = tables.primes[tables.primes <= x]
    li, li_x = li_at_primes(ps, x)
    rows = []
    for k in range(1, q_max + 1):
        phi = mult_stats(k, tables).phi
        target = li / phi
        end = li_x / phi
        best = 0.0
        residues = [l for l in range(k) if math.gcd(l, k) == 1] or [0]
        rem = ps % k if k > 1 else None
        for l in residues:
            mask = (rem == l) if k > 1 else np.ones(ps.size, dtype=bool)
            c = np.cumsum(mask)
            after = float(np.max(np.abs(c - target)))
            before = float(np.max(np.abs((c - mask) - target)))
            tail = abs(float(c[-1]) - end)
            best = max(best, after, before, tail)
        rows.append((k, best))
    return rows, math.fsum(e for _, e in rows)


@pytest.mark.parametrize("x", [2, 97, 10_000, 200_000])
def test_bv_scan_equals_cumsum_reference(x, tables_mid):
    # q = 60 > x = 2 leaves coprime classes without primes, as does k = 3
    # at x = 2 (only 2 = 2 mod 3); k = 1 is the whole prime count
    scan = bv_scan(x, 60, tables_mid)
    rows, total = _cumsum_scan(x, 60, tables_mid)
    assert scan.rows == rows
    assert all(type(e) is float for _, e in scan.rows)
    assert scan.total == total


def _sort_scan(x, q_max, tables):
    """Reference scan: the int16/int64 argsort kernel with both absolute values."""
    n = int(np.searchsorted(tables.primes, x, side="right"))
    ps = tables.primes[:n]
    li, li_x = li_at_primes(ps, x)
    rem_type = np.int16 if q_max <= np.iinfo(np.int16).max else np.int64
    rows = []
    for k in range(1, q_max + 1):
        phi = mult_stats(k, tables).phi
        target, end = li / phi, li_x / phi
        rem = (ps % k).astype(rem_type)
        order = np.argsort(rem, kind="stable")
        coprime = np.gcd(rem[order], k) == 1
        pos, cls = order[coprime], rem[order][coprime]
        starts = np.flatnonzero(np.diff(cls, prepend=-1))
        counts = np.diff(starts, append=pos.size)
        j = np.arange(1, pos.size + 1) - np.repeat(starts, counts)
        at = target[pos]
        jumps = np.maximum(np.abs(j - at), np.abs((j - 1) - at))
        run = np.maximum(np.maximum.reduceat(jumps, starts), np.abs(counts - target[-1]))
        peak = np.maximum(run, np.abs(counts - end))
        best = float(np.max(peak, initial=0.0))
        if starts.size < phi:
            best = max(best, float(end))
        rows.append((k, best))
    return rows, math.fsum(e for _, e in rows)


@pytest.mark.parametrize("x", [2, 3, 97, 12_345, 200_000])
@pytest.mark.parametrize("q_max", [1, 50, 255, 256, 257, 300])
def test_bv_scan_equals_sort_reference(x, q_max, tables_mid):
    # uint8 residues up to q_max = 256 and uint16 past it; small x leaves
    # coprime classes without primes
    scan = bv_scan(x, q_max, tables_mid)
    rows, total = _sort_scan(x, q_max, tables_mid)
    assert scan.rows == rows
    assert scan.total == total


#: x = 2 and 3 leave the class 2 mod k holding only p = 2; q_max = 2 is the
#: k = 2 row from k = 1; past 256 the residues are uint16.  pi(x) is 159, 160
#: and 161 at x = 937, 941 and 947, and 1,599, 1,600 and 1,601 at 13,487,
#: 13,499 and 13,513: a multiple of 16, the longest run, and one off it
BV_XS = [2, 3, 10, 97, 1000, 999_900, 10**6] + random.Random(0).sample(range(4, 200_000), 3) + [
    937, 941, 947, 13_487, 13_499, 13_513]
BV_QS = [1, 2, 3, 6, 7, 50, 100, 257, 300]


@pytest.mark.parametrize("x", BV_XS)
def test_bv_scan_equals_the_per_modulus_scan(x, tables_big):
    # a reference row depends on k alone, so one scan to 300 serves every q_max
    rows = reference_bv_scan(x, max(BV_QS), tables_big).rows
    for q_max in BV_QS:
        scan = bv_scan(x, q_max, tables_big)
        assert scan.rows == rows[:q_max], q_max
        assert scan.total == math.fsum(e for _, e in rows[:q_max]), q_max


def test_bv_scan_equals_the_per_modulus_scan_at_q_max_1000(tables_big):
    # past k = 256 the residues are uint16, and at x = 1e5 most classes hold
    # fewer than 64 jumps, so their runs are shorter than 16
    scan = bv_scan(10**5, 1000, tables_big)
    ref = reference_bv_scan(10**5, 1000, tables_big)
    assert scan.rows == ref.rows
    assert scan.total == ref.total


def test_li_column_equals_li_at_primes_on_every_prefix(monkeypatch):
    # grown, read again below its end and grown again, in the order scans ask
    t = build_tables(300_000)
    xs = [1000, 97, 2, 100_003, 12_345, 299_999, 299_993, 300_000]
    want = [li_at_primes(t.primes[: prime_pi(x, t)], x)[0] for x in xs]
    calls = []
    steps = arith._li_steps
    monkeypatch.setattr(arith, "_li_steps", lambda ps: calls.append(ps.size) or steps(ps))
    for x, li in zip(xs, want):
        got = t.li_column(li.size)
        assert not got.flags.writeable
        assert got.tobytes() == li.tobytes(), x
    # each step between consecutive primes is integrated once: 1 + pi(300000) - 1
    assert sum(calls) - len(calls) == prime_pi(300_000, t) - 1
    assert t.li_column(0).size == 0
    with pytest.raises(CapacityError, match="past the cap of 25997"):
        t.li_column(25_998)
    for n in (-1, 2.5, math.nan):
        with pytest.raises(InputError):
            t.li_column(n)


def test_scans_read_the_li_column_without_rebuilding_it(monkeypatch):
    t = build_tables(10**6)
    calls = []
    steps = arith._li_steps
    monkeypatch.setattr(arith, "_li_steps", lambda ps: calls.append(ps.size) or steps(ps))
    # a scan well below the table limit pays for its own primes only
    first = bv_scan(10**4, 20, t)
    assert calls == [prime_pi(10**4, t)]
    # a second scan, at the same x or below, integrates nothing
    assert bv_scan(10**4, 20, t) == first
    bv_scan(5_000, 20, t)
    assert calls == [prime_pi(10**4, t)]
    # a scan further up integrates only the steps past the column's end
    bv_scan(20_000, 20, t)
    assert calls == [prime_pi(10**4, t), prime_pi(20_000, t) - prime_pi(10**4, t) + 1]


def test_bv_scan_cap_keeps_residues_in_uint16():
    # the cap admits q_max moduli only if q_max * (1 + _BV_SCAN_K_COST) <= BV_SCAN_MAX_WORK
    assert BV_SCAN_MAX_WORK // (1 + _BV_SCAN_K_COST) < 2**16


def test_bv_scan_rejects_bad_ranges(tables_small):
    with pytest.raises(InputError):
        bv_scan(1, 5, tables_small)
    with pytest.raises(InputError):
        bv_scan(100, 0, tables_small)
    with pytest.raises(CapacityError):
        bv_scan(20_000, 5, tables_small)
    with pytest.raises(CapacityError, match="table limit"):
        bv_scan(100, 20_000, tables_small)


def test_bv_scan_work_cap(tables_mid):
    # 17,984 primes to 2e5 over 10^4 moduli is past the cap
    refused = "scan work of 10000 moduli .* past the cap of 100000000$"
    with pytest.raises(CapacityError, match=refused):
        bv_scan(200_000, 10_000, tables_mid)


def test_mu_plus_int_sums_equal_fraction_loop(tables_big):
    # the sieve-validity weights: w = 1 on all primes, xi = 30, z = 20
    from sievelab.problem import MultiplicativeDensity, PrimeSet
    from sievelab.selberg import lambda_weights, mu_plus

    ones = MultiplicativeDensity(lambda p: Fraction(1), "w = 1")
    values = mu_plus(lambda_weights(30.0, 20.0, ones, PrimeSet("all"), tables_big)).values
    n_max = 100_000
    ref = [Fraction(0)] * (n_max + 1)
    for d, v in values.items():
        for m in range(d, n_max + 1, d):
            ref[m] += v
    sums, den = _mu_plus_divisor_sums(values, n_max)
    assert sums.dtype == np.int64
    assert all(Fraction(int(sums[n]), den) == ref[n] for n in range(n_max + 1))


def test_mu_plus_int_sums_refuse_int64_overflow():
    # each scaled term fits int64, but sums[2] would wrap: refused before any add
    with pytest.raises(CapacityError):
        _mu_plus_divisor_sums({1: Fraction(2**62), 2: Fraction(2**62)}, 10)
    sums, _ = _mu_plus_divisor_sums({1: Fraction(2**62), 2: Fraction(2**62 - 1)}, 2)
    assert int(sums[2]) == 2**63 - 1
    sums, den = _mu_plus_divisor_sums({1: Fraction(1), 2: Fraction(-1, 3)}, 6)
    assert den == 3 and sums.tolist() == [0, 3, 2, 3, 2, 3, 2]


def test_progression_counts_equal_pi_ap(tables_big):
    cases = list(_progression_cases(1_000_000, 50, tables_big))
    assert len(cases) == 774
    for k, l, got, ceiling in cases:
        assert got == pi_ap(1_000_000, k, l, tables_big), (k, l)
        assert ceiling == 2.0 * 1_000_000 / (mult_stats(k, tables_big).phi * math.log(1_000_000 / k))
    assert {(k, l) for k, l, _, _ in cases if k <= 4} == {(1, 0), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3)}


@pytest.mark.parametrize("x, q_max", [(10**6, 50), (10**7, 20)])
def test_bv_scan_transient_per_prime(x, q_max):
    # bv_scan in progression-errors sets the peak of verify --suite all; its
    # traced transient (53.9 and 53.1 bytes per prime when this bound was set,
    # from the in-place per-modulus loop; the Li values' set-up holds 40)
    # stays at most 56 bytes per prime up to x
    t = build_tables(x + 1)
    tracemalloc.start()
    try:
        bv_scan(x, q_max, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * prime_pi(x, t)


@pytest.mark.parametrize("x, q_max", [(10**6, 50), (10**7, 20)])
def test_bv_scan_loop_transient_per_prime_with_the_li_column_built(x, q_max):
    # with Li(p) already on the tables, the scan holds its uint32 primes and
    # one modulus's residues, order and run columns at a time: at most 28
    # bytes per prime up to x
    t = build_tables(x + 1)
    t.li_column(prime_pi(x, t))
    tracemalloc.start()
    try:
        bv_scan(x, q_max, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * prime_pi(x, t)
