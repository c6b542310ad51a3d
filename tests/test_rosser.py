from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import combinations

import pytest
from exact_reference import mobius_close
from hypothesis import given, settings, strategies as st
from oracle import chain, support

import sievelab.problem as problem
import sievelab.rosser as rosser
from sievelab.buchstab import evaluate
from sievelab.errors import CapacityError, InputError
from sievelab.legendre import problem_W
from sievelab.problem import PrimeSet, divisor_walk, make_problem, sift_exact
from sievelab.rosser import (
    chain_divisor_sums,
    combinatorial_bounds,
    fundamental_lemma_report,
    truncated_mobius_sum,
)
from sievelab.selberg import fundamental_upper_bound


def test_frozen_small_sums(tables_small, oracle):
    p = make_problem("interval", {"x": 0, "y": 1000}, tables_small)
    for z, sign, want in ((6, 1, Fraction(1, 3)), (6, -1, Fraction(7, 30)), (5, 1, Fraction(1, 3))):
        exact, scale = oracle.mobius_exact(p, 100, z, sign)
        assert exact == want
        assert mobius_close(truncated_mobius_sum(p, 100, z, sign), exact, scale), (z, sign)


def _in_factor_walk(facs, y: float, sign: int) -> bool:
    """Whether the chain walk over d's own prime factors reaches d."""
    desc = sorted(facs, reverse=True)
    walk = divisor_walk(None, desc, rosser._chain_admit(y, sign), dict.fromkeys(desc, -1))
    return math.prod(facs) in set(walk.d.tolist())


def test_membership_examples(tables_small):
    assert _in_factor_walk([], 100, 1) and _in_factor_walk([], 100, -1)
    assert _in_factor_walk([2, 3], 100, 1) and _in_factor_walk([2, 3], 100, -1)
    # 5^3 = 125 blocks the first checked position upstairs but not down
    assert not _in_factor_walk([5], 100, 1)
    assert _in_factor_walk([5], 100, -1)
    # 5 * 3^3 = 135 blocks position two of the lower support
    assert not _in_factor_walk([3, 5], 100, -1)
    assert not _in_factor_walk([3, 5], 100, 1)  # 5^3 already too big
    with pytest.raises(InputError):
        rosser._chain_admit(100, 0)


def _mu_support(primes, y: float, sign: int) -> dict[int, int]:
    """mu(d) for each d of the oracle's chain support over primes, largest first."""
    desc = sorted(primes, reverse=True)
    return {d: mu for d, _, mu, _, _ in support(desc, chain(y, sign), dict.fromkeys(desc, -1))}


@pytest.mark.parametrize("y", [100.0, 1000.0])
@pytest.mark.parametrize("sign", [1, -1])
def test_pruned_walk_matches_exhaustive(tables_small, y, sign):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    want = _mu_support(primes, y, sign)
    p = make_problem("interval", {"x": 0, "y": 1000}, tables_small)
    # with factors -1 the carried product is mu(d)
    walk = divisor_walk(None, primes[::-1], rosser._chain_admit(y, sign), dict.fromkeys(primes, -1))
    walked = dict(zip(walk.d.tolist(), walk.v.tolist()))
    assert walked == want and walk.d.size == len(want)  # each node once
    assert all(d < y for d in want)  # so combinatorial_bounds needs no d < y filter
    expect = sum(Fraction(mu, d) for d, mu in want.items())
    scale = sum(Fraction(1, d) for d in want)
    assert mobius_close(truncated_mobius_sum(p, y, 30, sign), expect, scale)


def test_divisor_sums_bracket_unit_indicator(tables_small):
    mob = tables_small.mobius_table()
    for y in (100.0, 1000.0):
        lo, hi = (chain_divisor_sums(1999, y, s, tables_small) for s in (-1, 1))
        for m in range(1, 2000):
            if mob[m] == 0:
                continue
            assert lo[m] <= int(m == 1) <= hi[m], (m, y)
        assert lo[1] == hi[1] == 1


SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@PROPS
@given(
    st.lists(st.sampled_from(SMALL_PRIMES), unique=True, max_size=9),
    st.floats(min_value=2.0, max_value=1e7),
    st.sampled_from([1, -1]),
)
def test_factor_walk_is_membership_in_walked_support(primes, y, sign):
    desc = sorted(primes, reverse=True)
    walk = divisor_walk(None, desc, rosser._chain_admit(y, sign), dict.fromkeys(desc, -1))
    walked = set(walk.d.tolist())
    assert walked == set(_mu_support(primes, y, sign)) and walk.d.size == len(walked)
    # membership of d depends on d's own factors only
    for r in range(len(primes) + 1):
        for sub in combinations(primes, r):
            assert _in_factor_walk(sub, y, sign) == (math.prod(sub) in walked), (sub, y, sign)


@PROPS
@given(
    st.lists(st.sampled_from(SMALL_PRIMES), unique=True, max_size=9),
    st.floats(min_value=2.0, max_value=1e7),
)
def test_sandwich_values_equal_bitmask_loop(primes, y):
    # the chain walk over m's primes sums the truncated mu over m's divisors
    desc = sorted(primes, reverse=True)
    mu = dict.fromkeys(desc, -1)  # the walk's carried product is then mu(d)
    lo, hi = (int(divisor_walk(None, desc, rosser._chain_admit(y, s), mu).v.sum()) for s in (-1, 1))
    assert (lo, hi) == tuple(sum(_mu_support(primes, y, s).values()) for s in (-1, 1))


def test_two_sided_bounds_trap_exact(tables_mid):
    configs = [
        (make_problem("interval", {"x": 0, "y": 100_000}, tables_mid), 10_000.0, 50.0),
        (make_problem("interval", {"x": 5000, "y": 60_000}, tables_mid), 1000.0, 20.0),
        (make_problem("arithmetic_progression", {"x": 100_000, "k": 7, "l": 3}, tables_mid), 5000.0, 30.0),
        (make_problem("goldbach_product", {"two_N": 10_000}, tables_mid), 2000.0, 25.0),
        (make_problem("square_plus_one", {"x": 20_000}, tables_mid), 1000.0, 15.0),
        (make_problem("liouville_plus", {"x": 50_000}, tables_mid), 3000.0, 40.0),
    ]
    for p, y, z in configs:
        bp = combinatorial_bounds(p, y, z)
        exact = bp.upper.exact_count
        assert exact is not None
        assert bp.lower.lower_bound <= exact <= bp.upper.upper_bound, p.label
        assert bp.upper.s == pytest.approx(math.log(y) / math.log(z))
        assert "X*W(z)" in bp.upper.notes


def test_upper_main_term_tracks_limit_curve(tables_mid):
    p = make_problem("interval", {"x": 0, "y": 1000}, tables_mid)
    # the gap to the limit curve closes like a fractional power of 1/log y,
    # slow enough that 1e6 still sits ~12% out; 1e8 gets under 10%
    for y, tol in ((1e6, 0.15), (1e8, 0.10)):
        for s in (2.0, 3.0):
            z = y ** (1.0 / s)
            m = truncated_mobius_sum(p, y, z, 1)
            w = problem_W(p, z).W
            curve = evaluate(s, "F")
            assert m / w <= curve
            assert abs(m / w - curve) / curve <= tol, (y, s)
            mlo = truncated_mobius_sum(p, y, z, -1)
            assert mlo / w >= evaluate(s, "f")


def test_scaled_counts_between_limit_curves(tables_big):
    p = make_problem("interval", {"x": 0, "y": 1_000_000}, tables_big)
    rows = fundamental_lemma_report(p, 10_000.0, [3.0, 4.0, 6.0, 8.0])
    for row in rows:
        assert row.lower_curve - 0.05 <= row.scaled <= row.upper_curve + 0.05, row
    assert [round(r.z) for r in rows] == [22, 10, 5, 3]


def test_validation_and_capacity(tables_small, monkeypatch):
    p = make_problem("interval", {"x": 0, "y": 1000}, tables_small)
    with pytest.raises(InputError):
        combinatorial_bounds(p, 10.0, 50.0)
    with pytest.raises(InputError):
        truncated_mobius_sum(p, 1.0, 5.0, 1)
    with pytest.raises(InputError, match="sign"):
        truncated_mobius_sum(p, 100.0, 5.0, 0)
    monkeypatch.setattr(problem, "MAX_CHAIN_NODES", 5)
    with pytest.raises(CapacityError):
        truncated_mobius_sum(p, 1000.0, 30.0, -1)


# 945 = 7 * 5 * 3^3 and 189 = 7 * 3^3 sit on the step rule's boundary
@pytest.mark.parametrize(
    "y,z", [(100.0, 10.0), (189.0, 10.0), (945.0, 10.0), (3_000.0, 25.0), (20_000.0, 40.0)]
)
def test_bounds_equal_per_node_reference(kind_problems, oracle, y, z):
    for p in kind_problems:
        bp = combinatorial_bounds(p, y, z, with_exact=False)
        (up, up_rem), (lo, lo_rem) = (oracle.chain_sums(p, y, z, sign) for sign in (1, -1))
        got = [bp.upper.upper_bound, bp.lower.lower_bound]
        assert got == [up + up_rem, lo - lo_rem], (p.kind, y, z)


# z <= 2: no sieve prime, the sum is 1; y <= 8: the upper support is d = 1 alone;
# ``exact`` also holds the float to the two exact references
@pytest.mark.parametrize(
    "y,z,exact",
    [(1e4, 50.0, True), (1e6, 100.0, True), (1e6, 100.0, False), (1e6, 1000.0, False),
     (1e4, 2.0, True), (1e4, 1.5, False), (8.0, 50.0, True), (5.0, 100.0, False)],
)
def test_mobius_sum_equals_per_node_reference(kind_problems, oracle, y, z, exact):
    quad = next(p for p in kind_problems if p.kind == "square_plus_one")
    # w(p) = 0 for p = 3 mod 4: with every prime offered, those primes must drop out
    every_prime = dataclasses.replace(quad, prime_set=PrimeSet("all"))
    for p in [*kind_problems, every_prime]:
        for sign in (1, -1):
            got = truncated_mobius_sum(p, y, z, sign)
            assert got == oracle.mobius(p, y, z, sign), (p.kind, y, z, sign)
            assert isinstance(got, float)
            if exact:
                assert mobius_close(got, *oracle.mobius_exact(p, y, z, sign)), (p.kind, y, z, sign)
            if z <= 2 or (y <= 8 and sign == 1):
                assert got == 1
    assert truncated_mobius_sum(every_prime, 1e4, 50.0, 1) == truncated_mobius_sum(
        quad, 1e4, 50.0, 1
    )


def test_chain_cap_fires_past_its_size(tables_small, monkeypatch):
    p = make_problem("interval", {"x": 0, "y": 1000}, tables_small)
    size = len(support([29, 23, 19, 17, 13, 11, 7, 5, 3, 2], chain(1000.0, -1)))
    monkeypatch.setattr(problem, "MAX_CHAIN_NODES", size)
    truncated_mobius_sum(p, 1000.0, 30.0, -1)
    monkeypatch.setattr(problem, "MAX_CHAIN_NODES", size - 1)
    with pytest.raises(CapacityError):
        truncated_mobius_sum(p, 1000.0, 30.0, -1)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(which=st.integers(0, 6), z=st.floats(2.0, 60.0), y_over_z=st.floats(1.0, 2_000.0))
def test_chain_bounds_trap_exact_under_quadratic_upper(kind_problems, which, z, y_over_z):
    p, y = kind_problems[which], z * y_over_z
    pair = combinatorial_bounds(p, y, z, with_exact=False)
    quad = fundamental_upper_bound(p, y, z, with_exact=False)
    exact = sift_exact(p, z)
    assert pair.lower.lower_bound <= exact <= min(pair.upper.upper_bound, quad.upper_bound)
