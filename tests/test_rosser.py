from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from exact_reference import exact_mobius, mobius_close
from hypothesis import given, settings, strategies as st
from walk_reference import members_array

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
from sievelab.selberg import _sieve_densities, fundamental_upper_bound


def test_frozen_small_sums(tables_small):
    p = make_problem("interval", {"x": 0, "y": 1000}, tables_small)
    for z, sign, want in ((6, 1, Fraction(1, 3)), (6, -1, Fraction(7, 30)), (5, 1, Fraction(1, 3))):
        exact, scale = exact_mobius(p, 100, z, sign)
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


def _position_rule(facs, y: float, sign: int) -> bool:
    """The chain check by positions: p1 > p2 > ..., p1...p_{l-1} p_l^3 < y at checked l."""
    prefix = 1
    for i, q in enumerate(sorted(facs, reverse=True)):
        if ((i + 1) % 2 == 1) == (sign == 1) and prefix * q**3 >= y:
            return False
        prefix *= q
    return True


def _oracle_support(primes: list[int], y: float, sign: int) -> dict[int, int]:
    """Exhaustive squarefree enumeration with an independent chain check."""
    out = {1: 1}
    for r in range(1, len(primes) + 1):
        for combo in combinations(primes, r):
            if _position_rule(combo, y, sign):
                out[math.prod(combo)] = -1 if r % 2 else 1
    return out


@pytest.mark.parametrize("y", [100.0, 1000.0])
@pytest.mark.parametrize("sign", [1, -1])
def test_pruned_walk_matches_exhaustive(tables_small, y, sign):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    oracle = _oracle_support(primes, y, sign)
    p = make_problem("interval", {"x": 0, "y": 1000}, tables_small)
    # with factors -1 the carried product is mu(d)
    walk = divisor_walk(None, primes[::-1], rosser._chain_admit(y, sign), dict.fromkeys(primes, -1))
    walked = dict(zip(walk.d.tolist(), walk.v.tolist()))
    assert walked == oracle and walk.d.size == len(oracle)  # each node once
    assert all(d < y for d in oracle)  # so combinatorial_bounds needs no d < y filter
    expect = sum(Fraction(mu, d) for d, mu in oracle.items())
    scale = sum(Fraction(1, d) for d in oracle)
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
PROPS = settings(deadline=None, max_examples=200)


@PROPS
@given(
    st.lists(st.sampled_from(SMALL_PRIMES), unique=True, max_size=9),
    st.floats(min_value=2.0, max_value=1e7),
    st.sampled_from([1, -1]),
)
def test_factor_walk_is_membership_in_walked_support(primes, y, sign):
    desc = sorted(primes, reverse=True)
    walk = divisor_walk(None, desc, rosser._chain_admit(y, sign), dict.fromkeys(desc, -1))
    support = set(walk.d.tolist())
    assert support == set(_oracle_support(primes, y, sign)) and walk.d.size == len(support)
    # membership of d depends on d's own factors only
    for r in range(len(primes) + 1):
        for sub in combinations(primes, r):
            assert _in_factor_walk(sub, y, sign) == (math.prod(sub) in support), (sub, y, sign)


def _bitmask_sandwich(facs, y):
    """The truncated mu summed over the divisors of prod(facs) by a 2^k
    subset loop on the position rule: (lower sum, [facs empty], upper sum)."""
    lo = hi = 0
    for mask in range(1 << len(facs)):
        sub = [facs[i] for i in range(len(facs)) if mask >> i & 1]
        mu = -1 if len(sub) % 2 else 1
        lo += mu if _position_rule(sub, y, -1) else 0
        hi += mu if _position_rule(sub, y, 1) else 0
    return lo, int(not facs), hi


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
    assert (lo, int(not primes), hi) == _bitmask_sandwich(primes, y)


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


def test_upper_main_term_tracks_limit_curve(tables_mid, grid):
    p = make_problem("interval", {"x": 0, "y": 1000}, tables_mid)
    # the gap to the limit curve closes like a fractional power of 1/log y,
    # slow enough that 1e6 still sits ~12% out; 1e8 gets under 10%
    for y, tol in ((1e6, 0.15), (1e8, 0.10)):
        for s in (2.0, 3.0):
            z = y ** (1.0 / s)
            m = truncated_mobius_sum(p, y, z, 1)
            w = problem_W(p, z).W
            curve = evaluate(grid, s, "F")
            assert m / w <= curve
            assert abs(m / w - curve) / curve <= tol, (y, s)
            mlo = truncated_mobius_sum(p, y, z, -1)
            assert mlo / w >= evaluate(grid, s, "f")


def test_scaled_counts_between_limit_curves(tables_big, grid):
    p = make_problem("interval", {"x": 0, "y": 1_000_000}, tables_big)
    rows = fundamental_lemma_report(p, 10_000.0, [3.0, 4.0, 6.0, 8.0], grid)
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


def _reference_support(primes_desc, y, sign):
    """The support walk that rebuilds each term from its factor tuple."""
    want_odd = sign == 1
    yield 1, ()
    stack = [(0, 1, ())]
    while stack:
        idx, prod, facs = stack.pop()
        pos_checked = ((len(facs) + 1) % 2 == 1) == want_odd
        for j in range(idx, len(primes_desc)):
            q = primes_desc[j]
            if pos_checked and prod * q * q * q >= y:
                continue
            yield prod * q, facs + (q,)
            stack.append((j + 1, prod * q, facs + (q,)))


def _reference_mobius(p, y, z, sign, exact):
    """(the sum, the sum of the terms' sizes) as exact Fractions, or the float sum."""
    desc = list(_sieve_densities(z, p.omega, p.prime_set, p.tables))[::-1]
    if exact:
        total = size = Fraction(0)
        for _, facs in _reference_support(desc, y, sign):
            term = Fraction(1)
            for q in facs:
                term *= Fraction(p.omega.at_prime(q), q)
            total += -term if len(facs) % 2 else term
            size += term
        return total, size
    terms = []
    for _, facs in _reference_support(desc, y, sign):
        t = 1.0
        for q in facs:
            t *= float(p.omega.at_prime(q)) / q
        terms.append(-t if len(facs) % 2 else t)
    return math.fsum(terms)


def _reference_bounds(p, y, z):
    desc = list(_sieve_densities(z, p.omega, p.prime_set, p.tables))[::-1]
    mem = members_array(p)
    out = []
    for sign in (1, -1):
        mains, rems = [], []
        for d, f in _reference_support(desc, y, sign):
            if d >= y:
                continue
            wd = math.prod(map(p.omega.at_prime, f), start=Fraction(1))
            main = float(p.X) * float(wd) / d
            mains.append(-main if len(f) % 2 else main)
            rems.append(abs(int(np.count_nonzero(mem % d == 0)) - main))
        out.append(math.fsum(mains) + sign * math.fsum(rems))
    return out


# 945 = 7 * 5 * 3^3 and 189 = 7 * 3^3 sit on the step rule's boundary
@pytest.mark.parametrize(
    "y,z", [(100.0, 10.0), (189.0, 10.0), (945.0, 10.0), (3_000.0, 25.0), (20_000.0, 40.0)]
)
def test_bounds_equal_per_node_reference(kind_problems, y, z):
    for p in kind_problems:
        bp = combinatorial_bounds(p, y, z, with_exact=False)
        got = [bp.upper.upper_bound, bp.lower.lower_bound]
        assert got == _reference_bounds(p, y, z), (p.kind, y, z)


# z <= 2: no sieve prime, the sum is 1; y <= 8: the upper support is d = 1 alone;
# ``exact`` also holds the float to the two exact references
@pytest.mark.parametrize(
    "y,z,exact",
    [(1e4, 50.0, True), (1e6, 100.0, True), (1e6, 100.0, False), (1e6, 1000.0, False),
     (1e4, 2.0, True), (1e4, 1.5, False), (8.0, 50.0, True), (5.0, 100.0, False)],
)
def test_mobius_sum_equals_per_node_reference(kind_problems, y, z, exact):
    quad = next(p for p in kind_problems if p.kind == "square_plus_one")
    # w(p) = 0 for p = 3 mod 4: with every prime offered, those primes must drop out
    every_prime = dataclasses.replace(quad, prime_set=PrimeSet("all"))
    for p in [*kind_problems, every_prime]:
        for sign in (1, -1):
            got = truncated_mobius_sum(p, y, z, sign)
            assert got == _reference_mobius(p, y, z, sign, False), (p.kind, y, z, sign)
            assert isinstance(got, float)
            if exact:
                m, scale = exact_mobius(p, y, z, sign)
                assert (m, scale) == _reference_mobius(p, y, z, sign, True)
                assert mobius_close(got, m, scale), (p.kind, y, z, sign)
            if z <= 2 or (y <= 8 and sign == 1):
                assert got == 1
    assert truncated_mobius_sum(every_prime, 1e4, 50.0, 1) == truncated_mobius_sum(
        quad, 1e4, 50.0, 1
    )


def test_chain_cap_fires_past_its_size(tables_small, monkeypatch):
    p = make_problem("interval", {"x": 0, "y": 1000}, tables_small)
    size = len(list(_reference_support([29, 23, 19, 17, 13, 11, 7, 5, 3, 2], 1000.0, -1)))
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
