"""The column divisor walk and every consumer of it, against the oracle.

Every walk is compared with the oracle's node-by-node enumeration of the
same support, columns included, and every consumer (the remainder sums,
main terms, bounds, Moebius sums, G and the Legendre count) with the
oracle's sums over it, exact values and float sums with ==.  The oracle
states each walk rule in its original form (d q < y, d q <= n,
d q^3 < y), so the integer bounds are checked too, at the edges where
d q equals y and where products reach 2^53 and 2^63.  The strike sift and
the CRT counts are compared with the oracle's member scans.  The float
sums M+- and G are also held to exact rationals, within the bounds stated
in ``exact_reference``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from exact_reference import (
    FLOAT_WEIGHT_CHANGE,
    _divisors,
    _multiplicative,
    close,
    mobius_close,
)
from oracle import GRID, STRIKE_POINTS, at_most, below as below_rule, chain, support, walk_nodes

import sievelab.problem as problem
import sievelab.selberg as selberg
from sievelab.errors import CapacityError, InputError
from sievelab.legendre import legendre_count, legendre_remainder_sum
from sievelab.problem import (
    Admit,
    INT64_MAX,
    below,
    divisor_walk,
    make_problem,
    sieve_primes,
    sift_exact,
    sifted_members,
)
from sievelab.rosser import (
    _chain_admit,
    chain_divisor_sums,
    combinatorial_bounds,
    truncated_mobius_sum,
)
from sievelab.selberg import (
    MAX_SUPPORT,
    big_G,
    fundamental_upper_bound,
    lambda_weights,
)

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


def _same(walk, ref) -> bool:
    return walk_nodes(walk) == sorted(ref)


@pytest.mark.parametrize("z,y", GRID)
def test_every_walk_consumer_equals_the_reference(kind_problems, oracle, z, y):
    for p in kind_problems:
        rp = oracle.sieve_primes(p, z)
        desc = rp[::-1]
        tag = (p.kind, z, y)
        assert sieve_primes(p, z).tolist() == rp, tag
        # the quadratic-form bound over d < y
        ref = oracle.nodes(p, rp, below_rule(y))
        assert _same(divisor_walk(p, rp, below(y), max_nodes=MAX_SUPPORT), ref), tag
        quad = fundamental_upper_bound(p, y, z, with_exact=False)
        assert (quad.main_term, quad.remainder_bound) == oracle.quadratic_sums(p, y, z), tag
        # the chain supports, their main terms and remainders
        if z <= y:
            pair = combinatorial_bounds(p, y, z, with_exact=False)
            for sign, rep in ((1, pair.upper), (-1, pair.lower)):
                ref = oracle.nodes(p, desc, chain(y, sign))
                assert _same(divisor_walk(p, desc, _chain_admit(y, sign)), ref), (*tag, sign)
                sums = oracle.chain_sums(p, y, z, sign)
                assert (rep.main_term, rep.remainder_bound) == sums, (*tag, sign)
                m = oracle.mobius(p, y, z, sign)
                assert truncated_mobius_sum(p, y, z, sign) == m, (*tag, sign)
                assert mobius_close(m, *oracle.mobius_exact(p, y, z, sign)), (*tag, sign)
        # inclusion-exclusion: the pruned walk, its count and remainder sum
        if len(rp) <= 25 and y == 2.0:
            ref = oracle.nodes(p, rp, at_most(p.n_bound), prune_empty=True)
            walk = divisor_walk(p, rp, Admit(p.n_bound), prune_empty=True)
            assert _same(walk, ref), tag
            assert legendre_count(p, z) == oracle.sifted(p, z), tag
            assert legendre_remainder_sum(p, z) == oracle.legendre_remainder_sum(p, z), tag


@pytest.mark.parametrize("z,xi", [(7, 100.0), (30, 945.0), (60, 3000.5), (60, 30030.0)])
def test_selberg_walks_equal_the_reference(kind_problems, oracle, z, xi):
    for p in kind_problems:
        g_at = oracle.g(p, z)
        ps = list(g_at)
        ref = support(ps, below_rule(xi), g_at)
        assert _same(divisor_walk(None, ps, below(xi), g_at, max_nodes=MAX_SUPPORT), ref)
        G = big_G(xi, z, p.omega, p.prime_set, p.tables)
        assert G == oracle.G(p, xi, z)
        assert close(G, sum((g for _, _, g, _, _ in ref), Fraction(0))), (p.kind, z, xi)
        w = lambda_weights(xi, z, p.omega, p.prime_set, p.tables)
        want = {d: g for d, _, g, _, _ in ref}
        assert w.g_values == want and w.exact, (p.kind, z, xi)


@pytest.mark.parametrize("y", [2.0, 30.0, 100.0, 945.0, 1e4])
def test_sandwich_values_and_divisor_sums_equal_the_reference(tables_small, oracle, y):
    lo, hi = (oracle.divisor_sums(2000, y, s) for s in (-1, 1))
    assert np.array_equal(chain_divisor_sums(2000, y, -1, tables_small), lo), y
    assert np.array_equal(chain_divisor_sums(2000, y, 1, tables_small), hi), y
    mob = tables_small.mobius_table()
    for m in range(1, 2001):
        if mob[m]:
            assert lo[m] <= int(m == 1) <= hi[m], (m, y)


# -- the strike sift and the CRT counts against the member scan --------------


@pytest.mark.parametrize(
    "kind,params", STRIKE_POINTS, ids=[f"{k}-{sorted(v.items())}" for k, v in STRIKE_POINTS]
)
def test_strike_and_crt_counts_equal_the_member_scan(tables_small, oracle, kind, params):
    p = make_problem(kind, params, tables_small)
    mem = oracle.members(p)
    struck = problem._values(p, np.flatnonzero(problem._strike(p, [])))
    assert struck.dtype == mem.dtype and struck.tolist() == mem.tolist()
    for z in (1.5, 2, 3, 7, 30, 60, 200):
        want = oracle.survivors(p, z)
        got = sifted_members(p, z)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), z
        assert sift_exact(p, z) == want.size, z
    rp = oracle.sieve_primes(p, 60)
    for y in (30.0, 1e4):  # every node's #A_d, the CRT kinds' included
        assert _same(divisor_walk(p, rp, below(y)), oracle.nodes(p, rp, below_rule(y))), y
    rp = rp[:8]
    walk = divisor_walk(p, rp, Admit(p.n_bound), prune_empty=True)
    assert _same(walk, oracle.nodes(p, rp, at_most(p.n_bound), prune_empty=True))
    walk = divisor_walk(p, rp, below(3e4))  # past the 10^4 tables
    for d, c in zip(walk.d.tolist(), walk.count.tolist()):
        assert c == oracle.count(p, d), d


# -- rule edges ---------------------------------------------------------------


@pytest.mark.parametrize("y", [30.0, math.nextafter(30.0, math.inf), math.nextafter(30.0, 0.0),
                               210.0, 2310.0, 30.5, 1.0, 0.5])
def test_below_is_exact_where_d_q_equals_y(y):
    ps = PRIMES[:5]
    factors = dict.fromkeys(ps, 1)
    ref = support(ps, below_rule(y), factors)
    assert _same(divisor_walk(None, ps, below(y), factors), ref), y
    n = math.floor(y)
    ref = support(ps, at_most(n), factors)
    assert _same(divisor_walk(None, ps, Admit(n), factors), ref), n


# 945 = 7 * 5 * 3^3, 189 = 7 * 3^3 and 3^3 * 2 = 54 sit on the chain rule's edge
@pytest.mark.parametrize("y", [27.0, 54.0, 189.0, 945.0, math.nextafter(945.0, math.inf), 8.0])
@pytest.mark.parametrize("sign", [1, -1])
def test_chain_is_exact_where_d_q3_equals_y(y, sign):
    desc = PRIMES[:8][::-1]
    mu = dict.fromkeys(desc, -1)
    ref = support(desc, chain(y, sign), mu)
    assert _same(divisor_walk(None, desc, _chain_admit(y, sign), mu), ref), (y, sign)


@pytest.mark.parametrize("n", [1, 2, 7, 30, 54, 189, 210, 1000])
@pytest.mark.parametrize("sign", [1, -1])
def test_chain_with_a_cap_is_exact_where_d_q_equals_n(n, sign):
    desc = PRIMES[::-1]  # their product passes int64; the cap keeps every d <= n
    mu = dict.fromkeys(desc, -1)
    for y in (27.0, 945.0, 1e5, 1e30):
        ref = support(desc, chain(y, sign, cap=n), mu)
        got = divisor_walk(None, desc, _chain_admit(y, sign)._replace(cap=n), mu)
        assert _same(got, ref), (n, y, sign)


def test_chain_divisor_sums_walk_only_the_kept_divisors(tables_small, oracle):
    for n in (1, 2, 3, 10, 97, 210, 999, 1999, 2000):
        for y in (1.0, 2.0, 8.0, 30.0, 945.0, 1e4, 1e5, 1e6):
            for sign in (1, -1):
                want = oracle.divisor_sums(n, y, sign)
                assert np.array_equal(chain_divisor_sums(n, y, sign, tables_small), want), (n, y)
    desc = tables_small.primes[tables_small.primes <= 2000][::-1].tolist()
    mu = dict.fromkeys(desc, -1)
    assert divisor_walk(None, desc, _chain_admit(1e5, -1), mu).d.size == 2448
    assert divisor_walk(None, desc, _chain_admit(1e5, -1)._replace(cap=2000), mu).d.size == 1055
    # past y = n^3 every squarefree d <= n is in both supports: the sums are [m = 1]
    for sign in (1, -1):
        out = chain_divisor_sums(2000, 1e12, sign, tables_small)
        assert out[1] == 1 and not out[2:].any() and out[0] == 0


def test_products_near_2_to_the_53():
    ps = PRIMES[:14]  # their product, 1.3e16, passes 2^53
    assert math.prod(ps) > 2**53 > math.prod(ps[:13])
    ones = dict.fromkeys(ps, 1)
    for y in (2.0**53, math.nextafter(2.0**53, math.inf), 2.0**53 - 2):
        ref = support(ps, below_rule(y), ones)
        assert _same(divisor_walk(None, ps, below(y), ones), ref), y
    for n in (2**53 - 1, 2**53, 2**53 + 1):
        ref = support(ps, at_most(n), ones)
        assert _same(divisor_walk(None, ps, Admit(n), ones), ref), n


def test_products_near_2_to_the_63():
    ps = PRIMES[:16]  # their product, 3.3e19, passes 2^63
    assert math.prod(ps) > INT64_MAX > math.prod(ps[:15])
    ones = dict.fromkeys(ps, 1)
    for n in (INT64_MAX, INT64_MAX - 1):
        ref = support(ps, at_most(n), ones)
        assert _same(divisor_walk(None, ps, Admit(n), ones), ref), n
    ref = support(ps, below_rule(2.0**63), ones)
    assert _same(divisor_walk(None, ps, below(2.0**63), ones), ref)
    # a walk whose divisors could pass int64 is refused before it starts
    for rule in (Admit(2**63), below(1e19), _chain_admit(1e30, 1)):
        with pytest.raises(CapacityError, match=f"largest divisor .* past the cap of {INT64_MAX}$"):
            divisor_walk(None, ps[::-1] if rule.parity is not None else ps, rule, ones)
    # a chain level past int64 over primes whose product is not: exact per node
    desc = ps[:15][::-1]
    for y, sign in ((1e30, 1), (1e30, -1), (2.0**63, 1), (2.0**64, -1)):
        ref = support(desc, chain(y, sign), ones)
        assert _same(divisor_walk(None, desc, _chain_admit(y, sign), ones), ref), (y, sign)


def test_counts_near_int64(tables_small, oracle):
    x = INT64_MAX - 10**6
    p = make_problem("interval", {"x": x, "y": 10**6}, tables_small)
    assert p.n_bound == INT64_MAX
    rp = [int(q) for q in sieve_primes(p, 30)]
    ref = oracle.nodes(p, rp, at_most(p.n_bound))
    assert _same(divisor_walk(p, rp, Admit(p.n_bound)), ref)
    assert legendre_count(p, 30) == sift_exact(p, 30)
    # a progression modulus past sqrt(int64): the inverses run on exact ints
    k = 2**62 + 1
    p = make_problem("arithmetic_progression", {"x": 2**62 + 10**6, "k": k, "l": 7}, tables_small)
    rp = [int(q) for q in sieve_primes(p, 30)]
    ref = oracle.nodes(p, rp, at_most(p.n_bound))
    assert _same(divisor_walk(p, rp, Admit(p.n_bound)), ref)


def test_walk_refuses_before_the_level_past_its_cap():
    ps = PRIMES[:10]
    ones = dict.fromkeys(ps, 1)
    assert divisor_walk(None, ps, Admit(10**12), ones, max_nodes=2**10).d.size == 2**10
    with pytest.raises(CapacityError, match="divisor walk nodes: .* past the cap of 1023$"):
        divisor_walk(None, ps, Admit(10**12), ones, max_nodes=2**10 - 1)


def test_walk_refuses_a_level_past_its_class_cap(tables_small, monkeypatch):
    p = make_problem("goldbach_product", {"two_N": 2_000}, tables_small)
    rp = [int(q) for q in sieve_primes(p, 30)]
    lifts = []
    crt_counts = problem._crt_counts

    def recording(shape, mask, cls, seg, parent, dp, q, roots, keep):
        lifts.append(int((seg[parent + 1] - seg[parent]).sum()) * len(roots))
        return crt_counts(shape, mask, cls, seg, parent, dp, q, roots, keep)

    monkeypatch.setattr(problem, "_crt_counts", recording)
    want = walk_nodes(divisor_walk(p, rp, Admit(p.n_bound)))
    monkeypatch.setattr(problem, "_crt_counts", crt_counts)
    monkeypatch.setattr(problem, "MAX_WALK_CLASSES", max(lifts))
    assert walk_nodes(divisor_walk(p, rp, Admit(p.n_bound))) == want
    monkeypatch.setattr(problem, "MAX_WALK_CLASSES", max(lifts) - 1)
    refused = f"CRT classes .*: {max(lifts)} is past the cap of {max(lifts) - 1}$"
    with pytest.raises(CapacityError, match=refused):
        divisor_walk(p, rp, Admit(p.n_bound))


def test_walk_over_no_primes_is_the_root(tables_small):
    p = make_problem("arithmetic_progression", {"x": 1000, "k": 7, "l": 3}, tables_small)
    walk = divisor_walk(p, [], below(100.0))
    assert walk_nodes(walk) == [(1, 0, 1, 143, 0)]
    assert walk_nodes(divisor_walk(None, [], _chain_admit(10.0, -1), {})) == [(1, 0, 1, None, 0)]
    with pytest.raises(InputError):
        _chain_admit(10.0, 0)


# -- the float fallback of lambda_weights ----------------------------------


def _reference_float_lambdas(oracle, p, xi, z):
    """lambda_weights' float path with its support in the oracle's order."""
    g_at = oracle.g(p, z)
    ps = list(g_at)
    g = {d: float(v) for d, _, v, _, _ in support(ps, below_rule(xi), g_at)}
    factored = [(d, tuple(q for q in ps if d % q == 0)) for d in g]
    w_values = _multiplicative(factored, {q: p.omega.at_prime(q) for q in ps})
    total = math.fsum(g.values())
    multiples = dict.fromkeys(g, 0.0)
    for m, facs in factored:
        for d in _divisors(facs):
            multiples[d] += g[m]
    return {
        d: (-1 if len(facs) % 2 else 1) * (d / float(w_values[d])) * multiples[d] / total
        for d, facs in factored
    }


@pytest.mark.parametrize("xi,z", [(3000.0, 200.0), (20_000.0, 100.0)])
def test_float_weights_move_by_at_most_the_stated_amount(tables_small, oracle, monkeypatch, xi, z):
    monkeypatch.setattr(selberg, "MAX_EXACT_SUPPORT", 10)  # the float path on a small support
    p = make_problem("interval", {"x": 0, "y": 10}, tables_small)
    got = lambda_weights(xi, z, p.omega, p.prime_set, tables_small)
    want = _reference_float_lambdas(oracle, p, xi, z)
    assert not got.exact and got.lambdas.keys() == want.keys()
    change = max(abs(got.lambdas[d] - v) / abs(v) for d, v in want.items() if v)
    assert change <= FLOAT_WEIGHT_CHANGE
