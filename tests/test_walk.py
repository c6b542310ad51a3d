"""The column divisor walk against the per-node reference walk it replaced.

Every consumer of the walk is compared with the same quantity computed from
``walk_reference.reference_walk`` (exact values and float sums with ==),
and every walk with the reference's node set, columns included.  The walk
rules are given to the reference in their original form (d q < y,
d q <= n, d q^3 < y), so the integer bounds are checked too, at the edges
where d q equals y and where products reach 2^53 and 2^63.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import pytest
from walk_reference import (
    at_most_admit,
    below_admit,
    chain_admit,
    nodes,
    reference_walk,
)

import sievelab.selberg as selberg
from sievelab.arith import squarefree_primes
from sievelab.errors import CapacityError, InputError
from sievelab.legendre import legendre_count, legendre_remainder_sum
from sievelab.problem import (
    Admit,
    INT64_MAX,
    below,
    divisor_walk,
    make_problem,
    remainder,
    sieve_primes,
    sift_exact,
)
from sievelab.rosser import (
    _chain_admit,
    chain_divisor_sums,
    combinatorial_bounds,
    sandwich_values,
    truncated_mobius_sum,
)
from sievelab.selberg import (
    MAX_SUPPORT,
    _relevant_primes,
    big_G,
    fundamental_upper_bound,
    lambda_weights,
)

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


def _same(walk, ref) -> bool:
    return nodes(walk) == sorted(ref)


# -- the derandomized grid: seven kinds, the cuts and levels below ------------

GRID = [(z, y) for z in (2, 7, 30, 60) for y in (2.0, 100.0, 945.0, 3000.5, 30030.0)]


def _ref_remainders(p, walk):
    return [remainder(p, d, c, w) for d, _, w, c, _ in walk]


def _ref_legendre(p, rp):
    walk = list(reference_walk(p, rp, at_most_admit(p.n_bound), prune_empty=True))
    count = sum(-c if nu % 2 else c for _, nu, _, c, _ in walk)
    suf = [1.0] * (len(rp) + 1)
    for j in range(len(rp) - 1, -1, -1):
        suf[j] = suf[j + 1] * (1.0 + float(p.omega.at_prime(rp[j])) / rp[j])
    terms = []
    for d, _, w, c, i in walk:
        main = float(p.X) * float(w) / d
        if c == 0:
            terms.append(main * suf[i])
        else:
            j = max(i, bisect.bisect_right(rp, p.n_bound // d))
            terms += (abs(c - main), main * (suf[j] - 1.0))
    return walk, count, math.fsum(terms)


def _ref_mobius(p, y, desc, sign, exact):
    if exact:
        factors = {q: -w for q, w in _whole(p, desc).items()}
    else:
        factors = {q: -float(p.omega.at_prime(q)) / q for q in desc}
    walk = list(reference_walk(None, desc, chain_admit(y, sign), factors))
    if not exact:
        return walk, math.fsum(t for _, _, t, _, _ in walk)
    lcm = math.prod(desc)
    return walk, Fraction(sum(t * (lcm // d) for d, _, t, _, _ in walk)) / lcm


def _whole(p, primes):
    out = {}
    for q in primes:
        w = p.omega.at_prime(q)
        out[q] = w.numerator if w.denominator == 1 else w
    return out


def _g_at(omega, ps):
    return {q: (w := omega.at_prime(q)) / (q - w) for q in ps}


@pytest.mark.parametrize("z,y", GRID)
def test_every_walk_consumer_equals_the_reference(kind_problems, z, y):
    for p in kind_problems:
        rp = [int(q) for q in sieve_primes(p, z)]
        desc = rp[::-1]
        tag = (p.kind, z, y)
        # the quadratic-form remainder over d < y
        ref = list(reference_walk(p, rp, below_admit(y), max_nodes=MAX_SUPPORT))
        assert _same(divisor_walk(p, rp, below(y), max_nodes=MAX_SUPPORT), ref), tag
        want = math.fsum(3**nu * abs(r.r) for (_, nu, *_), r in zip(ref, _ref_remainders(p, ref)))
        quad = fundamental_upper_bound(p, y, z, with_exact=False)
        assert quad.remainder_bound == want, tag
        # the chain supports, their main terms and remainders
        if z <= y:
            pair = combinatorial_bounds(p, y, z, with_exact=False)
            for sign, rep in ((1, pair.upper), (-1, pair.lower)):
                ref = list(reference_walk(p, desc, chain_admit(y, sign)))
                assert _same(divisor_walk(p, desc, _chain_admit(y, sign)), ref), (*tag, sign)
                rem = math.fsum(abs(r.r) for r in _ref_remainders(p, ref))
                assert rep.remainder_bound == rem, (*tag, sign)
                exact = len(desc) <= 30
                _, m = _ref_mobius(p, y, desc, sign, exact)
                assert truncated_mobius_sum(p, y, z, sign) == m, (*tag, sign)
                assert rep.main_term == p.X * float(m), (*tag, sign)
        # inclusion-exclusion: the pruned walk, its count and remainder sum
        if len(rp) <= 25 and y == 2.0:
            ref, count, rem = _ref_legendre(p, rp)
            walk = divisor_walk(p, rp, Admit(p.n_bound), prune_empty=True)
            assert _same(walk, ref), tag
            assert legendre_count(p, z) == count, tag
            assert legendre_remainder_sum(p, z) == rem, tag


@pytest.mark.parametrize("z,xi", [(7, 100.0), (30, 945.0), (60, 3000.5), (60, 30030.0)])
def test_selberg_walks_equal_the_reference(kind_problems, z, xi):
    for p in kind_problems:
        ps = _relevant_primes(z, p.omega, p.prime_set, p.tables)
        g_at = _g_at(p.omega, ps)
        ref = list(reference_walk(None, ps, below_admit(xi), g_at, max_nodes=MAX_SUPPORT))
        assert _same(divisor_walk(None, ps, below(xi), g_at, max_nodes=MAX_SUPPORT), ref)
        assert big_G(xi, z, p.omega, p.prime_set, p.tables) == sum(
            (g for _, _, g, _, _ in ref), Fraction(0)
        )
        w = lambda_weights(xi, z, p.omega, p.prime_set, p.tables)
        want = {d: g for d, _, g, _, _ in ref}
        want[1] = Fraction(1)
        assert w.g_values == want and w.exact, (p.kind, z, xi)


@pytest.mark.parametrize("y", [2.0, 30.0, 100.0, 945.0, 1e4])
def test_sandwich_values_and_divisor_sums_equal_the_reference(tables_small, y):
    sums = {s: chain_divisor_sums(2000, y, s, tables_small) for s in (-1, 1)}
    mob = tables_small.mobius_table()
    for m in range(1, 2001):
        if not mob[m]:
            continue
        facs = squarefree_primes(m, tables_small)[::-1]
        lo, hi = (
            sum(v for _, _, v, _, _ in reference_walk(
                None, facs, chain_admit(y, s), dict.fromkeys(facs, -1)))
            for s in (-1, 1)
        )
        assert sandwich_values(m, y, tables_small) == (lo, int(m == 1), hi), (m, y)
        assert (sums[-1][m], sums[1][m]) == (lo, hi), (m, y)


# -- rule edges ---------------------------------------------------------------


@pytest.mark.parametrize("y", [30.0, math.nextafter(30.0, math.inf), math.nextafter(30.0, 0.0),
                               210.0, 2310.0, 30.5, 1.0, 0.5])
def test_below_is_exact_where_d_q_equals_y(y):
    ps = PRIMES[:5]
    factors = dict.fromkeys(ps, 1)
    ref = list(reference_walk(None, ps, below_admit(y), factors))
    assert _same(divisor_walk(None, ps, below(y), factors), ref), y
    n = math.floor(y)
    ref = list(reference_walk(None, ps, at_most_admit(n), factors))
    assert _same(divisor_walk(None, ps, Admit(n), factors), ref), n


# 945 = 7 * 5 * 3^3, 189 = 7 * 3^3 and 3^3 * 2 = 54 sit on the chain rule's edge
@pytest.mark.parametrize("y", [27.0, 54.0, 189.0, 945.0, math.nextafter(945.0, math.inf), 8.0])
@pytest.mark.parametrize("sign", [1, -1])
def test_chain_is_exact_where_d_q3_equals_y(y, sign):
    desc = PRIMES[:8][::-1]
    mu = dict.fromkeys(desc, -1)
    ref = list(reference_walk(None, desc, chain_admit(y, sign), mu))
    assert _same(divisor_walk(None, desc, _chain_admit(y, sign), mu), ref), (y, sign)


def test_products_near_2_to_the_53():
    ps = PRIMES[:14]  # their product, 1.3e16, passes 2^53
    assert math.prod(ps) > 2**53 > math.prod(ps[:13])
    ones = dict.fromkeys(ps, 1)
    for y in (2.0**53, math.nextafter(2.0**53, math.inf), 2.0**53 - 2):
        ref = list(reference_walk(None, ps, below_admit(y), ones))
        assert _same(divisor_walk(None, ps, below(y), ones), ref), y
    for n in (2**53 - 1, 2**53, 2**53 + 1):
        ref = list(reference_walk(None, ps, at_most_admit(n), ones))
        assert _same(divisor_walk(None, ps, Admit(n), ones), ref), n


def test_products_near_2_to_the_63():
    ps = PRIMES[:16]  # their product, 3.3e19, passes 2^63
    assert math.prod(ps) > INT64_MAX > math.prod(ps[:15])
    ones = dict.fromkeys(ps, 1)
    for n in (INT64_MAX, INT64_MAX - 1):
        ref = list(reference_walk(None, ps, at_most_admit(n), ones))
        assert _same(divisor_walk(None, ps, Admit(n), ones), ref), n
    ref = list(reference_walk(None, ps, below_admit(2.0**63), ones))
    assert _same(divisor_walk(None, ps, below(2.0**63), ones), ref)
    # a walk whose divisors could pass int64 is refused before it starts
    for rule in (Admit(2**63), below(1e19), _chain_admit(1e30, 1)):
        with pytest.raises(CapacityError, match="passes int64"):
            divisor_walk(None, ps[::-1] if rule.parity is not None else ps, rule, ones)
    # a chain level past int64 over primes whose product is not: exact per node
    desc = ps[:15][::-1]
    for y, sign in ((1e30, 1), (1e30, -1), (2.0**63, 1), (2.0**64, -1)):
        ref = list(reference_walk(None, desc, chain_admit(y, sign), ones))
        assert _same(divisor_walk(None, desc, _chain_admit(y, sign), ones), ref), (y, sign)


def test_counts_near_int64(tables_small):
    x = INT64_MAX - 10**6
    p = make_problem("interval", {"x": x, "y": 10**6}, tables_small)
    assert p.n_bound == INT64_MAX
    rp = [int(q) for q in sieve_primes(p, 30)]
    ref = list(reference_walk(p, rp, at_most_admit(p.n_bound)))
    assert _same(divisor_walk(p, rp, Admit(p.n_bound)), ref)
    assert legendre_count(p, 30) == sift_exact(p, 30)
    # a progression modulus past sqrt(int64): the inverses run on exact ints
    k = 2**62 + 1
    p = make_problem("arithmetic_progression", {"x": 2**62 + 10**6, "k": k, "l": 7}, tables_small)
    rp = [int(q) for q in sieve_primes(p, 30)]
    ref = list(reference_walk(p, rp, at_most_admit(p.n_bound)))
    assert _same(divisor_walk(p, rp, Admit(p.n_bound)), ref)


def test_walk_refuses_before_the_level_past_its_cap():
    ps = PRIMES[:10]
    ones = dict.fromkeys(ps, 1)
    assert divisor_walk(None, ps, Admit(10**12), ones, max_nodes=2**10).d.size == 2**10
    with pytest.raises(CapacityError, match="exceeds 1023 nodes"):
        divisor_walk(None, ps, Admit(10**12), ones, max_nodes=2**10 - 1)


def test_walk_over_no_primes_is_the_root(tables_small):
    p = make_problem("arithmetic_progression", {"x": 1000, "k": 7, "l": 3}, tables_small)
    walk = divisor_walk(p, [], below(100.0))
    assert nodes(walk) == [(1, 0, 1, 143, 0)]
    assert nodes(divisor_walk(None, [], _chain_admit(10.0, -1), {})) == [(1, 0, 1, None, 0)]
    with pytest.raises(InputError):
        _chain_admit(10.0, 0)


# -- the float fallback of lambda_weights ----------------------------------


def _reference_float_lambdas(xi, z, omega, prime_set, tables):
    """lambda_weights' float path with its support in the reference walk's order."""
    ps = _relevant_primes(z, omega, prime_set, tables)
    g_values = {d: g for d, _, g, _, _ in
                reference_walk(None, ps, below_admit(xi), _g_at(omega, ps), max_nodes=MAX_SUPPORT)}
    g_values[1] = Fraction(1)
    support = [(d, tuple(squarefree_primes(d, tables))) for d in g_values]
    w_values = selberg._multiplicative(support, {q: omega.at_prime(q) for q in ps})
    g = {d: float(v) for d, v in g_values.items()}
    total = math.fsum(g.values())
    multiples = dict.fromkeys(g, 0.0)
    for m, facs in support:
        for d in selberg._divisors(facs):
            multiples[d] += g[m]
    return {
        d: (-1 if len(facs) % 2 else 1) * (d / float(w_values[d])) * multiples[d] / total
        for d, facs in support
    }


#: bound on the relative change of a float-fallback weight from the old
#: support order (depth first) to the walk's (level by level); the largest
#: seen was 3.5e-14, at xi = z = 175,000 (support 106,384, unforced)
FLOAT_WEIGHT_CHANGE = 1e-13


@pytest.mark.parametrize("xi,z", [(3000.0, 200.0), (20_000.0, 100.0)])
def test_float_weights_move_by_at_most_the_stated_amount(tables_small, monkeypatch, xi, z):
    monkeypatch.setattr(selberg, "MAX_EXACT_SUPPORT", 10)  # the float path on a small support
    p = make_problem("interval", {"x": 0, "y": 10}, tables_small)
    got = lambda_weights(xi, z, p.omega, p.prime_set, tables_small)
    want = _reference_float_lambdas(xi, z, p.omega, p.prime_set, tables_small)
    assert not got.exact and got.lambdas.keys() == want.keys()
    change = max(abs(got.lambdas[d] - v) / abs(v) for d, v in want.items() if v)
    assert change <= FLOAT_WEIGHT_CHANGE
