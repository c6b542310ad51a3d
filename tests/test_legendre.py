from __future__ import annotations

import math
from fractions import Fraction

import pytest
from exact_reference import close, exact_mertens
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import at_most, walk_nodes

import sievelab.legendre as lg
import sievelab.problem as problem
from sievelab.errors import CapacityError
from sievelab.legendre import (
    legendre_count,
    legendre_remainder_sum,
    problem_W,
)
from sievelab.problem import (
    ALL_KINDS,
    Admit,
    divisor_walk,
    make_problem,
    sieve_primes,
    sift_exact,
)


def test_interval_30_by_hand(tables_small):
    p = make_problem("interval", {"x": 0, "y": 30}, tables_small)
    # 30 - 15 - 10 - 6 + 5 + 3 + 2 - 1 over divisors of 2*3*5
    assert legendre_count(p, 7) == 8
    assert legendre_remainder_sum(p, 7) == 0.0


def test_legendre_equals_scan_everywhere(tables_small):
    cases = [
        ("interval", {"x": 11, "y": 5_000}),
        ("arithmetic_progression", {"x": 9_000, "k": 7, "l": 3}),
        ("goldbach_product", {"two_N": 3_000}),
        ("shifted_prime", {"N": 5_000}),
        ("square_plus_one", {"x": 90}),
        ("liouville_plus", {"x": 8_000}),
        ("liouville_minus", {"x": 8_000}),
    ]
    for kind, params in cases:
        prob = make_problem(kind, params, tables_small)
        for z in (2, 3, 11, 29.5):
            assert legendre_count(prob, z) == sift_exact(prob, z), (kind, z)


def test_bracket_from_remainders(tables_small):
    # |S - X W| <= sum |R_d| holds with everything computed exactly
    for kind, params in [
        ("interval", {"x": 137, "y": 4_000}),
        ("goldbach_product", {"two_N": 2_000}),
        ("liouville_minus", {"x": 6_000}),
    ]:
        prob = make_problem(kind, params, tables_small)
        for z in (5, 11, 19):
            s = sift_exact(prob, z)
            w = problem_W(prob, z)
            spread = legendre_remainder_sum(prob, z)
            assert abs(s - prob.X * w.W) <= spread + 1e-9, (kind, z)


def test_remainder_sum_past_int64_divisors(tables_small):
    # the 13 sieve primes of n^2 + 1 below 102 multiply past 2^63, so the
    # largest divisors cannot be taken modulo the int64 members
    prob = make_problem("square_plus_one", {"x": 10_500}, tables_small)
    assert math.prod(int(q) for q in sieve_primes(prob, 102)) >= 2**63
    spread = legendre_remainder_sum(prob, 102)
    assert math.isfinite(spread)
    s = sift_exact(prob, 102)
    assert abs(s - prob.X * problem_W(prob, 102).W) <= spread


def test_mertens_products_exact(tables_small):
    p = make_problem("interval", {"x": 0, "y": 10}, tables_small)
    mv = problem_W(p, 10)
    assert exact_mertens(10, p.omega, p.prime_set) == (Fraction(8, 35),) * 2
    assert close(mv.V, Fraction(8, 35)) and close(mv.W, Fraction(8, 35))
    assert abs(mv.V - 8 / 35) < 1e-15


def test_mertens_float_path_matches_exact(kind_problems):
    # every kind's density and prime set, to z = 10^4 (the tables' limit)
    for z in (2, 3, 10, 100.5, 1_000, 3_000, 9_000, 10_000):
        for p in kind_problems:
            mv = problem_W(p, z)
            v, w = exact_mertens(z, p.omega, p.prime_set)
            assert close(mv.V, v) and close(mv.W, w), (p.kind, z)


def test_mertens_normalization_drifts_to_one(tables_big):
    p = make_problem("interval", {"x": 0, "y": 10}, tables_big)
    for z in (1_000, 10_000, 100_000):
        assert abs(problem_W(p, z).v_normalized() - 1.0) <= 0.05


def test_subset_cap(tables_small, monkeypatch):
    p = make_problem("interval", {"x": 0, "y": 10_000}, tables_small)
    monkeypatch.setattr(lg, "MAX_SUBSET_PRIMES", 10)
    refused = "inclusion-exclusion sieve primes: 12 is past the cap of 10$"
    with pytest.raises(CapacityError, match=refused):
        legendre_count(p, 40)  # 12 primes
    with pytest.raises(CapacityError, match=refused):
        legendre_remainder_sum(p, 40)  # the same cap, refused before the walk


def test_walk_cap_refuses_one_node_past_it(tables_small, oracle, monkeypatch):
    p = make_problem("interval", {"x": 500, "y": 300}, tables_small)
    rp = oracle.sieve_primes(p, 40)
    size = len(oracle.nodes(p, rp, at_most(p.n_bound), prune_empty=True))
    monkeypatch.setattr(problem, "MAX_CHAIN_NODES", size)
    assert legendre_count(p, 40) == sift_exact(p, 40)
    legendre_remainder_sum(p, 40)
    monkeypatch.setattr(problem, "MAX_CHAIN_NODES", size - 1)
    for call in (legendre_count, legendre_remainder_sum):
        with pytest.raises(CapacityError, match=f"walk nodes: .* past the cap of {size - 1}$"):
            call(p, 40)


def test_progression_with_sieve_set_excluding_k(tables_small):
    # modulus primes are unavailable to the sieve and W reflects that
    prob = make_problem("arithmetic_progression", {"x": 10_000, "k": 6, "l": 1}, tables_small)
    want = (1 - Fraction(1, 5)) * (1 - Fraction(1, 7)) * (1 - Fraction(1, 11))
    assert exact_mertens(12, prob.omega, prob.prime_set)[1] == want
    assert close(problem_W(prob, 12).W, want)
    assert legendre_count(prob, 12) == sift_exact(prob, 12)


@pytest.mark.parametrize("z", [2, 7, 23, 32])
def test_walk_equals_per_node_reference(kind_problems, oracle, z):
    # with no empty divisor the sum walks every node and adds no tail, so
    # its terms are the per-node |R_d|; otherwise it adds each tail's main terms
    for p in kind_problems:
        assert legendre_count(p, z) == oracle.sifted(p, z), (p.kind, z)
        assert legendre_remainder_sum(p, z) == oracle.legendre_remainder_sum(p, z), (p.kind, z)


@pytest.mark.parametrize("z", [2, 7, 23, 32, 60])
def test_remainder_sum_equals_exact_reference(kind_problems, oracle, z):
    for p in kind_problems:
        exact = oracle.remainder_sum_exact(p, z)
        assert math.isclose(legendre_remainder_sum(p, z), exact, rel_tol=1e-12), (p.kind, z)


def test_remainder_sum_walks_the_count_tree(kind_problems, monkeypatch):
    walked = []

    def recording_walk(*args, **kwargs):
        walk = divisor_walk(*args, **kwargs)
        walked.append(walk.d.tolist())
        return walk

    monkeypatch.setattr(lg, "divisor_walk", recording_walk)
    for p in kind_problems:
        for z in (7, 32, 60):
            walked.clear()
            legendre_count(p, z)
            legendre_remainder_sum(p, z)
            assert len(walked) == 2 and walked[0] == walked[1], (p.kind, z)


def test_carried_state_equals_rebuilt(kind_problems, oracle):
    # past n_bound (8,101 for n^2 + 1 at x = 90) the carried members run empty
    for p in kind_problems:
        rp = oracle.sieve_primes(p, 30)
        walk = divisor_walk(p, rp, Admit(problem.INT64_MAX))  # every subset of rp
        assert walk_nodes(walk) == sorted(oracle.nodes(p, rp, at_most(problem.INT64_MAX)))
        assert walk.d.size == 2 ** len(rp)


@st.composite
def _problems(draw):
    """A kind and parameters inside the 10,000 tables."""
    kind = draw(st.sampled_from(ALL_KINDS))
    if kind == "interval":
        return kind, {"x": draw(st.integers(0, 5_000)), "y": draw(st.integers(1, 5_000))}
    if kind == "arithmetic_progression":
        k = draw(st.integers(1, 60))
        l = draw(st.integers(0, k - 1).filter(lambda l: math.gcd(l, k) == 1))
        return kind, {"x": draw(st.integers(1, 10_000)), "k": k, "l": l}
    if kind == "goldbach_product":
        return kind, {"two_N": 2 * draw(st.integers(3, 2_000))}
    if kind == "shifted_prime":
        return kind, {"N": 2 * draw(st.integers(4, 5_000))}
    if kind == "square_plus_one":
        return kind, {"x": draw(st.integers(1, 300))}
    return kind, {"x": draw(st.integers(1, 10_000))}


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(problem=_problems(), z=st.floats(1.5, 100.0))
def test_legendre_count_equals_member_scan(tables_small, problem, z):
    p = make_problem(*problem, tables_small)
    assert legendre_count(p, z) == sift_exact(p, z)
