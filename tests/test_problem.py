from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import sievelab.problem as problem
from sievelab.errors import CapacityError, DensityRangeError, InputError
from sievelab.problem import (
    KINDS,
    count_Ad,
    make_problem,
    members_array,
    remainder,
    sieve_primes,
    sift_exact,
)


def brute_sift(members, primes, z) -> int:
    kept = 0
    for n in members:
        ok = True
        for p in primes:
            if p >= z:
                break
            if n % p == 0:
                ok = False
                break
        kept += ok
    return kept


def test_interval_sift_small(tables_small):
    p = make_problem("interval", {"x": 0, "y": 30}, tables_small)
    assert sift_exact(p, 7) == 8  # {1, 7, 11, 13, 17, 19, 23, 29}
    assert sift_exact(p, 2) == 30
    assert count_Ad(p, 6) == 5
    assert remainder(p, 6).r == 0.0


def test_interval_remainder_at_most_one(tables_small):
    p = make_problem("interval", {"x": 137, "y": 1000}, tables_small)
    mu = tables_small.mobius_table()
    for d in range(1, 300):
        if mu[d] == 0:
            continue
        assert abs(remainder(p, d).r) <= 1.0


def test_goldbach_density_counts_roots(tables_small):
    two_n = 60
    p = make_problem("goldbach_product", {"two_N": two_n}, tables_small)
    for d in (3, 5, 7, 11, 13, 15, 21, 35):
        fac = [q for q in (3, 5, 7, 11, 13) if d % q == 0]
        w = p.omega.at_squarefree(fac)
        roots = sum(1 for m in range(d) if (m * (two_n - m)) % d == 0)
        assert w == roots


def test_goldbach_frozen_count(tables_small):
    p = make_problem("goldbach_product", {"two_N": 20}, tables_small)
    assert count_Ad(p, 3) == 12
    assert members_array(p).size == 17


def test_shifted_prime_members(tables_small):
    n_par = 100
    p = make_problem("shifted_prime", {"N": n_par}, tables_small)
    odd_primes = [q for q in range(3, 98) if all(q % r for r in range(2, q))]
    want = sorted(n_par - q for q in odd_primes if n_par % q)
    assert sorted(members_array(p).tolist()) == want
    # density vanishes on p | N: main term must be zero there
    rec = remainder(p, 5)
    assert rec.main == 0.0 and rec.count == rec.r + 0.0
    assert p.omega.at_prime(3) == Fraction(3, 2)


def test_square_plus_one_density(tables_small):
    p = make_problem("square_plus_one", {"x": 500}, tables_small)
    assert p.omega.at_prime(2) == 1
    assert p.omega.at_prime(5) == 2
    assert p.omega.at_prime(3) == 0
    # w(d)/d share matches root counting mod d
    for d in (5, 13, 10, 65):
        fac = [q for q in (2, 5, 13) if d % q == 0]
        roots = sum(1 for m in range(d) if (m * m + 1) % d == 0)
        assert p.omega.at_squarefree(fac) == roots


def test_liouville_counts(tables_mid):
    lp = make_problem("liouville_plus", {"x": 10_000}, tables_mid)
    lm = make_problem("liouville_minus", {"x": 10_000}, tables_mid)
    assert members_array(lp).size + members_array(lm).size == 10_000
    assert 1 in members_array(lm)
    # count_Ad via the prefix table equals a direct scan
    for prob in (lp, lm):
        mem = members_array(prob)
        for d in (1, 2, 3, 5, 6, 30, 210):
            assert count_Ad(prob, d) == int(np.count_nonzero(mem % d == 0))
    assert sift_exact(lm, 10) > 0


def test_liouville_minus_tiny(tables_small):
    lm = make_problem("liouville_minus", {"x": 100}, tables_small)
    assert sift_exact(lm, 10) == 1  # only n = 1 survives


def test_sift_matches_brute_force_all_kinds(tables_small):
    probs = [
        make_problem("interval", {"x": 50, "y": 200}, tables_small),
        make_problem("arithmetic_progression", {"x": 500, "k": 6, "l": 5}, tables_small),
        make_problem("goldbach_product", {"two_N": 150}, tables_small),
        make_problem("shifted_prime", {"N": 300}, tables_small),
        make_problem("square_plus_one", {"x": 60}, tables_small),
        make_problem("liouville_plus", {"x": 400}, tables_small),
    ]
    for prob in probs:
        for z in (2, 5, 11, 23.5):
            ps = [int(q) for q in sieve_primes(prob, z)]
            want = brute_sift(members_array(prob).tolist(), ps, float("inf"))
            assert sift_exact(prob, z) == want, (prob.label, z)


def test_progression_count_closed_form(tables_small):
    p = make_problem("arithmetic_progression", {"x": 997, "k": 10, "l": 3}, tables_small)
    mem = members_array(p)
    for d in (1, 3, 7, 21, 11, 2, 5):
        want = int(np.count_nonzero(mem % d == 0))
        assert count_Ad(p, d) == want
    assert count_Ad(p, 2) == 0 and count_Ad(p, 5) == 0


def test_input_validation(tables_small):
    with pytest.raises(InputError):
        make_problem("arithmetic_progression", {"x": 100, "k": 6, "l": 2}, tables_small)
    with pytest.raises(InputError):
        make_problem("goldbach_product", {"two_N": 15}, tables_small)
    with pytest.raises(InputError):
        make_problem("shifted_prime", {"N": 101}, tables_small)
    with pytest.raises(InputError):
        make_problem("no_such_kind", {}, tables_small)
    p = make_problem("interval", {"x": 0, "y": 10}, tables_small)
    with pytest.raises(InputError):
        count_Ad(p, 12)  # not squarefree


def test_missing_parameter_is_an_input_error(tables_small):
    with pytest.raises(InputError, match="needs parameter y"):
        make_problem("interval", {"x": 0}, tables_small)
    with pytest.raises(InputError, match="needs parameter k, l"):
        make_problem("arithmetic_progression", {"x": 100, "l": None}, tables_small)
    for names, size in KINDS.values():
        assert size is None or size in names


def test_exact_scans_refuse_more_members_than_the_cap(monkeypatch, tables_small):
    huge = make_problem("interval", {"x": 0, "y": 10**12}, tables_small)
    with pytest.raises(CapacityError):
        sift_exact(huge, 100)  # a 10^12-byte mask, refused before it is allocated
    with pytest.raises(CapacityError):
        members_array(huge)
    monkeypatch.setattr(problem, "MAX_SCAN_MEMBERS", 1000)
    at_cap = [
        make_problem("interval", {"x": 5, "y": 1000}, tables_small),
        make_problem("arithmetic_progression", {"x": 3000, "k": 3, "l": 1}, tables_small),
    ]
    for p in at_cap:
        assert members_array(p).size == 1000
        assert sift_exact(p, 30) == brute_sift(members_array(p), sieve_primes(p, 30), 30)
    over = [
        make_problem("interval", {"x": 5, "y": 1001}, tables_small),
        make_problem("arithmetic_progression", {"x": 3001, "k": 3, "l": 1}, tables_small),
    ]
    for p in over:
        with pytest.raises(CapacityError):
            members_array(p)
        with pytest.raises(CapacityError):
            sift_exact(p, 30)


def test_density_range_guard():
    from sievelab.problem import MultiplicativeDensity

    bad = MultiplicativeDensity(lambda p: Fraction(p), "w(p) = p")
    with pytest.raises(DensityRangeError):
        bad.at_prime(5)


def test_x_matches_member_scale(tables_small):
    iv = make_problem("interval", {"x": 3, "y": 47}, tables_small)
    assert iv.X == 47.0
    ap = make_problem("arithmetic_progression", {"x": 1000, "k": 8, "l": 1}, tables_small)
    assert ap.X == 125.0
    assert abs(members_array(ap).size - ap.X) <= 1.0
