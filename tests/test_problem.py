from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from oracle import at_most, w_product

import sievelab.problem as problem
from sievelab.arith import build_tables
from sievelab.errors import CapacityError, DensityRangeError, InputError
from sievelab.legendre import legendre_count, mertens_products
from sievelab.problem import (
    INT64_MAX,
    KINDS,
    Admit,
    PrimeSet,
    divisor_walk,
    kind_shape,
    make_problem,
    remainder,
    sieve_primes,
    sift_exact,
    sifted_members,
)
from sievelab.selberg import big_G, fundamental_upper_bound


def remainder_rows(oracle, p, primes, n) -> dict:
    """remainder's (#A_d, main, R_d) for each d <= n from primes, by d, held
    equal to the oracle's."""
    walk = divisor_walk(p, primes, Admit(n))
    rec = remainder(p, walk.d, walk.count, walk.v)
    got = dict(zip(rec.d.tolist(), zip(rec.count.tolist(), rec.main.tolist(), rec.r.tolist())))
    nodes = oracle.nodes(p, primes, at_most(n))
    assert got == {d: (c, *rec) for (d, _, _, c, _), rec in zip(nodes, oracle.remainders(p, nodes))}
    return got


def test_interval_sift_small(tables_small, oracle):
    p = make_problem("interval", {"x": 0, "y": 30}, tables_small)
    assert sift_exact(p, 7) == 8  # {1, 7, 11, 13, 17, 19, 23, 29}
    assert sift_exact(p, 2) == 30
    count, _, r = remainder_rows(oracle, p, [2, 3], 6)[6]
    assert (count, r) == (5, 0.0)


def test_interval_remainder_at_most_one(tables_small, oracle):
    p = make_problem("interval", {"x": 137, "y": 1000}, tables_small)
    rows = remainder_rows(oracle, p, oracle.sieve_primes(p, 300), 299)  # every squarefree d < 300
    assert len(rows) == np.count_nonzero(tables_small.mobius_table()[1:300])
    assert all(abs(r) <= 1.0 for _, _, r in rows.values())


def test_goldbach_density_counts_roots(tables_small):
    two_n = 60
    p = make_problem("goldbach_product", {"two_N": two_n}, tables_small)
    for d in (3, 5, 7, 11, 13, 15, 21, 35):
        fac = [q for q in (3, 5, 7, 11, 13) if d % q == 0]
        w = w_product(p.omega.at_prime, fac)
        roots = sum(1 for m in range(d) if (m * (two_n - m)) % d == 0)
        assert w == roots


def test_goldbach_frozen_count(tables_small, oracle):
    p = make_problem("goldbach_product", {"two_N": 20}, tables_small)
    assert remainder_rows(oracle, p, [3], 3)[3][0] == 12
    assert sift_exact(p, 2) == 17


def test_shifted_prime_members(tables_small, oracle):
    n_par = 100
    p = make_problem("shifted_prime", {"N": n_par}, tables_small)
    odd_primes = [q for q in range(3, 98) if all(q % r for r in range(2, q))]
    want = sorted(n_par - q for q in odd_primes if n_par % q)
    assert sorted(sifted_members(p, 2).tolist()) == want
    # density vanishes on p | N: main term must be zero there
    count, main, r = remainder_rows(oracle, p, [5], 5)[5]
    assert main == 0.0 and count == r + 0.0
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
        assert w_product(p.omega.at_prime, fac) == roots


def test_liouville_counts(tables_mid, oracle):
    lp = make_problem("liouville_plus", {"x": 10_000}, tables_mid)
    lm = make_problem("liouville_minus", {"x": 10_000}, tables_mid)
    assert sift_exact(lp, 2) + sift_exact(lm, 2) == 10_000
    assert 1 in sifted_members(lm, 2)
    # #A_d via the tables' summatory equals a direct scan, for every d | 210
    for prob in (lp, lm):
        assert len(remainder_rows(oracle, prob, [2, 3, 5, 7], 210)) == 16
    assert sift_exact(lm, 10) > 0


def test_liouville_counts_read_the_summatory_as_a_local_cumsum(tables_mid):
    # the old per-problem prefix: plus[m] = #{n <= m : lambda(n) = 1}
    x = 150_000
    plus = np.concatenate(([0], np.cumsum(tables_mid.liouville_table()[1 : x + 1] == 1)))
    mob = tables_mid.mobius_table()
    for kind, target in (("liouville_plus", -1), ("liouville_minus", 1)):
        p = make_problem(kind, {"x": x}, tables_mid)
        walk = divisor_walk(p, tables_mid.primes[tables_mid.primes <= 10_000], Admit(10_000))
        assert walk.d.size == np.count_nonzero(mob[1:10_001])  # every squarefree d <= 10^4
        for d, got in zip(walk.d.tolist(), walk.count.tolist()):
            t = x // d
            want = int(plus[t]) if target == mob[d] else t - int(plus[t])
            assert got == want, (kind, d)


def test_liouville_start_mask_is_built_once(tables_small, oracle, monkeypatch):
    # the mask lambda(n) = target is read off the Liouville table when the
    # problem is built; a sift at each new cut strikes a copy of it
    p = make_problem("liouville_plus", {"x": 5_000}, tables_small)
    reads = []
    table = type(tables_small).liouville_table
    monkeypatch.setattr(type(tables_small), "liouville_table",
                        lambda self: reads.append(self) or table(self))
    for z in (10, 30):
        assert sift_exact(p, z) == oracle.sifted(p, z)
    assert reads == []
    assert np.array_equal(p.mask, tables_small.liouville_table()[1:5_001] == -1)


def test_liouville_minus_tiny(tables_small):
    lm = make_problem("liouville_minus", {"x": 100}, tables_small)
    assert sift_exact(lm, 10) == 1  # only n = 1 survives


def test_sift_matches_brute_force_all_kinds(tables_small, oracle):
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
            assert sift_exact(prob, z) == oracle.sifted(prob, z), (prob.label, z)


def test_progression_count_closed_form(tables_small, oracle):
    p = make_problem("arithmetic_progression", {"x": 997, "k": 10, "l": 3}, tables_small)
    rows = remainder_rows(oracle, p, [2, 3, 5, 7, 11], 21)  # d = 1, 3, 7, 21, 11, 2, 5 among them
    assert rows[2][0] == 0 and rows[5][0] == 0


def test_input_validation(tables_small):
    with pytest.raises(InputError):
        make_problem("arithmetic_progression", {"x": 100, "k": 6, "l": 2}, tables_small)
    with pytest.raises(InputError):
        make_problem("goldbach_product", {"two_N": 15}, tables_small)
    with pytest.raises(InputError):
        make_problem("shifted_prime", {"N": 101}, tables_small)
    with pytest.raises(InputError):
        make_problem("no_such_kind", {}, tables_small)


def test_missing_parameter_is_an_input_error(tables_small):
    with pytest.raises(InputError, match="needs parameter y"):
        make_problem("interval", {"x": 0}, tables_small)
    with pytest.raises(InputError, match="needs parameter k, l"):
        make_problem("arithmetic_progression", {"x": 100, "l": None}, tables_small)
    for kind, (names, _) in KINDS.items():
        shape = kind_shape(kind, {name: 1 if name == "l" else 1000 for name in names})
        assert shape.need in (0, 1000)  # a kind's own table need is one of its parameters


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5, "a", "100", Fraction(3, 2)])
def test_non_integer_parameters_are_input_errors(bad, tables_small):
    with pytest.raises(InputError, match="must be an integer"):
        make_problem("liouville_plus", {"x": bad}, tables_small)
    with pytest.raises(InputError, match="must be an integer"):
        kind_shape("arithmetic_progression", {"x": 1000, "k": 7, "l": bad})


def test_integral_floats_are_integer_parameters(tables_small):
    ints = make_problem("interval", {"x": 10, "y": 100}, tables_small)
    assert make_problem("interval", {"x": 10.0, "y": 1e2}, tables_small) == ints
    assert make_problem("interval", {"x": np.int64(10), "y": 100}, tables_small) == ints


def test_exact_scans_refuse_more_members_than_the_cap(monkeypatch, tables_small, oracle):
    huge = make_problem("interval", {"x": 0, "y": 10**12}, tables_small)
    with pytest.raises(CapacityError):
        sift_exact(huge, 100)  # a 10^12-byte mask, refused before it is allocated
    with pytest.raises(CapacityError):
        sifted_members(huge, 2)
    monkeypatch.setattr(problem, "MAX_SCAN_MEMBERS", 1000)
    at_cap = [
        make_problem("interval", {"x": 5, "y": 1000}, tables_small),
        make_problem("arithmetic_progression", {"x": 3000, "k": 3, "l": 1}, tables_small),
    ]
    for p in at_cap:
        assert sifted_members(p, 2).size == 1000
        assert sift_exact(p, 30) == oracle.sifted(p, 30)
    over = [
        make_problem("interval", {"x": 5, "y": 1001}, tables_small),
        make_problem("arithmetic_progression", {"x": 3001, "k": 3, "l": 1}, tables_small),
    ]
    for p in over:
        with pytest.raises(CapacityError):
            sifted_members(p, 2)
        with pytest.raises(CapacityError):
            sift_exact(p, 30)


def test_density_range_guard():
    from sievelab.problem import MultiplicativeDensity

    bad = MultiplicativeDensity(lambda p: Fraction(p), "w(p) = p")
    with pytest.raises(DensityRangeError):
        bad.at_prime(5)


def test_x_matches_member_scale(tables_small, oracle):
    iv = make_problem("interval", {"x": 3, "y": 47}, tables_small)
    assert iv.X == 47.0
    ap = make_problem("arithmetic_progression", {"x": 1000, "k": 8, "l": 1}, tables_small)
    assert ap.X == 125.0
    assert abs(oracle.members(ap).size - ap.X) <= 1.0


def test_walk_stops_at_first_refusal(tables_big, oracle, monkeypatch):
    # a node takes one run of later primes, ending where its bound refuses:
    # the walks behind these bounds visit exactly the nodes of the oracle's
    # support (one admit test per candidate, stopping at the first refusal)
    import sievelab.legendre as lg
    import sievelab.rosser as rs
    import sievelab.selberg as sb

    walks = []  # (arguments, walk) per walk

    def recording_walk(p, primes, admit, *args, **kwargs):
        walk = problem.divisor_walk(p, primes, admit, *args, **kwargs)
        walks.append(((p, list(primes), admit, *args), kwargs, walk))
        return walk

    for module in (lg, rs, sb):
        monkeypatch.setattr(module, "divisor_walk", recording_walk)
    p = make_problem("liouville_minus", {"x": 995_000}, tables_big)
    lg.legendre_count(p, 100)
    sb.fundamental_upper_bound(p, 1e6, 100, with_exact=False)
    rs.combinatorial_bounds(p, 1e6, 100, with_exact=False)
    assert len(walks) == 5  # legendre, G, quadratic remainder, the M+ and M- supports
    for (q, primes, admit, *args), kwargs, walk in walks:

        def admits(d, nu, r, admit=admit):  # the rule as the reference tests it, per candidate
            checked = admit.parity is None or nu % 2 == admit.parity
            return not checked or r**admit.power <= admit.bound // d

        prune = kwargs.get("prune_empty", False)  # the one walk whose counts shape it
        ref = oracle.nodes(q if prune else None, primes, admits, prune_empty=prune)
        assert sorted(walk.d.tolist()) == sorted(node[0] for node in ref)


def test_kind_shape_states_sizes_without_tables(kind_problems, oracle):
    for p in kind_problems:
        shape = kind_shape(p.kind, p.params)
        assert (shape.label, shape.X, shape.n_bound) == (p.label, p.X, p.n_bound)
        assert int(oracle.members(p).max()) <= shape.n_bound
        # tables to exactly the kind's need are enough; one short of it is refused
        lo = max(shape.need, 30)
        assert make_problem(p.kind, p.params, build_tables(lo)).n_bound == p.n_bound
        if shape.need:
            with pytest.raises(CapacityError):
                make_problem(p.kind, p.params, build_tables(shape.need - 1))
        # the prime set is exactly {q : w(q) > 0}, so the sieves may read it as given
        below = p.tables.primes[p.tables.primes < 1000].tolist()
        positive = [q for q in below if p.omega.at_prime(q) > 0]
        assert sieve_primes(p, 1000).tolist() == positive, p.kind


def _periodic_count(f, lo: int, hi: int, m: int) -> int:
    """#{lo <= n <= hi : gcd(f(n), m) = 1}, one period of m at a time."""
    good = [math.gcd(f(n), m) == 1 for n in range(m)]
    full, rest = divmod(hi - lo + 1, m)
    return full * sum(good) + sum(good[n % m] for n in range(hi - rest + 1, hi + 1))


def test_scans_past_the_cap_are_refused_before_the_mask_is_built(tables_small):
    import tracemalloc

    # goldbach and n^2 + 1 store no mask (and no members), so these
    # problems build and count exactly; every scan of their 2e9 and 1e9
    # indices is refused before its mask is allocated
    for kind, params, f, lo, z in (
        ("goldbach_product", {"two_N": 2 * 10**9}, lambda n: n * (2 * 10**9 - n), 2, 12),
        ("square_plus_one", {"x": 10**9}, lambda n: n * n + 1, 1, 30),
    ):
        assert kind_shape(kind, params).need == 0
        p = make_problem(kind, params, tables_small)
        assert p.mask is None
        m = math.prod(sieve_primes(p, z).tolist())
        assert legendre_count(p, z) == _periodic_count(f, lo, kind_shape(kind, params).hi, m)
        for scan in (sift_exact, sifted_members):
            tracemalloc.start()
            with pytest.raises(CapacityError, match="scan indices: .* past the cap of 100000000$"):
                scan(p, z)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 1 << 20, (kind, peak)


def test_prime_cut_past_the_tables_is_refused():
    t = build_tables(30)
    p = make_problem("interval", {"x": 0, "y": 10_000}, t)
    assert sift_exact(p, 31) == legendre_count(p, 31)  # z = limit + 1 still lists every prime
    for call in (
        lambda: sift_exact(p, 60),
        lambda: legendre_count(p, 60),
        lambda: fundamental_upper_bound(p, 10_000, 60).exact_count,
        lambda: big_G(100, 60, p.omega, p.prime_set, t),
        lambda: mertens_products(60, p.omega, PrimeSet(), t),
    ):
        with pytest.raises(CapacityError, match="beyond table limit 30"):
            call()


def test_shrinking_scan_keeps_the_mask_scans_values_in_order(kind_problems, oracle):
    for p in kind_problems:
        for z in (1.5, 2, 3, 30, 60):
            got, want = sifted_members(p, z), oracle.survivors(p, z)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), (p.kind, z)


def test_one_scan_per_problem_and_prime_cut(tables_small, kind_problems, oracle, monkeypatch):
    from sievelab.rosser import combinatorial_bounds

    scans = []
    count_survivors = problem._count_survivors
    monkeypatch.setattr(
        problem, "_count_survivors", lambda p, rp: scans.append(rp.size) or count_survivors(p, rp)
    )
    for kind, params in (("interval", {"x": 137, "y": 4_000}),
                         ("liouville_plus", {"x": 8_000})):
        p = make_problem(kind, params, tables_small)
        pair = combinatorial_bounds(p, 1e4, 30, with_exact=True)
        quad = fundamental_upper_bound(p, 1e4, 30)
        assert pair.upper.exact_count == quad.exact_count == oracle.sifted(p, 30)
        assert scans == [10]
        assert sift_exact(p, 31) == quad.exact_count and scans == [10]  # 31 adds no prime
        assert sift_exact(p, 32) == oracle.sifted(p, 32) and scans == [10, 11]
        again = make_problem(kind, params, tables_small)
        assert repr(again) == repr(p) and "_sifted" not in repr(p)  # the memo is not shown
        assert sift_exact(again, 30) == quad.exact_count and scans == [10, 11, 10]
        scans.clear()
    # nor part of the problem's value, which is its kind, parameters and tables
    for q in kind_problems:
        p, again = (make_problem(q.kind, q.params, tables_small) for _ in range(2))
        sift_exact(p, 30)
        assert p._sifted and not again._sifted and p == again == q, q.kind
        first = KINDS[q.kind][0][0]
        other = make_problem(q.kind, {**q.params, first: q.params[first] + 2}, tables_small)
        assert p != other, q.kind


def test_members_past_int64_are_refused(tables_small):
    # members, walked divisors and counts are int64: a kind whose largest
    # member passes it is refused by kind_shape, for the formula kinds too
    for kind, params in (("interval", {"x": 10**19, "y": 10}),
                         ("interval", {"x": 2**63 - 10, "y": 10}),
                         ("arithmetic_progression", {"x": 2**63, "k": 3, "l": 1}),
                         ("goldbach_product", {"two_N": 2 * 10**10}),
                         ("square_plus_one", {"x": 10**10})):
        with pytest.raises(CapacityError, match=f"largest member .* past the cap of {INT64_MAX}$"):
            kind_shape(kind, params)
        with pytest.raises(CapacityError, match=f"largest member .* past the cap of {INT64_MAX}$"):
            make_problem(kind, params, tables_small)
    at_edge = make_problem("interval", {"x": 2**63 - 11, "y": 10}, tables_small)
    assert at_edge.n_bound == 2**63 - 1
    assert sifted_members(at_edge, 30).tolist() == [
        n for n in range(2**63 - 10, 2**63) if all(n % q for q in sieve_primes(at_edge, 30).tolist())
    ]
    assert legendre_count(at_edge, 30) == sifted_members(at_edge, 30).size


@pytest.mark.parametrize("z", [0.5, 1, 2, 2.5, 3, 7.0, 97, 97.5, 100, 10_001])
def test_primes_below_slices_the_old_mask(tables_small, z):
    from sievelab.problem import primes_below

    t = tables_small
    for prime_set in (PrimeSet("all"), PrimeSet("coprime", 30), PrimeSet("two_or_one_mod_four")):
        got = primes_below(z, prime_set, t)
        assert got.tolist() == prime_set.select(t.primes[t.primes < z]).tolist()
