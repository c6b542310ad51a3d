from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from exact_reference import (
    close,
    exact_G,
    previous_lambda_weights,
    previous_y_values,
    reference_lambda_weights,
    reference_y_values,
)
from oracle import below, brute, support, w_product

import sievelab.selberg as sb
from sievelab.errors import CapacityError, InputError
from sievelab.problem import MultiplicativeDensity, PrimeSet, make_problem, sift_exact
from sievelab.selberg import (
    TWIN_CONSTANT,
    _sieve_densities,
    big_G,
    brun_titchmarsh,
    fundamental_upper_bound,
    goldbach_report,
    lambda_weights,
    mu_plus,
    twin_report,
    y_values,
)

def _restricted_G(xi, z, omega, tables, skip):
    """G(xi, z) summed over l coprime to the primes in skip."""
    ps = [p for p in _sieve_densities(z, omega, ALL, tables) if p not in skip]
    g = {p: brute.g_value([p], omega.at_prime) for p in ps}
    return sum((v for _, _, v, _, _ in support(ps, below(xi), g)), Fraction(0))


ONES = MultiplicativeDensity(lambda p: Fraction(1), "w = 1")
TWIN = MultiplicativeDensity(
    lambda p: Fraction(0) if p == 2 else Fraction(p, p - 1), "w(p) = p/(p-1), p > 2"
)
GOLDBACH20 = MultiplicativeDensity(
    lambda p: Fraction(1) if 20 % p == 0 else Fraction(2), "w for 2N = 20"
)
QUAD = MultiplicativeDensity(
    lambda p: Fraction(1) if p == 2 else (Fraction(2) if p % 4 == 1 else Fraction(0)),
    "w for n^2 + 1",
)
DENSITIES = [ONES, TWIN, GOLDBACH20, QUAD]
ALL = PrimeSet("all")


def test_g_value_closed_forms(tables_small):
    g = lambda_weights(20, 20, ONES, ALL, tables_small).g_values
    assert g[1] == 1
    assert g[2] == 1
    assert g[15] == Fraction(1, 2) * Fraction(1, 4)
    # twin-type density gives g(p) = 1/(p-2)
    g = lambda_weights(20, 20, TWIN, ALL, tables_small).g_values
    for p in (3, 5, 7, 11):
        assert g[p] == Fraction(1, p - 2)


def test_big_G_frozen(tables_small):
    assert exact_G(5, 5, ONES, ALL) == Fraction(5, 2)
    assert close(big_G(5, 5, ONES, ALL, tables_small), Fraction(5, 2))


def test_big_G_grows_like_log(tables_small):
    # with unit density and xi = z the sum dominates log z
    for z in (5, 50, 500):
        assert big_G(z, z, ONES, ALL, tables_small) >= math.log(z)


def test_big_G_progression_euler_phi(tables_small):
    # off the modulus the weight g(l) is 1/phi(l)
    ps = PrimeSet("coprime", 6)
    got = big_G(30, 30, ONES, ps, tables_small)
    want = Fraction(0)
    for l in range(1, 30):
        fac = []
        m = l
        f = 2
        sqfree = True
        while f * f <= m:
            if m % f == 0:
                m //= f
                if m % f == 0:
                    sqfree = False
                    break
                fac.append(f)
            f += 1
        if m > 1:
            fac.append(m)
        if not sqfree or math.gcd(l, 6) != 1:
            continue
        phi = 1
        for q in fac:
            phi *= q - 1
        want += Fraction(1, phi)
    assert exact_G(30, 30, ONES, ps) == want
    assert close(got, want)


def test_lambda_weights_tiny_frozen(tables_small):
    w = lambda_weights(3, 3, ONES, ALL, tables_small)
    assert w.lambdas == {1: Fraction(1), 2: Fraction(-1)}
    assert mu_plus(w).values == {1: Fraction(1), 2: Fraction(-1)}


GRID = [
    (omega, z, xi)
    for omega in DENSITIES
    for z in (10, 50)
    for xi in (20, 200)
]


@pytest.mark.parametrize("omega,z,xi", GRID)
def test_weight_contracts_on_grid(omega, z, xi, tables_small):
    w = lambda_weights(xi, z, omega, ALL, tables_small)
    assert w.lambdas[1] == 1
    assert all(abs(v) <= 1 for v in w.lambdas.values())

    # diagonalized variables both satisfy the inversion identity and hit
    # the closed-form optimum mu(l) g(l) / G
    yv = y_values(w)
    for l in w.lambdas:
        sign = -1 if len(w.factors[l]) % 2 else 1
        assert yv[l] == sign * w.g_values[l] / w.G
    for d in w.lambdas:
        lhs = Fraction(0)
        for l, yl in yv.items():
            if l % d == 0:
                lhs += (-1 if len(w.factors[l]) % 2 else 1) * yl
        om_d = w_product(omega.at_prime, w.factors[d])
        sign = -1 if len(w.factors[d]) % 2 else 1
        assert lhs == sign * om_d * w.lambdas[d] / d

    # shifted sums cannot exceed the full sum once re-weighted
    for d in w.lambdas:
        facs = w.factors[d]
        corr = Fraction(1)
        for p in facs:
            corr *= Fraction(p, p - omega.at_prime(p))
        assert w.G >= _restricted_G(xi / d, z, omega, tables_small, facs) * corr

    mp = mu_plus(w)
    assert mp.y == pytest.approx(xi * xi)
    for d, v in mp.values.items():
        assert d < xi * xi
        nu = len([p for p in w.primes if d % p == 0])
        assert abs(v) <= 3**nu


def _quadratic_lambdas(w, omega):
    """Reference weights: one pass over the support for each shifted sum."""
    out = {}
    for d, facs in w.factors.items():
        shifted = sum(
            (g for l, g in w.g_values.items() if l < w.xi / d and all(l % p for p in facs)),
            Fraction(0),
        )
        corr = Fraction(1)
        for p in facs:
            corr *= Fraction(p, p - omega.at_prime(p))
        out[d] = (-1) ** len(facs) * corr * shifted / w.G
    return out


def _quadratic_y(w, omega):
    """Reference y_l: one pass over the weights for each l."""
    return {
        l: sum(
            (w_product(omega.at_prime, w.factors[d]) * lam / d
             for d, lam in w.lambdas.items() if d % l == 0),
            Fraction(0),
        )
        for l in w.lambdas
    }


@pytest.mark.parametrize("omega,z,xi", GRID)
def test_weights_equal_quadratic_reference(omega, z, xi, tables_small):
    w = lambda_weights(xi, z, omega, ALL, tables_small)
    assert w.G == exact_G(xi, z, omega, ALL)
    assert close(big_G(xi, z, omega, ALL, tables_small), w.G)
    assert all(g == brute.g_value(w.factors[d], omega.at_prime) for d, g in w.g_values.items())
    assert w.lambdas == _quadratic_lambdas(w, omega)
    assert y_values(w) == _quadratic_y(w, omega)


def test_mu_plus_dominates_indicator(tables_small):
    w = lambda_weights(100, 30, ONES, ALL, tables_small)
    mp = mu_plus(w)
    sieve_ps = [p for p in w.primes]
    for n in range(1, 3_000):
        total = sum(v for d, v in mp.values.items() if n % d == 0)
        coprime = all(n % p for p in sieve_ps)
        assert total >= (1 if coprime else 0)
        if coprime:
            assert total == 1


def _fraction_loop_y(w):
    """Reference y_l: every term added to its divisors as a Fraction."""
    out = dict.fromkeys(w.lambdas, Fraction(0))
    for d, lam in w.lambdas.items():
        term = w_product(w.omega.at_prime, w.factors[d]) * lam / d
        for l in out:
            if d % l == 0:
                out[l] += term
    return out


def _fraction_loop_mu_plus(w):
    """Reference mu+: every ordered pair added as a Fraction."""
    values = {}
    for d1, l1 in w.lambdas.items():
        for d2, l2 in w.lambdas.items():
            m = d1 * d2 // math.gcd(d1, d2)
            values[m] = values.get(m, Fraction(0)) + l1 * l2
    return values


@pytest.mark.parametrize("omega", [ONES, TWIN, QUAD], ids=["ones", "twin", "quadratic"])
@pytest.mark.parametrize("xi", [30, 200, 1000])
def test_common_denominator_sums_equal_fraction_loops(omega, xi, tables_small):
    w = lambda_weights(xi, 100, omega, ALL, tables_small)
    assert y_values(w) == _fraction_loop_y(w)
    if xi <= 200:
        assert mu_plus(w).values == _fraction_loop_mu_plus(w)


def test_mu_plus_equals_fraction_loop_on_a_wide_support(tables_small):
    w = lambda_weights(1000, 100, ONES, ALL, tables_small)
    assert len(w.lambdas) >= 300
    assert mu_plus(w).values == _fraction_loop_mu_plus(w)


@pytest.mark.parametrize(
    "y,z", [(math.nan, 10.0), (100.0, 0.5), (100.0, 1.0), (1.0, 1.5), (math.inf, 10.0),
            (100.0, math.nan), (100.0, math.inf), ("100", 10.0)],
)
def test_one_sided_bounds_refuse_levels_without_meaning(y, z, tables_small, monkeypatch):
    import sievelab.rosser as rs
    from sievelab.rosser import combinatorial_bounds

    p = make_problem("interval", {"x": 0, "y": 1000}, tables_small)
    # refused at the entry, before any prime cut, W(z), walk or exact sift
    for module, name in ((sb, "sieve_primes"), (rs, "sieve_primes"), (rs, "problem_W")):
        monkeypatch.setattr(module, name, None)
    for bound in (fundamental_upper_bound, combinatorial_bounds):
        with pytest.raises(InputError, match="finite"):
            bound(p, y, z)


def test_weights_past_a_hundred_thousand_nodes_are_exact():
    # 103,350 nodes at xi = z = 1.7e5, past the 100,000 where the weights
    # used to turn to floats, in a child process so its peak RSS is its own.
    # The bound was written before the first run: 8 s and 300 MB.
    code = """if True:
        import resource, time
        from fractions import Fraction
        from sievelab import MultiplicativeDensity, PrimeSet, build_tables, lambda_weights
        t = build_tables(170_001)
        start = time.perf_counter()
        w = lambda_weights(1.7e5, 1.7e5, MultiplicativeDensity(lambda p: Fraction(1)),
                           PrimeSet("all"), t)
        s = time.perf_counter() - start
        top = max(w.factors)
        exact = type(w.G) is Fraction and type(w.lambdas[top]) is Fraction
        mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(len(w.lambdas), exact and w.lambdas[1] == 1 and abs(w.lambdas[top]) <= 1, s, mb)
    """
    src = str(Path(sb.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    nodes, exact, s, mb = out.stdout.split()
    assert (int(nodes), exact) == (103_350, "True")
    assert float(s) <= 8.0 and float(mb) <= 300.0, (s, mb)


@pytest.mark.parametrize("xi", [30_000, 100_000])
def test_weights_hold_at_most_the_stated_bytes_per_node(xi, tables_mid):
    # the traced peak of the weights, then of y_values with the weights and
    # its result both held, against WEIGHT_BYTES_PER_NODE (stated before this
    # test first ran)
    tracemalloc.start()
    try:
        w = lambda_weights(xi, xi, ONES, ALL, tables_mid)
        peak_w = tracemalloc.get_traced_memory()[1]
        ys = y_values(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes = len(w.factors)
    assert len(ys) == nodes
    assert peak <= sb.WEIGHT_BYTES_PER_NODE * nodes, (nodes, peak_w / nodes, peak / nodes)


#: the densities and prime sets of the benchmark's weights-scan workload
SCAN_DENSITIES = {
    "ones": (ONES, ALL),
    "pairs": (MultiplicativeDensity(lambda p: Fraction(1 if p == 2 else 2), "w(p) = 2, p > 2"), ALL),
    "quadratic": (QUAD, PrimeSet("two_or_one_mod_four")),
}


@pytest.mark.parametrize("name", SCAN_DENSITIES)
@pytest.mark.parametrize("xi", [200, 1000, 3000])
def test_superset_sums_equal_the_divisor_sums(name, xi, tables_small):
    omega, prime_set = SCAN_DENSITIES[name]
    got = lambda_weights(xi, 200, omega, prime_set, tables_small)
    want = reference_lambda_weights(xi, 200, omega, prime_set, tables_small)
    assert list(got.factors.items()) == list(want.factors.items())
    assert (got.lambdas, got.G, got.g_values) == (want.lambdas, want.G, want.g_values)
    assert y_values(got) == reference_y_values(want)


HALF = MultiplicativeDensity(lambda p: Fraction(1, 2), "w = 1/2")
#: densities whose w(d) is not an int (w = 1/2 and p/(p - 1)), and with some
#: w(p) = 0 on the prime set, beside the benchmark's: the zeros leave their
#: primes out of the support, and the others keep w(d) a Fraction
MIXED_DENSITIES = {
    "half": (HALF, ALL),
    "twin": (TWIN, ALL),
    "quadratic-all": (QUAD, ALL),
    "goldbach20": (GOLDBACH20, ALL),
    "p/(p-1)": (MultiplicativeDensity(lambda p: Fraction(p, p - 1), "w(p) = p/(p - 1)"),
                PrimeSet("coprime", 2)),
    **SCAN_DENSITIES,
}


@pytest.mark.parametrize("name", MIXED_DENSITIES)
@pytest.mark.parametrize("xi,z", [(30, 20), (1000, 200), (3000, 200)])
def test_weights_equal_the_references_for_every_density(name, xi, z, tables_small):
    omega, prime_set = MIXED_DENSITIES[name]
    got = lambda_weights(xi, z, omega, prime_set, tables_small)
    for want in (reference_lambda_weights(xi, z, omega, prime_set, tables_small),
                 previous_lambda_weights(xi, z, omega, prime_set, tables_small)):
        assert (got.lambdas, got.G, got.g_values) == (want.lambdas, want.G, want.g_values)
        assert got.w_values == want.w_values
    assert type(got.G) is Fraction and all(type(v) is Fraction for v in got.lambdas.values())
    ys = y_values(got)
    assert ys == reference_y_values(got) == previous_y_values(got)
    assert all(type(v) is Fraction for v in ys.values())
    # w(d) is an int exactly where every w(p), p | d, is whole
    whole = {q: omega.at_prime(q).denominator == 1 for q in got.primes}
    for d, v in got.w_values.items():
        assert (type(v) is int) == all(whole[q] for q in got.factors[d]), (name, d)


@pytest.mark.parametrize("name", MIXED_DENSITIES)
def test_lambdas_read_as_the_previous_dict(name, tables_small):
    # lambdas is a read-only mapping that forms each value when it is read:
    # the previous dict's keys in its order, its values and types, and y too
    omega, prime_set = MIXED_DENSITIES[name]
    for xi, z in ((30, 20), (3000, 200)):
        w = lambda_weights(xi, z, omega, prime_set, tables_small)
        want = previous_lambda_weights(xi, z, omega, prime_set, tables_small)
        got = w.lambdas
        assert len(got) == len(want.lambdas) and list(got.items()) == list(want.lambdas.items())
        assert all(type(v) is Fraction for v in got.values())
        assert 1 in got and 0 not in got and got.get(0) is None
        with pytest.raises(TypeError):
            got[1] = Fraction(0)
        ys = y_values(w)
        assert list(ys.items()) == list(previous_y_values(w).items())
        assert isinstance(ys, Mapping) and ys.get(0) is None
        with pytest.raises(TypeError):
            ys[1] = Fraction(0)


def test_each_density_is_read_once_per_sieve_prime(tables_small):
    reads = []
    omega = MultiplicativeDensity(lambda p: reads.append(p) or (0 if p == 3 else 2 if p > 2 else 1))
    for build in (sb.lambda_weights, sb.big_G):
        reads.clear()
        build(3000.0, 200, omega, ALL, tables_small)
        assert sorted(reads) == [int(p) for p in tables_small.primes[tables_small.primes < 200]]
    w = sb.lambda_weights(3000.0, 200, omega, ALL, tables_small)
    assert 3 not in w.primes and w.primes[:2] == [2, 5]  # w(3) = 0 sieves nothing


def test_walk_factors_past_the_table_equal_trial_division(tables_small):
    # d up to 30,000 is past the 10^4 table; the reference factors each d by
    # trial division by the sieve primes
    got = lambda_weights(30_000, 100, ONES, ALL, tables_small)
    want = reference_lambda_weights(30_000, 100, ONES, ALL, tables_small)
    assert max(got.factors) > tables_small.limit
    assert got.factors == want.factors and got.lambdas == want.lambdas


def test_fundamental_upper_bound_is_upper(tables_small):
    for kind, params, y, z in [
        ("interval", {"x": 0, "y": 10_000}, 400, 20),
        ("goldbach_product", {"two_N": 2_000}, 900, 30),
        ("shifted_prime", {"N": 5_000}, 400, 20),
    ]:
        prob = make_problem(kind, params, tables_small)
        rep = fundamental_upper_bound(prob, y, z)
        assert rep.upper_bound == pytest.approx(rep.main_term + rep.remainder_bound)
        assert rep.exact_count == sift_exact(prob, z)
        assert rep.upper_bound >= rep.exact_count


@pytest.mark.parametrize("y,z", [(100, 10), (2_000, 20), (20_000, 40)])
def test_upper_bound_equals_per_node_reference(kind_problems, oracle, y, z):
    for p in kind_problems:
        rep = fundamental_upper_bound(p, y, z, with_exact=False)
        main, rem = oracle.quadratic_sums(p, y, z)
        assert (rep.upper_bound, rep.remainder_bound) == (main + rem, rem), (p.kind, y, z)


def test_support_cap_fires_past_its_size(tables_small, monkeypatch):
    p = make_problem("interval", {"x": 0, "y": 10_000}, tables_small)
    size = len(support(list(_sieve_densities(20, p.omega, p.prime_set, p.tables)), below(400)))
    monkeypatch.setattr(sb, "MAX_SUPPORT", size)
    fundamental_upper_bound(p, 400, 20, with_exact=False)
    monkeypatch.setattr(sb, "MAX_SUPPORT", size - 1)
    with pytest.raises(CapacityError):
        fundamental_upper_bound(p, 400, 20, with_exact=False)


def test_mu_plus_pair_cap(tables_small, monkeypatch):
    w = lambda_weights(100, 30, ONES, ALL, tables_small)
    pairs = len(w.lambdas) ** 2
    monkeypatch.setattr(sb, "MAX_MU_PLUS_PAIRS", pairs)
    assert mu_plus(w).values[1] == 1
    monkeypatch.setattr(sb, "MAX_MU_PLUS_PAIRS", pairs - 1)
    refused = f"mu\\+ pairs .*: {pairs} is past the cap of {pairs - 1}$"
    with pytest.raises(CapacityError, match=refused):
        mu_plus(w)


def test_brun_titchmarsh_small(tables_small):
    rep = brun_titchmarsh(10_000, 1, 0, tables_small)
    assert rep.exact == 1229
    assert rep.sieve_bound >= 1229
    assert rep.exact <= rep.asymptotic_bound
    with pytest.raises(InputError):
        brun_titchmarsh(10_000, 4, 2, tables_small)
    assert brun_titchmarsh(10_000.0, 1, 0, tables_small) == rep
    for x in (math.nan, math.inf, 10_000.5):
        with pytest.raises(InputError, match="integer"):
            brun_titchmarsh(x, 3, 1, tables_small)


def _sieved_twin_constant() -> float:
    """2 prod over odd primes p <= 1e7 of (1 - (p-1)^-2), from a sieve of its own."""
    bound = 10_000_000
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    ps = np.nonzero(sieve)[0][1:].astype(np.float64)  # odd primes
    return 2.0 * math.exp(float(np.log1p(-((ps - 1.0) ** -2)).sum()))


def test_twin_constant_value():
    assert TWIN_CONSTANT == _sieved_twin_constant()
    assert abs(TWIN_CONSTANT - 1.3203236) < 1e-6


def test_goldbach_frozen(tables_small):
    rep = goldbach_report(50, tables_small)
    assert rep.exact == 12
    assert rep.bound >= rep.exact


def test_twin_frozen(tables_small):
    rep = twin_report(1_000, 1, tables_small)
    assert rep.exact == 35
    assert rep.bound >= rep.exact
    # shifted pairs p, p + 6 get the 3-adic correction factor 2
    rep6 = twin_report(1_000, 3, tables_small)
    assert rep6.reference == pytest.approx(2.0 * TWIN_CONSTANT)

