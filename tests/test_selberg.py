from __future__ import annotations

import math
from fractions import Fraction

import pytest

import sievelab.selberg as sb
from sievelab.errors import CapacityError, InputError
from sievelab.problem import MultiplicativeDensity, PrimeSet, make_problem, remainder, sift_exact
from sievelab.selberg import (
    _relevant_primes,
    _support,
    big_G,
    brun_titchmarsh,
    dimension_diagnostics,
    fundamental_upper_bound,
    goldbach_report,
    lambda_weights,
    mu_plus,
    twin_constant,
    twin_report,
    y_values,
)

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
    assert big_G(5, 5, ONES, ALL, tables_small) == Fraction(5, 2)


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
    assert got == want


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
    assert w.exact
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
        om_d = omega.at_squarefree(list(w.factors[d]))
        sign = -1 if len(w.factors[d]) % 2 else 1
        assert lhs == sign * om_d * w.lambdas[d] / d

    # shifted sums cannot exceed the full sum once re-weighted
    for d in w.lambdas:
        facs = w.factors[d]
        corr = Fraction(1)
        for p in facs:
            corr *= Fraction(p, p - omega.at_prime(p))
        assert w.G >= big_G(xi / d, z, omega, ALL, tables_small, skip=facs) * corr

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
            (omega.at_squarefree(list(w.factors[d])) * lam / d
             for d, lam in w.lambdas.items() if d % l == 0),
            Fraction(0),
        )
        for l in w.lambdas
    }


@pytest.mark.parametrize("omega,z,xi", GRID)
def test_weights_equal_quadratic_reference(omega, z, xi, tables_small):
    w = lambda_weights(xi, z, omega, ALL, tables_small)
    assert w.G == big_G(xi, z, omega, ALL, tables_small)
    assert all(
        g == math.prod(Fraction(omega.at_prime(p), p - omega.at_prime(p)) for p in w.factors[d])
        for d, g in w.g_values.items()
    )
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


def test_float_fallback_support(tables_small, monkeypatch):
    import sievelab.selberg as sb

    monkeypatch.setattr(sb, "MAX_EXACT_SUPPORT", 4)
    w = lambda_weights(30, 20, ONES, ALL, tables_small)
    assert not w.exact
    assert w.lambdas[1] == pytest.approx(1.0, abs=1e-12)
    assert all(abs(v) <= 1 + 1e-9 for v in w.lambdas.values())


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


def _reference_upper_bound(p, y, z):
    """The quadratic-form bound with every R_d rebuilt from d, one node at a time."""
    ps = _relevant_primes(z, p.omega, p.prime_set, p.tables)
    G = big_G(math.sqrt(y), z, p.omega, p.prime_set, p.tables)
    rem = math.fsum(3 ** len(f) * abs(remainder(p, d).r) for d, f in _support(ps, y))
    return float(p.X) / float(G) + rem, rem


@pytest.mark.parametrize("y,z", [(100, 10), (2_000, 20), (20_000, 40)])
def test_upper_bound_equals_per_node_reference(kind_problems, y, z):
    for p in kind_problems:
        rep = fundamental_upper_bound(p, y, z, with_exact=False)
        assert (rep.upper_bound, rep.remainder_bound) == _reference_upper_bound(p, y, z), (
            p.kind, y, z,
        )


def test_support_cap_fires_past_its_size(tables_small, monkeypatch):
    p = make_problem("interval", {"x": 0, "y": 10_000}, tables_small)
    size = len(_support(_relevant_primes(20, p.omega, p.prime_set, p.tables), 400))
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
    with pytest.raises(CapacityError, match="cap is"):
        mu_plus(w)


def test_brun_titchmarsh_small(tables_small):
    rep = brun_titchmarsh(10_000, 1, 0, tables_small)
    assert rep.exact == 1229
    assert rep.sieve_bound >= 1229
    assert rep.exact <= rep.asymptotic_bound
    with pytest.raises(InputError):
        brun_titchmarsh(10_000, 4, 2, tables_small)


def test_twin_constant_value():
    assert abs(twin_constant() - 1.3203236) < 1e-6


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
    assert rep6.reference == pytest.approx(2.0 * twin_constant())


def test_dimension_diagnostics(tables_mid):
    prob = make_problem("interval", {"x": 0, "y": 100_000}, tables_mid)
    rep = dimension_diagnostics(prob, 100, 100_000)
    assert 0.9 <= rep.kappa_hat <= 1.1
    assert rep.rounded_kappa == 1.0
    assert rep.envelope_bounds_ok
    assert rep.main_term > 0
