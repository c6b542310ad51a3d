from __future__ import annotations

import math
import random

import numpy as np
import pytest
from exact_reference import (
    reference_member_weight_term,
    reference_pr_count,
    reference_repeated_window_factor_count,
    reference_triple_count,
    reference_W_exact,
)

from sievelab.errors import CapacityError, InputError
from sievelab.problem import make_problem, sift_exact, sifted_members
from sievelab.weighted import (
    WeightedConfig,
    W_exact,
    _window_terms,
    chen_report,
    lambda_r,
    level_condition,
    pr_count,
    repeated_window_factor_count,
    richert_weight,
)


def test_lambda_thresholds():
    assert lambda_r(2) == pytest.approx(3 - math.log(3.6) / math.log(3), abs=1e-15)
    assert lambda_r(2) == pytest.approx(1.834043767146470, abs=1e-12)
    assert lambda_r(2) >= 11 / 6
    for r in range(2, 13):
        assert r - 2 / 7 < lambda_r(r) < r - 1 / 7
    for r in range(1, 15):
        assert lambda_r(r) < lambda_r(r + 1)
    with pytest.raises(InputError):
        lambda_r(0)


def test_richert_weight_values():
    cfg = WeightedConfig(N=10_000, r=2, alpha=0.125, beta=0.5, gamma_level=0.51)
    assert richert_weight(10, cfg) == pytest.approx(0.5, abs=1e-12)
    top = WeightedConfig(N=49, r=2, alpha=0.1, beta=0.5, gamma_level=0.6)
    assert richert_weight(7, top) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InputError):
        richert_weight(11, top)


def test_config_validation():
    with pytest.raises(InputError):
        WeightedConfig(N=1, r=2, alpha=0.1, beta=0.4, gamma_level=0.5)
    with pytest.raises(InputError):
        WeightedConfig(N=100, r=0, alpha=0.1, beta=0.4, gamma_level=0.5)
    with pytest.raises(InputError):
        WeightedConfig(N=100, r=2, alpha=0.4, beta=0.1, gamma_level=0.5)
    with pytest.raises(InputError):
        WeightedConfig(N=100, r=2, alpha=0.1, beta=0.3, gamma_level=0.5)
    with pytest.raises(InputError):
        WeightedConfig(N=100, r=2, alpha=0.1, beta=0.4, gamma_level=0.0)


def test_many_factor_members_get_nonpositive_terms(tables_big):
    # r+1 distinct factors force the window weights past 1 for any n <= N
    cfg = WeightedConfig(N=1_000_000, r=2, alpha=0.05, beta=0.4, gamma_level=0.5)
    nu = tables_big.mobius_table()  # only used to spot squarefree quickly
    big = tables_big.big_omega_table()
    ns = np.array([n for n in range(30, 1_000_000, 997) if nu[n] != 0 and big[n] >= 3])
    terms = _window_terms(ns, cfg, tables_big)[0]
    assert ns.size > 100
    assert np.all(terms <= 1e-12), ns[terms > 1e-12]


def test_margin_sign_flips_at_threshold():
    for r in (2, 3):
        g0 = 1.0 / lambda_r(r)
        for eps, want_positive in ((-0.004, False), (0.004, True)):
            g = g0 + eps
            cfg = WeightedConfig(
                N=10_000, r=r, alpha=g / 4, beta=g / (1 + 3.0**-r), gamma_level=g
            )
            mi, mc = level_condition(cfg)
            assert (mi > 0) is want_positive
            assert (mc > 0) is want_positive
            assert abs(mi - mc) <= 1e-6


def test_margins_agree_on_admissible_grid():
    rng = random.Random(0)
    checked = 0
    while checked < 100:
        r = rng.choice([2, 3, 4])
        g = rng.uniform(0.3, 0.9)
        a = rng.uniform(g / 4, g / 2)
        b_lo = max(a * 1.05, 1.0 / (r + 1) + 1e-3)
        if b_lo >= g * 0.98:
            continue
        b = rng.uniform(b_lo, g * 0.98)
        cfg = WeightedConfig(N=10**6, r=r, alpha=a, beta=b, gamma_level=g)
        mi, mc = level_condition(cfg)
        assert mc is not None
        assert abs(mi - mc) <= 1e-6
        if min(abs(mi), abs(mc)) > 1e-9:
            assert (mi > 0) == (mc > 0)
        checked += 1


def test_closed_margin_absent_outside_its_range():
    cfg = WeightedConfig(N=10**6, r=2, alpha=0.08, beta=0.4, gamma_level=0.5)
    mi, mc = level_condition(cfg)
    assert mc is None
    assert math.isfinite(mi)


def test_level_condition_validation():
    cfg = WeightedConfig(N=100, r=2, alpha=0.12, beta=0.6, gamma_level=0.5)
    with pytest.raises(InputError):
        level_condition(cfg)  # beta above the level
    # gamma/alpha = 50 is past the series' last unit, where f = F = 1.0; F on
    # [10, 49] is within 2e-10 of 1, so c = 2 times the integral of 1/v - 1/beta
    tiny = WeightedConfig(N=100, r=2, alpha=0.01, beta=0.4, gamma_level=0.5)
    mi, mc = level_condition(tiny)
    assert mi == pytest.approx(1.0 - 2.0 * (math.log(40.0) - 0.39 / 0.4), abs=1e-8)
    assert mc is None


def test_threshold_beats_constraint_on_grid():
    # beta = gamma/(1+3^-r) stays admissible as soon as gamma > 1/Lambda_r
    for r in range(2, 13):
        for bump in (1e-6, 1e-3, 0.05):
            g = 1.0 / lambda_r(r) + bump
            assert g > (1 + 3.0**-r) / (r + 1)


def test_weighted_sum_shifted_regime(tables_mid):
    g = 0.49
    cfg = WeightedConfig(
        N=10_000, r=3, alpha=g / 4, beta=g / (1 + 3.0**-3), gamma_level=g
    )
    mi, mc = level_condition(cfg)
    assert mi > 0 and mc > 0
    p = make_problem("shifted_prime", {"N": 10_000}, tables_mid)
    w = W_exact(p, cfg)
    assert w == pytest.approx(531.1567710734479, rel=1e-9)
    assert w > 0
    survivors_r = pr_count(p, 3, cfg.alpha, N=10_000)
    squares = repeated_window_factor_count(p, cfg)
    assert w <= survivors_r + squares


def test_weighted_sum_interval_edges(tables_mid):
    # no survivor at all
    empty = make_problem("interval", {"x": 1, "y": 3}, tables_mid)
    cfg = WeightedConfig(N=100, r=1, alpha=0.9, beta=0.95, gamma_level=1.0)
    assert W_exact(empty, cfg) == 0.0
    # survivors are 1 and the primes in [11, 97]; the window [10.47, 10.97)
    # contains no prime, so every term is exactly 1
    iv = make_problem("interval", {"x": 0, "y": 100}, tables_mid)
    cfg = WeightedConfig(N=100, r=1, alpha=0.51, beta=0.52, gamma_level=0.6)
    assert W_exact(iv, cfg) == 22.0


def test_pr_count_cases(tables_mid):
    iv = make_problem("interval", {"x": 0, "y": 100}, tables_mid)
    alpha11 = math.log(11) / math.log(100)
    assert pr_count(iv, 1, alpha11, N=iv.n_bound) == 22
    assert pr_count(iv, 0, alpha11, N=iv.n_bound) == 1  # just the unit
    assert pr_count(iv, 50, alpha11, N=iv.n_bound) == sift_exact(iv, 11)
    gp = make_problem("goldbach_product", {"two_N": 800}, tables_mid)
    assert pr_count(gp, 3, 0.15, N=800) > 0
    with pytest.raises(InputError):
        pr_count(iv, -1, alpha11, N=iv.n_bound)


def test_chen_counts(tables_mid):
    rep = chen_report(20, tables_mid)
    assert rep.count == 6
    assert rep.triple_count == 0
    big = chen_report(10_000, tables_mid)
    assert big.ratio >= 1.0
    assert big.count == 761
    assert big.triple_count == 45
    with pytest.raises(InputError):
        chen_report(21, tables_mid)
    with pytest.raises(CapacityError):
        chen_report(2 * tables_mid.limit, tables_mid)


#: the three problems and configs of the weighted-margins suite
SUITE_CONFIGS = [
    ("shifted_prime", {"N": 10_000},
     WeightedConfig(N=10_000, r=3, alpha=0.49 / 4, beta=0.49 / (1 + 3.0**-3), gamma_level=0.49)),
    ("shifted_prime", {"N": 10_000},
     WeightedConfig(N=10_000, r=2, alpha=0.55 / 4, beta=0.55 / (1 + 3.0**-2), gamma_level=0.55)),
    ("interval", {"x": 0, "y": 100_000},
     WeightedConfig(N=100_000, r=2, alpha=0.14, beta=0.45, gamma_level=0.5)),
]


def _column_equals_loop(p, cfg):
    assert W_exact(p, cfg) == reference_W_exact(p, cfg)
    assert repeated_window_factor_count(p, cfg) == reference_repeated_window_factor_count(p, cfg)
    for r in (0, 1, cfg.r, 5):
        assert pr_count(p, r, cfg.alpha, cfg.N) == reference_pr_count(p, r, cfg.alpha, cfg.N)


@pytest.mark.parametrize("kind,params,cfg", SUITE_CONFIGS)
def test_weighted_columns_equal_the_member_loops_on_the_suite_configs(kind, params, cfg, tables_mid):
    _column_equals_loop(make_problem(kind, params, tables_mid), cfg)


def _grid_problem(rng):
    """A problem whose members all lie within tables to 200,000."""
    kind = rng.choice(["interval", "shifted_prime", "goldbach_product", "square_plus_one",
                       "arithmetic_progression", "liouville_minus"])
    if kind == "interval":
        x = rng.randrange(0, 150_000)
        return kind, {"x": x, "y": rng.randrange(1, 200_000 - x)}
    if kind == "shifted_prime":
        return kind, {"N": 2 * rng.randrange(3, 100_000)}
    if kind == "goldbach_product":
        return kind, {"two_N": 2 * rng.randrange(3, 447)}
    if kind == "square_plus_one":
        return kind, {"x": rng.randrange(1, 447)}
    if kind == "arithmetic_progression":
        return kind, {"x": rng.randrange(10, 200_000), "k": rng.randrange(1, 50), "l": 1}
    return kind, {"x": rng.randrange(2, 200_000)}


def test_weighted_columns_equal_the_member_loops_on_a_grid(tables_mid):
    rng = random.Random(20_261_019)
    checked = 0
    while checked < 40:
        kind, params = _grid_problem(rng)
        alpha = rng.uniform(0.03, 0.3)
        beta = rng.uniform(alpha * 1.05, 0.8)
        r = rng.choice([1, 2, 3, 4])
        if (r + 1) * beta <= 1:
            continue
        p = make_problem(kind, params, tables_mid)
        N = rng.choice([p.n_bound, rng.randrange(2, max(p.n_bound, 3))])
        cfg = WeightedConfig(N=max(N, 2), r=r, alpha=alpha, beta=beta, gamma_level=beta + 0.01)
        _column_equals_loop(p, cfg)
        members = sifted_members(p, 2)[:: max(1, int(p.X) // 50)]
        for n, term in zip(members.tolist(), _window_terms(members, cfg, tables_mid)[0].tolist()):
            assert term == reference_member_weight_term(n, cfg, tables_mid), (kind, params, n)
        checked += 1


def test_weighted_columns_refuse_members_past_the_tables(tables_small):
    # n(2N - n) reaches 250,000, past tables to 10^4
    gp = make_problem("goldbach_product", {"two_N": 1_000}, tables_small)
    cfg = WeightedConfig(N=1_000, r=3, alpha=0.1, beta=0.4, gamma_level=0.5)
    for call in (W_exact, repeated_window_factor_count, lambda p, c: pr_count(p, 2, c.alpha, c.N)):
        with pytest.raises(CapacityError, match="member 250000 beyond table limit"):
            call(gp, cfg)


@pytest.mark.parametrize("N", [6, 20, 100, 1_000, 10_000, 10_002, 99_998, 200_000])
def test_chen_triple_count_equals_the_member_loop(N, tables_mid):
    assert chen_report(N, tables_mid).triple_count == reference_triple_count(N, tables_mid)


def test_window_top_edge_is_open_in_columns(tables_mid):
    # log 101 == 0.5 log 101^2 exactly, so 101 sits on the window's open top
    # edge and 101^2, a survivor, has no repeated window prime
    p = make_problem("interval", {"x": 0, "y": 101**2}, tables_mid)
    cfg = WeightedConfig(N=101**2, r=2, alpha=0.1, beta=0.5, gamma_level=0.6)
    assert 0.5 * math.log(101**2) == math.log(101)
    _column_equals_loop(p, cfg)
