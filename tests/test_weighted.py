from __future__ import annotations

import math
import random

import pytest

from sievelab.buchstab import evaluate
from sievelab.errors import CapacityError, InputError
from sievelab.problem import make_problem, sift_exact
from sievelab.weighted import (
    WeightedConfig,
    W_exact,
    chen_report,
    lambda_r,
    level_condition,
    member_weight_term,
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
    checked = 0
    for n in range(30, 1_000_000, 997):
        if nu[n] != 0 and big[n] >= 3:
            assert member_weight_term(n, cfg, tables_big) <= 1e-12, n
            checked += 1
    assert checked > 100


def test_margin_sign_flips_at_threshold(grid):
    for r in (2, 3):
        g0 = 1.0 / lambda_r(r)
        for eps, want_positive in ((-0.004, False), (0.004, True)):
            g = g0 + eps
            cfg = WeightedConfig(
                N=10_000, r=r, alpha=g / 4, beta=g / (1 + 3.0**-r), gamma_level=g
            )
            mi, mc = level_condition(cfg, grid)
            assert (mi > 0) is want_positive
            assert (mc > 0) is want_positive
            assert abs(mi - mc) <= 1e-6


def test_margins_agree_on_admissible_grid(grid):
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
        mi, mc = level_condition(cfg, grid)
        assert mc is not None
        assert abs(mi - mc) <= 1e-6
        if min(abs(mi), abs(mc)) > 1e-9:
            assert (mi > 0) == (mc > 0)
        checked += 1


def test_closed_margin_absent_outside_its_range(grid):
    cfg = WeightedConfig(N=10**6, r=2, alpha=0.08, beta=0.4, gamma_level=0.5)
    mi, mc = level_condition(cfg, grid)
    assert mc is None
    assert math.isfinite(mi)


def test_level_condition_validation(grid):
    cfg = WeightedConfig(N=100, r=2, alpha=0.12, beta=0.6, gamma_level=0.5)
    with pytest.raises(InputError):
        level_condition(cfg, grid)  # beta above the level
    tiny = WeightedConfig(N=100, r=2, alpha=0.01, beta=0.4, gamma_level=0.5)
    with pytest.raises(InputError):
        level_condition(tiny, grid)  # gamma/alpha beyond the grid


def test_threshold_beats_constraint_on_grid():
    # beta = gamma/(1+3^-r) stays admissible as soon as gamma > 1/Lambda_r
    for r in range(2, 13):
        for bump in (1e-6, 1e-3, 0.05):
            g = 1.0 / lambda_r(r) + bump
            assert g > (1 + 3.0**-r) / (r + 1)


def test_weighted_sum_shifted_regime(tables_mid, grid):
    g = 0.49
    cfg = WeightedConfig(
        N=10_000, r=3, alpha=g / 4, beta=g / (1 + 3.0**-3), gamma_level=g
    )
    mi, mc = level_condition(cfg, grid)
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
