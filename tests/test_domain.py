"""The library's numeric domain: every public function that takes numbers either
answers or raises one of the package's three errors, quickly."""

from __future__ import annotations

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievelab as S
from sievelab.errors import finite, integer, within
from sievelab.harness import run_suite
from sievelab.parity import root_ceiling

PACKAGE_ERRORS = (S.InputError, S.CapacityError, S.DensityRangeError)

#: numbers outside most domains, and a few small ones inside them
BAD = [math.nan, math.inf, -math.inf, 0, -1, 0.5, 1, 1e300, 10**400, "a"]
SMALL = [2, 3, 7, 2.5]


@pytest.fixture(scope="module")
def ctx(tables_small):
    omega = S.MultiplicativeDensity(lambda p: Fraction(1))
    cfg = S.WeightedConfig(N=1000, r=3, alpha=0.1225, beta=0.4725, gamma_level=0.49)
    return {
        "t": tables_small, "omega": omega, "cfg": cfg,
        "p": S.make_problem("interval", {"x": 0, "y": 200}, tables_small),
    }


#: public callable -> (a call given the context and its numbers, valid numbers)
CALLS = {
    "build_tables": (lambda c, n: S.build_tables(n), (100,)),
    "factorize": (lambda c, n: S.factorize(n, c["t"]), (12,)),
    "integrate_adaptive": (lambda c, a, b, tol: S.integrate_adaptive(lambda u: 1.0, a, b, tol),
                           (0, 1, 1e-6)),
    "li_eval": (lambda c, x: S.li_eval(x), (10,)),
    "mult_stats": (lambda c, n: S.mult_stats(n, c["t"]), (12,)),
    "pi_ap": (lambda c, x, k, l: S.pi_ap(x, k, l, c["t"]), (100, 3, 1)),
    "prime_pi": (lambda c, x: S.prime_pi(x, c["t"]), (100,)),
    "build_grid": (lambda c, s_max, step: S.build_grid(s_max, step), (6, 1e-3)),
    "grid_cached": (lambda c, s_max, step: S.grid_cached(s_max, step), (6, 1e-3)),
    "evaluate": (lambda c, s: S.evaluate(s, "F"), (2.5,)),
    "bv_scan": (lambda c, x, q: S.bv_scan(x, q, c["t"]), (100, 3)),
    "legendre_count": (lambda c, z: S.legendre_count(c["p"], z), (10,)),
    "legendre_remainder_sum": (lambda c, z: S.legendre_remainder_sum(c["p"], z), (10,)),
    "mertens_products": (lambda c, z: S.mertens_products(z, c["omega"], S.PrimeSet(), c["t"]),
                         (10,)),
    "problem_W": (lambda c, z: S.problem_W(c["p"], z), (10,)),
    "L_summatory": (lambda c, x: S.L_summatory(x, c["t"]), (100,)),
    "S_pm_exact": (lambda c, x, s, sign: S.S_pm_exact(x, s, sign, c["t"]), (100, 2, 1)),
    "prediction_row": (lambda c, x, s: S.prediction_row(x, s, c["t"]), (100, 2.5)),
    "recursion_check": (lambda c, x, s, sign: S.recursion_check(x, s, sign, c["t"]), (100, 2, -1)),
    "rough_signed_count": (lambda c, n, p_min, sign: S.rough_signed_count(n, p_min, sign, c["t"]),
                           (100, 3, 1)),
    "make_problem": (lambda c, x, y: S.make_problem("interval", {"x": x, "y": y}, c["t"]),
                     (0, 100)),
    "sift_exact": (lambda c, z: S.sift_exact(c["p"], z), (10,)),
    "sifted_members": (lambda c, z: S.sifted_members(c["p"], z), (10,)),
    "PrimeSet": (lambda c, m: S.PrimeSet("coprime", m), (6,)),
    "combinatorial_bounds": (lambda c, y, z: S.combinatorial_bounds(c["p"], y, z), (100, 5)),
    "fundamental_lemma_report": (
        lambda c, y, s: S.fundamental_lemma_report(c["p"], y, [s]), (100, 2)),
    "truncated_mobius_sum": (lambda c, y, z, sign: S.truncated_mobius_sum(c["p"], y, z, sign),
                             (100, 10, 1)),
    "brun_titchmarsh": (lambda c, x, k, l: S.brun_titchmarsh(x, k, l, c["t"]), (1000, 3, 1)),
    "fundamental_upper_bound": (lambda c, y, z: S.fundamental_upper_bound(c["p"], y, z), (100, 5)),
    "goldbach_report": (lambda c, n: S.goldbach_report(n, c["t"]), (50,)),
    "lambda_weights": (
        lambda c, xi, z: S.lambda_weights(xi, z, c["omega"], S.PrimeSet(), c["t"]), (10, 10)),
    "twin_report": (lambda c, x, k: S.twin_report(x, k, c["t"]), (100, 1)),
    "WeightedConfig": (lambda c, *v: S.WeightedConfig(*v), (1000, 3, 0.1225, 0.4725, 0.49)),
    "chen_report": (lambda c, n: S.chen_report(n, c["t"]), (100,)),
    "lambda_r": (lambda c, r: S.lambda_r(r), (2,)),
    "pr_count": (lambda c, r, alpha, n: S.pr_count(c["p"], r, alpha, N=n), (2, 0.1, 100)),
    "richert_weight": (lambda c, p: S.richert_weight(p, c["cfg"]), (3,)),
}

#: public callables that take no number: result and input containers, the
#: error types, and functions of containers alone
NO_NUMBERS = {
    "BVScanResult", "BoundPair", "BrunTitchmarshReport", "CapacityError",
    "ChenReport", "DensityRangeError", "FundamentalRow", "InputError", "MertensValue",
    "MultStats", "MultiplicativeDensity", "PairBoundReport", "ParityRow", "PrimeTables",
    "SelbergWeights", "SieveProblem", "SieveReport", "SieveWeights",
    "W_exact", "level_condition", "mu_plus",
    "repeated_window_factor_count", "save_grid", "y_values",
}


def test_every_public_callable_is_in_scope():
    public = {name for name in S.__all__ if callable(getattr(S, name))}
    assert public == set(CALLS) | NO_NUMBERS


def _has_nan(obj) -> bool:
    """Whether a float field (not an array entry) of the result is NaN."""
    if isinstance(obj, float):
        return math.isnan(obj)
    if dataclasses.is_dataclass(obj):
        return any(_has_nan(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return any(_has_nan(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_has_nan(v) for v in obj)
    return False


def _outcome(call):
    start = time.perf_counter()
    try:
        result = call()
    except PACKAGE_ERRORS:
        result = None
    assert time.perf_counter() - start < 1.0
    return result


def test_each_number_alone_out_of_domain(ctx):
    for name, (call, valid) in CALLS.items():
        for i in range(len(valid)):
            for v in BAD + SMALL:
                args = [*valid[:i], v, *valid[i + 1:]]
                assert not _has_nan(_outcome(lambda: call(ctx, *args))), (name, args)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(data=st.data())
def test_public_calls_answer_or_raise_a_package_error(ctx, data):
    name = data.draw(st.sampled_from(sorted(CALLS)), label="function")
    call, valid = CALLS[name]
    args = [data.draw(st.sampled_from([v, *BAD, *SMALL])) for v in valid]
    assert not _has_nan(_outcome(lambda: call(ctx, *args))), (name, args)


def _nan_integrand(u: float) -> float:  # never called: the bounds are refused first
    raise AssertionError


# calls just outside a domain, each of which once slipped past every check
PROBES = {
    "root_ceiling past a float": lambda c: root_ceiling(10**400, 1.1),
    "lemma at s = 1e-300": lambda c: S.fundamental_lemma_report(c["p"], 100, [1e-300]),
    "prediction_row x = 10000.5": lambda c: S.prediction_row(10000.5, 2, c["t"]),
    "prediction_row s = 1": lambda c: S.prediction_row(100, 1, c["t"]),
    "evaluate s = 0": lambda c: S.evaluate(0.0, "F"),
    "evaluate s = -1": lambda c: S.evaluate(-1.0, "f"),
    "evaluate s = nan": lambda c: S.evaluate(math.nan, "F"),
    "evaluate s = inf": lambda c: S.evaluate(math.inf, "f"),
    "evaluate which = g": lambda c: S.evaluate(2.5, "g"),
    "mult_stats n = 10.5": lambda c: S.mult_stats(10.5, c["t"]),
    "bv_scan x = 1000.5": lambda c: S.bv_scan(1000.5, 3, c["t"]),
    "pi_ap k = 3.5": lambda c: S.pi_ap(100, 3.5, 1, c["t"]),
    "lambda_r r = 2.5": lambda c: S.lambda_r(2.5),
    "truncated_mobius_sum y = nan": lambda c: S.truncated_mobius_sum(c["p"], math.nan, 10, 1),
    "WeightedConfig gamma = nan": lambda c: S.WeightedConfig(
        N=1000, r=3, alpha=0.1225, beta=0.4725, gamma_level=math.nan),
    "li_eval nan": lambda c: S.li_eval(math.nan),
    "integrate_adaptive to nan": lambda c: S.integrate_adaptive(_nan_integrand, 0, math.nan),
    "pr_count with N^alpha past a float": lambda c: S.pr_count(c["p"], 2, 1e300, N=100),
    "pi_ap with a modulus past the tables": lambda c: S.pi_ap(100, 1e300, 1, c["t"]),
    "progression modulus past int64": lambda c: S.make_problem(
        "arithmetic_progression", {"x": 100, "k": 1e30, "l": 1}, c["t"]),
}


@pytest.mark.parametrize("call", list(PROBES.values()), ids=list(PROBES))
def test_out_of_domain_calls_raise_a_package_error_at_once(ctx, call):
    start = time.perf_counter()
    with pytest.raises(PACKAGE_ERRORS):
        call(ctx)
    assert time.perf_counter() - start < 1.0


def test_run_suite_refuses_unknown_names():
    for name in ("nope", math.nan, 1):
        with pytest.raises(S.InputError, match="unknown suite"):
            run_suite(name)


def test_an_integral_float_is_an_integer(tables_small):
    assert S.build_tables(1e3) == S.build_tables(1000)
    assert S.lambda_r(2.0) == S.lambda_r(2)
    assert S.factorize(360.0, tables_small) == S.factorize(360, tables_small)
    rep = S.bv_scan(1000.0, 3, tables_small)
    assert rep == S.bv_scan(1000, 3, tables_small) and type(rep.x) is int


@pytest.mark.parametrize("v", [7, 7.0, np.int64(7), True, Fraction(7)])
def test_finite_passes_real_numbers_through(v):
    assert finite(v, "v") is v


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, "7", None, 1j])
def test_finite_refuses_what_is_not_a_finite_real(v):
    with pytest.raises(S.InputError, match="v must be a finite number, got"):
        finite(v, "v")


def test_finite_bounds_and_float_range():
    assert finite(1.5, "y", above=1) == 1.5 and finite(1, "s", least=1) == 1
    with pytest.raises(S.InputError, match=r"y must be a finite number > 1, got 1"):
        finite(1, "y", above=1)
    with pytest.raises(S.InputError, match=r"s must be a finite number >= 1, got 0.5"):
        finite(0.5, "s", least=1)
    for huge in (10**400, -(10**400), Fraction(10**400, 3)):
        with pytest.raises(S.CapacityError, match="past the range of a float"):
            finite(huge, "x")


def test_integer_takes_ints_and_integral_floats_only():
    assert integer(7.0, "n") == 7 and type(integer(np.int64(7), "n")) is int
    assert integer(10**300, "n") == 10**300
    for bad in (7.5, math.nan, math.inf, "7", Fraction(7, 2), Fraction(7)):
        with pytest.raises(S.InputError, match="n must be an integer, got"):
            integer(bad, "n")
    with pytest.raises(S.InputError, match="n must be an integer >= 2, got 1"):
        integer(1, "n", least=2)
    with pytest.raises(S.CapacityError):
        integer(10**400, "n")


def test_within_compares_a_predicted_cost_exactly():
    assert within(1000, 1000, "table entries") == 1000
    with pytest.raises(S.CapacityError, match=r"^table entries: 1001 is past the cap of 1000$"):
        within(1001, 1000, "table entries")
    # past 2^63 ints compare exactly: as floats, 2^63 + 1 and 2^63 are equal
    assert float(2**63 + 1) == float(2**63)
    assert within(2**63, 2**63, "n") == 2**63
    with pytest.raises(S.CapacityError, match=f"n: {2**63 + 1} is past the cap of {2**63}$"):
        within(2**63 + 1, 2**63, "n")
