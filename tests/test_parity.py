from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievelab.arith import EULER_GAMMA, prime_pi
from sievelab.errors import CapacityError, InputError
from sievelab.parity import (
    L_summatory,
    S_pm_exact,
    recursion_check,
    root_ceiling,
    rough_signed_count,
    prediction_row,
)


def test_summatory_examples(tables_small, tables_big):
    assert L_summatory(1, tables_small) == 1
    assert L_summatory(2, tables_small) == 0
    # signs for 1..10: + - - + - + - - + +
    assert L_summatory(10, tables_small) == 0
    assert abs(L_summatory(1_000_000, tables_big)) <= 0.01 * 1_000_000
    with pytest.raises(InputError):
        L_summatory(0, tables_small)
    with pytest.raises(CapacityError):
        L_summatory(tables_small.limit + 1, tables_small)


def test_summatory_equals_a_local_cumsum(tables_small, tables_big):
    want = np.cumsum(tables_small.liouville_table(), dtype=np.int64)  # limit 1e4
    assert [L_summatory(x, tables_small) for x in range(1, 10_001)] == want[1:].tolist()
    big = np.cumsum(tables_big.liouville_table(), dtype=np.int64)
    assert L_summatory(tables_big.limit, tables_big) == big[-1]
    assert tables_big.liouville_summatory().dtype == np.int32


def test_root_ceiling():
    assert root_ceiling(100, 2) == 10
    assert root_ceiling(101, 2) == 11
    assert root_ceiling(99, 2) == 10
    assert root_ceiling(27, 3) == 3
    assert root_ceiling(28, 3) == 4
    assert root_ceiling(1, 5) == 1
    assert root_ceiling(10**12, 3) == 10**4
    assert root_ceiling(10**12 - 1, 3) == 10**4
    for s in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(InputError):
            root_ceiling(10, s)
    assert root_ceiling(10**12 + 1, 3) == 10**4 + 1
    assert root_ceiling(1000, 2.5) == 16
    with pytest.raises(InputError):
        root_ceiling(0, 2)
    with pytest.raises(InputError):
        root_ceiling(10, 0.0)


def _root_ceiling_reference(x: int, s: float) -> int:
    """Smallest t with t**a >= x**b for s = a/b, by bisection in integers."""
    a, b = s.as_integer_ratio()
    xb = x**b
    lo, hi = 0, 1
    while hi**a < xb:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # lo**a < xb <= hi**a
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**a < xb else (lo, mid)
    return hi


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    s=st.sampled_from([1.5, 2.25, 2.5, 3.75]),
    root=st.integers(2, 3_000_000),
    offset=st.integers(-2, 2),
)
def test_root_ceiling_at_dyadic_s_near_perfect_powers(s, root, offset):
    # x = root**a is the s-th power of the integer root**b, so t lands on the boundary
    a, _ = s.as_integer_ratio()
    x = max(1, root**a + offset)
    if x.bit_length() > 200:
        x = max(1, (root % 1000 + 2) ** a + offset)
    assert root_ceiling(x, s) == _root_ceiling_reference(x, s)


def test_root_ceiling_at_fractional_s_past_float_precision():
    x = 8 * 10**18 + 1  # (4 * 10**12)**1.5 = 8 * 10**18 < x
    assert root_ceiling(x, 1.5) == 4 * 10**12 + 1
    assert root_ceiling(x - 1, 1.5) == 4 * 10**12


def test_signed_count_basics(tables_small):
    assert S_pm_exact(100, 2, -1, tables_small) == 1
    assert S_pm_exact(100, 2, 1, tables_small) == 21
    # the unit is the only survivor with the plus sign and a huge floor
    assert rough_signed_count(1, 2, -1, tables_small) == 1
    assert rough_signed_count(1, 2, 1, tables_small) == 0
    assert rough_signed_count(0, 2, -1, tables_small) == 0
    # s = 1 sifts everything except 1 and possibly x itself
    assert S_pm_exact(100, 1, 1, tables_small) == 0
    assert S_pm_exact(101, 1, 1, tables_small) == 1  # 101 is prime
    assert S_pm_exact(100, 1, -1, tables_small) == 1
    with pytest.raises(InputError):
        S_pm_exact(100, 0.5, 1, tables_small)
    with pytest.raises(InputError):
        S_pm_exact(100, 2, 0, tables_small)
    with pytest.raises(CapacityError):
        S_pm_exact(tables_small.limit + 1, 2, 1, tables_small)


@pytest.mark.parametrize("x", [10**4, 10**5, 10**6])
def test_minus_side_nearly_empty_below_two(tables_big, x):
    for s in (1.0, 1.3, 1.7, 2.0):
        assert S_pm_exact(x, s, -1, tables_big) <= 2


@pytest.mark.parametrize("x", [10**4, 10**5, 10**6])
def test_plus_side_is_prime_counting_below_three(tables_big, x):
    for s in (1.5, 2.0, 2.5, 3.0):
        got = S_pm_exact(x, s, 1, tables_big)
        ref = prime_pi(x, tables_big) - prime_pi(x ** (1.0 / s), tables_big)
        assert abs(got - ref) <= 2


def test_smallest_prime_recursion_exact(tables_small):
    for x in (100, 999, 5000, 10_000):
        for s in (1.5, 2.0, 2.5, 3.0, 4.0):
            for sign in (1, -1):
                lhs, rhs = recursion_check(x, s, sign, tables_small)
                assert lhs == rhs, (x, s, sign)


def test_prediction_identities(tables_big, grid):
    row = prediction_row(1_000_000, 2.0, grid, tables_big)
    assert row.predict_plus == pytest.approx(1_000_000 / math.log(1_000_000), rel=1e-12)
    assert row.predict_minus == 0.0
    row = prediction_row(1_000_000, 2.5, grid, tables_big)
    f25 = 2 * math.exp(EULER_GAMMA) * math.log(1.5) / 2.5
    want = (1_000_000 / 2.0) / (math.exp(EULER_GAMMA) * 0.4 * math.log(1_000_000)) * f25
    assert row.predict_minus == pytest.approx(want, rel=1e-9)


def test_minus_side_tracks_prediction(tables_big, grid):
    x = 1_000_000
    err_unit = x / math.log(x) ** 2
    ratios = {}
    for s in (2.3, 2.5, 2.8):
        row = prediction_row(x, s, grid, tables_big)
        assert abs(row.exact_minus - row.predict_minus) <= 2.0 * err_unit, s
        ratios[s] = row.exact_minus / row.predict_minus
        assert row.exact_plus / row.predict_plus == pytest.approx(1.08, abs=0.1)
    # the window narrows as s leaves the f = 0 region behind
    assert 0.75 <= ratios[2.8] <= 1.25
    assert ratios[2.3] < ratios[2.5] < ratios[2.8]


def test_minus_ratio_improves_with_x(tables_big, grid):
    prev = 0.0
    for x in (10**4, 10**5, 10**6):
        row = prediction_row(x, 2.5, grid, tables_big)
        r = row.exact_minus / row.predict_minus
        assert r > prev
        prev = r
    assert prev > 0.65


def test_row_validation(tables_small, grid):
    with pytest.raises(InputError):
        prediction_row(100, 1.0, grid, tables_small)
    with pytest.raises(InputError):
        prediction_row(100, grid.s_max + 1, grid, tables_small)
    with pytest.raises(CapacityError):
        prediction_row(tables_small.limit + 1, 2.5, grid, tables_small)


def test_root_past_a_float_is_a_capacity_error():
    for x, s in ((10**6, 0.01), (2, 1e-5), (10**300, 0.5)):
        with pytest.raises(CapacityError, match="past the range of a float"):
            root_ceiling(x, s)
    assert root_ceiling(10**6, 0.5) == 10**12
