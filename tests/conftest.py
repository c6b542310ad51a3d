from __future__ import annotations

import pytest
from oracle import KIND_POINTS, Oracle

from sievelab.arith import build_tables


@pytest.fixture(scope="session")
def tables_small():
    return build_tables(10_000)


@pytest.fixture(scope="session")
def tables_mid():
    return build_tables(200_000)


@pytest.fixture(scope="session")
def tables_big():
    # large enough for twin pairs p <= 1e6 with p + 2k <= limit, k <= 100
    return build_tables(1_000_200)


@pytest.fixture(scope="session")
def kind_problems(tables_small):
    """One small problem of each kind, the CRT-counted kinds included."""
    from sievelab.problem import make_problem

    return [make_problem(kind, params, tables_small) for kind, params in KIND_POINTS]


@pytest.fixture(scope="session")
def oracle():
    """The brute force every count path is compared with, built once."""
    return Oracle()
