from __future__ import annotations

import math
import os
import random
import tracemalloc

import numpy as np
import pytest

from exact_reference import (
    previous_build_grid,
    previous_csv_text,
    previous_evaluate,
    previous_save_grid,
)
from sievelab import buchstab, harness
from sievelab.arith import EULER_GAMMA, integrate_adaptive
from sievelab.buchstab import build_grid, evaluate, grid_cached, grid_panels, save_grid, write_csv
from sievelab.cli import main
from sievelab.errors import CapacityError, InputError
from sievelab.harness import shared_grid

EG = math.exp(EULER_GAMMA)


def test_closed_forms_frozen(grid):
    assert evaluate(grid, 2, "F") == pytest.approx(EG, abs=1e-15)
    assert abs(evaluate(grid, 2, "F") - 1.7810724) < 1e-6
    assert evaluate(grid, 1.5, "f") == 0.0
    assert evaluate(grid, 3, "f") == pytest.approx(2 * EG * math.log(2) / 3, abs=1e-12)
    assert evaluate(grid, 4, "f") == pytest.approx(2 * EG * math.log(3) / 4, abs=1e-12)
    assert abs(evaluate(grid, 3, "f") - 0.823030) < 1e-6
    assert abs(evaluate(grid, 4, "f") - 0.978354) < 1e-6
    assert abs(evaluate(grid, 2.5, "f") - 0.577730) < 1e-6


def test_F4_against_independent_quadrature(grid):
    inner = integrate_adaptive(lambda u: math.log(u) / (1.0 + u), 1.0, 2.0, 1e-13)
    oracle = 0.5 * EG * (1.0 + inner)
    assert abs(oracle - 1.02164) < 1e-5
    assert abs(evaluate(grid, 4, "F") - oracle) <= 1e-6


def test_F5_and_f5_against_nested_quadrature(grid):
    # one panel beyond every closed form, via quadrature only
    def J(v):
        return integrate_adaptive(lambda u: math.log(u) / (1.0 + u), 1.0, v, 1e-12)

    F4 = 0.5 * EG * (1.0 + J(2.0))
    F5 = (4 * F4 + 2 * EG * integrate_adaptive(
        lambda t: math.log(t - 2.0) / (t - 1.0), 4.0, 5.0, 1e-12)) / 5.0
    assert abs(evaluate(grid, 5, "F") - F5) <= 1e-8

    def F_34(t):
        return 2.0 * EG * (1.0 + J(t - 2.0)) / t

    f4 = 2 * EG * math.log(3.0) / 4.0
    f5 = (4 * f4 + integrate_adaptive(lambda t: F_34(t - 1.0), 4.0, 5.0, 1e-10)) / 5.0
    assert abs(evaluate(grid, 5, "f") - f5) <= 1e-7


def test_join_error_tiny(grid):
    assert grid.join_error <= 1e-6


def test_limits_at_large_s(grid):
    assert abs(evaluate(grid, 15, "F") - 1.0) <= 1e-3
    assert abs(evaluate(grid, 15, "f") - 1.0) <= 1e-3
    # upper stays above lower the whole way out
    for s in np.arange(0.5, 30.0, 0.37):
        assert evaluate(grid, float(s), "F") >= evaluate(grid, float(s), "f")


def test_halved_step_stability(grid):
    # the step-5e-5 grid a unit panel at a time: its point k * ratio is grid's point k
    buf = np.empty(grid.m)
    for j, panel in enumerate(grid_panels(30, 5e-5)):
        ratio, lo = (panel[0].size - 1) // grid.m, j * grid.m
        for coarse, finer in zip((grid.F_values, grid.f_values), panel):
            np.subtract(coarse[lo + 1 : lo + grid.m + 1], finer[ratio::ratio], out=buf)
            assert np.nanmax(np.abs(buf, out=buf)) <= 1e-8


@pytest.mark.parametrize("s_max, step", [(30, 1e-4), (30, 5e-5), (20, 1e-4), (11, 2e-4), (6, 1e-3)])
def test_grid_equals_the_grid_with_an_s_column(s_max, step):
    g, old = build_grid(s_max, step), previous_build_grid(s_max, step)
    assert np.array_equal(g.F_values, old.F_values, equal_nan=True)
    assert np.array_equal(g.f_values, old.f_values, equal_nan=True)
    m, count = g.m, 0
    for j, (F, f) in enumerate(grid_panels(s_max, step)):  # each panel compared as it arrives
        assert np.array_equal(F, old.F_values[j * m : (j + 1) * m + 1], equal_nan=True), j
        assert np.array_equal(f, old.f_values[j * m : (j + 1) * m + 1], equal_nan=True), j
        count += 1
    assert count == s_max
    assert g.join_error == old.join_error and g.step == old.step
    assert np.array_equal(g.s_values(1, g.F_values.size), old.s[1:])
    rng = random.Random(f"grid:{s_max}:{step}")
    points = [rng.uniform(0.0, s_max) for _ in range(500)]
    points += [rng.randrange(1, g.F_values.size) / g.m for _ in range(200)]
    points += [2.0, 3.0, 4.0, 4.0 + step / 3, s_max - step / 3, float(s_max)]
    for s in points:
        for which in ("F", "f"):
            got = evaluate(g, s, which)
            assert got == previous_evaluate(old, s, which) and type(got) is float, (s, which)


def test_grid_memory_is_two_columns():
    shared_grid()  # the suite's coarse grid, built before the trace
    tracemalloc.start()
    try:
        build_grid(30, 5e-5)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert harness.run_suite("delay-grid").passed
        suite = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * (2 * 8 * 600_001)  # F and f of 600,001 float64 each
    # the halved-step check streams the step-5e-5 grid: four fine unit panels
    # (F and f, the previous and the current), one of s, one of Simpson
    # temporaries and a buffer of one coarse unit (half a fine one) make 6.5
    # units of 20,001 float64, bounded by 8
    assert suite <= 8 * 8 * 20_001


def test_interpolation_vs_fine_grid(grid):
    fine = build_grid(30, 5e-5)
    for s in (4.3217, 6.90041, 13.5555, 29.2024):
        for which in ("F", "f"):
            assert abs(evaluate(grid, s, which) - evaluate(fine, s, which)) <= 1e-8


def _read_csv(path) -> np.ndarray:
    """The s,F,f rows of an exported grid."""
    return np.loadtxt(path, delimiter=",", skiprows=1)


def test_csv_round_trip(tmp_path):
    g = build_grid(8, 1e-3)
    path = tmp_path / "grid.csv"
    save_grid(g, path)
    with open(path) as fh:
        assert fh.readline().strip() == "s,F,f"
    s, F, f = _read_csv(path).T
    assert s[0] == pytest.approx(g.step) and s[-1] == g.s_max
    assert np.array_equal(g.F_values[1:], F)
    assert np.array_equal(g.f_values[1:], f)


def test_grid_cache_reuse_and_rebuild(tmp_path):
    path = tmp_path / "cache.csv"
    g1 = grid_cached(8, 1e-3, cache=path)
    assert path.exists()
    stamp = path.stat().st_mtime_ns
    g2 = grid_cached(8, 1e-3, cache=path)
    assert np.array_equal(g1.F_values[1:], g2.F_values[1:])
    assert path.stat().st_mtime_ns == stamp  # a matching export is left untouched
    # the file is never read back: a hit carries the built grid's join_error
    assert g2.join_error == build_grid(8, 1e-3).join_error
    g3 = grid_cached(10, 1e-3, cache=path)
    assert g3.s_max == 10.0
    assert _read_csv(path)[-1, 0] == 10.0
    grid_cached(10, 5e-4, cache=path)
    assert _read_csv(path)[0, 0] == 5e-4
    assert [f.name for f in tmp_path.iterdir()] == ["cache.csv"]


def test_cache_with_a_cut_body_is_rewritten(tmp_path):
    path = tmp_path / "cache.csv"
    grid_cached(6, 1e-3, cache=path)
    whole = path.read_bytes()
    # last row cut mid-line, last row missing, first row cut, empty file
    for cut in (whole[:-10], whole[: whole.rindex(b"\n", 0, -1) + 1], whole[:40], b""):
        path.write_bytes(cut)
        grid_cached(6, 1e-3, cache=path)
        assert path.read_bytes() == whole


def test_save_grid_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "grid.csv"
    path.write_text("previous export\n")
    g = build_grid(6, 1e-3)
    calls = []

    def failing_rows(grid, lo, hi, digits):
        calls.append(lo)
        if len(calls) == 2:
            raise OSError("disk full")
        return "partial\n"

    monkeypatch.setattr(buchstab, "_SAVE_CHUNK", 1000)
    monkeypatch.setattr(buchstab, "_csv_rows", failing_rows)
    with pytest.raises(OSError):
        save_grid(g, path)
    assert path.read_text() == "previous export\n"
    assert [f.name for f in tmp_path.iterdir()] == ["grid.csv"]


@pytest.mark.parametrize("s_max, step", [(30, 1e-4), (8, 1e-3), (6, 1e-3)])
def test_exports_equal_the_previous_writers(s_max, step, capsys, tmp_path):
    g = build_grid(s_max, step)
    assert main(["buchstab", "--s-max", str(s_max), "--step", str(step), "--format", "csv"]) == 0
    assert capsys.readouterr().out.encode() == previous_csv_text(g).encode()
    save_grid(g, tmp_path / "new.csv")
    previous_save_grid(g, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_export_holds_one_chunk():
    # per row: three floats as Python objects (72 bytes), their list and tuple
    # slots (48), the float64 stack (24), the row's format (19) and its text
    # (at most 75) make under 256 bytes, so a chunk of 8,192 rows under 2 MiB;
    # the grid's 30,000 rows, held at once, would pass that several times over
    grid = build_grid(30, 1e-3)
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            for digits in (12, 17):  # --format csv and save_grid
                write_csv(grid, sink, digits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 8192 * 256


def test_grid_cell_cap_is_predicted(monkeypatch):
    with pytest.raises(CapacityError):
        build_grid(1e9, 1e-4)  # 1e13 points: refused before anything is allocated
    monkeypatch.setattr(buchstab, "MAX_GRID_CELLS", 6000)
    assert build_grid(6, 1e-3).F_values.size == 6001
    with pytest.raises(CapacityError):
        build_grid(7, 1e-3)


def test_input_errors(grid):
    with pytest.raises(InputError):
        build_grid(7.5, 1e-3)
    with pytest.raises(InputError):
        build_grid(10, 4e-3)
    with pytest.raises(InputError):
        evaluate(grid, 0.0, "F")
    with pytest.raises(InputError):
        evaluate(grid, 31.0, "f")
    with pytest.raises(InputError):
        evaluate(grid, 3.0, "g")
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            evaluate(grid, s, "F")
