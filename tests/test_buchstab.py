from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import tracemalloc
from dataclasses import replace

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
from sievelab.buchstab import (
    TERMS,
    UNITS,
    _series,
    build_grid,
    curves,
    evaluate,
    grid_cached,
    save_grid,
    write_csv,
)
from sievelab.cli import main
from sievelab.errors import CapacityError, InputError

EG = math.exp(EULER_GAMMA)


def test_closed_forms_frozen():
    assert evaluate(2, "F") == pytest.approx(EG, abs=1e-15)
    assert abs(evaluate(2, "F") - 1.7810724) < 1e-6
    assert evaluate(1.5, "f") == 0.0
    assert evaluate(3, "f") == pytest.approx(2 * EG * math.log(2) / 3, abs=1e-12)
    assert evaluate(4, "f") == pytest.approx(2 * EG * math.log(3) / 4, abs=1e-12)
    assert abs(evaluate(3, "f") - 0.823030) < 1e-6
    assert abs(evaluate(4, "f") - 0.978354) < 1e-6
    assert abs(evaluate(2.5, "f") - 0.577730) < 1e-6


def test_F4_against_independent_quadrature():
    inner = integrate_adaptive(lambda u: math.log(u) / (1.0 + u), 1.0, 2.0, 1e-13)
    oracle = 0.5 * EG * (1.0 + inner)
    assert abs(oracle - 1.02164) < 1e-5
    assert abs(evaluate(4, "F") - oracle) <= 1e-6


def test_F5_and_f5_against_nested_quadrature():
    # one panel beyond every closed form, via quadrature only
    def J(v):
        return integrate_adaptive(lambda u: math.log(u) / (1.0 + u), 1.0, v, 1e-12)

    F4 = 0.5 * EG * (1.0 + J(2.0))
    F5 = (4 * F4 + 2 * EG * integrate_adaptive(
        lambda t: math.log(t - 2.0) / (t - 1.0), 4.0, 5.0, 1e-12)) / 5.0
    assert abs(evaluate(5, "F") - F5) <= 1e-8

    def F_34(t):
        return 2.0 * EG * (1.0 + J(t - 2.0)) / t

    f4 = 2 * EG * math.log(3.0) / 4.0
    f5 = (4 * f4 + integrate_adaptive(lambda t: F_34(t - 1.0), 4.0, 5.0, 1e-10)) / 5.0
    assert abs(evaluate(5, "f") - f5) <= 1e-7


def test_join_error_tiny():
    assert build_grid(30, 1e-4).join_error <= 1e-6


def test_limits_at_large_s():
    assert abs(evaluate(15, "F") - 1.0) <= 1e-3
    assert abs(evaluate(15, "f") - 1.0) <= 1e-3
    # upper stays above lower the whole way out
    for s in np.arange(0.5, 30.0, 0.37):
        assert evaluate(float(s), "F") >= evaluate(float(s), "f")


def test_both_curves_are_one_past_the_last_unit():
    # in float64 F and f are 1.0 from s = 14.02 on, so the series stop at
    # UNITS and past it both are 1.0, with no upper bound on s
    s = np.arange(14.02, UNITS + 1, 1e-3)
    assert np.all(curves(s) == 1.0)
    rng = random.Random("tail")
    points = [float(k) for k in range(15, 5001)]
    points += [rng.uniform(14.02, 5000) for _ in range(20_000)]
    for s in points + [1e300]:
        assert evaluate(s, "F") == evaluate(s, "f") == 1.0, s
    assert np.array_equal(curves(np.array([30.0, 31.0, 1e300])), np.ones((2, 3)))


def test_halved_step_stability():
    # the recursion with half its terms per unit agrees on (3, 30] to 1e-8 ...
    grid = build_grid(30, 1e-4)
    # ... and F and f do not depend on the step: the step-5e-5 grid's node 2k is node k
    finer = build_grid(30, 5e-5)
    for lo in range(3 * grid.m + 1, grid.nodes + 1, grid.m):  # one unit of nodes at a time
        values = grid.values(lo, lo + grid.m)
        half = curves(grid.s_values(lo, lo + grid.m), TERMS // 2)
        assert np.max(np.abs(values - half)) <= 1e-8
        assert np.array_equal(values, finer.values(2 * lo, 2 * (lo + grid.m))[:, ::2])


def _F_on_3_to_5(s: float) -> float:
    """F(s) for 3 <= s <= 5 by quadrature: s F(s) = 3 F(3) plus the integral of
    f(t - 1) from 3 to s, with f closed on [2, 4]."""
    return 2 * EG * (1 + integrate_adaptive(lambda v: math.log(v - 1) / v, 2.0, s - 1, 1e-15)) / s


@pytest.mark.parametrize("s_max, step", [(30, 1e-4), (30, 5e-5), (20, 1e-4), (11, 2e-4), (6, 1e-3)])
def test_grid_equals_the_grid_with_an_s_column(s_max, step):
    # the series against the Simpson grid with its s column (exact_reference,
    # item 4), whose error falls as step^4 and is 4.8e-14 at step 1e-4
    bound = 1e-13 * max(1.0, step / 1e-4) ** 4
    g, old = build_grid(s_max, step), previous_build_grid(s_max, step)
    assert g.step == old.step and g.nodes == old.F_values.size - 1
    assert _series().shape == (2, UNITS, TERMS)
    assert np.array_equal(g.s_values(1, g.nodes + 1), old.s[1:])
    for lo in range(1, g.nodes + 1, g.m):  # every node, one unit at a time
        F, f = g.values(lo, lo + g.m)
        assert np.max(np.abs(F - old.F_values[lo : lo + g.m])) <= bound, lo
        assert np.max(np.abs(f - old.f_values[lo : lo + g.m])) <= bound, lo
    rng = random.Random(f"grid:{s_max}:{step}")
    points = [rng.uniform(3.0, s_max) for _ in range(3000)]
    points += [rng.uniform(0.0, 4.0) for _ in range(500)]  # the closed forms
    nodes = [rng.randrange(1, g.nodes + 1) for _ in range(200)]
    points += [k / g.m for k in nodes]
    points += [2.0, 3.0, 3.0 + step / 3, 4.0, 4.0 + step / 3, s_max - step / 3, float(s_max)]
    for s in points:
        for which in ("F", "f"):
            got, want = evaluate(s, which), previous_evaluate(old, s, which)
            assert type(got) is float, (s, which)
            if s <= (3.0 if which == "F" else 4.0):
                assert got == want, (s, which)
            elif which == "F" and s < 3.0 + step:
                # the reference's cubic through s = 3 - step misses the jump
                # of F'' at 3 (by up to 1.9e-10 at step 1e-4)
                assert abs(got - _F_on_3_to_5(s)) <= bound, s
            else:
                assert abs(got - want) <= bound, (s, which)
    for k in nodes:  # evaluate off the closed forms is the nodes' values bit for bit
        s = k / g.m
        F, f = g.values(k, k + 1)[:, 0].tolist()
        assert s <= 3.0 or evaluate(s, "F") == F, k
        assert s <= 4.0 or evaluate(s, "f") == f, k


def test_grid_memory_is_two_columns():
    # no column: the series are 2 x 40 coefficients per unit, held once per
    # process, and F and f at a grid's nodes are formed a unit of nodes at a
    # time where they are read
    _series()  # the process's series, built before the trace
    tracemalloc.start()
    try:
        g = build_grid(30, 5e-5)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert harness.run_suite("delay-grid").passed
        suite = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert _series().nbytes == 2 * UNITS * TERMS * 8
    # the join pass over one unit of 20,001 nodes: 16 float64 a node, about half
    # of one column (600,001 float64) and a quarter of the two the Simpson grid held
    assert peak <= 16 * 8 * 20_001
    # the half-terms check works a unit of nodes at a time; held to the bound
    # of the streamed Simpson check it replaces (8 units of 20,001 float64),
    # under one column of a step-1e-4 grid (300,001 float64)
    assert suite <= 8 * 8 * 20_001


def test_interpolation_vs_fine_grid():
    fine = previous_build_grid(30, 5e-5)  # the Simpson grid at half the step
    for s in (4.3217, 6.90041, 13.5555, 29.2024):
        for which in ("F", "f"):
            assert abs(evaluate(s, which) - previous_evaluate(fine, s, which)) <= 1e-8


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
    assert np.array_equal(g.s_values(1, g.nodes + 1), s)
    assert np.array_equal(g.values(1, g.nodes + 1), [F, f])


def test_grid_cache_reuse_and_rebuild(tmp_path):
    path = tmp_path / "cache.csv"
    g1 = grid_cached(8, 1e-3, cache=path)
    assert path.exists()
    stamp = path.stat().st_mtime_ns
    g2 = grid_cached(8, 1e-3, cache=path)
    assert g1 == g2
    assert np.array_equal(_read_csv(path)[:, 1:].T, g2.values(1, g2.nodes + 1))
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


def _export_rows_agree(text: str, previous: str, old, digits: int) -> int:
    """Assert the header and row count of the previous writer's text, and in
    each row that differs, its s, the row format, and F and f each within
    1e-13 of the Simpson grid's before rounding to ``digits``; return the
    number of rows that differ."""
    rows, was = text.splitlines(), previous.splitlines()
    assert rows[0] == was[0] == "s,F,f" and len(rows) == len(was) == old.F_values.size
    changed = [k for k in range(1, len(rows)) if rows[k] != was[k]]  # row k is node k
    if not changed:
        return 0
    new = np.array([rows[k].split(",") for k in changed], dtype=float)
    assert np.array_equal(new[:, 0], [float(was[k].split(",")[0]) for k in changed])
    fmt = f"%.{digits}g,%.{digits}g,%.{digits}g"
    assert all(fmt % tuple(r) == rows[k] for r, k in zip(new.tolist(), changed))
    ref = np.stack((old.F_values[changed], old.f_values[changed]), axis=1)
    half_unit = 0.5 * 10.0 ** (np.floor(np.log10(np.abs(new[:, 1:]))) - digits + 1)
    assert np.all(np.abs(new[:, 1:] - ref) <= 1e-13 + half_unit)
    return len(changed)


@pytest.mark.parametrize("s_max, step", [(30, 1e-4), (8, 1e-3), (6, 1e-3)])
def test_exports_equal_the_previous_writers(s_max, step, capsys, tmp_path):
    # the Simpson grid at step 1e-4, at the nodes of this step: its node k is
    # the finer grid's node k * ratio, and a coarser Simpson grid is further
    # than 1e-13 from F and f
    fine, ratio = previous_build_grid(s_max, 1e-4), round(step * 1e4)
    old = replace(fine, step=step, s=fine.s[::ratio], F_values=fine.F_values[::ratio],
                  f_values=fine.f_values[::ratio])
    assert main(["buchstab", "--s-max", str(s_max), "--step", str(step), "--format", "csv"]) == 0
    _export_rows_agree(capsys.readouterr().out, previous_csv_text(old), old, 12)
    save_grid(build_grid(s_max, step), tmp_path / "new.csv")
    previous_save_grid(old, tmp_path / "old.csv")
    _export_rows_agree((tmp_path / "new.csv").read_text(), (tmp_path / "old.csv").read_text(), old, 17)


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


def test_grid_cell_cap_is_predicted(monkeypatch, tmp_path):
    # build_grid reads join_error on the 2/step nodes of (2, 4]; the export's
    # s_max/step rows are held to the cap where they are written
    with pytest.raises(CapacityError, match="join_error nodes"):
        build_grid(6, 1e-7)  # 2e7 nodes: refused before anything is allocated
    huge = build_grid(1e9, 1e-4)
    sink = io.StringIO()
    with pytest.raises(CapacityError, match="export rows"):
        write_csv(huge, sink)  # 1e13 rows: refused before anything is written
    assert sink.getvalue() == ""
    with pytest.raises(CapacityError):
        save_grid(huge, tmp_path / "huge.csv")
    with pytest.raises(CapacityError):
        grid_cached(1e9, 1e-4, tmp_path / "huge.csv")
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(buchstab, "MAX_GRID_CELLS", 6000)
    write_csv(build_grid(6, 1e-3), sink)
    assert build_grid(6, 1e-3).nodes == 6000 and len(sink.getvalue().splitlines()) == 6001
    with pytest.raises(CapacityError):
        write_csv(build_grid(7, 1e-3), io.StringIO())


def test_each_buchstab_route_is_capped_by_the_rows_it_writes(capsys, monkeypatch, tmp_path):
    # json and table print s_max - 1 rows at the integers, whatever the step;
    # csv and the cache write s_max/step rows
    assert main(["buchstab", "--s-max", "10000", "--step", "1e-3", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 9_999
    for route in (["--format", "csv"], ["--cache", str(tmp_path / "grid.csv")]):
        assert main(["buchstab", "--s-max", "10000", "--step", "1e-3", *route]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "export rows s_max/step: 10000000 is past the cap" in err
    assert list(tmp_path.iterdir()) == []
    # the cap is read off buchstab, its owner; step 1/4 keeps the 8 join nodes under it
    monkeypatch.setattr(buchstab, "MAX_GRID_CELLS", 9)
    assert main(["buchstab", "--s-max", "10", "--step", "0.25", "--format", "table"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10  # the header and 9 rows
    for fmt in ("json", "table"):
        assert main(["buchstab", "--s-max", "11", "--step", "0.25", "--format", fmt]) == 2
        assert "rows s_max - 1: 10 is past the cap of 9" in capsys.readouterr().err


def test_input_errors():
    with pytest.raises(InputError):
        build_grid(7.5, 1e-3)
    for step in (0.3, 2.0, 1e300, 1e-3 * (1 + 1e-5)):  # 1/step not an integer >= 1
        with pytest.raises(InputError):
            build_grid(10, step)
    # any step 1/m answers: the series, not the nodes, carry F and f
    for step, m in ((4e-3, 250), (1 / 1001, 1001), (1.0, 1)):
        g = build_grid(10, step)
        assert g.m == m and g.nodes == 10 * m
    with pytest.raises(InputError):
        evaluate(0.0, "F")
    assert evaluate(31.0, "f") == 1.0  # past the last unit
    with pytest.raises(InputError):
        evaluate(3.0, "g")
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            evaluate(s, "F")


def test_coarser_step_exports_every_other_row(capsys):
    # step 0.002 is 1/500: its node k is the step-1e-3 export's node 2k, byte for byte
    texts = []
    for step in ("0.002", "1e-3"):
        assert main(["buchstab", "--s-max", "12", "--step", step, "--format", "csv"]) == 0
        texts.append(capsys.readouterr().out.splitlines())
    coarse, fine = texts
    assert coarse[0] == fine[0] == "s,F,f" and len(coarse) == 6001
    assert coarse[1:] == fine[2::2]
    for digits in (12, 17):
        coarse, fine = io.StringIO(), io.StringIO()
        write_csv(build_grid(12, 0.002), coarse, digits)
        write_csv(build_grid(12, 1e-3), fine, digits)
        assert coarse.getvalue().splitlines()[1:] == fine.getvalue().splitlines()[2::2]


def test_exports_past_the_last_unit_keep_their_bytes(capsys):
    # digests of the exports at s_max 200 taken before the series stopped at
    # unit 30: every row past it is 1.0 for F and f, as the earlier series gave
    assert main(["buchstab", "--s-max", "200", "--step", "1e-3", "--format", "csv"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "d0cec61d15279146e150f0444220b331ec94f198a14048d145c578054de48864"
    text = io.StringIO()
    write_csv(build_grid(200, 1e-3), text)
    digest = hashlib.sha256(text.getvalue().encode()).hexdigest()
    assert digest == "e8b2a4aace90716a256f45d32291e75405ea33da40e480568fa0d781890675e7"
