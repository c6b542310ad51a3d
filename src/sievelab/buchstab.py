"""The paired delay functions F and f that calibrate one-dimensional sieves.

F (upper) and f (lower) satisfy, for s > 2,

    (s F(s))' = f(s - 1),    (s f(s))' = F(s - 1),

with F(s) = 2 e^gamma / s on 0 < s <= 3 and f(s) = 0 on 0 < s <= 2 (hence
f(s) = 2 e^gamma log(s - 1)/s on 2 <= s <= 4).  Both tend to 1 from their
respective sides as s grows.

The grid builder integrates the equivalent integral forms

    s F(s) = 3 F(3) + integral of f(t - 1) from 3 to s,
    s f(s) = 4 f(4) + integral of F(t - 1) from 4 to s,

one unit-length panel at a time with cumulative composite Simpson on a step
that divides 1 exactly, so the delayed argument t - 1 always lands back on
the grid.  Closed forms override the grid on their validity ranges.

Building a grid costs far less than parsing one back from text, so the CSV
cache of ``grid_cached`` is an export only: it is written, never read.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arith import EULER_GAMMA
from .errors import InputError, finite, integer, within

#: most grid points build_grid allocates (three float64 arrays of this length)
MAX_GRID_CELLS = 5_000_000
_SAVE_CHUNK = 8192  # rows formatted per write


@dataclass
class BuchstabGrid:
    """Tabulated F and f on {k * step : k = 1..s_max/step}."""

    step: float
    s_max: float
    s: np.ndarray
    F_values: np.ndarray
    f_values: np.ndarray
    join_error: float


def _cumulative_simpson(g: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of samples g on a uniform grid, Simpson accuracy.

    Even offsets use composite Simpson pairs; odd offsets add the standard
    three-point half-panel rule.  len(g) must be odd (even panel count).
    """
    n = g.size - 1
    if n % 2:
        raise InputError("cumulative Simpson needs an even number of panels")
    out = np.empty(g.size)
    out[0] = 0.0
    pair = (h / 3.0) * (g[0:-2:2] + 4.0 * g[1:-1:2] + g[2::2])
    out[2::2] = np.cumsum(pair)
    out[1::2] = out[0:-2:2] + (h / 12.0) * (5.0 * g[0:-2:2] + 8.0 * g[1:-1:2] - g[2::2])
    return out


def _closed_F(s: np.ndarray) -> np.ndarray:
    return 2.0 * math.exp(EULER_GAMMA) / s


def _closed_f(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    hi = s > 2.0
    out[hi] = 2.0 * math.exp(EULER_GAMMA) * np.log(s[hi] - 1.0) / s[hi]
    return out


def build_grid(s_max: float = 30.0, step: float = 1e-4) -> BuchstabGrid:
    """Tabulate F and f up to s_max.

    Args:
        s_max: integer >= 6; the grid covers (0, s_max].
        step: grid spacing; 1/step must be an even integer and step <= 1e-3.

    Raises:
        InputError: s_max or step outside the domain above.
        CapacityError: s_max/step exceeds MAX_GRID_CELLS; checked before
            anything is allocated.

    The returned ``join_error`` is the largest difference on 2 < s <= 4
    between the integral-form value of f and its closed form, a direct
    measure of the panel scheme's accuracy.
    """
    smax = integer(s_max, "s_max", least=6)
    m = round(1.0 / finite(step, "step", above=0))
    if step > 1e-3 + 1e-15 or abs(1.0 / step - m) > 1e-6 or m % 2:
        raise InputError(f"step must be <= 1e-3 with 1/step an even integer, got {step}")
    k_top = within(smax * m, MAX_GRID_CELLS, "grid points s_max/step")
    s = np.arange(k_top + 1, dtype=np.float64) / m
    s[0] = np.nan
    F = np.full(k_top + 1, np.nan)
    f = np.full(k_top + 1, np.nan)
    h = 1.0 / m

    F[1 : 3 * m + 1] = _closed_F(s[1 : 3 * m + 1])
    f[1 : 4 * m + 1] = _closed_f(s[1 : 4 * m + 1])

    # accuracy probe: rebuild f on (2, 4] from the integral form and compare
    probe = np.empty(2 * m + 1)
    start = 0.0  # 2 f(2) = 0
    for j in (2, 3):
        seg = _cumulative_simpson(_closed_F(s[(j - 1) * m : j * m + 1]), h)
        probe[(j - 2) * m : (j - 1) * m + 1] = start + seg
        start += seg[-1]
    join_error = float(
        np.max(np.abs(probe[1:] / s[2 * m + 1 : 4 * m + 1] - f[2 * m + 1 : 4 * m + 1]))
    )

    for j in range(3, smax):
        # advance s F(s) across [j, j+1] using f on [j-1, j]
        base = j * F[j * m]
        seg = _cumulative_simpson(f[(j - 1) * m : j * m + 1], h)
        F[j * m : (j + 1) * m + 1] = (base + seg) / s[j * m : (j + 1) * m + 1]
        if j >= 4:
            base = j * f[j * m]
            seg = _cumulative_simpson(F[(j - 1) * m : j * m + 1], h)
            f[j * m : (j + 1) * m + 1] = (base + seg) / s[j * m : (j + 1) * m + 1]
    return BuchstabGrid(
        step=h, s_max=float(smax), s=s, F_values=F, f_values=f, join_error=join_error
    )


def _csv_rows(grid: BuchstabGrid, lo: int, hi: int) -> str:
    cols = (grid.s[lo:hi].tolist(), grid.F_values[lo:hi].tolist(), grid.f_values[lo:hi].tolist())
    return "".join(f"{s:.17g},{F:.17g},{f:.17g}\n" for s, F, f in zip(*cols))


def save_grid(grid: BuchstabGrid, path: str | Path) -> None:
    """Write the grid as CSV with header s,F,f at 17 significant digits.

    A temporary file beside ``path`` replaces it when complete, so ``path``
    never holds a partly written grid.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write("s,F,f\n")
            for lo in range(1, grid.s.size, _SAVE_CHUNK):
                fh.write(_csv_rows(grid, lo, min(lo + _SAVE_CHUNK, grid.s.size)))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _holds_grid(path: str | Path, grid: BuchstabGrid) -> bool:
    """Whether ``path`` has the header, first row (step) and last row (s_max) of this grid."""
    head = ("s,F,f\n" + _csv_rows(grid, 1, 2)).encode()
    tail = ("\n" + _csv_rows(grid, grid.s.size - 1, grid.s.size)).encode()
    try:
        with open(path, "rb") as fh:
            if fh.read(len(head)) != head or fh.seek(0, os.SEEK_END) < len(head) + len(tail):
                return False
            fh.seek(-len(tail), os.SEEK_END)
            return fh.read() == tail
    except FileNotFoundError:
        return False


def grid_cached(s_max: float = 30.0, step: float = 1e-4, cache: str | Path | None = None) -> BuchstabGrid:
    """Build the grid and, with ``cache``, export it there unless the file already holds it.

    The file is never read back, so the grid always carries its ``join_error``.
    """
    g = build_grid(s_max, step)
    if cache is not None and not _holds_grid(cache, g):
        save_grid(g, cache)
    return g


def evaluate(grid: BuchstabGrid, s: float, which: str) -> float:
    """Evaluate F or f at s, preferring closed forms where they hold.

    Off the closed-form ranges the value is cubic interpolation through the
    four nearest grid points, kept inside the tabulated range.

    Raises:
        InputError: s not a finite number in (0, s_max], or which not in {"F", "f"}.
    """
    if which not in ("F", "f"):
        raise InputError(f"which must be 'F' or 'f', got {which!r}")
    if finite(s, "s", above=0) > grid.s_max:
        raise InputError(f"s = {s} outside (0, {grid.s_max}]")
    if which == "F" and s <= 3.0:
        return 2.0 * math.exp(EULER_GAMMA) / s
    if which == "f":
        if s <= 2.0:
            return 0.0
        if s <= 4.0:
            return 2.0 * math.exp(EULER_GAMMA) * math.log(s - 1.0) / s
    vals = grid.F_values if which == "F" else grid.f_values
    m = round(1.0 / grid.step)
    k = int(math.floor(s * m))
    lo = min(max(k - 1, 1), vals.size - 4)
    xs = grid.s[lo : lo + 4]
    ys = vals[lo : lo + 4]
    out = 0.0
    for i in range(4):
        term = ys[i]
        for j in range(4):
            if j != i:
                term *= (s - xs[j]) / (xs[i] - xs[j])
        out += term
    return float(out)
