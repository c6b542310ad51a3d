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
1/m that divides 1 exactly, so the delayed argument t - 1 always lands back
on the grid.  Closed forms override the grid on their validity ranges.  The
grid holds F and f and nothing else: s_k is formed from k where it is read.

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

#: most grid points build_grid allocates (two float64 arrays of this length)
MAX_GRID_CELLS = 5_000_000
_SAVE_CHUNK = 8192  # rows formatted per write
_TWO_EG = 2.0 * math.exp(EULER_GAMMA)


@dataclass
class BuchstabGrid:
    """F and f at s_k = k/m, k = 1..s_max*m (index 0 is NaN), and nothing else:
    s_k is the float64 quotient k/m, formed by ``s_values`` where it is read."""

    m: int
    s_max: float
    F_values: np.ndarray
    f_values: np.ndarray
    join_error: float

    @property
    def step(self) -> float:
        return 1.0 / self.m

    def s_values(self, lo: int, hi: int) -> np.ndarray:
        """s_k = k/m for lo <= k < hi."""
        s = np.arange(lo, hi, dtype=np.float64)
        s /= self.m
        return s


def _cumulative_simpson(g: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples g on a uniform grid, Simpson accuracy, into out.

    Even offsets use composite Simpson pairs; odd offsets add the standard
    three-point half-panel rule.  len(g) must be odd (even panel count), and
    out, of the same length, must not overlap g.
    """
    if (g.size - 1) % 2:
        raise InputError("cumulative Simpson needs an even number of panels")
    out[0] = 0.0
    out[2::2] = np.cumsum((h / 3.0) * (g[0:-2:2] + 4.0 * g[1:-1:2] + g[2::2]))
    odd = np.multiply(g[1:-1:2], 8.0, out=out[1::2])  # staged in place: one temporary fewer
    out[1::2] = out[0:-2:2] + (h / 12.0) * (5.0 * g[0:-2:2] + odd - g[2::2])
    return out


def _closed_forms(g: BuchstabGrid) -> float:
    """Fill F on (0, 3] and f on (0, 4] from their closed forms, a unit panel at
    a time, and return the largest |f - closed f| on (2, 4] with f rebuilt from
    the integral form of the closed F."""
    m, worst, start = g.m, 0.0, 0.0  # 2 f(2) = 0
    g.f_values[1 : 2 * m + 1] = 0.0
    for j in range(4):
        s = g.s_values(j * m + 1, (j + 1) * m + 1)
        if j < 3:
            np.divide(_TWO_EG, s, out=g.F_values[j * m + 1 : (j + 1) * m + 1])
        if j >= 2:
            f = np.subtract(s, 1.0, out=g.f_values[j * m + 1 : (j + 1) * m + 1])
            np.log(f, out=f)
            f *= _TWO_EG
            f /= s
    del s  # freed before the probe's buffer: two unit panels of temporaries at most
    buf = np.empty(m + 1)
    for j in (2, 3):
        seg = _cumulative_simpson(g.F_values[(j - 1) * m : j * m + 1], 1.0 / m, buf)
        seg += start
        start = seg[-1]
        err = seg[1:]
        err /= g.s_values(j * m + 1, (j + 1) * m + 1)
        err -= g.f_values[j * m + 1 : (j + 1) * m + 1]
        worst = max(worst, float(np.max(np.abs(err, out=err))))
    return worst


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
    measure of the panel scheme's accuracy.  Beside F and f, only one unit
    panel's temporaries are held at a time.
    """
    smax = integer(s_max, "s_max", least=6)
    m = round(1.0 / finite(step, "step", above=0))
    if step > 1e-3 + 1e-15 or abs(1.0 / step - m) > 1e-6 or m % 2:
        raise InputError(f"step must be <= 1e-3 with 1/step an even integer, got {step}")
    k_top = within(smax * m, MAX_GRID_CELLS, "grid points s_max/step")
    g = BuchstabGrid(m, float(smax), np.full(k_top + 1, np.nan), np.full(k_top + 1, np.nan), 0.0)
    g.join_error = _closed_forms(g)
    F, f, h = g.F_values, g.f_values, 1.0 / m
    for j in range(3, smax):
        # advance s F(s) across [j, j+1] using f on [j-1, j], and s f(s) using F
        lo, hi = j * m, (j + 1) * m + 1
        s = g.s_values(lo, hi)
        for out, src in ((F, f), (f, F)) if j >= 4 else ((F, f),):
            base = j * out[lo]
            panel = _cumulative_simpson(src[lo - m : hi - m], h, out[lo:hi])
            panel += base
            panel /= s
    return g


def _csv_rows(grid: BuchstabGrid, lo: int, hi: int) -> str:
    cols = (grid.s_values(lo, hi), grid.F_values[lo:hi], grid.f_values[lo:hi])
    return "".join(f"{s:.17g},{F:.17g},{f:.17g}\n" for s, F, f in zip(*(c.tolist() for c in cols)))


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
            for lo in range(1, grid.F_values.size, _SAVE_CHUNK):
                fh.write(_csv_rows(grid, lo, min(lo + _SAVE_CHUNK, grid.F_values.size)))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _holds_grid(path: str | Path, grid: BuchstabGrid) -> bool:
    """Whether ``path`` has the header, first row (step) and last row (s_max) of this grid."""
    head = ("s,F,f\n" + _csv_rows(grid, 1, 2)).encode()
    tail = ("\n" + _csv_rows(grid, grid.F_values.size - 1, grid.F_values.size)).encode()
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
        return _TWO_EG / s
    if which == "f":
        if s <= 2.0:
            return 0.0
        if s <= 4.0:
            return _TWO_EG * math.log(s - 1.0) / s
    vals = grid.F_values if which == "F" else grid.f_values
    lo = min(max(math.floor(s * grid.m) - 1, 1), vals.size - 4)
    xs = [(lo + i) / grid.m for i in range(4)]
    ys = vals[lo : lo + 4].tolist()
    out = 0.0
    for i in range(4):
        term = ys[i]
        for j in range(4):
            if j != i:
                term *= (s - xs[j]) / (xs[i] - xs[j])
        out += term
    return float(out)
