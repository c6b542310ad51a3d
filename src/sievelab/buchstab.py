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
on the grid.  Closed forms override the grid on their validity ranges.

The integration is one generator of unit panels: it yields F and f on
[j, j + 1], m + 1 points each, and keeps only the unit before, which is all
the delay equations read.  ``build_grid`` fills its two columns from it, and
``grid_panels`` hands it out, so the halved-step check of the acceptance
suite holds four panels of the finer grid, not the whole of it.  The grid
holds F and f and nothing else: s_k is formed from k where it is read.

Building a grid costs far less than parsing one back from text, so the CSV
cache of ``grid_cached`` is an export only: it is written, never read.  It
and ``buchstab --format csv`` share one writer, ``write_csv``, which formats
a chunk of rows at a time.
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
        return _s_values(self.m, lo, hi)


def _s_values(m: int, lo: int, hi: int) -> np.ndarray:
    s = np.arange(lo, hi, dtype=np.float64)
    s /= m
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


def _closed_f(s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """f(s) = 2 e^gamma log(s - 1) / s, valid on [2, 4]."""
    f = np.subtract(s, 1.0, out=out)
    np.log(f, out=f)
    f *= _TWO_EG
    f /= s
    return f


def _join_error(m: int) -> float:
    """The largest |f - closed f| on (2, 4] with f rebuilt from the integral
    form of the closed F, one unit panel at a time."""
    worst, start = 0.0, 0.0  # 2 f(2) = 0
    F, buf, f = np.empty(m + 1), np.empty(m + 1), np.empty(m)
    for j in (2, 3):
        np.divide(_TWO_EG, _s_values(m, (j - 1) * m, j * m + 1), out=F)  # closed F
        seg = _cumulative_simpson(F, 1.0 / m, buf)
        seg += start
        start = seg[-1]
        s = _s_values(m, j * m + 1, (j + 1) * m + 1)
        err = seg[1:]
        err /= s
        err -= _closed_f(s, f)
        worst = max(worst, float(np.max(np.abs(err, out=err))))
    return worst


def _grid_size(s_max: float, step: float) -> tuple[int, int]:
    """(s_max, m) for a grid of step 1/m on (0, s_max], its size checked first."""
    smax = integer(s_max, "s_max", least=6)
    m = round(1.0 / finite(step, "step", above=0))
    if step > 1e-3 + 1e-15 or abs(1.0 / step - m) > 1e-6 or m % 2:
        raise InputError(f"step must be <= 1e-3 with 1/step an even integer, got {step}")
    within(smax * m, MAX_GRID_CELLS, "grid points s_max/step")
    return smax, m


def _panels(smax: int, m: int, F_col: np.ndarray | None = None, f_col: np.ndarray | None = None):
    """Yield F and f on [j, j+1], m + 1 points each, for j = 0 .. smax - 1.

    The first point of an integrated panel replaces the last point of the one
    before, so panel j is yielded once panel j + 1 is built.  Each panel is a
    view into F_col and f_col when they are given, else one of two buffers
    per function used in turn.
    """
    h = 1.0 / m

    def units(col):
        if col is not None:
            return [col[j * m : (j + 1) * m + 1] for j in range(smax)]
        pair = (np.empty(m + 1), np.empty(m + 1))
        return [pair[j % 2] for j in range(smax)]

    def advance(out, src, prev, j, s):
        # s out(s) = j out(j) + integral of src(t - 1) from j to s, src on [j-1, j]
        base = j * prev[-1]
        _cumulative_simpson(src, h, out)
        out += base
        out /= s
        prev[-1] = out[0]

    for j, (F, f) in enumerate(zip(units(F_col), units(f_col))):
        s = _s_values(m, j * m, (j + 1) * m + 1)
        if j == 0:
            s[0] = np.nan  # s_0 is no point of the grid
        if j < 3:
            np.divide(_TWO_EG, s, out=F)  # F = 2 e^gamma / s
        else:
            advance(F, f_prev, F_prev, j, s)  # reads f on [j-1, j]
        if j < 2:
            np.multiply(s, 0.0, out=f)  # f = 0, and NaN at s_0
        elif j < 4:
            _closed_f(s, f)
        else:
            advance(f, F_prev, f_prev, j, s)  # reads F on [j-1, j], its end just replaced
        del s
        if j:
            yield F_prev, f_prev
        F_prev, f_prev = F, f
    yield F_prev, f_prev


def grid_panels(s_max: float = 30.0, step: float = 1e-4):
    """Stream the grid of ``build_grid(s_max, step)`` as (F, f) unit panels.

    Panel j holds F and f at s_k = k/m, k = j m .. (j + 1) m, m = 1/step, bit
    for bit ``build_grid``'s values (s_0 is NaN).  A pair is valid until the
    next is asked for: four unit panels, one of s and one of temporaries are
    held, whatever s_max.

    Raises:
        InputError, CapacityError: as ``build_grid``, before anything is built.
    """
    smax, m = _grid_size(s_max, step)
    return _panels(smax, m)


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
    measure of the panel scheme's accuracy.  The panel stream writes into the
    columns: beside F and f, only one unit panel's temporaries are held.
    """
    smax, m = _grid_size(s_max, step)
    join_error = _join_error(m)  # its buffers are freed before the columns exist
    g = BuchstabGrid(m, float(smax), np.empty(smax * m + 1), np.empty(smax * m + 1), join_error)
    for _ in _panels(smax, m, g.F_values, g.f_values):
        pass
    return g


def _csv_rows(grid: BuchstabGrid, lo: int, hi: int, digits: int = 17) -> str:
    """Rows k = lo .. hi - 1 as "s,F,f" lines at ``digits`` significant digits."""
    rows = np.column_stack((grid.s_values(lo, hi), grid.F_values[lo:hi], grid.f_values[lo:hi]))
    return f"%.{digits}g,%.{digits}g,%.{digits}g\n" * (hi - lo) % tuple(rows.ravel().tolist())


def write_csv(grid: BuchstabGrid, fh, digits: int = 17) -> None:
    """Write the grid to the text stream fh as CSV with header s,F,f, one
    chunk of _SAVE_CHUNK rows per write, so only one chunk is held as text."""
    fh.write("s,F,f\n")
    top = grid.F_values.size
    for lo in range(1, top, _SAVE_CHUNK):
        fh.write(_csv_rows(grid, lo, min(lo + _SAVE_CHUNK, top), digits))


def save_grid(grid: BuchstabGrid, path: str | Path) -> None:
    """Write the grid as CSV with header s,F,f at 17 significant digits.

    A temporary file beside ``path`` replaces it when complete, so ``path``
    never holds a partly written grid.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            write_csv(grid, fh)
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
