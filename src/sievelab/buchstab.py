"""The paired delay functions F and f that calibrate one-dimensional sieves.

F (upper) and f (lower) satisfy, for s > 2,

    (s F(s))' = f(s - 1),    (s f(s))' = F(s - 1),

with F(s) = 2 e^gamma / s on 0 < s <= 3 and f(s) = 0 on 0 < s <= 2 (hence
f(s) = 2 e^gamma log(s - 1)/s on 2 <= s <= 4).  Both tend to 1 from their
respective sides as s grows.

On each unit [k, k + 1] the builder writes s (F(s) - 1) and s (f(s) - 1)
as power series in u = s - k - 1/2 (Marsaglia, Zaman and Marsaglia, Math.
Comp. 53, 1989; Wheeler, Trans. AMS 318, 1990).  F = f = 1 solves the delay
equations, so the deviations from 1 do too, and s - 1 has the same u on the
unit before: with D = s (F - 1) and d = s (f - 1),

    dD/du on unit k = (d on unit k - 1) / (k - 1/2 + u),

and the same with D and d swapped.  So each unit's series is the other
function's series on the unit before times the geometric series of
1/(k - 1/2 + u), integrated term by term, plus the constant that makes it
continuous at s = k.  It starts from D = 2 e^gamma - s on units 0-2 and
d = -s on units 0-1, so unit 2 of f is the series of its closed form, and
``join_error`` is how far apart the two are.  The series hold deviations
because F - f falls below the rounding of a number near 1 from about s = 13
(F(14) - 1 = 3.5e-17); series of s F and s f put F below f there.

Since |u| <= 1/2 and k - 1/2 >= 3/2, each term of 1/(k - 1/2 + u) is at
most a third of the one before.  ``TERMS`` = 40 truncates at 3^-40, about
1e-19, below the float64 rounding; half as many still agree with 40 to
about 1e-11 on (3, 30], which the delay-grid suite checks to 1e-8, and 24
would not (1e-7 between 24 and 12).

F and f are functions of s alone: ``evaluate`` (one s) and ``curves`` (an
array of s) read one per-process copy of the series, 2 x 40 coefficients
on each of the ``UNITS`` = 30 units, built on first use.  Past the last
unit both return 1.0, which F and f already are in float64 from s = 14.02
on, so s has no upper bound.

A ``BuchstabGrid`` is only the export: the nodes s_k = k/m, k <= s_max m,
and ``join_error`` on them.  Building a grid costs far less than parsing
one back from text, so the CSV cache of ``grid_cached`` is written, never
read.  It and ``buchstab --format csv`` share one writer, ``write_csv``,
which tabulates and formats a chunk of rows at a time and refuses an export
of more than ``MAX_GRID_CELLS`` rows before it writes any.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arith import EULER_GAMMA
from .errors import InputError, finite, integer, within

#: most rows one ``buchstab`` route writes: s_max/step export rows (csv and
#: the cache) or s_max - 1 rows at the integers (json and table); and most
#: nodes of (2, 4], 2/step, that ``build_grid`` reads ``join_error`` on
MAX_GRID_CELLS = 5_000_000
#: coefficients per unit of each series
TERMS = 40
#: units [k, k + 1], k < UNITS, that the series cover; F = f = 1.0 past them
UNITS = 30
_SAVE_CHUNK = 8192  # rows formatted per write
_TWO_EG = 2.0 * math.exp(EULER_GAMMA)


@dataclass
class BuchstabGrid:
    """The export of F and f: nodes s_k = k/m for 1 <= k <= s_max * m, and
    ``join_error`` read on them."""

    m: int
    s_max: float
    join_error: float

    @property
    def step(self) -> float:
        return 1.0 / self.m

    @property
    def nodes(self) -> int:
        """The last node's index, s_max * m; the nodes are k = 1 .. nodes."""
        return round(self.s_max) * self.m

    def s_values(self, lo: int, hi: int) -> np.ndarray:
        """s_k = k/m for lo <= k < hi."""
        s = np.arange(lo, hi, dtype=np.float64)
        s /= self.m
        return s

    def values(self, lo: int, hi: int) -> np.ndarray:
        """F and f (rows 0 and 1) at s_k for 1 <= lo <= k < hi."""
        return curves(self.s_values(lo, hi))


def _horner(coeffs, u):
    """The sum of coeffs[n] u^n; u a float or an array broadcast with coeffs[n]."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * u + c
    return acc


@functools.cache
def _series(terms: int = TERMS) -> np.ndarray:
    """s (F - 1) and s (f - 1) on the units [k, k + 1], k < UNITS, as ``terms``
    coefficients in u = s - k - 1/2: a read-only array [which, k, n], which 0
    for F and 1 for f, built once per process."""
    out = np.zeros((2, UNITS, terms))
    # the start, with s = k + 1/2 + u: s (F - 1) = 2 e^gamma - s on (0, 3], s (f - 1) = -s on (0, 2]
    out[0, :3, 0] = _TWO_EG - 0.5 - np.arange(3)
    out[1, :2, 0] = -0.5 - np.arange(2)
    out[0, :3, 1] = out[1, :2, 1] = -1.0
    n = np.arange(terms)
    up, down = 0.5**n, (-0.5) ** n  # u^n at the unit's two ends
    for k in range(2, UNITS):
        inv = (-1.0 / (k - 0.5)) ** n / (k - 0.5)  # 1/(k - 1/2 + u)
        for i in (1,) if k == 2 else (0, 1):  # F from unit 3 on, f from unit 2
            new = out[i, k]
            new[1:] = np.convolve(out[1 - i, k - 1], inv)[: terms - 1] / n[1:]
            new[0] = out[i, k - 1] @ up - new @ down  # continuous at s = k
    out.flags.writeable = False
    return out


def curves(s: np.ndarray, terms: int = TERMS) -> np.ndarray:
    """F and f (rows 0 and 1) at the ascending float64 s > 0, each from the
    series of the unit [j, j + 1) that holds it and 1.0 past the last unit:
    ``evaluate``'s values bit for bit off its closed forms.  F on (0, 3] and f
    on (0, 2] are their closed forms, since s (F - 1) and s (f - 1) carry fewer
    of their digits than F and f have as s falls to 0."""
    coeffs = _series(terms)
    out = np.zeros((2, s.size))
    ends = np.searchsorted(s, np.arange(UNITS + 1))  # s[ends[j]:ends[j + 1]] in [j, j + 1)
    for j in range(UNITS):
        a, b = ends[j], ends[j + 1]
        if a < b:
            out[:, a:b] = _horner(coeffs[:, j].T[..., None], s[a:b] - j - 0.5)
    out /= s
    out += 1.0
    two, three = np.searchsorted(s, (2.0, 3.0), side="right")
    out[0, :three] = _TWO_EG / s[:three]
    out[1, :two] = 0.0
    return out


def _grid_size(s_max: float, step: float) -> tuple[int, int]:
    """(s_max, m) for a grid of step 1/m on (0, s_max], its join nodes checked first."""
    smax = integer(s_max, "s_max", least=6)
    m = round(1.0 / finite(step, "step", above=0))
    if m < 1 or abs(1.0 / step - m) > 1e-6:
        raise InputError(f"step must be 1/m for an integer m, got {step}")
    within(2 * m, MAX_GRID_CELLS, "join_error nodes 2/step")
    return smax, m


def build_grid(s_max: float = 30.0, step: float = 1e-4) -> BuchstabGrid:
    """The export of F and f on (0, s_max] at nodes of spacing step.

    Args:
        s_max: integer >= 6; the export covers (0, s_max].
        step: spacing of the nodes s_k = k/m that the CSV export tabulates and
            ``join_error`` reads; 1/step must be an integer m.

    Raises:
        InputError: s_max or step outside the domain above.
        CapacityError: 2/step exceeds MAX_GRID_CELLS; checked before
            anything is built.  The export's s_max/step rows are checked
            where they are written, by ``write_csv``.

    The returned ``join_error`` is the largest difference, over the nodes of
    2 < s <= 4, between f from the series (the integral form of the closed F)
    and its closed form, a direct measure of the recursion's accuracy.
    """
    smax, m = _grid_size(s_max, step)
    g = BuchstabGrid(m, float(smax), 0.0)
    for lo in range(2 * m + 1, 4 * m + 1, _SAVE_CHUNK):  # one chunk of nodes at a time
        s = g.s_values(lo, min(lo + _SAVE_CHUNK, 4 * m + 1))
        err = curves(s)[1] - _TWO_EG * np.log(s - 1.0) / s  # f closed on [2, 4]
        g.join_error = max(g.join_error, float(np.max(np.abs(err))))
    return g


def _csv_rows(grid: BuchstabGrid, lo: int, hi: int, digits: int = 17) -> str:
    """Rows k = lo .. hi - 1 as "s,F,f" lines at ``digits`` significant digits."""
    rows = np.column_stack((grid.s_values(lo, hi), *grid.values(lo, hi)))
    return f"%.{digits}g,%.{digits}g,%.{digits}g\n" * (hi - lo) % tuple(rows.ravel().tolist())


def write_csv(grid: BuchstabGrid, fh, digits: int = 17) -> None:
    """Write F and f at the grid's nodes to the text stream fh as CSV with
    header s,F,f, one chunk of _SAVE_CHUNK rows per write, so only one chunk
    is held as text.

    Raises:
        CapacityError: the grid's s_max/step rows exceed MAX_GRID_CELLS;
            checked before anything is written.
    """
    within(grid.nodes, MAX_GRID_CELLS, "export rows s_max/step")
    fh.write("s,F,f\n")
    top = grid.nodes + 1
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
    tail = ("\n" + _csv_rows(grid, grid.nodes, grid.nodes + 1)).encode()
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


def evaluate(s: float, which: str) -> float:
    """F(s) or f(s), preferring closed forms where they hold.

    Off the closed-form ranges the value is the series of the unit [k, k + 1)
    that holds s, summed by Horner's rule and divided by s, and 1.0 past the
    last unit.

    Raises:
        InputError: s not a finite number > 0, or which not in {"F", "f"}.
    """
    if which not in ("F", "f"):
        raise InputError(f"which must be 'F' or 'f', got {which!r}")
    finite(s, "s", above=0)
    if which == "F" and s <= 3.0:
        return _TWO_EG / s
    if which == "f":
        if s <= 2.0:
            return 0.0
        if s <= 4.0:
            return _TWO_EG * math.log(s - 1.0) / s
    k = int(s)
    if k >= UNITS:
        return 1.0
    return 1.0 + _horner(_series()["Ff".index(which), k].tolist(), s - k - 0.5) / s
