"""Prime tables and scalar arithmetic helpers used by every sieve module.

The central object is :class:`PrimeTables`: a smallest-prime-factor table up
to a fixed limit plus the sorted array of primes below it.  Everything that
needs factorizations, prime counts in progressions, or multiplicative
statistics (mu, nu, Omega, the +-1 complete-multiplicativity indicator, phi)
goes through one shared instance so the sieve work stays O(1) per query
after a single table build.  The tables own two shared facts besides:
whether a read at n fits them (``PrimeTables.reach``, the one place a
request is held against ``limit``), and the Liouville summatory
L(n) = sum of lambda(m) over m <= n (``liouville_summatory``), which the
parity counts and both Liouville problem kinds read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InputError, finite, integer

EULER_GAMMA = 0.5772156649015329

#: Hard ceiling on table size (entries).
MAX_TABLE_ENTRIES = 200_000_000


@dataclass(unsafe_hash=True)
class PrimeTables:
    """Smallest-prime-factor table and prime list up to ``limit``.

    The arrays follow from ``limit``, so tables compare and hash by it alone.

    Attributes:
        limit: largest integer covered by the tables (inclusive).
        spf: int32 array of length limit+1; spf[n] is the smallest prime
            factor of n for n >= 2, with spf[1] == 1 and spf[0] == 0.
        primes: sorted int64 array of all primes <= limit.
    """

    limit: int
    spf: np.ndarray = field(compare=False)
    primes: np.ndarray = field(compare=False)
    _liouville: np.ndarray | None = field(default=None, repr=False, compare=False)
    _big_omega: np.ndarray | None = field(default=None, repr=False, compare=False)
    _mobius: np.ndarray | None = field(default=None, repr=False, compare=False)
    _liouville_sum: np.ndarray | None = field(default=None, repr=False, compare=False)

    def reach(self, n, what: str | None = None) -> None:
        """Check that a read at n fits the tables; ``what`` names the request.

        Raises:
            InputError: n is not a finite number.
            CapacityError: n > limit.
        """
        if finite(n, what or "a table read") > self.limit:
            raise CapacityError(f"{what or n} beyond table limit {self.limit}")

    def _prime_factor_counts(self, powers: bool) -> np.ndarray:
        """int16 count of the prime factors of each n <= limit (Omega if powers, else nu).

        A prime above sqrt(limit) divides n at most once, so those primes are
        added by cofactor m: all q <= limit/m at once.
        """
        lim = self.limit
        out = np.zeros(lim + 1, dtype=np.int16)
        split = int(np.searchsorted(self.primes, math.isqrt(lim), side="right"))
        for p in self.primes[:split].tolist():
            q = p
            while q <= lim:
                out[q::q] += 1
                q = q * p if powers else lim + 1  # nu counts each prime once
        large = self.primes[split:]
        for m in range(1, lim // (math.isqrt(lim) + 1) + 1):
            out[m * large[: np.searchsorted(large, lim // m, side="right")]] += 1
        return out

    def big_omega_table(self) -> np.ndarray:
        """int16 array with Omega(n) (prime factors with multiplicity)."""
        if self._big_omega is None:
            self._big_omega = self._prime_factor_counts(powers=True)
        return self._big_omega

    def liouville_table(self) -> np.ndarray:
        """int8 array with (-1)**Omega(n); entry 0 is unused and set to 0."""
        if self._liouville is None:
            big = self.big_omega_table()
            liou = np.where(big & 1, -1, 1).astype(np.int8)
            liou[0] = 0
            self._liouville = liou
        return self._liouville

    def liouville_summatory(self) -> np.ndarray:
        """int32 array with L(n) = sum of lambda(m) over 1 <= m <= n; L(0) = 0."""
        if self._liouville_sum is None:
            self._liouville_sum = np.cumsum(self.liouville_table(), dtype=np.int32)
        return self._liouville_sum

    def mobius_table(self) -> np.ndarray:
        """int8 array with mu(n); entry 0 is unused and set to 0."""
        if self._mobius is None:
            nu = self._prime_factor_counts(powers=False)
            squarefree = nu == self.big_omega_table()
            mu = np.where(squarefree, np.where(nu & 1, -1, 1), 0).astype(np.int8)
            mu[0] = 0
            self._mobius = mu
        return self._mobius


@dataclass(frozen=True)
class MultStats:
    """Multiplicative statistics of a single integer."""

    mu: int
    nu: int
    big_omega: int
    liouville: int
    phi: int


def build_tables(limit: int) -> PrimeTables:
    """Sieve smallest prime factors for 0..limit and collect the primes.

    Args:
        limit: inclusive upper end of the table, at least 2.

    Raises:
        InputError: limit is not an integer >= 2.
        CapacityError: limit + 1 > MAX_TABLE_ENTRIES.
    """
    limit = integer(limit, "table limit", least=2)
    if limit + 1 > MAX_TABLE_ENTRIES:
        raise CapacityError(
            f"table of {limit + 1} entries exceeds the cap of {MAX_TABLE_ENTRIES}"
        )
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    idx = np.arange(limit + 1, dtype=np.int32)
    unset = spf == 0
    spf[unset] = idx[unset]
    primes = np.nonzero(spf == idx)[0].astype(np.int64)
    primes = primes[primes >= 2]
    primes.flags.writeable = False  # shared: primes_below hands out slices of it
    return PrimeTables(limit=limit, spf=spf, primes=primes)


def factorize(n: int, tables: PrimeTables) -> list[tuple[int, int]]:
    """Return the factorization of n as (prime, exponent) pairs, ascending.

    Raises:
        InputError: n is not an integer >= 1.
        CapacityError: n beyond the tables.
    """
    n = integer(n, "n", least=1)
    tables.reach(n)
    out: list[tuple[int, int]] = []
    spf = tables.spf
    m = n
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return out


def squarefree_primes(d: int, tables: PrimeTables) -> list[int]:
    """Prime factors of a squarefree d, ascending.

    Within the table this is ``factorize``; above it, trial division by the
    table primes, whose cofactor must be 1 or a prime they certify.

    Raises:
        InputError: d < 1 or d not squarefree.
        CapacityError: a cofactor the table primes cannot certify.
    """
    try:
        fac = factorize(d, tables)
    except CapacityError:  # d is past the table: trial division below
        pass
    else:
        if any(e > 1 for _, e in fac):
            raise InputError(f"{d} is not squarefree")
        return [q for q, _ in fac]
    out: list[int] = []
    m = d
    for q in tables.primes:
        q = int(q)
        if q * q > m:
            break
        if m % q == 0:
            m //= q
            if m % q == 0:
                raise InputError(f"{d} is not squarefree")
            out.append(q)
    if m > 1:  # no table prime up to sqrt(m) divides m: prime if the table reaches sqrt(m)
        tables.reach(math.isqrt(m), f"the root of cofactor {m}")
        out.append(m)
    return out


def mult_stats(n: int, tables: PrimeTables) -> MultStats:
    """Compute (mu, nu, Omega, (-1)**Omega, phi) for one integer via the spf table.

    mult_stats(1) is (1, 0, 0, 1, 1).
    """
    fac = factorize(n, tables)
    nu = len(fac)
    big = sum(e for _, e in fac)
    mu = 0 if any(e > 1 for _, e in fac) else (-1) ** nu
    phi = 1
    for p, e in fac:
        phi *= (p - 1) * p ** (e - 1)
    return MultStats(mu=mu, nu=nu, big_omega=big, liouville=(-1) ** big, phi=phi)


def prime_pi(x: float, tables: PrimeTables) -> int:
    """Count primes <= x using the shared prime array.

    Raises:
        InputError: x is NaN or infinite.
        CapacityError: x beyond the tables.
    """
    tables.reach(x, f"x={x}")
    return int(np.searchsorted(tables.primes, math.floor(x), side="right"))


def pi_ap(x: float, k: int, l: int, tables: PrimeTables) -> int:
    """Count primes p <= x with p congruent to l mod k.

    Args:
        x: upper end of the count (real; compared against integer primes).
        k: modulus, k >= 1.
        l: residue class; reduced mod k internally.

    Raises:
        InputError: k not an integer >= 1, l not an integer, or x not a finite number.
        CapacityError: x or k beyond the tables.
    """
    k, l = integer(k, "modulus k", least=1), integer(l, "residue l")
    tables.reach(x, f"x={x}")
    tables.reach(k, f"modulus k={k}")
    ps = tables.primes[: np.searchsorted(tables.primes, math.floor(x), side="right")]
    ps = ps.astype(np.uint32)  # primes and k are within the tables, below 2^32
    return int(np.count_nonzero(ps - ps // k * k == l % k))  # // by a scalar is vectorised; % is not


def _simpson(f, a: float, b: float) -> float:
    """Simpson's rule on [a, b]; an estimate that is not finite ends the quadrature."""
    out = (b - a) / 6.0 * (f(a) + 4.0 * f(0.5 * (a + b)) + f(b))
    if not math.isfinite(out):
        raise CapacityError(f"Simpson estimate {out} on [{a:.6g}, {b:.6g}] is not finite")
    return out


def _adaptive_simpson(f, a, b, whole, eps, depth):
    m = 0.5 * (a + b)
    left = _simpson(f, a, m)
    right = _simpson(f, m, b)
    delta = left + right - whole
    if abs(delta) <= 15.0 * eps or depth <= 0:
        return left + right + delta / 15.0
    return _adaptive_simpson(f, a, m, left, 0.5 * eps, depth - 1) + _adaptive_simpson(
        f, m, b, right, 0.5 * eps, depth - 1
    )


def integrate_adaptive(f, a: float, b: float, rel_tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature of f on [a, b] to a relative tolerance.

    Each interval is split until two successive refinements agree to the
    (proportionally shared) tolerance; the Richardson-extrapolated value is
    returned.

    Raises:
        InputError: a or b not a finite number, or rel_tol not a finite number > 0.
        CapacityError: a Simpson estimate (on the whole interval or a part)
            is not finite, as when f or the width overflows a float.
    """
    finite(rel_tol, "rel_tol", above=0)
    if finite(b, "b") <= finite(a, "a"):
        return 0.0
    whole = _simpson(f, a, b)
    scale = max(abs(whole), 1e-30)
    return _adaptive_simpson(f, a, b, whole, rel_tol * scale, 48)


def li_eval(x: float) -> float:
    """Logarithmic integral from 2 to x of dt/log t.

    Raises:
        InputError: x is not a finite number >= 2.
        CapacityError: x is past the range of a float.
    """
    return integrate_adaptive(lambda t: 1.0 / math.log(t), 2.0, float(finite(x, "x", least=2)))
