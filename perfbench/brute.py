"""Ground truth for the benchmark's checks, computed without sievelab.

Everything here is plain NumPy written from the definitions in the
package README, so a defect in the package cannot hide in its own check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, ascending, by the sieve of Eratosthenes."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return np.nonzero(sieve)[0].astype(np.int64)


class Oracle:
    """Brute-force counts over integers up to ``limit``.

    The prime list and the Omega table are built on first use and kept,
    because many checks in one run share them.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._primes: np.ndarray | None = None
        self._omega: np.ndarray | None = None

    @property
    def primes(self) -> np.ndarray:
        if self._primes is None:
            self._primes = primes_upto(self.limit)
        return self._primes

    def omega(self) -> np.ndarray:
        """Omega(n), prime factors counted with multiplicity, for n <= limit."""
        if self._omega is None:
            big = np.zeros(self.limit + 1, dtype=np.int16)
            for p in self.primes.tolist():
                q = p
                while q <= self.limit:
                    big[q::q] += 1
                    q *= p
            self._omega = big
        return self._omega

    def members(self, kind: str, params: dict) -> np.ndarray:
        """The sequence A of a problem kind, as the README defines it."""
        if kind == "interval":
            x, y = params["x"], params["y"]
            return np.arange(x + 1, x + y + 1, dtype=np.int64)
        if kind == "arithmetic_progression":
            x, k, l = params["x"], params["k"], params["l"] % params["k"]
            return np.arange(l if l >= 1 else k, x + 1, k, dtype=np.int64)
        if kind == "goldbach_product":
            two_n = params["two_N"]
            n = np.arange(2, two_n - 1, dtype=np.int64)
            return n * (two_n - n)
        if kind == "shifted_prime":
            n_par = params["N"]
            ps = self.primes[(self.primes >= 3) & (self.primes <= n_par - 3)]
            return n_par - ps[n_par % ps != 0]
        if kind == "square_plus_one":
            m = np.arange(1, params["x"] + 1, dtype=np.int64)
            return m * m + 1
        if kind in ("liouville_plus", "liouville_minus"):
            x = params["x"]
            odd = (self.omega()[1 : x + 1] & 1).astype(bool)
            want_odd = kind == "liouville_plus"
            return np.nonzero(odd == want_odd)[0].astype(np.int64) + 1
        raise ValueError(f"no brute-force definition for kind {kind!r}")

    def sifted(self, kind: str, params: dict, z: float) -> int:
        """Members with no prime factor below z.

        Using every prime below z is right for every kind: the primes a
        kind leaves out of its sieve never divide one of its members.
        """
        mem = self.members(kind, params)
        keep = np.ones(mem.size, dtype=bool)
        for q in self.primes[self.primes < z].tolist():
            keep &= mem % q != 0
        return int(np.count_nonzero(keep))

    def primes_in_class(self, x: int, k: int, l: int) -> int:
        """pi(x; k, l)."""
        ps = self.primes[self.primes <= x]
        return int(np.count_nonzero(ps % k == l % k))


def density(kind: str, params: dict):
    """The local density w(p) of a kind as an exact rational function."""
    if kind in ("interval", "liouville_plus", "liouville_minus"):
        return lambda p: Fraction(1)
    if kind == "arithmetic_progression":
        k = params["k"]
        return lambda p: Fraction(0) if k % p == 0 else Fraction(1)
    if kind == "goldbach_product":
        m = params["two_N"]
        return lambda p: Fraction(1) if m % p == 0 else Fraction(2)
    if kind == "shifted_prime":
        m = params["N"]
        return lambda p: Fraction(0) if m % p == 0 else Fraction(p, p - 1)
    if kind == "square_plus_one":
        return lambda p: Fraction(1) if p == 2 else Fraction(2 if p % 4 == 1 else 0)
    raise ValueError(f"no density for kind {kind!r}")


def sieve_primes(kind: str, params: dict, primes: np.ndarray) -> list[int]:
    """The primes a kind's sieve uses, out of ``primes``."""
    out = []
    for p in primes.tolist():
        if kind == "arithmetic_progression" and params["k"] % p == 0:
            continue
        if kind == "shifted_prime" and params["N"] % p == 0:
            continue
        if kind == "square_plus_one" and p != 2 and p % 4 != 1:
            continue
        out.append(p)
    return out


def euler_product(kind: str, params: dict, primes: list[int]) -> Fraction:
    """W = product of (1 - w(p)/p) over the given sieve primes, exactly."""
    w = density(kind, params)
    out = Fraction(1)
    for p in primes:
        out *= 1 - w(p) / p
    return out


def g_value(factors, w) -> Fraction:
    """g(l) = product over p | l of w(p) / (p - w(p))."""
    out = Fraction(1)
    for p in factors:
        out *= Fraction(w(p)) / (p - w(p))
    return out

