"""Sifted-sequence definitions: members, densities, exact counts.

A sieve problem packages a finite integer sequence A, a scale X, a
multiplicative local density w with w(p)/p approximating the proportion of A
divisible by p, and the set of primes the sieve is allowed to use.  The
exact operations here (count_Ad, sift_exact) are deliberately brute force;
they are the ground truth every bound module is checked against.

Supported kinds:

=====================  ====================================================
interval               {x+1, ..., x+y}, X = y, w = 1
arithmetic_progression {n <= x : n = l mod k}, X = x/k, w(p) = 1 for p not | k
goldbach_product       {n(2N-n) : 2 <= n <= 2N-2}, X = 2N,
                       w(p) = 1 if p | 2N else 2
shifted_prime          {N-p : p prime, 3 <= p <= N-3, p not | N}, X = Li(N),
                       w(p) = p/(p-1) for p not | N
square_plus_one        {n^2+1 : n <= x}, X = x, w(2) = 1,
                       w(p) = 2 if p = 1 mod 4 else 0
liouville_plus         {n <= x with an odd number of prime factors}, X = x/2
liouville_minus        {n <= x with an even number of prime factors}, X = x/2
=====================  ====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .arith import PrimeTables, li_eval, squarefree_primes
from .errors import CapacityError, DensityRangeError, InputError

#: kind -> (its integer parameters, in order; the one its factor tables must reach)
KINDS = {
    "interval": (("x", "y"), None),
    "arithmetic_progression": (("x", "k", "l"), "x"),
    "goldbach_product": (("two_N",), "two_N"),
    "shifted_prime": (("N",), "N"),
    "square_plus_one": (("x",), "x"),
    "liouville_plus": (("x",), "x"),
    "liouville_minus": (("x",), "x"),
}
ALL_KINDS = tuple(KINDS)

#: exact scans refuse problems with more members than this (a 100 MB interval mask)
MAX_SCAN_MEMBERS = 100_000_000

#: kinds whose #A_d is a closed formula, not a scan of the members
_FORMULA_KINDS = ("interval", "arithmetic_progression", "liouville_plus", "liouville_minus")


@dataclass(frozen=True)
class MultiplicativeDensity:
    """Local density w, given by its values at primes.

    ``at_prime`` enforces 0 <= w(p) < p; values are exact rationals so the
    quadratic-form sieve algebra downstream stays exact.
    """

    fn: Callable[[int], Fraction]
    description: str = ""

    def at_prime(self, p: int) -> Fraction:
        w = Fraction(self.fn(p))
        if w < 0 or w >= p:
            raise DensityRangeError(f"w({p}) = {w} outside [0, {p})")
        return w

    def at_squarefree(self, prime_factors: list[int]) -> Fraction:
        out = Fraction(1)
        for p in prime_factors:
            out *= self.at_prime(p)
        return out


@dataclass(frozen=True)
class PrimeSet:
    """Set of primes available to the sieve.

    kind "all" is every prime; "coprime" keeps primes not dividing m;
    "two_or_one_mod_four" keeps 2 and the primes = 1 mod 4.
    """

    kind: str = "all"
    m: int = 1

    def select(self, primes: np.ndarray) -> np.ndarray:
        if self.kind == "all":
            return primes
        if self.kind == "coprime":
            return primes[self.m % primes != 0]
        if self.kind == "two_or_one_mod_four":
            return primes[(primes == 2) | (primes % 4 == 1)]
        raise InputError(f"unknown prime set kind {self.kind!r}")


@dataclass(frozen=True)
class RemainderRecord:
    """One divisor's exact count against its expected share."""

    d: int
    count: int
    main: float
    r: float


@dataclass
class SieveProblem:
    kind: str
    label: str
    params: dict
    X: float
    omega: MultiplicativeDensity
    prime_set: PrimeSet
    tables: PrimeTables
    members: np.ndarray | None = None
    n_bound: int = 0
    _prefix_plus: np.ndarray | None = field(default=None, repr=False)


def _liouville_prefix(tables: PrimeTables, x: int) -> np.ndarray:
    liou = tables.liouville_table()
    pref = np.zeros(x + 1, dtype=np.int64)
    np.cumsum(liou[1 : x + 1] == 1, out=pref[1:])
    return pref


def make_problem(kind: str, params: dict, tables: PrimeTables) -> SieveProblem:
    """Build one of the supported sieve problems.

    Raises:
        InputError: unknown kind, a missing parameter, or parameters outside
            the kind's domain.
        CapacityError: members would not fit in the supplied tables where
            the kind needs factorization support (liouville kinds).
    """
    if kind not in KINDS:
        raise InputError(f"unknown problem kind {kind!r}")
    missing = [name for name in KINDS[kind][0] if params.get(name) is None]
    if missing:
        raise InputError(f"{kind} needs parameter {', '.join(missing)}")
    ints = [int(params[name]) for name in KINDS[kind][0]]

    if kind == "interval":
        x, y = ints
        if x < 0 or y < 1:
            raise InputError(f"interval needs x >= 0, y >= 1, got x={x} y={y}")
        return SieveProblem(
            kind=kind,
            label=f"interval[{x + 1}..{x + y}]",
            params={"x": x, "y": y},
            X=float(y),
            omega=MultiplicativeDensity(lambda p: Fraction(1), "w = 1"),
            prime_set=PrimeSet("all"),
            tables=tables,
            n_bound=x + y,
        )

    if kind == "arithmetic_progression":
        x, k, l = ints
        if x < 1 or k < 1:
            raise InputError(f"progression needs x >= 1, k >= 1, got x={x} k={k}")
        if math.gcd(l, k) != 1:
            raise InputError(f"residue {l} not coprime to modulus {k}")
        return SieveProblem(
            kind=kind,
            label=f"progression x={x} k={k} l={l % k}",
            params={"x": x, "k": k, "l": l % k},
            X=x / k,
            omega=MultiplicativeDensity(
                lambda p, k=k: Fraction(0) if k % p == 0 else Fraction(1),
                f"w(p) = 1 off p | {k}",
            ),
            prime_set=PrimeSet("coprime", k),
            tables=tables,
            n_bound=x,
        )

    if kind == "goldbach_product":
        (two_n,) = ints
        if two_n < 6 or two_n % 2:
            raise InputError(f"goldbach_product needs even 2N >= 6, got {two_n}")
        n = np.arange(2, two_n - 1, dtype=np.int64)
        return SieveProblem(
            kind=kind,
            label=f"goldbach 2N={two_n}",
            params={"two_N": two_n},
            X=float(two_n),
            omega=MultiplicativeDensity(
                lambda p, m=two_n: Fraction(1) if m % p == 0 else Fraction(2),
                f"w(p) = 1 if p | {two_n} else 2",
            ),
            prime_set=PrimeSet("all"),
            tables=tables,
            members=n * (two_n - n),
            n_bound=int(two_n) ** 2 // 4,
        )

    if kind == "shifted_prime":
        (n_par,) = ints
        if n_par < 8 or n_par % 2:
            raise InputError(f"shifted_prime needs even N >= 8, got {n_par}")
        if n_par > tables.limit:
            raise CapacityError(f"N={n_par} exceeds table limit {tables.limit}")
        ps = tables.primes
        ps = ps[(ps >= 3) & (ps <= n_par - 3)]
        ps = ps[n_par % ps != 0]
        return SieveProblem(
            kind=kind,
            label=f"shifted N={n_par}",
            params={"N": n_par},
            X=li_eval(n_par),
            omega=MultiplicativeDensity(
                lambda p, m=n_par: Fraction(0) if m % p == 0 else Fraction(p, p - 1),
                f"w(p) = p/(p-1) off p | {n_par}",
            ),
            prime_set=PrimeSet("coprime", n_par),
            tables=tables,
            members=(n_par - ps).astype(np.int64),
            n_bound=n_par - 3,
        )

    if kind == "square_plus_one":
        (x,) = ints
        if x < 1:
            raise InputError(f"square_plus_one needs x >= 1, got {x}")
        n = np.arange(1, x + 1, dtype=np.int64)
        return SieveProblem(
            kind=kind,
            label=f"square_plus_one x={x}",
            params={"x": x},
            X=float(x),
            omega=MultiplicativeDensity(
                lambda p: Fraction(1)
                if p == 2
                else (Fraction(2) if p % 4 == 1 else Fraction(0)),
                "w(2) = 1, w(p) = 2 for p = 1 mod 4, else 0",
            ),
            prime_set=PrimeSet("two_or_one_mod_four"),
            tables=tables,
            members=n * n + 1,
            n_bound=x * x + 1,
        )

    (x,) = ints  # liouville_plus or liouville_minus
    if x < 1:
        raise InputError(f"{kind} needs x >= 1, got {x}")
    if x > tables.limit:
        raise CapacityError(f"x={x} exceeds table limit {tables.limit}")
    target = -1 if kind == "liouville_plus" else 1
    liou = tables.liouville_table()
    members = np.nonzero(liou[: x + 1] == target)[0].astype(np.int64)
    sign = "+" if kind == "liouville_plus" else "-"
    prob = SieveProblem(
        kind=kind,
        label=f"liouville{sign} x={x}",
        params={"x": x},
        X=x / 2.0,
        omega=MultiplicativeDensity(lambda p: Fraction(1), "w = 1"),
        prime_set=PrimeSet("all"),
        tables=tables,
        members=members,
        n_bound=x,
    )
    prob._prefix_plus = _liouville_prefix(tables, x)
    return prob


def _check_scan_size(p: SieveProblem, size: int) -> None:
    if size > MAX_SCAN_MEMBERS:
        raise CapacityError(
            f"{p.label} has {size} members; exact scans stop at {MAX_SCAN_MEMBERS}"
        )


def members_array(p: SieveProblem) -> np.ndarray:
    """The members of A as an int64 array (generated on the fly for the
    closed-form kinds, stored for the scan kinds).

    Raises:
        CapacityError: more than MAX_SCAN_MEMBERS members to generate.
    """
    if p.members is not None:
        return p.members
    if p.kind == "interval":
        x, y = p.params["x"], p.params["y"]
        _check_scan_size(p, y)
        return np.arange(x + 1, x + y + 1, dtype=np.int64)
    if p.kind == "arithmetic_progression":
        x, k, l = p.params["x"], p.params["k"], p.params["l"]
        first = l if l >= 1 else k
        _check_scan_size(p, -(-x // k))
        return np.arange(first, x + 1, k, dtype=np.int64)
    raise InputError(f"no member generator for kind {p.kind!r}")


def _closed_count(p: SieveProblem, d: int, nu: int) -> int:
    """#A_d by formula for the kinds with no member scan; nu = nu(d)."""
    if p.kind == "interval":
        x, y = p.params["x"], p.params["y"]
        return (x + y) // d - x // d
    if p.kind == "arithmetic_progression":
        x, k, l = p.params["x"], p.params["k"], p.params["l"]
        if math.gcd(d, k) != 1:
            return 0
        # n = 0 mod d and n = l mod k; lift to the class c mod dk
        inv = pow(d % k, -1, k) if k > 1 else 0
        c = d * ((l * inv) % k) if k > 1 else d
        if c == 0:
            return x // (d * k)
        return (x - c) // (d * k) + 1 if c <= x else 0
    # liouville kinds: lambda(d m) = lambda(d) lambda(m) and lambda(d) = (-1)^nu
    m_top = p.params["x"] // d
    target = -1 if p.kind == "liouville_plus" else 1
    plus = int(p._prefix_plus[m_top])
    return plus if target == (-1) ** nu else m_top - plus


def count_Ad(p: SieveProblem, d: int) -> int:
    """Exact number of members of A divisible by d (d squarefree, d >= 1)."""
    fac = squarefree_primes(d, p.tables)
    if d > p.n_bound:  # every member is positive and at most n_bound
        return 0
    if p.kind in _FORMULA_KINDS:
        return _closed_count(p, d, len(fac))
    return int(np.count_nonzero(p.members % d == 0))


def remainder(
    p: SieveProblem, d: int, count: int | None = None, w: Fraction | int | None = None
) -> RemainderRecord:
    """Exact count of A_d against its expected share X w(d)/d.

    A divisor walk passes the #A_d and w(d) it carried; otherwise both are
    rebuilt from d.
    """
    if w is None:
        w = p.omega.at_squarefree(squarefree_primes(d, p.tables))
    if count is None:
        count = count_Ad(p, d)
    main = float(p.X) * float(w) / d
    return RemainderRecord(d=d, count=count, main=main, r=count - main)


def divisor_walk(
    p: SieveProblem | None,
    primes: Sequence[int],
    admit: Callable[[int, int, int], bool],
    factors: dict | None = None,
    prune_empty: bool = False,
    max_nodes: int | None = None,
) -> Iterator[tuple[int, int, object, int | None]]:
    """Depth-first walk of the squarefree d built from ``primes``, in their order.

    A node d extends to d q for each later prime q that ``admit(d, nu(d), q)``
    accepts, and yields (d, nu(d), v(d), #A_d), carried down one step per
    node: v(d) = v(d / q) factors[q] (default factors w(q), so v(d) = w(d)),
    and #A_d is the kind's formula or, for the member-scan kinds, the count
    of the parent's surviving members that q divides.  With p = None the
    walk needs ``factors`` and yields None for #A_d; prune_empty skips the
    subtree below a node with #A_d = 0.

    Raises:
        CapacityError: more than max_nodes nodes.
    """
    primes = [int(q) for q in primes]
    if factors is None:  # whole w(q) as ints: as exact as Fractions, and cheaper
        factors = {q: p.omega.at_prime(q) for q in primes}
        factors = {q: w.numerator if w.denominator == 1 else w for q, w in factors.items()}
    scan = p is not None and p.kind not in _FORMULA_KINDS
    nodes = 0
    # (index of the next prime, d, nu(d), v(d), members divisible by d / q)
    stack: list = [(0, 1, 0, 1, p.members if scan else None)]
    while stack:
        i, d, nu, v, sub = stack.pop()
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise CapacityError(f"divisor walk exceeds {max_nodes} nodes")
        if scan:
            if i and sub.size:  # i > 0: d = (d / q) q with q = primes[i - 1]
                sub = sub[sub % primes[i - 1] == 0]
            count = sub.size
        else:
            count = None if p is None else _closed_count(p, d, nu)
        yield d, nu, v, count
        if prune_empty and count == 0:
            continue
        for j in range(i, len(primes)):
            q = primes[j]
            if admit(d, nu, q):
                stack.append((j + 1, d * q, nu + 1, v * factors[q], sub))


def sieve_primes(p: SieveProblem, z: float) -> np.ndarray:
    """Primes of the problem's prime set below z (strict), ascending."""
    ps = p.tables.primes
    ps = ps[ps < z]
    return p.prime_set.select(ps)


def sift_exact(p: SieveProblem, z: float) -> int:
    """Count members of A with no prime factor p < z from the prime set.

    This is the brute-force ground truth: every relevant prime below z is
    tested by divisibility against every member.

    Raises:
        CapacityError: more than MAX_SCAN_MEMBERS members to scan.
    """
    if p.kind == "interval":
        x, y = p.params["x"], p.params["y"]
        _check_scan_size(p, y)
        keep = np.ones(y, dtype=bool)
        for q in sieve_primes(p, z):
            q = int(q)
            start = (-(x + 1)) % q
            keep[start::q] = False
        return int(np.count_nonzero(keep))
    return sifted_members(p, z).size


def sifted_members(p: SieveProblem, z: float) -> np.ndarray:
    """The members surviving the cut at z, as values."""
    rp = sieve_primes(p, z)
    mem = members_array(p)
    keep = np.ones(mem.size, dtype=bool)
    for q in rp:
        np.logical_and(keep, mem % int(q) != 0, out=keep)
    return mem[keep]
