"""Sifted-sequence definitions: members, densities, exact counts.

A sieve problem packages a finite integer sequence A, a scale X, a
multiplicative local density w with w(p)/p approximating the proportion of A
divisible by p, and the set of primes the sieve is allowed to use; the prime
set is exactly the primes with w(p) > 0.  Each kind's record in KINDS states
everything the kind decides: its sizes, its table need, its members, and how
#A_d is counted (a closed formula in d and nu(d), or a scan of the stored
members).  A problem's value is its kind, parameters and tables.  The exact
operations here (count_Ad, sift_exact) are deliberately brute force; they are
the ground truth every bound module is checked against.  The sift tests each
prime only against the members the smaller primes left, and a problem keeps
each exact sifted count it has computed, keyed by its sieve-prime cut (how
many sieve primes lie below z), so bounds that share a cut share one scan.

Supported kinds (#A_d by formula F or member scan S):

=====================  ===  ===============================================
interval               F    {x+1, ..., x+y}, X = y, w = 1
arithmetic_progression F    {n <= x : n = l mod k}, X = x/k, w(p) = 1 for p not | k
goldbach_product       S    {n(2N-n) : 2 <= n <= 2N-2}, X = 2N,
                            w(p) = 1 if p | 2N else 2
shifted_prime          S    {N-p : p prime, 3 <= p <= N-3, p not | N}, X = Li(N),
                            w(p) = p/(p-1) for p not | N
square_plus_one        S    {n^2+1 : n <= x}, X = x, w(2) = 1,
                            w(p) = 2 if p = 1 mod 4 else 0
liouville_plus         F    {n <= x with an odd number of prime factors}, X = x/2
liouville_minus        F    {n <= x with an even number of prime factors}, X = x/2
=====================  ===  ===============================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .arith import PrimeTables, li_eval, squarefree_primes
from .errors import CapacityError, DensityRangeError, InputError, finite, integer

#: exact scans refuse problems with more members than this (a 100 MB interval mask)
MAX_SCAN_MEMBERS = 100_000_000

#: a divisor walk refuses to visit more nodes than this unless its caller names a cap
MAX_CHAIN_NODES = 2_000_000


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

    def __post_init__(self):
        object.__setattr__(self, "m", integer(self.m, "prime set modulus m", least=1))
        if self.m > np.iinfo(np.int64).max:  # select reduces it in int64
            raise CapacityError(f"prime set modulus m = {self.m:.6g} is past int64")

    def select(self, primes: np.ndarray) -> np.ndarray:
        if self.kind == "all":
            return primes
        if self.kind == "coprime":
            return primes[self.m % primes != 0]
        if self.kind == "two_or_one_mod_four":
            return primes[(primes == 2) | (primes % 4 == 1)]
        raise InputError(f"unknown prime set kind {self.kind!r}")


class RemainderRecord(NamedTuple):
    """One divisor's exact count against its expected share."""

    d: int
    count: int
    main: float
    r: float


@dataclass(frozen=True)
class KindShape:
    """What a problem kind states from its parameters alone, before any table is built.

    ``need`` is the table limit the kind's own construction reads (0 when it
    reads none).  ``members`` builds the members from the tables.  ``count``,
    for the kinds with a closed formula for #A_d, binds that formula to the
    tables, giving #A_d from (d, nu(d)); it is None for the kinds counted by a
    scan of their stored members.
    """

    label: str
    params: dict
    X: float
    n_bound: int  # the largest member
    need: int
    omega: MultiplicativeDensity
    prime_set: PrimeSet
    members: Callable[[PrimeTables], np.ndarray]
    count: Callable[[PrimeTables], Callable[[int, int], int]] | None = None


_W_ONE = MultiplicativeDensity(lambda p: Fraction(1), "w = 1")


def _interval(x: int, y: int) -> KindShape:
    x = integer(x, "interval parameter x", least=0)
    y = integer(y, "interval parameter y", least=1)
    label = f"interval[{x + 1}..{x + y}]"

    def members(tables: PrimeTables) -> np.ndarray:
        _check_scan_size(label, y)
        return np.arange(x + 1, x + y + 1, dtype=np.int64)

    return KindShape(label, {"x": x, "y": y}, float(y), x + y, 0, _W_ONE, PrimeSet("all"),
                     members, lambda tables: lambda d, nu: (x + y) // d - x // d)


def _arithmetic_progression(x: int, k: int, l: int) -> KindShape:
    x = integer(x, "arithmetic_progression parameter x", least=1)
    k = integer(k, "arithmetic_progression parameter k", least=1)
    l = integer(l, "arithmetic_progression parameter l")
    if math.gcd(l, k) != 1:
        raise InputError(f"residue {l} not coprime to modulus {k}")
    l %= k
    label = f"progression x={x} k={k} l={l}"

    def members(tables: PrimeTables) -> np.ndarray:
        _check_scan_size(label, -(-x // k))
        return np.arange(l if l >= 1 else k, x + 1, k, dtype=np.int64)

    def count(d: int, nu: int) -> int:
        if math.gcd(d, k) != 1:
            return 0
        # n = 0 mod d and n = l mod k; lift to the class c mod dk
        inv = pow(d % k, -1, k) if k > 1 else 0
        c = d * ((l * inv) % k) if k > 1 else d
        if c == 0:
            return x // (d * k)
        return (x - c) // (d * k) + 1 if c <= x else 0

    omega = MultiplicativeDensity(
        lambda p: Fraction(0) if k % p == 0 else Fraction(1), f"w(p) = 1 off p | {k}"
    )
    return KindShape(label, {"x": x, "k": k, "l": l}, x / k, x, 0, omega, PrimeSet("coprime", k),
                     members, lambda tables: count)


def _goldbach_product(two_n: int) -> KindShape:
    two_n = integer(two_n, "goldbach_product parameter two_N", least=6)
    if two_n % 2:
        raise InputError(f"goldbach_product needs an even 2N, got {two_n}")

    label = f"goldbach 2N={two_n}"

    def members(tables: PrimeTables) -> np.ndarray:
        _check_scan_size(label, two_n - 3)
        n = np.arange(2, two_n - 1, dtype=np.int64)
        return n * (two_n - n)

    omega = MultiplicativeDensity(
        lambda p: Fraction(1) if two_n % p == 0 else Fraction(2),
        f"w(p) = 1 if p | {two_n} else 2",
    )
    return KindShape(label, {"two_N": two_n}, float(two_n), two_n**2 // 4, 0,
                     omega, PrimeSet("all"), members)


def _shifted_prime(n_par: int) -> KindShape:
    n_par = integer(n_par, "shifted_prime parameter N", least=8)
    if n_par % 2:
        raise InputError(f"shifted_prime needs an even N, got {n_par}")

    def members(tables: PrimeTables) -> np.ndarray:
        ps = tables.primes
        ps = ps[(ps >= 3) & (ps <= n_par - 3)]
        return (n_par - ps[n_par % ps != 0]).astype(np.int64)

    omega = MultiplicativeDensity(
        lambda p: Fraction(0) if n_par % p == 0 else Fraction(p, p - 1),
        f"w(p) = p/(p-1) off p | {n_par}",
    )
    return KindShape(f"shifted N={n_par}", {"N": n_par}, li_eval(n_par), n_par - 3, n_par,
                     omega, PrimeSet("coprime", n_par), members)


def _square_plus_one(x: int) -> KindShape:
    x = integer(x, "square_plus_one parameter x", least=1)

    label = f"square_plus_one x={x}"

    def members(tables: PrimeTables) -> np.ndarray:
        _check_scan_size(label, x)
        n = np.arange(1, x + 1, dtype=np.int64)
        return n * n + 1

    omega = MultiplicativeDensity(
        lambda p: Fraction(1) if p == 2 else (Fraction(2) if p % 4 == 1 else Fraction(0)),
        "w(2) = 1, w(p) = 2 for p = 1 mod 4, else 0",
    )
    return KindShape(label, {"x": x}, float(x), x * x + 1, 0,
                     omega, PrimeSet("two_or_one_mod_four"), members)


def _liouville(x: int, target: int) -> KindShape:
    """n <= x with lambda(n) = target.

    The members come from the tables' Liouville table and #A_d from their
    summatory L: the n = d m <= x with lambda(n) = target are the m <= t =
    x // d with lambda(m) = s, s = target (-1)^nu(d), and there are
    (t + s L(t)) / 2 of them.
    """
    kind, sign = ("liouville_plus", "+") if target == -1 else ("liouville_minus", "-")
    x = integer(x, f"{kind} parameter x", least=1)

    def members(tables: PrimeTables) -> np.ndarray:
        return np.nonzero(tables.liouville_table()[: x + 1] == target)[0].astype(np.int64)

    def count(tables: PrimeTables) -> Callable[[int, int], int]:
        L = tables.liouville_summatory()

        def count_d(d: int, nu: int) -> int:
            t = x // d
            return (t + (-target if nu % 2 else target) * int(L[t])) // 2

        return count_d

    return KindShape(f"liouville{sign} x={x}", {"x": x}, x / 2.0, x, x, _W_ONE, PrimeSet("all"),
                     members, count)


#: kind -> (its integer parameters, in order; its shape from them)
KINDS: dict[str, tuple[tuple[str, ...], Callable[..., KindShape]]] = {
    "interval": (("x", "y"), _interval),
    "arithmetic_progression": (("x", "k", "l"), _arithmetic_progression),
    "goldbach_product": (("two_N",), _goldbach_product),
    "shifted_prime": (("N",), _shifted_prime),
    "square_plus_one": (("x",), _square_plus_one),
    "liouville_plus": (("x",), lambda x: _liouville(x, -1)),
    "liouville_minus": (("x",), lambda x: _liouville(x, 1)),
}
ALL_KINDS = tuple(KINDS)


@dataclass
class SieveProblem:
    """One sifting problem (A, X, w, P), as make_problem builds it.

    Its value is its kind, parameters and tables; every other field follows
    from them.  ``members`` is stored only for the kinds counted by a member
    scan, and ``count`` gives #A_d from (d, nu(d)) for the others.
    """

    kind: str
    params: dict
    tables: PrimeTables
    label: str = field(compare=False)
    X: float = field(compare=False)
    omega: MultiplicativeDensity = field(compare=False)
    prime_set: PrimeSet = field(compare=False)
    members: np.ndarray | None = field(default=None, compare=False)
    n_bound: int = field(default=0, compare=False)
    count: Callable[[int, int], int] | None = field(default=None, repr=False, compare=False)
    #: sift_exact's counts, keyed by the number of sieve primes below z
    _sifted: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)


def kind_shape(kind: str, params: dict) -> KindShape:
    """A kind's label, X, largest member and table need, from its parameters alone.

    Raises:
        InputError: unknown kind, a missing parameter, a parameter that is not
            an int or an integral float, or parameters outside the kind's domain.
        CapacityError: a parameter past the range of a float, or a modulus past int64.
    """
    if kind not in KINDS:
        raise InputError(f"unknown problem kind {kind!r}")
    names, shape = KINDS[kind]
    missing = [name for name in names if params.get(name) is None]
    if missing:
        raise InputError(f"{kind} needs parameter {', '.join(missing)}")
    return shape(*(params[name] for name in names))


def make_problem(kind: str, params: dict, tables: PrimeTables) -> SieveProblem:
    """Build one of the supported sieve problems.

    Raises:
        InputError: as kind_shape.
        CapacityError: the kind's construction reads past the supplied tables,
            or it would store more than MAX_SCAN_MEMBERS members.
    """
    shape = kind_shape(kind, params)
    tables.reach(shape.need, f"{shape.label} (table need {shape.need})")
    scan = shape.count is None
    return SieveProblem(
        kind=kind, params=shape.params, tables=tables, label=shape.label, X=shape.X,
        omega=shape.omega, prime_set=shape.prime_set, n_bound=shape.n_bound,
        members=shape.members(tables) if scan else None,
        count=None if scan else shape.count(tables),
    )


def _check_scan_size(label: str, size: int) -> None:
    if size > MAX_SCAN_MEMBERS:
        raise CapacityError(f"{label} has {size} members; exact scans stop at {MAX_SCAN_MEMBERS}")


def members_array(p: SieveProblem) -> np.ndarray:
    """The members of A as an int64 array (stored for the member-scan kinds,
    generated on the fly for the others).

    Raises:
        CapacityError: more than MAX_SCAN_MEMBERS members to generate.
    """
    return kind_shape(p.kind, p.params).members(p.tables) if p.members is None else p.members


def count_Ad(p: SieveProblem, d: int) -> int:
    """Exact number of members of A divisible by d (d squarefree, d >= 1)."""
    fac = squarefree_primes(d, p.tables)
    if d > p.n_bound:  # every member is positive and at most n_bound
        return 0
    if p.count is None:
        return int(np.count_nonzero(p.members % d == 0))
    return p.count(d, len(fac))


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


def whole_densities(omega: MultiplicativeDensity, primes: Sequence[int]) -> dict:
    """w(q) for each prime, as an int where it is whole: as exact as a
    Fraction, and cheaper to multiply down a divisor walk."""
    out = {}
    for q in primes:
        w = omega.at_prime(int(q))
        out[int(q)] = w.numerator if w.denominator == 1 else w
    return out


def divisor_walk(
    p: SieveProblem | None,
    primes: Sequence[int],
    admit: Callable[[int, int, int], bool],
    factors: dict | None = None,
    prune_empty: bool = False,
    max_nodes: int | None = None,
) -> Iterator[tuple[int, int, object, int | None, int]]:
    """Depth-first walk of the squarefree d built from ``primes``, in their order.

    ``primes`` is strictly ascending or strictly descending, and the walk
    reads the direction from it.  A node d extends to d q for each later
    prime q that ``admit(d, nu(d), q)`` accepts, and yields (d, nu(d), v(d),
    #A_d, i), carried down one step per node: v(d) = v(d / q) factors[q]
    (default factors w(q), so v(d) = w(d)), #A_d is the kind's formula
    or, for the member-scan kinds, the count of the parent's surviving
    members that q divides, and the later primes d may take are primes[i:].
    With p = None the walk needs ``factors`` and yields None for #A_d;
    prune_empty skips the subtree below a node with #A_d = 0.

    ``admit`` must be downward-closed in q: once it refuses q it refuses
    every larger q.  The walk scans a node's candidates smallest first and
    stops at the first refusal.

    Raises:
        CapacityError: more than max_nodes nodes (MAX_CHAIN_NODES, read
            when the walk starts, unless the caller names its own cap).
    """
    if max_nodes is None:
        max_nodes = MAX_CHAIN_NODES
    primes = [int(q) for q in primes]
    if factors is None:
        factors = whole_densities(p.omega, primes)
    scan = p is not None and p.count is None
    n, ascending = len(primes), len(primes) < 2 or primes[0] < primes[1]
    nodes = 0
    # (index of the next prime, d, nu(d), v(d), members divisible by d / q)
    stack: list = [(0, 1, 0, 1, p.members if scan else None)]
    while stack:
        i, d, nu, v, sub = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise CapacityError(f"divisor walk exceeds {max_nodes} nodes")
        if scan:
            if i and sub.size:  # i > 0: d = (d / q) q with q = primes[i - 1]
                sub = sub[sub % primes[i - 1] == 0]
            count = sub.size
        else:
            count = None if p is None else p.count(d, nu)
        yield d, nu, v, count, i
        if prune_empty and count == 0:
            continue
        for j in range(i, n) if ascending else range(n - 1, i - 1, -1):
            q = primes[j]
            if not admit(d, nu, q):
                break
            stack.append((j + 1, d * q, nu + 1, v * factors[q], sub))


def primes_below(z: float, prime_set: PrimeSet, tables: PrimeTables) -> np.ndarray:
    """Primes of the prime set below z (strict), ascending.

    Raises:
        InputError: z is not a finite number.
        CapacityError: the list reads the tables at z - 1, past their limit.
    """
    tables.reach(finite(z, "cut z") - 1, f"z={z}")
    return prime_set.select(tables.primes[tables.primes < z])


def sieve_primes(p: SieveProblem, z: float) -> np.ndarray:
    """Primes of the problem's prime set below z (strict), ascending."""
    return primes_below(z, p.prime_set, p.tables)


def sift_exact(p: SieveProblem, z: float) -> int:
    """Count members of A with no prime factor p < z from the prime set.

    This is the brute-force ground truth: every relevant prime below z is
    tested by divisibility against the members (the interval by striking
    its multiples from a mask).  The count is kept on the problem, keyed by
    the number of sieve primes below z, so a later call at any z with the
    same primes below it returns it without a second scan.

    Raises:
        InputError: z is not a finite number (a z <= 2 sifts nothing out).
        CapacityError: z beyond the tables, or more than MAX_SCAN_MEMBERS
            members to scan.
    """
    rp = sieve_primes(p, z)
    cut = rp.size
    if cut not in p._sifted:
        p._sifted[cut] = _count_survivors(p, rp)
    return p._sifted[cut]


def _count_survivors(p: SieveProblem, rp: np.ndarray) -> int:
    """The brute-force scan behind sift_exact, for the sieve primes rp."""
    if p.kind == "interval":
        x, y = p.params["x"], p.params["y"]
        _check_scan_size(p.label, y)
        keep = np.ones(y, dtype=bool)
        for q in rp:
            q = int(q)
            start = (-(x + 1)) % q
            keep[start::q] = False
        return int(np.count_nonzero(keep))
    return _survivors(members_array(p), rp).size


def sifted_members(p: SieveProblem, z: float) -> np.ndarray:
    """The members surviving the cut at z, as values, in member order.

    Brute force: each prime below z, smallest first, is tested only against
    the members no smaller prime divides.
    """
    rp = sieve_primes(p, z)
    return _survivors(members_array(p), rp)


def _survivors(mem: np.ndarray, rp: np.ndarray) -> np.ndarray:
    """The members of mem no prime of rp divides, as a new array."""
    for q in rp:
        mem = mem[mem % int(q) != 0]
    return mem if rp.size else mem.copy()
