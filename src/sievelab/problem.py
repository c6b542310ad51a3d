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
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .arith import PrimeTables, li_eval, squarefree_primes
from .errors import CapacityError, DensityRangeError, InputError, finite, integer

#: exact scans refuse problems with more members than this (a 100 MB interval mask)
MAX_SCAN_MEMBERS = 100_000_000

#: a divisor walk refuses to visit more nodes than this unless its caller names a cap
MAX_CHAIN_NODES = 2_000_000

#: int64's largest value: members, divisors and counts stay at or below it
INT64_MAX = int(np.iinfo(np.int64).max)
_SQRT_INT64 = math.isqrt(INT64_MAX)
_CBRT_INT64 = 2_097_151  # the largest q with q^3 <= INT64_MAX


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
    """A divisor's exact count against its expected share (or columns of them)."""

    d: int | np.ndarray
    count: int | np.ndarray
    main: float | np.ndarray
    r: float | np.ndarray


@dataclass(frozen=True)
class KindShape:
    """What a problem kind states from its parameters alone, before any table is built.

    ``need`` is the table limit the kind's own construction reads (0 when it
    reads none).  ``members`` builds the members from the tables.  ``count``,
    for the kinds with a closed formula for #A_d, binds that formula to the
    tables, giving #A_d from int64 arrays of d and nu(d), a whole walk level at
    once; it is None for the kinds counted by a scan of their stored members.
    """

    label: str
    params: dict
    X: float
    n_bound: int  # the largest member
    need: int
    omega: MultiplicativeDensity
    prime_set: PrimeSet
    members: Callable[[PrimeTables], np.ndarray]
    count: Callable[[PrimeTables], Callable[[np.ndarray, np.ndarray], np.ndarray]] | None = None


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

    def count(d: np.ndarray, nu: np.ndarray) -> np.ndarray:
        # n = d m <= x with n = l mod k: m <= x // d with m = t mod k, t = l / d mod k in [1, k]
        inv, unit = _inverse_mod(d, k)
        t = (inv * l % k).astype(np.int64)
        t[t == 0] = k
        m = x // d
        return np.where(unit & (t <= m), (m - t) // k + 1, 0)

    omega = MultiplicativeDensity(
        lambda p: Fraction(0) if k % p == 0 else Fraction(1), f"w(p) = 1 off p | {k}"
    )
    return KindShape(label, {"x": x, "k": k, "l": l}, x / k, x, 0, omega, PrimeSet("coprime", k),
                     members, lambda tables: count)


def _inverse_mod(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(a^-1 mod k where gcd(a, k) = 1, that gcd == 1) for an int64 array a.

    The extended Euclid steps run on the whole array at once; past
    sqrt(int64) they run on exact ints, since l a^-1 is formed next.
    """
    wide = k > _SQRT_INT64
    a = a.astype(object) if wide else np.asarray(a, dtype=np.int64)
    r0, r1 = np.full_like(a, k), a % k
    s0, s1 = np.zeros_like(a), np.ones_like(a)
    while (going := r1 != 0).any():
        q = np.where(going, r0 // np.where(going, r1, 1), 0)
        r0, r1 = np.where(going, r1, r0), np.where(going, r0 - q * r1, r1)
        s0, s1 = np.where(going, s1, s0), np.where(going, s0 - q * s1, s1)
    return s0 % k, r0 == 1


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

    def count(tables: PrimeTables) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        L = tables.liouville_summatory()

        def count_d(d: np.ndarray, nu: np.ndarray) -> np.ndarray:
            t = x // d
            return (t + target * (1 - 2 * (nu % 2)) * L[t].astype(np.int64)) // 2

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
    count: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    #: sift_exact's counts, keyed by the number of sieve primes below z
    _sifted: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)


def kind_shape(kind: str, params: dict) -> KindShape:
    """A kind's label, X, largest member and table need, from its parameters alone.

    Raises:
        InputError: unknown kind, a missing parameter, a parameter that is not
            an int or an integral float, or parameters outside the kind's domain.
        CapacityError: a parameter past the range of a float, or a modulus or
            a member past int64.
    """
    if kind not in KINDS:
        raise InputError(f"unknown problem kind {kind!r}")
    names, shape = KINDS[kind]
    missing = [name for name in names if params.get(name) is None]
    if missing:
        raise InputError(f"{kind} needs parameter {', '.join(missing)}")
    out = shape(*(params[name] for name in names))
    if out.n_bound > INT64_MAX:  # members, walked divisors and counts are int64
        raise CapacityError(f"{out.label} has members up to {out.n_bound:.6g}, past int64")
    return out


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
    return int(p.count(np.array([d], dtype=np.int64), np.array([len(fac)], dtype=np.int8))[0])


def remainder(p: SieveProblem, d, count=None, w=None) -> RemainderRecord:
    """Exact count of A_d against its expected share X w(d)/d.

    A divisor walk passes its columns of d, #A_d and w(d), and gets columns
    back; a scalar d has both rebuilt from d when they are not given.  Each
    main term is X w(d) / d with w(d) rounded once from its exact value.
    """
    if isinstance(d, np.ndarray):
        main = float(p.X) * np.asarray(w, dtype=np.float64) / d
        return RemainderRecord(d=d, count=count, main=main, r=count - main)
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


class Admit(NamedTuple):
    """A walk's admission rule: node d takes the later primes q with q**power <= bound // d.

    ``Admit(n)`` is d q <= n; ``below(y)`` is d q < y.

    The rule is tested at the nodes whose nu(d) has the parity ``parity``
    (at every node when it is None); a node of the other parity takes every
    later prime.  ``power`` is 1 or 3 and ``bound`` an int >= 0, so the
    primes a node takes are one run of the walk's prime list.
    """

    bound: int
    power: int = 1
    parity: int | None = None


def below(y: float) -> Admit:
    """d q < y, as the integer rule d q <= ceil(y) - 1."""
    return Admit(max(math.ceil(y) - 1, 0))


class Walk(NamedTuple):
    """Every node of a divisor walk, one column each, level by level.

    d (int64), nu(d) (int8), the carried product v(d) (int64 where every
    factor is an int no larger than its prime, float64 where every factor is
    a float, else exact objects), #A_d (int64; None for a walk without a
    problem) and the index i (int32) from which the later primes d may take
    start.
    """

    d: np.ndarray
    nu: np.ndarray
    v: np.ndarray
    count: np.ndarray | None
    i: np.ndarray


def divisor_walk(
    p: SieveProblem | None,
    primes: Sequence[int],
    admit: Admit,
    factors: dict | None = None,
    prune_empty: bool = False,
    max_nodes: int | None = None,
) -> Walk:
    """The squarefree d built from ``primes``, in their order, as columns.

    ``primes`` is strictly ascending or strictly descending (a rule with a
    parity walks them descending).  A node d extends to d q for each later
    prime q that ``admit`` takes; the level of nodes with nu(d) = k is built
    from the level before in one step.  v(d) = v(d / q) factors[q] (default
    factors w(q), so v(d) = w(d)); #A_d is the kind's formula or, for the
    member-scan kinds, the count of the parent's members that q divides.
    With p = None the walk needs ``factors``; prune_empty gives a node with
    #A_d = 0 no children.

    Raises:
        CapacityError: more than max_nodes nodes (MAX_CHAIN_NODES, read when
            the walk starts, unless the caller names its own cap), refused
            before the level that passes it is built; or a walk whose largest
            divisor (the smaller of its bound and the product of its primes)
            could pass int64, refused before it starts.
    """
    if max_nodes is None:
        max_nodes = MAX_CHAIN_NODES
    primes = np.asarray(primes, dtype=np.int64)
    n = primes.size
    if factors is None:
        factors = whole_densities(p.omega, primes.tolist())
    f = _factor_column(factors, primes.tolist())
    scan = p is not None and p.count is None
    d = np.ones(1, dtype=np.int64)
    nu = np.zeros(1, dtype=np.int8)
    idx = np.zeros(1, dtype=np.int32)
    v = np.ones(1, dtype=f.dtype)
    count = None if p is None else (
        np.array([p.members.size]) if scan else np.asarray(p.count(d, nu), dtype=np.int64)
    )
    levels = [[d, nu, v, count, idx]]
    if n:
        ascending = n < 2 or primes[0] < primes[1]
        rising = primes if ascending else primes[::-1]
        bound, keys = _integer_rule(admit, rising, ascending)
        subs = [p.members] if scan else None

        def runs(k, d, idx):  # (start, length) of the walk primes each node of level k takes
            if admit.parity is not None and k % 2 != admit.parity:
                return idx, n - idx
            taken = _taken(d, bound, keys, rising)
            lo = idx if ascending else np.maximum(idx, n - taken)
            return lo, np.maximum((taken if ascending else n) - lo, 0)

        lo, size = runs(0, d, idx)
        nodes = 1
        for k in range(1, n + 1):
            if prune_empty:
                size[count == 0] = 0
            total = int(size.sum())
            if not total:
                break
            nodes += total
            if nodes > max_nodes:
                raise CapacityError(f"divisor walk exceeds {max_nodes} nodes")
            parent = np.repeat(np.arange(size.size), size)
            j = np.arange(total) + np.repeat(lo - np.cumsum(size) + size, size)
            q = primes[j]
            d = d[parent] * q
            nu = np.full(total, k, dtype=np.int8)
            v = v[parent] * f[j]
            idx = (j + 1).astype(np.int32)
            lo, size = runs(k, d, idx)
            if scan:  # members are kept only for the nodes that have children
                count, subs = _scan_counts(subs, parent, q, size > 0)
            elif p is not None:
                count = np.asarray(p.count(d, nu), dtype=np.int64)
            levels.append([d, nu, v, count, idx])
    if len(levels) == 1:
        return Walk(*levels[0])
    cols = []
    for c in range(5):  # one column at a time, its level pieces freed as it is joined
        pieces = [level[c] for level in levels]
        for level in levels:
            level[c] = None
        cols.append(None if pieces[0] is None else np.concatenate(pieces))
    return Walk(*cols)


def fsum_columns(cols: Iterable[np.ndarray]) -> float:
    """math.fsum over the entries of float arrays, each read a chunk at a time."""
    step = 1 << 16
    return math.fsum(chain.from_iterable(
        c[k:k + step].tolist() for c in cols for k in range(0, c.size, step)
    ))


def _factor_column(factors: dict, primes: list[int]) -> np.ndarray:
    """factors[q] for each walk prime: int64 when each is an int of size at most
    q (so every product stays at most d), float64 when each is a float, else
    exact objects."""
    vals = [factors[q] for q in primes]
    if all(type(x) is int and abs(x) <= q for x, q in zip(vals, primes)):
        return np.array(vals, dtype=np.int64)
    if all(type(x) is float for x in vals):
        return np.array(vals, dtype=np.float64)
    out = np.empty(len(vals), dtype=object)
    out[:] = vals
    return out


def _integer_rule(admit: Admit, rising: np.ndarray, ascending: bool) -> tuple[int, np.ndarray]:
    """(bound, keys): a node d takes the walk primes whose key (the prime, or
    its cube) is at most bound // d, at the levels the rule tests.

    Raises:
        InputError: a rule with a parity over ascending primes.
        CapacityError: the walk's largest divisor could pass int64.
    """
    # the product of the primes, or of 16 of them: any 16 primes multiply past int64
    top = math.prod(rising[:16].tolist())
    if admit.power == 1:
        bound, keys = min(admit.bound, top), rising  # every d q divides the product
    else:
        if admit.parity is not None and not ascending:
            # largest prime first, a node is below its bound or is one prime
            top = min(top, max(admit.bound, int(rising[-1])))
        elif admit.parity is not None and rising.size > 1:
            raise InputError("a rule with a parity walks its primes largest first")
        bound, keys = admit.bound, np.full(rising.size, INT64_MAX)
        small = rising <= _CBRT_INT64  # a larger q has q^3 past every int64 bound
        keys[small] = rising[small] ** 3
        if bound == INT64_MAX:  # 2^63 - 1 has no cube factor, so no d q^3 equals it
            bound -= 1
    if min(bound, top) > INT64_MAX:
        raise CapacityError(f"divisor walk to {min(bound, top):.3g} passes int64")
    return bound, keys


def _taken(d: np.ndarray, bound: int, keys: np.ndarray, rising: np.ndarray) -> np.ndarray:
    """How many walk primes (keys: the primes, or their cubes, ascending) each node takes."""
    if bound <= INT64_MAX:
        return np.searchsorted(keys, bound // d, side="right")
    # a chain level past int64: exact per node, each cube root capped at the largest prime
    top = int(rising[-1])
    return np.searchsorted(rising, [_icbrt_int(bound // x, top) for x in d.tolist()], "right")


def _icbrt_int(b: int, cap: int) -> int:
    """min(floor(b^(1/3)), cap) for ints b, cap >= 0."""
    if b >= cap**3:
        return cap
    r = int(round(b ** (1 / 3)))  # b < cap^3 is small enough for a float estimate
    while r**3 > b:
        r -= 1
    while (r + 1) ** 3 <= b:
        r += 1
    return r


def _scan_counts(subs: list, parent: np.ndarray, q: np.ndarray, keep: np.ndarray):
    """#A_d for a member-scan level, from each parent's members, and the members
    of the nodes marked in ``keep`` (None for the others)."""
    counts = np.empty(parent.size, dtype=np.int64)
    out: list = [None] * parent.size
    for k, (a, b, grow) in enumerate(zip(parent.tolist(), q.tolist(), keep.tolist())):
        sub = subs[a]
        if sub.size:
            hit = sub % b == 0
            if grow:
                sub = sub[hit]
            else:
                counts[k] = np.count_nonzero(hit)
                continue
        counts[k] = sub.size
        out[k] = sub
    return counts, out


def primes_below(z: float, prime_set: PrimeSet, tables: PrimeTables) -> np.ndarray:
    """Primes of the prime set below z (strict), ascending.

    Raises:
        InputError: z is not a finite number.
        CapacityError: the list reads the tables at z - 1, past their limit.
    """
    tables.reach(finite(z, "cut z") - 1, f"z={z}")
    # p < z is p <= ceil(z) - 1; an int key spares casting the primes to float
    below_z = np.searchsorted(tables.primes, math.ceil(z) - 1, side="right")
    return prime_set.select(tables.primes[:below_z])


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
