"""Sifted-sequence definitions: members, densities, exact counts.

A sieve problem packages a finite integer sequence A, a scale X, a
multiplicative local density w with w(p)/p approximating the proportion of A
divisible by p, and the set of primes the sieve is allowed to use; the prime
set is exactly the primes with w(p) > 0.  Each kind's record in KINDS states
everything the kind decides: its sizes, its table need, its members, and how
#A_d is counted.  A problem's value is its kind, parameters and tables.  The
exact counts here (divisor_walk's #A_d column, sift_exact) are the ground
truth every bound module is checked against.

Every kind's members sit at the indices of a range [lo, hi], one member
a_i per index i (a start mask drops the indices that hold none), and a prime
q divides a_i exactly when i lies in one of rho(q) root classes mod q (as in
Halberstam-Richert, Sieve Methods, ch. 1-2).  So the sift strikes those
classes from a boolean mask over the range, one slice per class, and a
problem keeps each exact sifted count it has computed, keyed by its
sieve-prime cut (how many sieve primes lie below z), so bounds that share a
cut share one sift.  For squarefree d the indices with d | a_i are the
rho(d) classes mod d the Chinese remainder theorem builds from the roots of
d's primes; the kinds marked C below count #A_d over those classes, by a
floor formula over [lo, hi] or, for shifted_prime, on its prime mask.

Supported kinds (#A_d by formula F or CRT classes C):

=====================  ===  ===============================================
interval               F    {x+1, ..., x+y}, X = y, w = 1
arithmetic_progression F    {n <= x : n = l mod k}, X = x/k, w(p) = 1 for p not | k
goldbach_product       C    {n(2N-n) : 2 <= n <= 2N-2}, X = 2N,
                            w(p) = 1 if p | 2N else 2
shifted_prime          C    {N-p : p prime, 3 <= p <= N-3, p not | N}, X = Li(N),
                            w(p) = p/(p-1) for p not | N
square_plus_one        C    {n^2+1 : n <= x}, X = x, w(2) = 1,
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

from ._kinds import ALL_KINDS, KIND_PARAMS
from .arith import PrimeTables, li_eval
from .errors import DensityRangeError, InputError, finite, integer, within

#: exact scans (the sift, the member arrays) refuse an index range of more
#: entries than this, before its 100 MB strike mask is allocated
MAX_SCAN_MEMBERS = 100_000_000

#: a divisor walk refuses to visit more nodes than this unless its caller names a cap
MAX_CHAIN_NODES = 2_000_000

#: a divisor walk refuses to lift more CRT classes than this at one level,
#: before it gathers them (the level then peaks near 200 MB)
MAX_WALK_CLASSES = 4_000_000

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


@dataclass(frozen=True)
class PrimeSet:
    """Set of primes available to the sieve.

    kind "all" is every prime; "coprime" keeps primes not dividing m;
    "two_or_one_mod_four" keeps 2 and the primes = 1 mod 4.
    """

    kind: str = "all"
    m: int = 1

    def __post_init__(self):
        m = integer(self.m, "prime set modulus m", least=1)  # select reduces it in int64
        object.__setattr__(self, "m", within(m, INT64_MAX, "prime set modulus m (int64)"))

    def select(self, primes: np.ndarray) -> np.ndarray:
        if self.kind == "all":
            return primes
        if self.kind == "coprime":
            return primes[self.m % primes != 0]
        if self.kind == "two_or_one_mod_four":
            return primes[(primes == 2) | (primes % 4 == 1)]
        raise InputError(f"unknown prime set kind {self.kind!r}")


class RemainderRecord(NamedTuple):
    """Columns of divisors' exact counts against their expected shares."""

    d: np.ndarray
    count: np.ndarray
    main: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class KindShape:
    """What a problem kind states from its parameters alone, before any table is built.

    ``need`` is the table limit the kind's own construction reads (0 when it
    reads none).  The members sit at the indices lo..hi: ``value`` gives the
    member at each index of an int64 array, and ``start`` (None when every
    index holds one) the mask of the indices that do, from the tables.  A
    prime q divides the member at i exactly when i lies in one of the
    classes ``roots(q)`` mod q.  ``count``, for the kinds with a closed
    formula for #A_d, binds that formula to the tables, giving #A_d from
    int64 arrays of d and nu(d), a whole walk level at once.  Without it,
    #A_d counts the CRT classes of d over the range, or, for a kind with a
    start mask (shifted_prime), on that mask.
    """

    label: str
    params: dict
    X: float
    n_bound: int  # the largest member
    need: int
    omega: MultiplicativeDensity
    prime_set: PrimeSet
    lo: int
    hi: int
    value: Callable[[np.ndarray], np.ndarray]
    roots: Callable[[int], tuple[int, ...]]
    start: Callable[[PrimeTables], np.ndarray] | None = None
    count: Callable[[PrimeTables], Callable[[np.ndarray, np.ndarray], np.ndarray]] | None = None


_W_ONE = MultiplicativeDensity(lambda p: Fraction(1), "w = 1")


def _interval(x: int, y: int) -> KindShape:
    x = integer(x, "interval parameter x", least=0)
    y = integer(y, "interval parameter y", least=1)
    return KindShape(f"interval[{x + 1}..{x + y}]", {"x": x, "y": y}, float(y), x + y, 0, _W_ONE,
                     PrimeSet("all"), x + 1, x + y, lambda n: n, lambda q: (0,),
                     count=lambda tables: lambda d, nu: (x + y) // d - x // d)


def _arithmetic_progression(x: int, k: int, l: int) -> KindShape:
    x = integer(x, "arithmetic_progression parameter x", least=1)
    k = integer(k, "arithmetic_progression parameter k", least=1)
    l = integer(l, "arithmetic_progression parameter l")
    if math.gcd(l, k) != 1:
        raise InputError(f"residue {l} not coprime to modulus {k}")
    l %= k
    first = l if l >= 1 else k  # the members are first + k j for j = 0, 1, ...

    def roots(q: int) -> tuple[int, ...]:  # q | first + k j exactly when j = -first / k mod q
        return () if k % q == 0 else (-first * pow(k, -1, q) % q,)

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
    return KindShape(f"progression x={x} k={k} l={l}", {"x": x, "k": k, "l": l}, x / k, x, 0,
                     omega, PrimeSet("coprime", k), 0, (x - first) // k,
                     lambda j: first + k * j, roots, count=lambda tables: count)


def _inverse_mod(a: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """(a^-1 mod k where gcd(a, k) = 1, that gcd == 1), elementwise, for an
    int64 array a and a modulus k: an int, or an int64 array of a's shape.

    The extended Euclid steps run on the whole array at once; past
    sqrt(int64) they run on exact ints, since l a^-1 is formed next.  An
    array of moduli holds walk primes, below the tables' limit.
    """
    wide = isinstance(k, int) and k > _SQRT_INT64
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
    omega = MultiplicativeDensity(
        lambda p: Fraction(1) if two_n % p == 0 else Fraction(2),
        f"w(p) = 1 if p | {two_n} else 2",
    )
    return KindShape(f"goldbach 2N={two_n}", {"two_N": two_n}, float(two_n), two_n**2 // 4, 0,
                     omega, PrimeSet("all"), 2, two_n - 2, lambda n: n * (two_n - n),
                     lambda q: (0,) if two_n % q == 0 else (0, two_n % q))


def _shifted_prime(n_par: int) -> KindShape:
    """N - p, indexed by p: q divides N - p exactly when p = N mod q."""
    n_par = integer(n_par, "shifted_prime parameter N", least=8)
    if n_par % 2:
        raise InputError(f"shifted_prime needs an even N, got {n_par}")

    def start(tables: PrimeTables) -> np.ndarray:  # the primes 3 <= p <= N - 3 not dividing N
        ps = tables.primes
        ps = ps[np.searchsorted(ps, 3):np.searchsorted(ps, n_par - 3, side="right")]
        keep = np.zeros(n_par - 5, dtype=bool)
        keep[ps[n_par % ps != 0] - 3] = True
        return keep

    omega = MultiplicativeDensity(
        lambda p: Fraction(0) if n_par % p == 0 else Fraction(p, p - 1),
        f"w(p) = p/(p-1) off p | {n_par}",
    )
    return KindShape(f"shifted N={n_par}", {"N": n_par}, li_eval(n_par), n_par - 3, n_par,
                     omega, PrimeSet("coprime", n_par), 3, n_par - 3, lambda p: n_par - p,
                     lambda q: (n_par % q,), start)


def _sqrt_minus_one(q: int) -> int:
    """The r < q with r^2 = -1 mod q, for a prime q = 1 mod 4: a^((q-1)/4)
    for the least quadratic non-residue a, since a^((q-1)/2) = -1."""
    a = 2
    while pow(a, (q - 1) // 2, q) != q - 1:
        a += 1
    return pow(a, (q - 1) // 4, q)


def _square_plus_one(x: int) -> KindShape:
    x = integer(x, "square_plus_one parameter x", least=1)

    def roots(q: int) -> tuple[int, ...]:  # q | n^2 + 1: n odd for q = 2, n = +-sqrt(-1) mod q
        if q == 2 or q % 4 == 3:
            return (1,) if q == 2 else ()
        r = _sqrt_minus_one(q)
        return (r, q - r)

    omega = MultiplicativeDensity(
        lambda p: Fraction(1) if p == 2 else (Fraction(2) if p % 4 == 1 else Fraction(0)),
        "w(2) = 1, w(p) = 2 for p = 1 mod 4, else 0",
    )
    return KindShape(f"square_plus_one x={x}", {"x": x}, float(x), x * x + 1, 0,
                     omega, PrimeSet("two_or_one_mod_four"), 1, x, lambda n: n * n + 1, roots)


def _liouville(x: int, target: int) -> KindShape:
    """n <= x with lambda(n) = target.

    The members come from the tables' Liouville table and #A_d from their
    summatory L: the n = d m <= x with lambda(n) = target are the m <= t =
    x // d with lambda(m) = s, s = target (-1)^nu(d), and there are
    (t + s L(t)) / 2 of them.
    """
    kind, sign = ("liouville_plus", "+") if target == -1 else ("liouville_minus", "-")
    x = integer(x, f"{kind} parameter x", least=1)

    def start(tables: PrimeTables) -> np.ndarray:
        return tables.liouville_table()[1 : x + 1] == target

    def count(tables: PrimeTables) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        L = tables.liouville_summatory()

        def count_d(d: np.ndarray, nu: np.ndarray) -> np.ndarray:
            t = x // d
            return (t + target * (1 - 2 * (nu % 2)) * L[t].astype(np.int64)) // 2

        return count_d

    return KindShape(f"liouville{sign} x={x}", {"x": x}, x / 2.0, x, x, _W_ONE, PrimeSet("all"),
                     1, x, lambda n: n, lambda q: (0,), start, count)


_SHAPES: dict[str, Callable[..., KindShape]] = {
    "interval": _interval,
    "arithmetic_progression": _arithmetic_progression,
    "goldbach_product": _goldbach_product,
    "shifted_prime": _shifted_prime,
    "square_plus_one": _square_plus_one,
    "liouville_plus": lambda x: _liouville(x, -1),
    "liouville_minus": lambda x: _liouville(x, 1),
}
#: kind -> (its integer parameters, in order; its shape from them)
KINDS = {kind: (KIND_PARAMS[kind], _SHAPES[kind]) for kind in ALL_KINDS}


@dataclass
class SieveProblem:
    """One sifting problem (A, X, w, P), as make_problem builds it.

    Its value is its kind, parameters and tables; every other field follows
    from them.  ``count`` gives #A_d from (d, nu(d)) for the formula kinds;
    ``mask`` is the start mask of a kind that has one (shifted_prime: p is a
    prime not dividing N; the Liouville kinds: lambda(n) = target), built
    once here: every sift strikes a copy of it, and shifted_prime's #A_d
    counts classes on it; ``shape`` is the kind's shape.
    """

    kind: str
    params: dict
    tables: PrimeTables
    label: str = field(compare=False)
    X: float = field(compare=False)
    omega: MultiplicativeDensity = field(compare=False)
    prime_set: PrimeSet = field(compare=False)
    mask: np.ndarray | None = field(default=None, repr=False, compare=False)
    n_bound: int = field(default=0, compare=False)
    count: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    shape: KindShape | None = field(default=None, repr=False, compare=False)
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
    # members, walked divisors and counts are int64
    within(out.n_bound, INT64_MAX, f"{out.label} largest member (int64)")
    return out


def make_problem(kind: str, params: dict, tables: PrimeTables) -> SieveProblem:
    """Build one of the supported sieve problems.

    Raises:
        InputError: as kind_shape.
        CapacityError: the kind's construction reads past the supplied tables,
            or the mask it stores spans more than MAX_SCAN_MEMBERS indices.
    """
    shape = kind_shape(kind, params)
    tables.reach(shape.need, f"{shape.label} (table need {shape.need})")
    p = SieveProblem(
        kind=kind, params=shape.params, tables=tables, label=shape.label, X=shape.X,
        omega=shape.omega, prime_set=shape.prime_set, n_bound=shape.n_bound,
        count=None if shape.count is None else shape.count(tables), shape=shape,
    )
    if shape.start is not None:
        _scan_size(p)
        p.mask = shape.start(tables)
    return p


@dataclass
class SieveReport:
    """Common envelope for one sieve bound against the exact count."""

    problem: str
    X: float
    z: float | None = None
    y: float | None = None
    s: float | None = None
    main_term: float = 0.0
    remainder_bound: float = 0.0
    upper_bound: float | None = None
    lower_bound: float | None = None
    exact_count: int | None = None
    ratio: float | None = None
    notes: str = ""


def one_sided_report(
    p: SieveProblem, y: float, z: float, sign: int, main: float, rem: float,
    exact: int | None, notes: str,
) -> SieveReport:
    """The report of one bound main + rem (sign +1, upper) or main - rem (sign -1).

    s = log y / log z for the level y > 1 and the cut z > 1 its caller checked;
    ratio = bound / exact for a positive exact count.
    """
    bound = main + rem if sign == 1 else main - rem
    return SieveReport(
        problem=p.label, X=float(p.X), z=float(z), y=float(y),
        s=math.log(y) / math.log(z),
        main_term=main, remainder_bound=rem,
        upper_bound=bound if sign == 1 else None,
        lower_bound=None if sign == 1 else bound,
        exact_count=exact, ratio=bound / exact if exact else None, notes=notes,
    )


def remainder(p: SieveProblem, d: np.ndarray, count: np.ndarray, w: np.ndarray) -> RemainderRecord:
    """Exact counts of A_d against their expected shares X w(d)/d, by column.

    A divisor walk passes its columns of d, #A_d and w(d) and gets columns
    back.  Each main term is X w(d) / d with w(d) rounded once from its
    exact value.
    """
    main = float(p.X) * np.asarray(w, dtype=np.float64) / d
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
    primes a node takes are one run of the walk's prime list.  A second rule,
    d q <= cap, holds at every node (the default cap, 2^63 - 1, admits every
    int64 product); a node takes the intersection of the two runs.
    """

    bound: int
    power: int = 1
    parity: int | None = None
    cap: int = INT64_MAX


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
    factors w(q), so v(d) = w(d)); #A_d is the kind's formula or the count
    over the CRT classes each node lifts from its parent's and q's roots
    (one class for shifted_prime, whose primes each have one root).
    With p = None the walk needs ``factors``; prune_empty gives a node with
    #A_d = 0 no children.

    Raises:
        CapacityError: more than max_nodes nodes (MAX_CHAIN_NODES, read when
            the walk starts, unless the caller names its own cap), refused
            before the level that passes it is built; a level that would lift
            more than MAX_WALK_CLASSES CRT classes, refused before they are
            gathered; or a walk whose largest divisor (the smaller of its
            bound and the product of its primes) could pass int64, refused
            before it starts.
    """
    if max_nodes is None:
        max_nodes = MAX_CHAIN_NODES
    primes = np.asarray(primes, dtype=np.int64)
    n = primes.size
    if factors is None:
        factors = whole_densities(p.omega, primes.tolist())
    f = _factor_column(factors, primes.tolist())
    crt = p is not None and p.count is None
    d = np.ones(1, dtype=np.int64)
    nu = np.zeros(1, dtype=np.int8)
    idx = np.zeros(1, dtype=np.int32)
    v = np.ones(1, dtype=f.dtype)
    if p is None:
        count = None
    elif crt:  # node a's classes are cls[seg[a]:seg[a + 1]]; d = 1 has the one class 0
        cls, seg = np.zeros(1, dtype=np.int64), np.array([0, 1])
        count = _class_counts(p.shape, p.mask, cls, d)
    else:
        count = np.asarray(p.count(d, nu), dtype=np.int64)
    levels = [[d, nu, v, count, idx]]
    if n:
        ascending = n < 2 or primes[0] < primes[1]
        rising = primes if ascending else primes[::-1]
        bound, keys = _integer_rule(admit, rising, ascending)
        if crt:
            roots = _root_table(p.shape, primes)

        def runs(k, d, idx):  # (start, length) of the walk primes each node of level k takes
            tested = admit.parity is None or k % 2 == admit.parity
            if not tested and admit.cap >= INT64_MAX:  # no rule at this level
                return idx, n - idx
            taken = _taken(d, bound, keys, rising) if tested else n
            if admit.cap < INT64_MAX:  # the two runs' intersection: the shorter prefix
                taken = np.minimum(taken, np.searchsorted(rising, admit.cap // d, side="right"))
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
            nodes = within(nodes + total, max_nodes, "divisor walk nodes")
            parent = np.repeat(np.arange(size.size), size)
            j = np.arange(total) + np.repeat(lo - np.cumsum(size) + size, size)
            q = primes[j]
            dp = d[parent]
            d = dp * q
            nu = np.full(total, k, dtype=np.int8)
            v = v[parent] * f[j]
            idx = (j + 1).astype(np.int32)
            lo, size = runs(k, d, idx)
            if crt:  # classes are kept only for the nodes that have children
                count, cls, seg = _crt_counts(p.shape, p.mask, cls, seg, parent, dp, q,
                                              roots[:, j], size > 0)
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
    # every d is at most max(cap, 1) <= cap + 1; the default cap, 2^63 - 1, bounds nothing
    within(min(bound, top, admit.cap + 1), INT64_MAX, "divisor walk's largest divisor (int64)")
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


def _root_table(shape: KindShape, primes: np.ndarray) -> np.ndarray:
    """shape.roots(q) for each prime, one column each, padded with -1."""
    rs = [shape.roots(q) for q in primes.tolist()]
    out = np.full((max([1, *map(len, rs)]), len(rs)), -1, dtype=np.int64)
    for j, r in enumerate(rs):
        out[: len(r), j] = r
    return out


def _crt_counts(shape: KindShape, mask, cls, seg, parent, dp, q, roots, keep):
    """#A_d for a level of CRT-counted nodes, and the classes of those marked in keep.

    ``cls[seg[a]:seg[a + 1]]`` are parent a's index classes mod its d that
    are at most hi (each lift of a larger class is larger still); ``dp`` and
    ``q`` are each child's parent d and prime, and ``roots`` their roots mod
    q, one row per root, -1 where q has fewer.  A class c mod d and a root r
    mod q lift to c + d ((r - c) d^-1 mod q), the class mod d q both give, and
    each class is counted over the range, or on ``mask`` where there is one.
    """
    m = seg[parent + 1] - seg[parent]  # classes per child
    within(int(m.sum()) * len(roots), MAX_WALK_CLASSES, "CRT classes one walk level lifts")
    child = np.repeat(np.arange(parent.size), m)
    c = cls[np.arange(child.size) + np.repeat(seg[parent] - np.cumsum(m) + m, m)]
    inv = _inverse_mod(dp % q, q)[0][child]  # one inverse per child, spread to its classes
    qc, dc = q[child], dp[child]
    # (r - c) mod q and d^-1 mod q are below q, so their product is below q^2,
    # inside int64 for q below the tables' limit (arith.MAX_TABLE_ENTRIES);
    # c + d t is below d q, a divisor of the walk
    lift = np.stack([c + dc * ((r[child] - c) % qc * inv % qc) for r in roots], axis=1)
    ok = (roots[:, child].T >= 0) & (lift <= shape.hi)
    owner = np.broadcast_to(child[:, None], lift.shape)[ok]
    lift = lift[ok]
    d = (dp * q)[owner]
    ends = np.searchsorted(owner, np.arange(parent.size + 1))
    total = np.concatenate(([0], np.cumsum(_class_counts(shape, mask, lift, d))))
    seg = np.concatenate(([0], np.cumsum(np.where(keep, np.diff(ends), 0))))
    return total[ends[1:]] - total[ends[:-1]], lift[keep[owner]], seg


def _class_counts(shape: KindShape, mask, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The members in each index class c mod d (int64 columns): the floor
    count over [lo, hi], or, on a start mask, one strided slice each."""
    if mask is None:
        return (shape.hi - c) // d - (shape.lo - 1 - c) // d
    return np.fromiter((np.count_nonzero(mask[(a - shape.lo) % b::b])
                        for a, b in zip(c.tolist(), d.tolist())), dtype=np.int64, count=c.size)


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

    This is the exact ground truth: every relevant prime below z strikes
    its root classes from a mask over the kind's index range.  The count is
    kept on the problem, keyed by the number of sieve primes below z, so a
    later call at any z with the same primes below it returns it without a
    second sift.

    Raises:
        InputError: z is not a finite number (a z <= 2 sifts nothing out).
        CapacityError: z beyond the tables, or an index range of more than
            MAX_SCAN_MEMBERS entries.
    """
    rp = sieve_primes(p, z)
    cut = rp.size
    if cut not in p._sifted:
        p._sifted[cut] = _count_survivors(p, rp)
    return p._sifted[cut]


def _count_survivors(p: SieveProblem, rp: np.ndarray) -> int:
    """The sift behind sift_exact, for the sieve primes rp."""
    return int(np.count_nonzero(_strike(p, rp)))


def sifted_members(p: SieveProblem, z: float) -> np.ndarray:
    """The members surviving the cut at z, as values, in member order
    (index order: shifted_prime's N - p descend)."""
    return _values(p, np.flatnonzero(_strike(p, sieve_primes(p, z))))


def _strike(p: SieveProblem, rp) -> np.ndarray:
    """A mask over the index range, True where a member lies that no prime
    of rp divides: each prime strikes its root classes, a slice each.

    Raises:
        CapacityError: more than MAX_SCAN_MEMBERS indices, refused before
            the mask is allocated.
    """
    s, size = p.shape, _scan_size(p)
    keep = np.ones(size, dtype=bool) if p.mask is None else p.mask.copy()
    for q in np.asarray(rp, dtype=np.int64).tolist():
        for r in s.roots(q):
            keep[(r - s.lo) % q::q] = False
    return keep


def _scan_size(p: SieveProblem) -> int:
    """The size of the index range an exact scan covers.

    Raises:
        CapacityError: more than MAX_SCAN_MEMBERS indices.
    """
    size = max(p.shape.hi - p.shape.lo + 1, 0)
    return within(size, MAX_SCAN_MEMBERS, f"{p.label} exact scan indices")


def _values(p: SieveProblem, i: np.ndarray) -> np.ndarray:
    """The members at the int64 offsets i into the index range (i is shifted in place)."""
    i += p.shape.lo  # in place: at the scan cap the index array is 800 MB
    return p.shape.value(i)
