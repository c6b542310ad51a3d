"""Prime tables and scalar arithmetic helpers used by every sieve module.

The central object is :class:`PrimeTables`: a smallest-prime-factor table up
to a fixed limit plus the sorted array of primes below it.  Everything that
needs factorizations, prime counts in progressions, or multiplicative
statistics (mu, nu, Omega, the +-1 complete-multiplicativity indicator, phi)
goes through one shared instance so the sieve work stays O(1) per query
after a single table build.  The tables own three shared facts besides:
whether a read at n fits them (``PrimeTables.reach``, the one place a
request is held against ``limit``), the Liouville summatory
L(n) = sum of lambda(m) over m <= n (``liouville_summatory``), which the
parity counts and both Liouville problem kinds read, and Li(p) at the
primes (``li_column``), built only as far as a scan has read.  Beside the
progression count ``pi_ap`` sits ``bv_scan``, the worst progression error
per modulus over every prime up to x.  It evaluates exactly only the runs
of jumps whose bound tops the errors already known, and its rows equal
those of a scan that evaluates every jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InputError, finite, integer, within

EULER_GAMMA = 0.5772156649015329

#: Hard ceiling on table size (entries).
MAX_TABLE_ENTRIES = 200_000_000

#: most intervals one integrate_adaptive call splits.  The most any caller
#: splits is 594 (li_eval at the table cap, 2e8; Li(1e12) splits 724); an
#: integrand that never settles is refused here after about 0.1 s
MAX_QUAD_INTERVALS = 100_000

#: entries per block of the prime scan and of the Omega fill
_CHUNK = 1 << 20


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
    _li: np.ndarray | None = field(default=None, repr=False, compare=False)

    def reach(self, n, what: str | None = None) -> None:
        """Check that a read at n fits the tables; ``what`` names the request.

        Raises:
            InputError: n is not a finite number.
            CapacityError: n > limit.
        """
        if finite(n, what or "a table read") > self.limit:
            raise CapacityError(f"{what or n} beyond table limit {self.limit}")

    def big_omega_table(self) -> np.ndarray:
        """int16 array with Omega(n) (prime factors with multiplicity).

        Omega(n) = Omega(n / spf(n)) + 1, and n / spf(n) <= n / 2, so the
        blocks [lo, min(2 lo, lo + chunk)) filled in ascending order read
        only entries already filled.
        """
        if self._big_omega is None:
            big, lo = np.zeros(self.limit + 1, dtype=np.int16), 2
            while lo <= self.limit:
                hi = min(2 * lo, lo + _CHUNK, self.limit + 1)
                cofactor = np.arange(lo, hi, dtype=np.int32)
                cofactor //= self.spf[lo:hi]
                np.add(big[cofactor], 1, out=big[lo:hi])
                lo = hi
            self._big_omega = big
        return self._big_omega

    def liouville_table(self) -> np.ndarray:
        """int8 array with (-1)**Omega(n); entry 0 is unused and set to 0."""
        if self._liouville is None:
            liou = np.empty(self.limit + 1, dtype=np.int8)
            np.bitwise_and(self.big_omega_table(), 1, out=liou, casting="unsafe")
            liou *= -2
            liou += 1
            liou[0] = 0
            self._liouville = liou
        return self._liouville

    def liouville_summatory(self) -> np.ndarray:
        """int32 array with L(n) = sum of lambda(m) over 1 <= m <= n; L(0) = 0."""
        if self._liouville_sum is None:
            self._liouville_sum = np.cumsum(self.liouville_table(), dtype=np.int32)
        return self._liouville_sum

    def li_column(self, n: int) -> np.ndarray:
        """float64 Li(p) = integral from 2 to p of du / log u at the first n primes.

        Read-only; the column is built only as far as the largest n asked
        for, and grows by the steps between its last prime and the n-th.
        Each step is summed onto the column's end in order, so every prefix
        is bit-identical to one cumulative sum of the steps from p = 2.

        Raises:
            InputError: n is not an integer >= 0.
            CapacityError: n is past the number of primes in the tables.
        """
        n = within(integer(n, "prime count n", least=0), self.primes.size, "Li column primes")
        li = self._li if self._li is not None else np.zeros(1)  # Li(2) = 0
        if li.size < n:
            steps = _li_steps(self.primes[li.size - 1 : n])
            steps[0] += li[-1]
            grown = np.empty(n)
            grown[: li.size] = li
            np.cumsum(steps, out=grown[li.size :])
            grown.flags.writeable = False
            self._li = li = grown
        return li[:n]

    def mobius_table(self) -> np.ndarray:
        """int8 array with mu(n); entry 0 is unused and set to 0.

        mu(n) = lambda(n) on squarefree n and 0 elsewhere, so mu is lambda
        with the multiples of each p^2 (p <= sqrt(limit)) set to 0.
        """
        if self._mobius is None:
            mu = self.liouville_table().copy()
            for p in self.primes[self.primes <= math.isqrt(self.limit)].tolist():
                mu[p * p :: p * p] = 0
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
    within(limit + 1, MAX_TABLE_ENTRIES, "table entries")
    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)  # primality up to sqrt(limit)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    # spf(n) = n until a prime p <= sqrt(n) divides n; storing the largest
    # prime first leaves each composite's smallest prime as its last store
    spf = np.arange(limit + 1, dtype=np.int32)
    for p in np.flatnonzero(small)[::-1].tolist():
        spf[p * p :: p] = p
    found = []  # the primes: the n >= 2 with spf(n) = n, compared a chunk at a time
    for lo in range(2, limit + 1, _CHUNK):
        block = spf[lo : lo + _CHUNK]
        found.append(np.flatnonzero(block == np.arange(lo, lo + block.size, dtype=np.int32)) + lo)
    primes = np.concatenate(found)
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


def factor_columns(n: np.ndarray, tables: PrimeTables) -> list[tuple]:
    """factorize over a column of ints n >= 1, one round of primes at a time:
    round k gives (rows, q, e) for the entries with k or more distinct
    primes, their rows in n, their k-th smallest prime q and its exponent e.

    Raises:
        CapacityError: an entry beyond the tables, before any is factored.
    """
    if n.size:
        tables.reach(top := int(n.max()), f"member {top}")
    rounds, rows = [], np.flatnonzero(n > 1)
    m = n[rows].astype(np.int64)
    while rows.size:
        q = tables.spf[m].astype(np.int64)
        m //= q
        e = np.ones_like(q)
        while (more := m % q == 0).any():
            m[more] //= q[more]
            e += more
        rounds.append((rows, q, e))
        rows, m = rows[m > 1], m[m > 1]
    return rounds


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

    Whichever list is cheaper is read.  When the progression l mod k, from
    its least non-negative member up to x, has fewer than pi(x) / 3 entries,
    its entries n >= 2 are tested with one strided read of the spf table
    (spf[n] == n); otherwise the primes up to x are scanned for the class.
    A strided read costs up to about three scanned primes per entry (x = 1e6:
    2.7 ns against 0.8 ns at k = 17), so at pi(x) / 3 the two paths cost
    about the same.

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
    top, first = math.floor(x), l % k
    n_primes = int(np.searchsorted(tables.primes, top, side="right"))
    if 3 * ((top - first) // k + 1) < n_primes:  # no entries at all when first > top
        start = first if first > 1 else first + k * ((2 - first + k - 1) // k)  # skip 0 and 1
        stop, spf = max(top + 1, start), tables.spf
        return int(np.count_nonzero(spf[start:stop:k] == np.arange(start, stop, k, dtype=spf.dtype)))
    ps = tables.primes[:n_primes].astype(np.uint32)  # primes and k are within the tables, below 2^32
    return int(np.count_nonzero(ps - ps // k * k == first))  # // by a scalar is vectorised; % is not


#: most evaluations bv_scan takes on; one modulus costs pi(x) + _BV_SCAN_K_COST
BV_SCAN_MAX_WORK = 10**8
_BV_SCAN_K_COST = 2_000


@dataclass(frozen=True)
class BVScanResult:
    """Max progression errors per modulus and their running total."""

    x: int
    q_max: int
    rows: list[tuple[int, float]]
    total: float


def _li_steps(ps: np.ndarray) -> np.ndarray:
    """Li(b) - Li(a) for each pair of consecutive primes a < b of ps."""
    a = ps[:-1].astype(np.float64)
    b = ps[1:].astype(np.float64)
    h = (b - a) / 4.0
    # h/3 (1/log a + 4/log(a + h) + 2/log(a + 2h) + 4/log(a + 3h) + 1/log b),
    # each quotient formed in one buffer and added into seg in that order
    seg = np.log(a)
    np.divide(1.0, seg, out=seg)
    t = np.empty_like(seg)
    for k, c in ((1, 4.0), (2, 2.0), (3, 4.0)):
        np.multiply(k, h, out=t)
        t += a
        seg += np.divide(c, np.log(t, out=t), out=t)
    seg += np.divide(1.0, np.log(b, out=t), out=t)
    h /= 3.0
    seg *= h
    # fixed panels are not accurate enough while 1/log u is still curved
    for i in np.nonzero(a < 10_000.0)[0]:
        seg[i] = integrate_adaptive(
            lambda u: 1.0 / math.log(u), float(a[i]), float(b[i]), 1e-12
        )
    return seg


def _li_past(p, x: int) -> float:
    """Li(x) - Li(p) for the last prime p <= x."""
    return integrate_adaptive(lambda u: 1.0 / math.log(u), float(p), float(x), 1e-10)


def _ends(sizes, mean: float, phi: int) -> float:
    """The largest error of the coprime classes at y = x.

    A coprime class without primes counts 0, so its error is the mean itself.
    """
    ends = np.abs(sizes - mean)
    return float(np.max(ends, initial=mean if ends.size < phi else 0.0))


def _jump_errors(at: np.ndarray, j: np.ndarray) -> np.ndarray:
    """max(j - at, at - (j - 1)) per prime, in the buffer of j and one more.

    j is overwritten: callers pass a fresh array and keep no name for it.
    """
    up = j - at
    j -= 1
    return np.maximum(up, np.subtract(at, j, out=j), out=up)


def _runs(li, order, phi: int, starts, sizes, width: int) -> tuple:
    """Cut classes into runs of ``width`` jumps; per run its first position in
    order, the rank there and its last position, the larger jump error at its
    two ends, and a bound on every jump error between them.

    In a run of one class both the rank j and t = Li(p)/phi rise, and j rises
    by 1 a jump.  So by monotone rounding, fl((j_last - 1) - t_first) bounds
    fl(j - t) at every jump but the last, and fl(t_last - j_first) bounds
    fl(t - (j - 1)) at every jump but the first; both ends are exact.
    """
    count = -(-sizes // width)
    step = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    step *= width  # ranks before each run's first jump
    head = np.repeat(starts, count) + step
    tail = np.minimum(head + (width - 1), np.repeat(starts + sizes - 1, count))
    jh = step + 1.0
    jt = jh + (tail - head)
    th = li[order[head]] / phi
    tt = li[order[tail]] / phi
    bound = np.maximum((jt - 1) - th, tt - jh)
    ends = np.maximum(_jump_errors(th, jh.copy()), _jump_errors(tt, jt))
    return head, jh, tail, float(np.max(ends, initial=0.0)), bound


def _scan_runs(li, order, phi: int, runs: tuple, floor: float, width: int) -> float:
    """The largest jump error in the runs whose bound tops floor, else 0."""
    head, jh, tail, _, bound = runs
    pick = np.flatnonzero(bound > floor)
    if not pick.size:
        return 0.0
    offset = np.arange(width)
    pos = head[pick, None] + offset
    inside = pos <= tail[pick, None]
    j = (jh[pick, None] + offset)[inside]
    return float(np.max(_jump_errors(li[order[pos[inside]]] / phi, j)))


def _modulus_rows(ps32, li, li_x, k: int, phi: int, pair: bool) -> list[float]:
    """Row k of bv_scan, and row 2k after it if pair; no array outlives the call."""
    rem_type = np.uint8 if k <= 256 else np.uint16  # the cap admits < 2**16 moduli
    rem = (ps32 - ps32 // k * k).astype(rem_type)  # // by a scalar is vectorised; % is not
    # a stable sort of small ints is a radix sort: positions ascend per class
    order = np.argsort(rem, kind="stable")
    sorted_rem = rem[order]  # each residue up to the largest is searched: no step costs O(k)
    bounds = np.searchsorted(sorted_rem, np.arange(int(sorted_rem[-1]) + 1, dtype=rem_type))
    sizes = np.diff(bounds, append=rem.size)
    labels = np.flatnonzero(sizes)  # the classes that hold primes
    labels = labels[np.gcd(labels, k) == 1]
    starts, sizes = bounds[labels], sizes[labels]
    width = max(1, min(16, rem.size // (4 * phi)))  # a quarter of the mean class, at most 16
    mean = li_x / phi
    if not pair:
        runs = _runs(li, order, phi, starts, sizes, width)
        floor = max(_ends(sizes, mean, phi), runs[3])
        return [max(floor, _scan_runs(li, order, phi, runs, floor, width))]
    # the class of 2 mod k: with p = 2 for row k, without it for row 2k
    c = np.searchsorted(labels, 2 % k)
    rest = np.arange(labels.size) != c
    shared = _runs(li, order, phi, starts[rest], sizes[rest], width)
    floors, scans = [], []
    for lose in (0, 1):
        own = _runs(li, order, phi, starts[c : c + 1] + lose, sizes[c : c + 1] - lose, width)
        sizes[c] -= lose
        floors.append(max(_ends(sizes, mean, phi), shared[3], own[3]))
        scans.append(_scan_runs(li, order, phi, own, floors[-1], width))
    common = _scan_runs(li, order, phi, shared, min(floors), width)
    return [max(f, s, common) for f, s in zip(floors, scans)]


def bv_scan(x: int, q_max: int, tables: PrimeTables) -> BVScanResult:
    """Worst progression error per modulus k <= q_max, scanned exactly.

    For each k and each residue l coprime to k this takes the max over all
    prime jump points y <= x (both sides of each jump, and the endpoint) of
    |pi(y; k, l) - Li(y)/phi(k)|, then keeps the largest l.  k = 1 measures
    |pi(y) - Li(y)| itself.  Li(y)/phi(k) only grows between two jumps of a
    class, so only the jumps and y = x are candidates.  Li at the primes is
    read from the tables' column (``PrimeTables.li_column``).  Scans beyond
    BV_SCAN_MAX_WORK, or with q_max beyond the tables, raise CapacityError
    before they start.

    Per k the residues are radix sorted (uint8 to k = 256, else uint16),
    and the starts and sizes of the classes come from a search of the sorted
    residues for each label up to the largest.  With t = Li(p)/phi(k), monotone
    rounding makes max(|j - t|, |(j - 1) - t|) equal
    max(fl(j - t), fl(t - (j - 1))) at the j-th prime of a class, and a
    class's error from its last prime to x peaks at one of the two ends.

    Each coprime class is cut into runs of a quarter of the mean class size,
    at most 16 jumps (``_runs``).
    The errors at both ends of every run, and at y = x, are exact values of
    the row, so their max is a floor under it; only the runs whose bound tops
    that floor are evaluated jump by jump.  The row is the max of the floor
    and those runs, the same float as the max over every jump.

    A modulus 2k with k odd is not scanned.  Its coprime classes are the odd
    lifts of k's, phi(2k) = phi(k), and each holds the same primes as its
    class mod k except that 2 mod k loses p = 2.  So rows k and 2k share the
    runs of every other class, and the class 2 mod k is cut twice: with
    ranks 1 ... size for row k, and without p = 2, ranks 1 ... size - 1, for
    row 2k.  Every t and every exact float j is the one a scan of 2k would
    use, so the rows are bit-identical.
    """
    x = integer(x, "x", least=2)
    tables.reach(x, f"x={x}")
    q_max = integer(q_max, "q_max", least=1)
    tables.reach(q_max, f"q_max={q_max}")
    n = prime_pi(x, tables)
    within(q_max * (n + _BV_SCAN_K_COST), BV_SCAN_MAX_WORK,
           f"scan work of {q_max} moduli over {n} primes")
    li = tables.li_column(n)
    li_x = li[-1] + _li_past(tables.primes[n - 1], x)
    ps32 = tables.primes[:n].astype(np.uint32)
    errors = [0.0] * (q_max + 1)
    for k in range(1, q_max + 1):
        if k % 4 == 2:  # derived from the odd k // 2 below
            continue
        pair = k % 2 == 1 and 2 * k <= q_max
        phi = mult_stats(k, tables).phi
        for m, e in zip((k, 2 * k), _modulus_rows(ps32, li, li_x, k, phi, pair)):
            errors[m] = e
    rows = [(k, errors[k]) for k in range(1, q_max + 1)]
    return BVScanResult(
        x=x, q_max=q_max, rows=rows, total=math.fsum(e for _, e in rows)
    )


def _simpson(a: float, b: float, fa: float, fm: float, fb: float) -> float:
    """Simpson's rule on [a, b] from f at a, the midpoint and b; an estimate
    that is not finite ends the quadrature."""
    out = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    if not math.isfinite(out):
        raise CapacityError(f"Simpson estimate {out} on [{a:.6g}, {b:.6g}] is not finite")
    return out


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, eps, depth, refined):
    """Refine ``whole``, Simpson's rule on [a, b] from fa, fm and fb: each
    level evaluates f only at the two new quarter points, left then right.
    refined[0] counts the intervals split so far, checked before each split."""
    m = 0.5 * (a + b)
    flm = f(0.5 * (a + m))
    left = _simpson(a, m, fa, flm, fm)
    frm = f(0.5 * (m + b))
    right = _simpson(m, b, fm, frm, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * eps or depth <= 0:
        return left + right + delta / 15.0
    refined[0] = within(refined[0] + 1, MAX_QUAD_INTERVALS, "quadrature intervals refined")
    return (
        _adaptive_simpson(f, a, m, fa, flm, fm, left, 0.5 * eps, depth - 1, refined)
        + _adaptive_simpson(f, m, b, fm, frm, fb, right, 0.5 * eps, depth - 1, refined)
    )


def integrate_adaptive(f, a: float, b: float, rel_tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature of f on [a, b] to a relative tolerance.

    Each interval is split until two successive refinements agree to the
    (proportionally shared) tolerance; the Richardson-extrapolated value is
    returned.  f is called once per point: a refinement reuses f at its
    interval's ends and midpoint.

    Raises:
        InputError: a or b not a finite number, or rel_tol not a finite number > 0.
        CapacityError: a Simpson estimate (on the whole interval or a part)
            is not finite, as when f or the width overflows a float; or the
            refinement would split more than MAX_QUAD_INTERVALS intervals,
            as when f does not settle at any depth.
    """
    finite(rel_tol, "rel_tol", above=0)
    if finite(b, "b") <= finite(a, "a"):
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(a, b, fa, fm, fb)
    scale = max(abs(whole), 1e-30)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, rel_tol * scale, 48, [0])


def li_eval(x: float) -> float:
    """Logarithmic integral from 2 to x of dt/log t.

    Raises:
        InputError: x is not a finite number >= 2.
        CapacityError: x is past the range of a float.
    """
    return integrate_adaptive(lambda t: 1.0 / math.log(t), 2.0, float(finite(x, "x", least=2)))
