"""One brute-force oracle for the tests, and the grid of problem points they share.

For one problem point (its kind and parameters) the oracle gives, by brute
force from the definitions:

- the members, from ``perfbench/brute.py``, the benchmark's ground truth,
  which this module loads by path and does not change;
- #A_d, by scanning the members;
- w(d), the exact ``Fraction`` product of the kind's w(q) (``brute.density``);
- R_d = #A_d - X w(d)/d, the main term with w(d) rounded once;
- the survivors and the sifted count at every cut z, each prime p < z tried
  against every member;
- the divisor supports, one node at a time, with each rule in its original
  form: d q < y (``below``), d q <= n (``at_most``), d q^3 < y at the checked
  positions and d q <= cap (``chain``).

From these it sums what the package reports: the main terms and remainders
of the two chain bounds and of the quadratic-form bound, G(xi, z), the
truncated Moebius sums M+- (as floats and as exact rationals), the
inclusion-exclusion remainder sum and the chain's divisor sums.  None of it
calls the package code it checks.  X and the largest member n_bound are read
off the problem as its stated scale and bound.

The grid: ``KIND_POINTS`` is one small problem of each kind,
``STRIKE_POINTS`` seeded draws of every kind and their edges, and ``GRID``
the cuts z and levels y every walk consumer is compared at.
"""

from __future__ import annotations

import bisect
import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "brute", Path(__file__).resolve().parents[1] / "perfbench" / "brute.py"
)
brute = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(brute)

#: covers every problem point of the tests: shifted_prime's N, the Liouville
#: kinds' x and the cuts z stay at or below it
LIMIT = 1_000_200

KIND_POINTS = [
    ("interval", {"x": 137, "y": 4_000}),
    ("arithmetic_progression", {"x": 9_000, "k": 7, "l": 3}),
    ("goldbach_product", {"two_N": 2_000}),
    ("shifted_prime", {"N": 5_000}),
    ("square_plus_one", {"x": 90}),
    ("liouville_plus", {"x": 8_000}),
    ("liouville_minus", {"x": 6_000}),
]

GRID = [(z, y) for z in (2, 7, 30, 60) for y in (2.0, 100.0, 945.0, 3000.5, 30030.0)]


def _draws():
    """Three parameter draws per kind (a fixed seed), then the edges: q | 2N
    (2N = 2310 = 2 3 5 7 11, and 2N = 6), q = 2 for both CRT kinds (always
    one of their sieve primes), a progression with k = 1 and one with no
    members, Liouville at x = 1, an interval from 0, and N - p with every
    prime up to 11 dividing N (N = 2310) and with the prime N/2 off the
    mask (N = 9998 = 2 4999)."""
    r = random.Random("strike-and-crt")
    out = []
    for _ in range(3):
        k = r.randrange(1, 40)
        l = r.choice([l for l in range(k) if math.gcd(l, k) == 1])
        out += [
            ("interval", {"x": r.randrange(0, 10**6), "y": r.randrange(1, 3_000)}),
            ("arithmetic_progression", {"x": r.randrange(1, 30_000), "k": k, "l": l}),
            ("goldbach_product", {"two_N": 2 * r.randrange(3, 1_500)}),
            ("shifted_prime", {"N": 2 * r.randrange(4, 5_000)}),
            ("square_plus_one", {"x": r.randrange(1, 3_000)}),
            ("liouville_plus", {"x": r.randrange(1, 10_000)}),
            ("liouville_minus", {"x": r.randrange(1, 10_000)}),
        ]
    return out + [
        ("goldbach_product", {"two_N": 2_310}),
        ("goldbach_product", {"two_N": 6}),
        ("square_plus_one", {"x": 1}),
        ("square_plus_one", {"x": 2}),
        ("arithmetic_progression", {"x": 2_000, "k": 1, "l": 0}),
        ("arithmetic_progression", {"x": 5, "k": 7, "l": 6}),
        ("liouville_plus", {"x": 1}),
        ("liouville_minus", {"x": 1}),
        ("interval", {"x": 0, "y": 3_000}),
        ("shifted_prime", {"N": 8}),
        ("shifted_prime", {"N": 2_310}),
        ("shifted_prime", {"N": 9_998}),
    ]


STRIKE_POINTS = _draws()


def below(y):
    """d q < y."""
    return lambda d, nu, q: d * q < y


def at_most(n):
    """d q <= n."""
    return lambda d, nu, q: d * q <= n


def chain(y, sign, cap=None):
    """The truncated support's step over primes taken largest first: the
    prime q at position nu + 1 (odd positions for sign +1, even ones for -1)
    needs d q^3 < y; with a cap, every q also needs d q <= cap."""
    checked = 1 if sign == 1 else 0  # the parity of the checked positions

    def admit(d, nu, q):
        return ((nu + 1) % 2 != checked or d * q**3 < y) and (cap is None or d * q <= cap)

    return admit


def primes_below(z) -> list[int]:
    """Every prime p < z, ascending."""
    return [q for q in brute.primes_upto(max(math.ceil(z), 0)).tolist() if q < z]


def support(primes, admit, factors=None, members=None, prune_empty=False) -> list[tuple]:
    """Every node (d, nu(d), v(d), #A_d, i) of the squarefree d built from
    ``primes`` in their order, one node at a time.

    A node d extends to d q for each later prime q that ``admit(d, nu, q)``
    takes.  Later primes are tried from the smallest up, and every rule
    refuses larger q once it refuses one, so the first refusal ends a node's
    children.  v(d) is the product of factors[q] in the order the primes are
    added (1 without factors); #A_d counts the members d divides, each node
    scanning its parent's multiples (None without members); i is the index
    past d's last prime in the list.  prune_empty gives a node with #A_d = 0
    no children.
    """
    primes = [int(q) for q in primes]
    n = len(primes)
    ascending = n < 2 or primes[0] < primes[1]
    out = []
    stack = [(0, 1, 0, 1, members)]
    while stack:
        i, d, nu, v, sub = stack.pop()
        count = None if sub is None else int(sub.size)
        out.append((d, nu, v, count, i))
        if prune_empty and count == 0:
            continue
        for j in range(i, n) if ascending else range(n - 1, i - 1, -1):
            q = primes[j]
            if not admit(d, nu, q):
                break
            child = None if sub is None else sub[sub % q == 0]
            stack.append((j + 1, d * q, nu + 1, v * factors[q] if factors else v, child))
    return out


def walk_nodes(walk) -> list[tuple]:
    """A package walk's nodes as (d, nu, v, #A_d, i) tuples of Python values, sorted by d."""
    count = walk.count.tolist() if walk.count is not None else [None] * walk.d.size
    return sorted(zip(walk.d.tolist(), walk.nu.tolist(), walk.v.tolist(), count,
                      walk.i.tolist()))


def w_product(at, primes) -> Fraction:
    """w(d) = the product of at(q) over the primes q of d, exactly."""
    return math.prod(map(at, primes), start=Fraction(1))


class Oracle:
    """The brute force behind the tests; each problem point's members are kept."""

    def __init__(self):
        self.brute = brute.Oracle(LIMIT)
        self._members: dict = {}

    def members(self, p) -> np.ndarray:
        """The members of A, in member order (shifted_prime's N - p descend)."""
        key = (p.kind, tuple(sorted(p.params.items())))
        if key not in self._members:
            mem = self.brute.members(p.kind, p.params)
            mem.flags.writeable = False
            self._members[key] = mem
        return self._members[key]

    def count(self, p, d: int) -> int:
        """#A_d, by scanning the members."""
        mem = self.members(p)
        return int(np.count_nonzero(mem % d == 0))

    def sieve_primes(self, p, z) -> list[int]:
        """The kind's sieve primes p < z."""
        return brute.sieve_primes(p.kind, p.params, np.array(primes_below(z), dtype=np.int64))

    def survivors(self, p, z) -> np.ndarray:
        """The members no prime p < z divides, in member order.  Every prime
        is tried: the primes a kind leaves out of its sieve divide none of
        its members."""
        mem = self.members(p)
        keep = np.ones(mem.size, dtype=bool)
        for q in primes_below(z):
            keep &= mem % q != 0
        return mem[keep]

    def sifted(self, p, z) -> int:
        """The sifted count S(A, z)."""
        return int(self.survivors(p, z).size)

    def nodes(self, p, primes, admit, prune_empty=False) -> list[tuple]:
        """``support`` for problem p: v(d) = w(d) as an exact Fraction, #A_d
        by member scan (for p = None, v(d) = 1 and no counts)."""
        if p is None:
            return support(primes, admit, prune_empty=prune_empty)
        w = brute.density(p.kind, p.params)
        factors = {int(q): w(int(q)) for q in primes}
        return support(primes, admit, factors, self.members(p), prune_empty)

    def remainders(self, p, nodes) -> list[tuple[float, float]]:
        """(main, R_d) for each node, main = X w(d)/d with w(d) rounded once."""
        mains = [float(p.X) * float(v) / d for d, _, v, _, _ in nodes]
        return [(main, c - main) for main, (_, _, _, c, _) in zip(mains, nodes)]

    def chain_sums(self, p, y, z, sign) -> tuple[float, float]:
        """(main, rem) of a chain bound: the fsums of mu(d) X w(d)/d and of
        |R_d| over the d < y of the support from the sieve primes below z."""
        desc = self.sieve_primes(p, z)[::-1]
        nodes = [n for n in self.nodes(p, desc, chain(y, sign)) if n[0] < y]
        recs = self.remainders(p, nodes)
        main = math.fsum(-m if nu % 2 else m for (_, nu, *_), (m, _) in zip(nodes, recs))
        return main, math.fsum(abs(r) for _, r in recs)

    def g(self, p, z) -> dict[int, Fraction]:
        """g(q) = w(q) / (q - w(q)) for the sieve primes q < z with w(q) > 0."""
        w = brute.density(p.kind, p.params)
        return {q: w(q) / (q - w(q)) for q in self.sieve_primes(p, z) if w(q) > 0}

    def G(self, p, xi, z) -> float:
        """G(xi, z): the fsum over the squarefree l < xi of g(l), each a
        product of the float g(q), smallest q first."""
        g = {q: float(v) for q, v in self.g(p, z).items()}
        return math.fsum(v for _, _, v, _, _ in support(list(g), below(xi), g))

    def quadratic_sums(self, p, y, z) -> tuple[float, float]:
        """(main, rem) of the quadratic-form bound: X / G(sqrt(y), z), and the
        fsum of 3^nu(d) |R_d| over the squarefree d < y from the sieve primes."""
        nodes = self.nodes(p, self.sieve_primes(p, z), below(y))
        recs = self.remainders(p, nodes)
        rem = math.fsum(3**nu * abs(r) for (_, nu, *_), (_, r) in zip(nodes, recs))
        return float(p.X) / self.G(p, math.sqrt(y), z), rem

    def _mobius_support(self, p, y, z, sign, exact):
        w = brute.density(p.kind, p.params)
        desc = [q for q in self.sieve_primes(p, z) if w(q) > 0][::-1]
        factors = {q: -w(q) / q if exact else -float(w(q)) / q for q in desc}
        return [v for _, _, v, _, _ in support(desc, chain(y, sign), factors)]

    def mobius(self, p, y, z, sign) -> float:
        """M(sign): the fsum of mu(d) w(d) / d over the chain support, one
        float per d, the product of -w(q)/q with the largest q first."""
        return math.fsum(self._mobius_support(p, y, z, sign, False))

    def mobius_exact(self, p, y, z, sign) -> tuple[Fraction, Fraction]:
        """(M, A): M(sign) exactly, and A the sum of |mu(d) w(d) / d| over its support."""
        terms = self._mobius_support(p, y, z, sign, True)
        return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))

    def legendre_remainder_sum(self, p, z) -> float:
        """The sum of |R_d| over every squarefree d from the sieve primes below
        z, one node at a time on the tree of d <= n_bound pruned below empty
        nodes: a node with members adds |R_d|, and every subtree the tree
        leaves out adds its main terms, the node's X w(d)/d times
        suf[j] = the product of 1 + w(q)/q over the sieve primes from the j-th."""
        rp = self.sieve_primes(p, z)
        w = brute.density(p.kind, p.params)
        suf = [1.0] * (len(rp) + 1)
        for j in range(len(rp) - 1, -1, -1):
            suf[j] = suf[j + 1] * (1.0 + float(w(rp[j])) / rp[j])
        nodes = self.nodes(p, rp, at_most(p.n_bound), prune_empty=True)
        terms = []
        for (d, _, _, c, i), (main, r) in zip(nodes, self.remainders(p, nodes)):
            if c == 0:  # itself and its whole subtree
                terms.append(main * suf[i])
            else:  # the children past n_bound and their subtrees
                j = max(i, bisect.bisect_right(rp, p.n_bound // d))
                terms += (abs(r), main * (suf[j] - 1.0))
        return math.fsum(terms)

    def remainder_sum_exact(self, p, z) -> Fraction:
        """The sum of |R_d| over every squarefree d from the sieve primes below
        z, exactly, X at its exact binary value.  The d past n_bound have no
        members, so the main terms of all d, X times the product of
        1 + w(q)/q, stand for every |R_d| but those of the d <= n_bound with
        members."""
        rp = self.sieve_primes(p, z)
        X = Fraction(p.X)
        w = brute.density(p.kind, p.params)
        total = X * w_product(lambda q: 1 + w(q) / q, rp)
        for d, _, wd, c, _ in self.nodes(p, rp, at_most(p.n_bound)):
            if c:
                main = X * wd / d
                total += abs(c - main) - main
        return total

    def divisor_sums(self, n, y, sign) -> np.ndarray:
        """out[m] = the sum of mu(d) over the d | m of the chain support, for
        m <= n; the support is walked over the primes up to n, held to d <= n."""
        desc = primes_below(n + 1)[::-1]
        out = np.zeros(n + 1, dtype=np.int64)
        for d, _, mu, _, _ in support(desc, chain(y, sign, cap=n), dict.fromkeys(desc, -1)):
            out[d::d] += mu
        return out
