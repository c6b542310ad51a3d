"""The per-node divisor walk the package's column walker replaced, kept as a reference.

``reference_walk`` is the depth-first generator ``problem.divisor_walk``
used to be: it yields (d, nu(d), v(d), #A_d, i) one node at a time, asks a
callable ``admit(d, nu, q)`` before each child and stops at the first
refusal.  The ``*_admit`` helpers state each walk rule in its original form
(d q < y, d q <= n, d q^3 < y at the checked positions), so a test that
compares the two walkers also checks the integer bounds the column walker
reads the rules as.
"""

from __future__ import annotations

import math

from sievelab.errors import CapacityError
from sievelab.problem import MAX_CHAIN_NODES, whole_densities


def below_admit(y):
    return lambda d, nu, q: d * q < y


def at_most_admit(n):
    return lambda d, nu, q: d * q <= n


def chain_admit(y, sign):
    checked = 0 if sign == 1 else 1  # parity of nu(d) when position nu + 1 is checked
    return lambda d, nu, q: nu % 2 != checked or d * q * q * q < y


def reference_walk(p, primes, admit, factors=None, prune_empty=False, max_nodes=None):
    """Depth-first walk of the squarefree d built from ``primes``, in their order."""
    if max_nodes is None:
        max_nodes = MAX_CHAIN_NODES
    primes = [int(q) for q in primes]
    if factors is None:
        factors = whole_densities(p.omega, primes)
    scan = p is not None and p.count is None
    n, ascending = len(primes), len(primes) < 2 or primes[0] < primes[1]
    nodes = 0
    stack: list = [(0, 1, 0, 1, p.members if scan else None)]
    while stack:
        i, d, nu, v, sub = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise CapacityError(f"divisor walk exceeds {max_nodes} nodes")
        if scan:
            if i and sub.size:
                sub = sub[sub % primes[i - 1] == 0]
            count = sub.size
        else:
            count = None if p is None else _count(p, d, nu)
        yield d, nu, v, count, i
        if prune_empty and count == 0:
            continue
        for j in range(i, n) if ascending else range(n - 1, i - 1, -1):
            q = primes[j]
            if not admit(d, nu, q):
                break
            stack.append((j + 1, d * q, nu + 1, v * factors[q], sub))


def _count(p, d, nu):
    """#A_d by the kind's closed formula, in Python ints, as the old walk computed it."""
    x = p.params["x"]
    if p.kind == "interval":
        return (x + p.params["y"]) // d - x // d
    if p.kind == "arithmetic_progression":
        k, l = p.params["k"], p.params["l"]
        if math.gcd(d, k) != 1:
            return 0
        inv = pow(d % k, -1, k) if k > 1 else 0
        c = d * ((l * inv) % k) if k > 1 else d
        if c == 0:
            return x // (d * k)
        return (x - c) // (d * k) + 1 if c <= x else 0
    target = -1 if p.kind == "liouville_plus" else 1
    t = x // d
    return (t + (-target if nu % 2 else target) * int(p.tables.liouville_summatory()[t])) // 2


def nodes(walk) -> list[tuple]:
    """A column walk's nodes as (d, nu, v, #A_d, i) tuples of Python values, sorted by d."""
    count = walk.count.tolist() if walk.count is not None else [None] * walk.d.size
    return sorted(zip(walk.d.tolist(), walk.nu.tolist(), walk.v.tolist(), count,
                      walk.i.tolist()))
