"""The per-node divisor walk and the member scans the package replaced, kept as references.

``reference_walk`` is the depth-first generator ``problem.divisor_walk``
used to be: it yields (d, nu(d), v(d), #A_d, i) one node at a time, asks a
callable ``admit(d, nu, q)`` before each child and stops at the first
refusal.  The ``*_admit`` helpers state each walk rule in its original form
(d q < y, d q <= n, d q^3 < y at the checked positions), so a test that
compares the two walkers also checks the integer bounds the column walker
reads the rules as.  For a kind with no closed formula the reference walk
counts #A_d by the old per-child filter: it keeps each node's members and
tests them against the node's last prime.  ``reference_members`` builds
every kind's members as the kinds built them before they gained an index
range, and ``reference_survivors`` is the old sift, which tests each prime
only against the members the smaller primes left.  ``members_array`` reads
every member off a kind's index range; no code of the package needs the
whole member list any more, so only the tests keep it.
``previous_chain_divisor_sums`` walks the whole chain support over the
primes up to n and only then keeps the d <= n, as ``chain_divisor_sums``
did before its walk held d q <= n at every node.
"""

from __future__ import annotations

import math

import numpy as np

from sievelab.errors import CapacityError
from sievelab.problem import (
    MAX_CHAIN_NODES,
    SieveProblem,
    _scan_size,
    _strike,
    _values,
    divisor_walk,
    whole_densities,
)
from sievelab.rosser import _chain_admit


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
    stack: list = [(0, 1, 0, 1, reference_members(p) if scan else None)]
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


def reference_members(p) -> np.ndarray:
    """The members of A as an int64 array, in member order."""
    par = p.params
    if p.kind == "interval":
        return np.arange(par["x"] + 1, par["x"] + par["y"] + 1, dtype=np.int64)
    if p.kind == "arithmetic_progression":
        k, l = par["k"], par["l"]
        return np.arange(l if l >= 1 else k, par["x"] + 1, k, dtype=np.int64)
    if p.kind == "goldbach_product":
        n = np.arange(2, par["two_N"] - 1, dtype=np.int64)
        return n * (par["two_N"] - n)
    if p.kind == "shifted_prime":
        ps = p.tables.primes
        ps = ps[(ps >= 3) & (ps <= par["N"] - 3)]
        return (par["N"] - ps[par["N"] % ps != 0]).astype(np.int64)
    if p.kind == "square_plus_one":
        n = np.arange(1, par["x"] + 1, dtype=np.int64)
        return n * n + 1
    target = -1 if p.kind == "liouville_plus" else 1
    return np.nonzero(p.tables.liouville_table()[: par["x"] + 1] == target)[0].astype(np.int64)


def reference_survivors(mem: np.ndarray, rp) -> np.ndarray:
    """The members of mem no prime of rp divides, as a new array."""
    for q in rp:
        mem = mem[mem % int(q) != 0]
    return mem if len(rp) else mem.copy()


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


def members_array(p: SieveProblem) -> np.ndarray:
    """The members of A as an int64 array, in index order, read off the
    index range (and its start mask, where the kind has one).

    Raises:
        CapacityError: an index range of more than MAX_SCAN_MEMBERS entries.
    """
    if p.shape.start is None:  # every index holds a member: no mask to strike
        return _values(p, np.arange(_scan_size(p), dtype=np.int64))
    return _values(p, np.flatnonzero(_strike(p, [])))


def previous_chain_divisor_sums(n, y, sign, tables) -> np.ndarray:
    """chain_divisor_sums by the whole chain walk, filtered to d <= n afterwards."""
    primes = tables.primes[: np.searchsorted(tables.primes, n, side="right")]
    walk = divisor_walk(None, primes[::-1].tolist(), _chain_admit(y, sign),
                        dict.fromkeys(primes.tolist(), -1))
    out = np.zeros(n + 1, dtype=np.int64)
    keep = walk.d <= n
    for d, mu in zip(walk.d[keep].tolist(), walk.v[keep].tolist()):
        out[d::d] += mu
    return out
