"""Logarithmically weighted sieve for almost-prime production.

Attach to each member n of a sifted sequence the weight 1 - sum of w_p
over its prime factors in a window [N^alpha, N^beta).  With the weights

    w_p = beta / ((r+1) beta - 1) * (1 - log p / (beta log N))

any n <= N carrying r+1 or more prime factors (with multiplicity, and no
repeat inside the window) gets weight <= 0, so a positive weighted total
forces members with at most r factors to exist.  The admissibility of a
level gamma_level rests on an integral condition against the limit curve
F, with a closed logarithmic form on part of the parameter range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import EULER_GAMMA, PrimeTables, factor_columns, integrate_adaptive
from .buchstab import evaluate
from .errors import CapacityError, InputError, finite, integer
from .problem import SieveProblem, sifted_members
from .selberg import TWIN_CONSTANT, singular_factor


@dataclass(frozen=True)
class WeightedConfig:
    """Parameter bundle for one weighted-sieve run.

    gamma_level is the level-of-distribution exponent; it is a different
    animal from Euler's constant, which only ever appears as euler_gamma.
    """

    N: int
    r: int
    alpha: float
    beta: float
    gamma_level: float

    def __post_init__(self):
        object.__setattr__(self, "N", integer(self.N, "N", least=2))
        object.__setattr__(self, "r", integer(self.r, "r", least=1))
        finite(self.beta, "beta", above=finite(self.alpha, "alpha", above=0))
        if (self.r + 1) * self.beta - 1 <= 0:
            raise InputError(
                f"need (r+1)*beta > 1, got r={self.r} beta={self.beta}"
            )
        finite(self.gamma_level, "gamma_level", above=0)


def richert_weight(p: int, cfg: WeightedConfig) -> float:
    """The logarithmic weight w_p; zero at the top of the window.

    Raises:
        InputError: p above N^beta (the weight would go negative).
    """
    log_ratio = math.log(integer(p, "p", least=2)) / (cfg.beta * math.log(cfg.N))
    if log_ratio > 1 + 1e-12:
        raise InputError(f"p={p} lies above N^beta = {cfg.N**cfg.beta:.6g}")
    w = cfg.beta / ((cfg.r + 1) * cfg.beta - 1) * (1.0 - log_ratio)
    return max(0.0, w)


def lambda_r(r: int) -> float:
    """Threshold exponent reciprocal for order-r almost primes."""
    r = integer(r, "r", least=1)
    return r + 1 - math.log(4.0 / (1.0 + 3.0 ** (-r))) / math.log(3.0)


def level_condition(cfg: WeightedConfig) -> tuple[float, float | None]:
    """Margins of the admissibility condition on gamma_level.

    Returns (margin_integral, margin_closed).  The integral margin is

        f(gamma/alpha) - c * integral over [alpha, beta] of
            (1/v - 1/beta) F((gamma - v)/alpha) dv,

    with c = beta/((r+1)beta - 1); a positive value means the level is
    admissible.  When gamma/4 <= alpha <= gamma/2 and beta < gamma the
    same condition collapses to logarithms; the closed margin is returned
    scaled by 2 e^euler_gamma alpha/gamma so the two numbers are directly
    comparable, and is None outside that range.
    """
    a, b, g = cfg.alpha, cfg.beta, cfg.gamma_level
    finite(g, "gamma_level", above=b)
    c = b / ((cfg.r + 1) * b - 1)
    lhs = evaluate(g / a, "f")
    # 1e-8 missed its own target by 38x at some configs (verify seed 57)
    integral = integrate_adaptive(
        lambda v: (1.0 / v - 1.0 / b) * evaluate((g - v) / a, "F"), a, b, rel_tol=1e-10
    )
    margin_integral = lhs - c * integral
    margin_closed = None
    if g / 4 <= a <= g / 2:
        raw = math.log(g / a - 1.0) - (
            b * math.log(b / a) - (g - b) * math.log((g - a) / (g - b))
        ) / ((cfg.r + 1) * b - 1)
        margin_closed = 2.0 * math.exp(EULER_GAMMA) * (a / g) * raw
    return margin_integral, margin_closed


def presieve_cut(N: int, alpha: float) -> float:
    """N^alpha, the cut of the pre-sieve (CapacityError past the range of a float)."""
    try:
        return integer(N, "N", least=2) ** finite(alpha, "alpha")
    except OverflowError:
        raise CapacityError(f"N^alpha = {N}^{alpha} is past the range of a float") from None


def _window_terms(members: np.ndarray, cfg: WeightedConfig, tables: PrimeTables) -> tuple:
    """(terms, square): 1 minus each member's window weight sum, its weights
    added in ascending prime order, and whether a window prime divides it
    twice.  Each distinct prime is placed in [N^alpha, N^beta) by math.log,
    as the window is defined."""
    lo, hi = cfg.alpha * math.log(cfg.N), cfg.beta * math.log(cfg.N)
    total, square = np.zeros(members.size), np.zeros(members.size, dtype=bool)
    for rows, q, e in factor_columns(members, tables):
        distinct, at = np.unique(q, return_inverse=True)
        inside = np.array([lo <= math.log(x) < hi for x in distinct.tolist()], dtype=bool)
        weight = [richert_weight(x, cfg) if ok else 0.0 for x, ok in zip(distinct.tolist(), inside)]
        total[rows] += np.array(weight)[at]
        square[rows] |= inside[at] & (e >= 2)
    return 1.0 - total, square


def W_exact(p: SieveProblem, cfg: WeightedConfig) -> float:
    """Exact weighted count over the survivors of the pre-sieve at N^alpha."""
    surv = sifted_members(p, presieve_cut(cfg.N, cfg.alpha))
    return math.fsum(_window_terms(surv, cfg, p.tables)[0].tolist())


def pr_count(p: SieveProblem, r: int, alpha: float, N: int) -> int:
    """Survivors of the pre-sieve at N^alpha carrying at most r prime factors.

    Factors are counted with multiplicity; the unit has none.

    Raises:
        InputError: r is not an integer >= 0, N not an integer >= 2, or alpha
            not a finite number.
        CapacityError: N^alpha past the range of a float, or a survivor beyond
            the factor tables.
    """
    r = integer(r, "r", least=0)
    surv = sifted_members(p, presieve_cut(N, alpha))
    big = np.zeros(surv.size, dtype=np.int64)  # Omega of each survivor
    for rows, _, e in factor_columns(surv, p.tables):
        big[rows] += e
    return int(np.count_nonzero(big <= r))


def repeated_window_factor_count(p: SieveProblem, cfg: WeightedConfig) -> int:
    """Survivors divisible by p^2 for some window prime p in [N^a, N^b)."""
    surv = sifted_members(p, presieve_cut(cfg.N, cfg.alpha))
    return int(np.count_nonzero(_window_terms(surv, cfg, p.tables)[1]))


@dataclass(frozen=True)
class ChenReport:
    """Prime-plus-almost-prime decomposition tally for one even N."""

    N: int
    count: int
    reference: float
    ratio: float
    triple_count: int


def chen_report(N: int, tables: PrimeTables) -> ChenReport:
    """Count decompositions N = p + m with p prime and m having <= 2 factors.

    The reference value is 0.335 * C2 * prod over odd p | N of (p-1)/(p-2)
    times N/(log N)^2, the classical lower-bound shape; the ratio
    count/reference is reported, not asserted, since the underlying result
    is asymptotic.  triple_count tallies the m = p1 p2 p3 shape with
    p1 < N^(1/3) <= p2 <= p3 that the deeper arguments have to control.
    """
    N = integer(N, "N", least=6)
    if N % 2:
        raise InputError(f"need an even N, got {N}")
    tables.reach(N, f"N={N}")
    ps = tables.primes
    ps = ps[(ps >= 3) & (ps <= N - 3)]
    m = N - ps
    big = tables.big_omega_table()
    count = int(np.count_nonzero(big[m] <= 2))

    reference = 0.335 * TWIN_CONSTANT * singular_factor(N, tables) * N / math.log(N) ** 2

    # m = p1 p2 p3 sorted with multiplicity: p1 = spf(m), p2 = spf(m / p1)
    cut = N ** (1.0 / 3.0)
    three = m[big[m] == 3]
    p1 = tables.spf[three]
    triple = int(np.count_nonzero((p1 < cut) & (cut <= tables.spf[three // p1])))
    return ChenReport(
        N=N, count=count, reference=reference, ratio=count / reference,
        triple_count=triple,
    )
