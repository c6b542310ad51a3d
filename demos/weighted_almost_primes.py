"""Weighted sifting: trading primes for products of few primes.

Attaching a decreasing weight to each prime factor in a window lets a
sieve certify numbers with at most r prime factors at levels where the
plain lower bound dies. The threshold exponent for shifted primes comes
out of a one-line formula, and exact sums confirm the counting logic.
"""

from sievelab import (
    W_exact,
    WeightedConfig,
    build_tables,
    chen_report,
    lambda_r,
    level_condition,
    make_problem,
    pr_count,
    repeated_window_factor_count,
)

t = build_tables(1_000_200)

print("level thresholds: sifting with exponent gamma > 1/threshold works")
for r in range(2, 7):
    print(f"  r={r}: threshold = {lambda_r(r):.9f} (between r-2/7 and r-1/7)")

print()
r = 2
crit = 1.0 / lambda_r(r)
print(f"margin changes sign around gamma = {crit:.6f} for r = {r}")
for gamma in (crit - 0.004, crit + 0.004):
    cfg = WeightedConfig(N=10**6, r=r, alpha=gamma / 4,
                         beta=gamma / (1 + 3.0**-r), gamma_level=gamma)
    mi, mc = level_condition(cfg)
    print(f"  gamma={gamma:.6f}: integral margin={mi:+.6f} closed={mc:+.6f}")

print()
print("exact weighted sum vs what it certifies, shifted-prime members")
cfg = WeightedConfig(N=10_000, r=3, alpha=0.49 / 4,
                     beta=0.49 / (1 + 3.0**-3), gamma_level=0.49)
p = make_problem("shifted_prime", {"N": 10_000}, t)
w = W_exact(p, cfg)
cap = pr_count(p, cfg.r, cfg.alpha, N=cfg.N)
sq = repeated_window_factor_count(p, cfg)
print(f"  W = {w:.2f} <= members with <= {cfg.r} factors ({cap})"
      f" + repeated-window-factor members ({sq})")

print()
print("near-prime partners: p <= N-3 prime with N-p having <= 2 factors")
for n in (10_000, 100_000):
    rep = chen_report(n, t)
    print(
        f"  N={n:>7}: count={rep.count:>5}  reference floor={rep.reference:>7.1f}"
        f"  ratio={rep.ratio:.2f}"
    )
print("counts clear the floor by an order of magnitude at these heights")
