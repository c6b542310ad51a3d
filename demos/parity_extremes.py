"""Why no sieve argument alone can find primes: two extremal sequences.

Splitting integers by the sign of the completely multiplicative
sign-counting function gives two sequences with identical divisibility
statistics. One of them contains all the primes, the other almost none,
and their rough-element counts land exactly on the limit curves F and f.
"""

from sievelab import (
    L_summatory,
    S_pm_exact,
    build_tables,
    prediction_row,
    prime_pi,
    recursion_check,
)

t = build_tables(1_000_200)

x = 1_000_000
print(f"signed summatory count at x = {x}: {L_summatory(x, t)}"
      f"  (tiny compared to x)")

print()
print("counts of n <= x with no prime factor below x^(1/s)")
print(f"  {'s':>4} {'plus':>7} {'predict+':>10} {'minus':>7} {'predict-':>10}")
for s in (2.0, 2.3, 2.5, 2.8, 3.0):
    row = prediction_row(x, s, t)
    print(
        f"  {s:>4.1f} {row.exact_plus:>7} {row.predict_plus:>10.1f}"
        f" {row.exact_minus:>7} {row.predict_minus:>10.1f}"
    )

print()
pi_gap = prime_pi(x, t) - prime_pi(x**0.5, t)
print(f"plus side at s = 2 vs primes in (sqrt x, x]: "
      f"{S_pm_exact(x, 2.0, 1, t)} vs {pi_gap}")
print(f"minus side at s = 2 (at most the unit and one prime square): "
      f"{S_pm_exact(x, 2.0, -1, t)}")

print()
print("the exact recursion that drives both counts")
for xx in (5000, 10_000):
    lhs, rhs = recursion_check(xx, 2.5, -1, t)
    print(f"  x={xx}: direct={lhs} recursed={rhs} match={lhs == rhs}")

print()
print("both sequences meet every sieve bound with equality in the limit,")
print("so upper bounds cannot dip below F nor lower bounds rise above f")
