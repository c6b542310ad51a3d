"""Two-sided combinatorial bounds trap the exact count.

The truncated Mobius supports give a genuine lower bound as well as an
upper one. This script sandwiches exact counts for a few problems, then
watches the scaled count drift between the limit curves f(s) and F(s)
as the sifting depth parameter s = log y / log z varies.
"""

from sievelab import (
    build_tables,
    combinatorial_bounds,
    fundamental_lemma_report,
    make_problem,
)

t = build_tables(1_000_200)

configs = [
    ("interval", {"x": 0, "y": 200_000}, 3000.0, 25.0),
    ("goldbach_product", {"two_N": 10_000}, 1500.0, 18.0),
    ("square_plus_one", {"x": 50_000}, 2000.0, 15.0),
    ("liouville_plus", {"x": 50_000}, 2500.0, 30.0),
]

print("lower <= exact <= upper")
for kind, params, y, z in configs:
    p = make_problem(kind, params, t)
    pair = combinatorial_bounds(p, y, z)
    lo = pair.lower.lower_bound
    hi = pair.upper.upper_bound
    exact = pair.upper.exact_count
    print(f"  {p.label:<28} {lo:>9.1f} <= {exact:>7} <= {hi:>9.1f}")

print()
print("scaled count against the limit curves, interval x=10^6, y=10^4")
p = make_problem("interval", {"x": 0, "y": 1_000_000}, t)
rows = fundamental_lemma_report(p, 10_000.0, [2.0, 3.0, 4.0, 6.0, 8.0])
print(f"  {'s':>4} {'z':>8} {'f(s)':>8} {'scaled':>8} {'F(s)':>8}")
for r in rows:
    print(
        f"  {r.s:>4.0f} {r.z:>8.2f} {r.lower_curve:>8.4f}"
        f" {r.scaled:>8.4f} {r.upper_curve:>8.4f}"
    )
print("deep sifting (large s) squeezes both curves onto 1, so the")
print("count is pinned to the heuristic main term X*W(z)")
