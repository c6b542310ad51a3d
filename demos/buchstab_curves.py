"""The upper and lower limit curves F and f of the linear sieve.

Solves the coupled delay equations one unit [k, k + 1] at a time as
power series, compares a few values against closed forms known on the
first units, and shows both curves collapsing onto 1 exponentially fast.
"""

import math

from sievelab import EULER_GAMMA, build_grid, evaluate

eg = math.exp(EULER_GAMMA)

print("closed forms on the early units")
checks = [
    ("F(2)", evaluate(2.0, "F"), eg),
    ("F(3)", evaluate(3.0, "F"), 2.0 * eg / 3.0),
    ("f(2.5)", evaluate(2.5, "f"), 2.0 * eg * math.log(1.5) / 2.5),
    ("f(3)", evaluate(3.0, "f"), 2.0 * eg * math.log(2.0) / 3.0),
    ("f(4)", evaluate(4.0, "f"), 2.0 * eg * math.log(3.0) / 4.0),
]
for name, got, want in checks:
    print(f"  {name} = {got:.12f}   closed form {want:.12f}   diff {abs(got-want):.2e}")

print()
join = build_grid(30.0, 1e-4).join_error
print(f"series f against its closed form on (2, 4]: {join:.2e}")

print()
print("F and f approach 1 from opposite sides")
print(f"  {'s':>4} {'f(s)':>14} {'F(s)':>14} {'F-f':>10}")
for s in (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 20.0):
    fs = evaluate(s, "f")
    Fs = evaluate(s, "F")
    print(f"  {s:>4.0f} {fs:>14.10f} {Fs:>14.10f} {Fs - fs:>10.2e}")

print()
print("below s = 2 the lower curve is identically zero, so shallow")
print("sifting can certify no survivors at all:")
for s in (1.2, 1.6, 1.999):
    print(f"  f({s}) = {evaluate(s, 'f'):.6f}")
