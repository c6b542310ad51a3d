"""Check the result line of a traced benchmark run, read from standard input.

The last line must be strict JSON (no NaN or Infinity), report a correct
run, and hold every per-layer metric BENCHMARK.json names, each finite.

    python perfbench/run.py --workload bounds-sweep --seed 0 --seconds 1 --trace 1 > out
    python .github/check_traced_result.py < out
"""

import json
import math
import sys


def _refuse(token):
    raise ValueError(f"{token} is not JSON")


lines = sys.stdin.read().splitlines()
if not lines:
    sys.exit("no output")
try:
    result = json.loads(lines[-1], parse_constant=_refuse)
except ValueError as exc:
    sys.exit(f"last line is not a JSON result ({exc}): {lines[-1][:200]!r}")
with open("BENCHMARK.json") as fh:
    names = [m["name"] for m in json.load(fh)["per_layer"]]
metrics = result.get("metrics", {})
bad = [
    n for n in names
    if not isinstance(metrics.get(n), dict)
    or not isinstance(metrics[n].get("value"), (int, float))
    or not math.isfinite(metrics[n]["value"])
]
if result.get("correct") is not True:
    sys.exit(f"run not correct: {result.get('failed')} of {result.get('attempted')} failed")
if bad:
    sys.exit(f"per-layer metrics missing or not finite: {bad}")
print(f"result line holds all {len(names)} per-layer metrics")
