"""The benchmark's own test: one seed gives one output digest.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_bench.py

Each workload runs three times for one batch (``--seconds 1``): twice with
one seed, whose digests must match, and once with another, whose digest
must differ, so the seed really reaches the inputs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


def digest_of(workload: str, seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    return detail["digest"]


@pytest.mark.parametrize("workload", ["bounds-sweep", "weights-scan", "cli-cold"])
def test_same_seed_same_digest(workload):
    first = digest_of(workload, 7)
    assert digest_of(workload, 7) == first
    assert digest_of(workload, 8) != first
