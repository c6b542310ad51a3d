"""Mutants of the package that ``verify --suite all`` passes and Tier-1 must catch.

Each entry is (file under src/sievelab, old text, new text, what it breaks,
the Tier-1 tests that must fail).  ``verify`` passes on all ten: its bound
checks ask only that a bound lie on the right side of the exact count, which
a bound that claims more than its proof gives still does at the suites'
sizes; ``sift_exact`` and every bound read the same cut and support rule, so
a changed cut or support edge moves both sides of each check; and its bands
are wide where constants enter.

Run from the root of the checkout:

    python tests/mutants.py

It copies src/sievelab to a temporary directory and first runs every named
test on the unchanged copy, where each must pass.  Then, for each mutant, it
replaces the old text, which must occur exactly once, and runs only the
tests the mutant names.  It exits nonzero if a named test does not fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    ("problem.py", 'math.ceil(z) - 1, side="right")', 'math.floor(z), side="right")',
     "the cut: primes p <= z sift instead of p < z",
     ["tests/test_cli.py::test_config_file_supplies_defaults_and_flags_win",
      "tests/test_problem.py::test_primes_below_slices_the_old_mask[7.0]",
      "tests/test_walk.py::test_every_walk_consumer_equals_the_reference[7-100.0]"]),
    ("rosser.py", "Admit(max(math.ceil(y) - 1, 0), 3,", "Admit(max(math.floor(y), 0), 3,",
     "the Rosser support's edge: d q^3 <= y admitted",
     ["tests/test_rosser.py::test_bounds_equal_per_node_reference[189.0-10.0]"]),
    ("rosser.py", "rem = fsum_columns([np.abs(rec.r)])",
     "rem = 0.5 * fsum_columns([np.abs(rec.r)])",
     "the Rosser remainder: half of the sum of |R_d|",
     ["tests/test_rosser.py::test_bounds_equal_per_node_reference[100.0-10.0]"]),
    ("selberg.py", "_POW3[walk.nu] * np.abs(r)", "np.abs(r)",
     "the Selberg remainder: 3^nu(d) dropped",
     ["tests/test_selberg.py::test_upper_bound_equals_per_node_reference[100-10]"]),
    ("selberg.py", "big_G(math.sqrt(y), z,", "big_G(y, z,",
     "the Selberg main term: G(y, z) for G(sqrt(y), z)",
     ["tests/test_selberg.py::test_upper_bound_equals_per_node_reference[100-10]"]),
    ("parity.py", "t += t**a < n", "t += t**a <= n",
     "root_ceiling at perfect powers",
     ["tests/test_parity.py::test_root_ceiling"]),
    ("weighted.py", "return max(0.0, w)", "return max(0.0, w * 1.01)",
     "the Richert weights, 1% high",
     ["tests/test_cli.py::test_weighted_sizes_tables_for_the_members_it_factors"]),
    ("harness.py", "np.maximum(up, np.subtract(at, j, out=j), out=up)",
     "np.minimum(up, np.subtract(at, j, out=j), out=up)",
     "the progression errors: the smaller of the two jump errors",
     ["tests/test_harness.py::test_bv_scan_matches_direct_recomputation"]),
    ("selberg.py", "TWIN_CONSTANT = 1.3203236394309112", "TWIN_CONSTANT = 1.32",
     "the twin-prime constant",
     ["tests/test_selberg.py::test_twin_constant_value"]),
    ("buchstab.py", "floor(s * grid.m) - 1, 1)", "floor(s * grid.m), 1)",
     "F and f between grid nodes: the stencil one point right",
     ["tests/test_buchstab.py::test_grid_equals_the_grid_with_an_s_column[30-0.0001]"]),
]


def failed_tests(package_dir: Path, tests: list[str]) -> tuple[int, set[str]]:
    """pytest's exit code and the ids of the tests that failed, with the
    package imported from package_dir."""
    env = dict(os.environ, PYTHONPATH=str(package_dir), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    failed = {line.split()[1] for line in out.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return out.returncode, failed


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "sievelab"
        shutil.copytree(ROOT / "src" / "sievelab", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        where = subprocess.run([sys.executable, "-c", "import sievelab; print(sievelab.__file__)"],
                               env=dict(os.environ, PYTHONPATH=tmp), capture_output=True, text=True)
        if Path(where.stdout.strip()).parent != copy:
            print(f"sievelab imports from {where.stdout.strip() or where.stderr}, not the copy")
            return 2
        named = sorted({t for *_, tests in MUTANTS for t in tests})
        code, failed = failed_tests(Path(tmp), named)
        if code != 0:
            print(f"the named tests fail on the unchanged package (exit {code}): {sorted(failed)}")
            return 2
        survivors = 0
        for name, old, new, breaks, tests in MUTANTS:
            path = copy / name
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: {old!r} occurs {text.count(old)} times, not once")
                return 2
            path.write_text(text.replace(old, new))
            try:
                _, failed = failed_tests(Path(tmp), tests)
            finally:
                path.write_text(text)
            passed = [t for t in tests if t not in failed]
            survivors += bool(passed)
            print(f"{'SURVIVED' if passed else 'caught'}: {name}: {breaks}"
                  + (f" (passes {', '.join(passed)})" if passed else ""))
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
