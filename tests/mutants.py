"""Mutants of the package that Tier-1 must catch, and some that ``verify`` must.

Each entry is (file under src/sievelab, old text, new text, what it breaks,
the Tier-1 tests that must fail, the ``verify`` case that must fail or None).
``verify`` passes on the first ten: its bound checks ask only that a bound
lie on the right side of the exact count, which a bound that claims more
than its proof gives still does at the suites' sizes; ``sift_exact`` and
every bound read the same cut and support rule, so a changed cut or support
edge moves both sides of each check; and its bands are wide where constants
enter.  The next two are mutants of the delay curves' series, and each names
the delay-grid case, (suite, case id), that catches it.  The next is a
mutant of the quadrature kernel: its refinement no longer converges at any
practical depth.  The refinement cap (arith.MAX_QUAD_INTERVALS) refuses it,
so ``verify`` exits 2 within seconds at the first suite that integrates
(legendre-exactness, through li_eval); the run is refused whole and fails
no single case, so the mutant names none.  The Tier-1 test it names caps
the integrand's calls at those of the previous recursion and fails at
once.  The last three are mutants of the exact Selberg weights: one of the
superset sums of int pairs, one of the y sum over the pairs +-M(d), and one
of the mapping that forms both lambda_d and y_l from their int pairs over G.
Each names the selberg-validity case whose diagonal identity
y_l == mu(l) g(l) / G catches it; the last fails lambda_1 == 1 there too.

Run from the root of the checkout:

    python tests/mutants.py

It copies src/sievelab to a temporary directory and first runs every named
test and suite on the unchanged copy, where each must pass.  Then, for each
mutant, it replaces the old text, which must occur exactly once, and runs
only the tests and the suite the mutant names.  It exits nonzero if a named
test or case does not fail.
"""

from __future__ import annotations

import json
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
      "tests/test_walk.py::test_every_walk_consumer_equals_the_reference[7-100.0]"], None),
    ("rosser.py", "Admit(max(math.ceil(y) - 1, 0), 3,", "Admit(max(math.floor(y), 0), 3,",
     "the Rosser support's edge: d q^3 <= y admitted",
     ["tests/test_rosser.py::test_bounds_equal_per_node_reference[189.0-10.0]"], None),
    ("rosser.py", "rem = fsum_columns([np.abs(rec.r)])",
     "rem = 0.5 * fsum_columns([np.abs(rec.r)])",
     "the Rosser remainder: half of the sum of |R_d|",
     ["tests/test_rosser.py::test_bounds_equal_per_node_reference[100.0-10.0]"], None),
    ("selberg.py", "_POW3[walk.nu] * np.abs(r)", "np.abs(r)",
     "the Selberg remainder: 3^nu(d) dropped",
     ["tests/test_selberg.py::test_upper_bound_equals_per_node_reference[100-10]"], None),
    ("selberg.py", "big_G(math.sqrt(y), z,", "big_G(y, z,",
     "the Selberg main term: G(y, z) for G(sqrt(y), z)",
     ["tests/test_selberg.py::test_upper_bound_equals_per_node_reference[100-10]"], None),
    ("parity.py", "t += t**a < n", "t += t**a <= n",
     "root_ceiling at perfect powers",
     ["tests/test_parity.py::test_root_ceiling"], None),
    ("weighted.py", "return max(0.0, w)", "return max(0.0, w * 1.01)",
     "the Richert weights, 1% high",
     ["tests/test_cli.py::test_weighted_sizes_tables_for_the_members_it_factors"], None),
    ("arith.py", "np.maximum(up, np.subtract(at, j, out=j), out=up)",
     "np.minimum(up, np.subtract(at, j, out=j), out=up)",
     "the progression errors: the smaller of the two jump errors",
     ["tests/test_harness.py::test_bv_scan_matches_direct_recomputation"], None),
    ("arith.py", "np.maximum((jt - 1) - th, tt - jh)", "np.maximum((jt - 1) - th, tt - (jh + 1))",
     "the progression errors: a run's bound one too tight, so a run holding the max is skipped",
     ["tests/test_harness.py::test_bv_scan_equals_the_per_modulus_scan[941]"], None),
    ("selberg.py", "TWIN_CONSTANT = 1.3203236394309112", "TWIN_CONSTANT = 1.32",
     "the twin-prime constant",
     ["tests/test_selberg.py::test_twin_constant_value"], None),
    ("buchstab.py", "TERMS = 40", "TERMS = 24",
     "the delay series cut to 24 terms per unit",
     ["tests/test_buchstab.py::test_halved_step_stability"],
     ("delay-grid", "half the series terms")),
    ("buchstab.py", "new @ down", "new @ up",
     "each unit's continuity constant taken at its far end, u = +1/2",
     ["tests/test_buchstab.py::test_join_error_tiny"],
     ("delay-grid", "series f on (2, 4] against its closed form")),
    ("arith.py",
     "fa, flm, fm, left, 0.5 * eps, depth - 1, refined)\n        + _adaptive_simpson(f, m, b, fm, frm, fb",
     "fa, frm, fm, left, 0.5 * eps, depth - 1, refined)\n        + _adaptive_simpson(f, m, b, fm, flm, fb",
     "the quadrature: the two quarter-point values passed to the wrong halves",
     ["tests/test_arith.py::test_quadrature_equals_the_previous_recursion_with_a_third_of_the_calls"],
     None),
    ("selberg.py", "num[t], den[t] = n, s * db", "num[t], den[t] = n, da * db",
     "the exact weights' pair add: denominators that share a factor multiplied whole",
     ["tests/test_selberg.py::test_weights_equal_the_references_for_every_density[30-20-ones]",
      "tests/test_selberg.py::test_weights_equal_the_references_for_every_density[3000-200-half]",
      "tests/test_selberg.py::test_weights_equal_the_references_for_every_density[3000-200-p/(p-1)]"],
     ("selberg-validity", "ones z=20.0 xi=50.0")),
    ("selberg.py", "num = {d: -n if len(w.factors[d]) % 2 else n for d, n in w.M_num.items()}",
     "num = dict(w.M_num)",
     "the y sum: the sign mu(d) of each M(d) dropped",
     ["tests/test_selberg.py::test_weight_contracts_on_grid[omega0-10-20]",
      "tests/test_selberg.py::test_weights_equal_the_references_for_every_density[30-20-ones]"],
     ("selberg-validity", "ones z=20.0 xi=50.0")),
    ("selberg.py", "return Fraction(*self._pair(k)) * self._inv_G",
     "return Fraction(*self._pair(k)) * self._inv_G * self._inv_G",
     "the pairs-over-G mapping of lambda_d and y_l: 1/G applied twice",
     ["tests/test_selberg.py::test_lambda_weights_tiny_frozen",
      "tests/test_selberg.py::test_weight_contracts_on_grid[omega0-10-20]",
      "tests/test_selberg.py::test_lambdas_read_as_the_previous_dict[ones]"],
     ("selberg-validity", "ones z=20.0 xi=50.0")),
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


def failed_cases(package_dir: Path, suite: str) -> tuple[int, set[str]]:
    """``verify --suite suite``'s exit code and the ids of its failed cases,
    with the package imported from package_dir."""
    env = dict(os.environ, PYTHONPATH=str(package_dir), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-m", "sievelab.cli", "verify", "--suite", suite, "--format", "json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    failures = json.loads(out.stdout)["failures"] if out.stdout else []
    return out.returncode, {case_id for case_id, *_ in failures}


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
        named = sorted({t for *_, tests, _ in MUTANTS for t in tests})
        code, failed = failed_tests(Path(tmp), named)
        if code != 0:
            print(f"the named tests fail on the unchanged package (exit {code}): {sorted(failed)}")
            return 2
        for suite in sorted({case[0] for *_, case in MUTANTS if case}):
            code, failed = failed_cases(Path(tmp), suite)
            if code != 0:
                print(f"verify --suite {suite} fails on the unchanged package (exit {code}): {sorted(failed)}")
                return 2
        survivors = 0
        for name, old, new, breaks, tests, case in MUTANTS:
            path = copy / name
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: {old!r} occurs {text.count(old)} times, not once")
                return 2
            path.write_text(text.replace(old, new))
            checks = list(tests)
            try:
                _, failed = failed_tests(Path(tmp), tests)
                if case:
                    suite, case_id = case
                    checks.append(f"verify --suite {suite}: {case_id}")
                    if case_id in failed_cases(Path(tmp), suite)[1]:
                        failed.add(checks[-1])
            finally:
                path.write_text(text)
            passed = [t for t in checks if t not in failed]
            survivors += bool(passed)
            print(f"{'SURVIVED' if passed else 'caught'}: {name}: {breaks}"
                  + (f" (passes {', '.join(passed)})" if passed else ""))
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
