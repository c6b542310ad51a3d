"""The three benchmark workloads and the checks each operation runs.

An operation is one call into sievelab (or, for ``cli-cold``, one cold
command-line process).  Every operation carries a check against the
brute-force oracle in ``brute.py`` and a digest line of its exact output.
The seed only moves values inside strata of fixed cost, so the amount of
work does not depend on it.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import brute

#: factor tables for the in-process workloads: every size below fits
TABLE_LIMIT = 1_000_200

#: the limit-curve grid every workload's set-up builds
GRID = (30.0, 1e-4)

#: same absolute slack the package's own bound checks allow
TOL = 1e-9

SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import sievelab as S\n"
    f"tb = S.build_tables({TABLE_LIMIT})\n"
    "tb.liouville_table()\n"
    "tb.mobius_table()\n"
    f"S.build_grid{GRID}\n"
    "print(time.perf_counter() - t)\n"
)

CLI_IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import sievelab.cli\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass
class Op:
    """One operation: the call, its check and its digest line."""

    name: str
    tag: str
    call: Callable[[], object]
    check: Callable[[object], list[str]] = lambda result: []
    digest: Callable[[object], str] = lambda result: ""


@dataclass
class Context:
    """What the operations of one run share."""

    root: Path
    workdir: Path
    oracle: brute.Oracle
    env: dict
    tables: object = None
    grid: object = None


def in_process_setup(ctx: Context) -> None:
    """Tables and grid, as the set-up probe builds them."""
    import sievelab as S

    ctx.tables = S.build_tables(TABLE_LIMIT)
    ctx.tables.liouville_table()
    ctx.tables.mobius_table()
    ctx.grid = S.build_grid(*GRID)


def _frac(v) -> str:
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def _fail(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


# -- bounds-sweep ---------------------------------------------------------

_PRIMES_50K = [p for p in brute.primes_upto(51_000).tolist() if p >= 50_000]

#: (kind, parameter draw, level y, cut z, sieve primes in the remainder sum).
#: Every kind runs at the lower level; one kind of each count_Ad cost
#: (closed form, member scan, prefix table) runs again at the upper level.
#: The remainder sum walks all 2^k divisors, so it runs at 13 primes on the
#: lower level and once at 14, on the closed-form kind, for the scaling
#: pair.  The member scan overflows once the product of the sieve primes
#: passes 2^63, so square_plus_one stops at 12 primes and shifted_prime
#: takes N = 2q with q prime, which also fixes its sieve primes.
BOUNDS_STRATA = [
    ("interval", lambda r: {"x": r.randrange(0, 900_000), "y": 100_000}, 1e5, 60.0, 13),
    (
        "arithmetic_progression",
        lambda r: {"x": r.randrange(990_000, 1_000_000), "k": 7, "l": r.randrange(1, 7)},
        1e5, 60.0, 13,
    ),
    ("goldbach_product", lambda r: {"two_N": 2 * r.randrange(5_000, 5_500)}, 1e4, 30.0, 13),
    ("shifted_prime", lambda r: {"N": 2 * r.choice(_PRIMES_50K)}, 1e4, 30.0, 13),
    ("square_plus_one", lambda r: {"x": r.randrange(10_000, 11_000)}, 1e5, 60.0, 12),
    ("liouville_plus", lambda r: {"x": r.randrange(990_000, 1_000_000)}, 1e5, 60.0, 13),
    ("liouville_minus", lambda r: {"x": r.randrange(990_000, 1_000_000)}, 1e5, 60.0, 13),
    ("interval", lambda r: {"x": r.randrange(0, 100_000), "y": 900_000}, 1e6, 100.0, 14),
    ("goldbach_product", lambda r: {"two_N": 2 * r.randrange(5_000, 5_500)}, 1e5, 60.0, None),
    ("liouville_minus", lambda r: {"x": r.randrange(990_000, 1_000_000)}, 1e6, 100.0, None),
]


def _query_ops(ctx: Context, kind, params, y, z, n_primes) -> list[Op]:
    import sievelab as S

    oracle = ctx.oracle
    usable = brute.sieve_primes(kind, params, oracle.primes[oracle.primes < 1000])
    z_rem = float(usable[(n_primes or 1) - 1] + 1)
    q: dict = {}
    label = f"{kind}/y={y:g}"

    def exact(cut):
        if cut not in q:
            q[cut] = oracle.sifted(kind, params, cut)
        return q[cut]

    def make():
        q["p"] = S.make_problem(kind, dict(params), ctx.tables)
        return q["p"]

    def check_pair(pair):
        s = exact(z)
        return (
            _fail(pair.upper.exact_count == s, f"exact_count {pair.upper.exact_count} != {s}")
            + _fail(pair.lower.lower_bound <= s + TOL, f"lower {pair.lower.lower_bound!r} > {s}")
            + _fail(s <= pair.upper.upper_bound + TOL, f"upper {pair.upper.upper_bound!r} < {s}")
        )

    def check_quad(rep):
        s = exact(z)
        return _fail(rep.exact_count == s, f"exact_count {rep.exact_count} != {s}") + _fail(
            s <= rep.upper_bound + TOL, f"quadratic upper {rep.upper_bound!r} < {s}"
        )

    def check_w(mv):
        want = brute.euler_product(kind, params, usable[:n_primes])
        return _fail(
            abs(mv.W - float(want)) <= 1e-12 * float(want), f"W {mv.W!r} != {float(want)!r}"
        )

    def check_rem(rem):
        if "W" not in q:
            return ["problem_W failed"]
        gap = abs(exact(z_rem) - q["p"].X * q["W"].W)
        return _fail(gap <= rem + TOL, f"|S - X W| = {gap!r} > sum |R_d| = {rem!r}")

    def problem_w():
        q["W"] = S.problem_W(q["p"], z_rem)
        return q["W"]

    ops = [
        Op("make_problem", label, make, digest=lambda p: f"{kind} {sorted(params.items())}"),
        Op(
            "combinatorial_bounds", label,
            lambda: S.combinatorial_bounds(q["p"], y, z, with_exact=True),
            check_pair,
            lambda pr: f"{pr.upper.exact_count} {pr.lower.lower_bound!r} {pr.upper.upper_bound!r}",
        ),
        Op(
            "fundamental_upper_bound", label,
            lambda: S.fundamental_upper_bound(q["p"], y, z),
            check_quad,
            lambda rep: repr(rep.upper_bound),
        ),
        Op(
            "legendre_count", label,
            lambda: S.legendre_count(q["p"], z),
            lambda c: _fail(c == exact(z), f"legendre_count {c} != {exact(z)}"),
            str,
        ),
    ]
    if n_primes is None:
        return ops
    tag = f"{kind}/primes={n_primes}"
    return ops + [
        Op("problem_W", tag, problem_w, check_w, lambda mv: repr(mv.W)),
        Op(
            "legendre_remainder_sum", tag,
            lambda: S.legendre_remainder_sum(q["p"], z_rem),
            check_rem,
            repr,
        ),
    ]


def bounds_sweep_ops(ctx: Context, seed: int, batch: int) -> list[Op]:
    r = random.Random(f"bounds-sweep:{seed}")
    ops: list[Op] = []
    for kind, draw, y, z, n_primes in BOUNDS_STRATA:
        ops += _query_ops(ctx, kind, draw(r), y, z, n_primes)
    return ops


# -- weights-scan ---------------------------------------------------------

DENSITIES = {
    "ones": (lambda p: Fraction(1), "all"),
    "twin": (lambda p: Fraction(1) if p == 2 else Fraction(2), "all"),
    "quad": (
        lambda p: Fraction(1) if p == 2 else Fraction(2 if p % 4 == 1 else 0),
        "two_or_one_mod_four",
    ),
}

#: the sieve cut of every weight computation; fixed because the support,
#: and so the cost, moves with it
WEIGHTS_Z = 200.0
MU_PLUS_Z = 100.0
MU_PLUS_N = 10_000
BV_X = 1_000_000
#: enough brun_titchmarsh calls that the median operation falls well
#: inside their group of samples, not at its edge
BT_CALLS = 40


def _support(ctx: Context, w, xi: float, z: float) -> dict[int, list[int]]:
    """Squarefree l < xi from the primes below z with w(p) > 0, with factors."""
    ps = [p for p in ctx.oracle.primes[ctx.oracle.primes < z].tolist() if w(p) > 0]
    out = {}
    stack = [(0, 1, [])]
    while stack:
        i, d, facs = stack.pop()
        out[d] = facs
        for j in range(i, len(ps)):
            if d * ps[j] >= xi:
                break
            stack.append((j + 1, d * ps[j], facs + [ps[j]]))
    return out


def _lambda_ops(ctx: Context, dens: str, xi: float, z: float, tag: str, q: dict) -> list[Op]:
    import sievelab as S

    w, pset = DENSITIES[dens]

    def call():
        q["w"] = S.lambda_weights(
            xi, z, S.MultiplicativeDensity(w, dens), S.PrimeSet(pset), ctx.tables
        )
        return q["w"]

    def check_lambda(res):
        support = _support(ctx, w, xi, z)
        q["support"] = support
        q["G"] = sum((brute.g_value(f, w) for f in support.values()), Fraction(0))
        lam = res.lambdas
        return (
            _fail(set(lam) == set(support), "support differs from the squarefree l < xi")
            + _fail(all(isinstance(v, Fraction) for v in lam.values()), "weights not exact")
            + _fail(lam.get(1) == 1, f"lambda_1 = {lam.get(1)}")
            + _fail(all(abs(v) <= 1 for v in lam.values()), "some |lambda_d| > 1")
            + _fail(res.G == q["G"], "G differs from the sum of g(l)")
        )

    def check_y(ys):
        if "G" not in q:
            return ["lambda_weights check did not run"]
        bad = [
            l for l, f in q["support"].items()
            if ys.get(l) != (-1) ** len(f) * brute.g_value(f, w) / q["G"]
        ]
        return _fail(not bad, f"y_l != mu(l) g(l) / G at l = {bad[:5]}")

    return [
        Op(
            "lambda_weights", tag, call, check_lambda,
            lambda res: " ".join(f"{d}:{_frac(v)}" for d, v in sorted(res.lambdas.items())),
        ),
        Op("y_values", tag, lambda: S.y_values(q["w"]), check_y, lambda ys: str(len(ys))),
    ]


def _mu_plus_check(ctx: Context, z: float):
    def check(res):
        ps = ctx.oracle.primes[ctx.oracle.primes < z].tolist()
        sums = [Fraction(0)] * (MU_PLUS_N + 1)
        for d, v in res.values.items():
            for m in range(d, MU_PLUS_N + 1, d):
                sums[m] += v
        bad = [
            n for n in range(1, MU_PLUS_N + 1)
            if sums[n] < (1 if all(n % p for p in ps) else 0)
        ]
        return _fail(not bad, f"sum of mu+(d), d | n, below the indicator at n = {bad[:5]}")

    return check


def weights_scan_ops(ctx: Context, seed: int, batch: int) -> list[Op]:
    import sievelab as S

    r = random.Random(f"weights-scan:{seed}")
    ops: list[Op] = []
    for dens in DENSITIES:
        for base in (1000, 3000):
            xi = base + 5 * r.random()
            ops += _lambda_ops(ctx, dens, xi, WEIGHTS_Z, f"xi={base}", {})
    q: dict = {}
    ops += _lambda_ops(ctx, "ones", 200 + 2 * r.random(), MU_PLUS_Z, "xi=200", q)
    ops.append(
        Op(
            "mu_plus", "xi=200", lambda: S.mu_plus(q["w"]), _mu_plus_check(ctx, MU_PLUS_Z),
            lambda res: " ".join(f"{d}:{_frac(v)}" for d, v in sorted(res.values.items())),
        )
    )
    x = BV_X - r.randrange(0, 200)
    for q_max in (50, 100):
        ops.append(
            Op(
                "bv_scan", f"q={q_max}",
                lambda q_max=q_max: S.bv_scan(x, q_max, ctx.tables),
                lambda res, q_max=q_max: _fail(len(res.rows) == q_max, "row count")
                + _fail(res.total <= x / math.log(x), f"total {res.total!r} > x / log x"),
                lambda res: f"{res.total!r} " + " ".join(repr(e) for _, e in res.rows),
            )
        )
    for _ in range(BT_CALLS):
        k = r.randrange(3, 1000)
        l = r.choice([c for c in range(1, k) if math.gcd(c, k) == 1])
        ops.append(_bt_op(ctx, BV_X, k, l))
    return ops


def _bt_op(ctx: Context, x: int, k: int, l: int) -> Op:
    import sievelab as S

    def check(rep):
        want = ctx.oracle.primes_in_class(x, k, l)
        return (
            _fail(rep.exact == want, f"pi(x; {k}, {l}) = {rep.exact} != {want}")
            + _fail(rep.sieve_bound >= want, f"sieve bound {rep.sieve_bound!r} < {want}")
            + _fail(rep.asymptotic_bound >= want, f"asymptotic bound < {want}")
        )

    return Op(
        "brun_titchmarsh", "k<1000",
        lambda: S.brun_titchmarsh(x, k, l, ctx.tables),
        check,
        lambda rep: f"{k} {l} {rep.exact} {rep.sieve_bound!r} {rep.asymptotic_bound!r}",
    )


# -- cli-cold -------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    out: object
    stderr: str
    spans: dict | None = None


def run_cli(ctx: Context, argv: list[str], spans_path: Path | None) -> CliResult:
    """One cold process; under tracing it goes through ``cli_child.py``."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "sievelab.cli", *argv]
    else:
        child = ctx.root / "perfbench" / "cli_child.py"
        cmd = [sys.executable, str(child), str(spans_path), *argv]
    proc = subprocess.run(
        cmd, cwd=ctx.root, env=ctx.env, capture_output=True, text=True, timeout=170
    )
    try:
        out = json.loads(proc.stdout)
    except json.JSONDecodeError:
        out = None
    spans = None
    if spans_path is not None and spans_path.exists():
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
    return CliResult(proc.returncode, out, proc.stderr[-500:], spans)


def _strip_volatile(v):
    if isinstance(v, dict):
        return {k: _strip_volatile(x) for k, x in v.items() if k != "elapsed"}
    if isinstance(v, list):
        return [_strip_volatile(x) for x in v]
    return v


def _cli_digest(res: CliResult) -> str:
    return json.dumps(_strip_volatile(res.out), sort_keys=True)


def _cli_check(extra=None):
    def check(res: CliResult) -> list[str]:
        if res.code != 0:
            return [f"exit {res.code}: {res.stderr.strip()[-200:]}"]
        if res.out is None:
            return ["stdout is not JSON"]
        return extra(res.out) if extra else []

    return check


def cli_cold_ops(ctx: Context, seed: int, batch: int) -> list[Op]:
    r = random.Random(f"cli-cold:{seed}")
    oracle = ctx.oracle
    two_n = 10_000 + 2 * r.randrange(0, 50)
    x_sel = r.randrange(0, 1000)
    x_ros = r.randrange(0, 1000)
    n_w = 10_000 + 2 * r.randrange(0, 50)
    x_par = 1_000_000 - r.randrange(0, 1000)
    n_chen = 100_000 + 2 * r.randrange(0, 50)
    k = r.choice([97, 101, 103, 107, 109])
    l = r.randrange(1, k)
    cache = ctx.workdir / f"grid-{seed}-{batch}.csv"
    if cache.exists():
        cache.unlink()
    hold: dict = {}
    sifted = oracle.sifted

    def chk_legendre(out):
        s = sifted("goldbach_product", {"two_N": two_n}, 25.0)
        return _fail(out["exact_count"] == s, f"exact_count {out['exact_count']} != {s}")

    def chk_selberg(out):
        s = sifted("interval", {"x": x_sel, "y": 1_000_000}, 100.0)
        return _fail(out["exact_count"] == s, f"exact_count != {s}") + _fail(
            s <= out["upper_bound"] + TOL, "upper bound below the exact count"
        )

    def chk_rosser(z):
        def chk(out):
            s = sifted("interval", {"x": x_ros, "y": 100_000}, z(out))
            up, lo = out["upper"], out["lower"]
            return (
                _fail(up["exact_count"] == s, f"exact_count {up['exact_count']} != {s}")
                + _fail(lo["lower_bound"] <= s + TOL, "lower bound above the exact count")
                + _fail(s <= up["upper_bound"] + TOL, "upper bound below the exact count")
            )

        return chk

    def chk_cache_miss(out):
        hold["rows"] = out["rows"]
        return _fail(cache.exists(), "cache file not written")

    def chk_cache_hit(out):
        return _fail(out["rows"] == hold.get("rows"), "cached grid differs from the built one")

    def chk_bt(out):
        want = oracle.primes_in_class(1_000_000, k, l)
        return _fail(out["exact"] == want, f"exact {out['exact']} != {want}") + _fail(
            out["sieve_bound"] >= want, "sieve bound below the count"
        )

    def chk_scan(out):
        return _fail(len(out["rows"]) == 50, "row count") + _fail(
            out["total"] <= 1e6 / math.log(1e6), "total above x / log x"
        )

    def chk_verify(out):
        return _fail(out.get("passed") is True and not out.get("failures"), "suite failed")

    interval = ["--problem", "interval", "--len"]
    commands = [
        ("legendre", ["legendre", "--problem", "goldbach_product", "--two-n", str(two_n),
                      "--z", "25"], chk_legendre),
        ("selberg", ["selberg", *interval, "1000000", "--x", str(x_sel), "--y", "10000"],
         chk_selberg),
        ("rosser", ["rosser", *interval, "100000", "--x", str(x_ros), "--y", "1000",
                    "--z", "20"], chk_rosser(lambda out: 20.0)),
        ("rosser", ["rosser", *interval, "100000", "--x", str(x_ros),
                    "--level-exponent", "0.5"], chk_rosser(lambda out: out["upper"]["z"])),
        ("buchstab", ["buchstab", "--s-max", "20", "--step", "1e-4"],
         lambda out: _fail(len(out["rows"]) == 19, "row count")),
        ("buchstab-cache-miss", ["buchstab", "--s-max", "30", "--cache", str(cache)],
         chk_cache_miss),
        ("buchstab-cache-hit", ["buchstab", "--s-max", "30", "--cache", str(cache)],
         chk_cache_hit),
        ("weighted", ["weighted", "--r", "3", "--alpha", "0.1225", "--beta", "0.4725",
                      "--gamma-level", "0.49", "--n", str(n_w), "--problem", "shifted_prime"],
         None),
        ("parity", ["parity", "--x", str(x_par), "--s", "2.3,2.5,2.8"],
         lambda out: _fail(len(out) == 3, "row count")),
        ("chen", ["chen", "--n", str(n_chen)], None),
        ("brun-titchmarsh", ["brun-titchmarsh", "--x", "1000000", "--k", str(k),
                             "--l", str(l)], chk_bt),
        ("brun-titchmarsh-scan", ["brun-titchmarsh", "--x", "1000000", "--scan-q", "50"],
         chk_scan),
        ("verify", ["verify", "--suite", "all", "--seed", str(seed)], chk_verify),
    ]
    return [
        Op(
            name, "cli",
            lambda spans_path=None, argv=argv: run_cli(ctx, argv, spans_path),
            _cli_check(extra),
            _cli_digest,
        )
        for name, argv, extra in commands
    ]
