"""sievelab benchmark: three seeded workloads, checked against brute force.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bounds-sweep --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is the separate traced run: it runs one batch untraced and
one traced, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is the result object; the line before it
holds the details (digest, context, full per-function table).  See
perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

#: fresh processes timed per run for setup_s; the median is reported
SETUP_SAMPLES = 5

#: batches per 30 s of --seconds; the work is fixed, so a faster program
#: finishes sooner.  One batch takes about 9.2 s, 4.7 s and 11.3 s of
#: program time at this commit on a 2-core Xeon with Python 3.11.  cli-cold
#: gets three batches so its tail percentile falls inside one operation's
#: group of samples rather than between two.
BATCHES_PER_30S = {"bounds-sweep": 2, "weights-scan": 4, "cli-cold": 3}

#: modules each workload must reach; a layer it should reach but does not
#: is reported as absent, never as zero
EXPECTED = {
    "bounds-sweep": ("arith", "problem", "legendre", "rosser", "selberg", "buchstab"),
    "weights-scan": ("arith", "problem", "selberg", "harness", "buchstab"),
    "cli-cold": (
        "arith", "problem", "legendre", "selberg", "rosser", "buchstab",
        "parity", "weighted", "harness", "cli",
    ),
}

#: per-layer metrics of the result line; every workload reaches all of them
LAYER_METRICS = (
    ("arith.build_tables.s", "s"),
    ("arith.liouville_table.s", "s"),
    ("arith.mobius_table.s", "s"),
    ("buchstab.build_grid.s", "s"),
    ("problem.make_problem.s", "s"),
    ("problem.remainder.calls", "count"),
    ("problem.remainder.self_s", "s"),
    ("selberg.fundamental_upper_bound.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

#: (operation, tag of the small size, tag of the large size)
SCALING_PAIRS = (
    ("lambda_weights", "xi=1000", "xi=3000"),
    ("bv_scan", "q=50", "q=100"),
    ("legendre_remainder_sum", "interval/primes=13", "interval/primes=14"),
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BATCHES_PER_30S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    return args


def context_facts() -> dict:
    """Facts about the machine and the code measured; not gated."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sources = sorted((ROOT / "src" / "sievelab").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def timed_child(code: str, env: dict) -> float:
    """Run a fresh interpreter on ``code``; it prints its own elapsed time."""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_batch(wl: str, ctx, seed: int, batch: int, tracer=None, spans_dir=None) -> dict:
    """Run one batch: time each operation, then check it and digest it."""
    import workloads as W

    make_ops = {
        "bounds-sweep": W.bounds_sweep_ops,
        "weights-scan": W.weights_scan_ops,
        "cli-cold": W.cli_cold_ops,
    }[wl]
    ops = make_ops(ctx, seed, batch)
    gc.collect()
    times, failures, lines, exports = [], [], [], []
    for i, op in enumerate(ops):
        if wl == "cli-cold":
            spans = None if spans_dir is None else spans_dir / f"op{batch}-{i}.json"
            call = lambda op=op, spans=spans: op.call(spans)  # noqa: E731
        else:
            call = op.call
        error = None
        start = time.perf_counter()
        try:
            result = tracer.run_op(i, op.name, call) if tracer else call()
        except Exception as exc:  # an operation that raises is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        times.append((op.name, op.tag, elapsed))
        if error is None:
            try:
                problems = op.check(result)
                line = op.digest(result)
            except Exception as exc:  # a check that cannot read the result fails it
                problems, line = [f"check raised {type(exc).__name__}: {exc}"], "error"
            if wl == "cli-cold" and result.spans is not None:
                exports.append(result.spans)
        else:
            problems, line = [error], "error"
        if problems:
            failures.append(f"{op.name} [{op.tag}] op {i}: {'; '.join(problems)}")
        lines.append(f"{op.name} {op.tag} {line}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {
        "times": times,
        "failures": failures,
        "digest": digest,
        "exports": exports,
    }


def op_medians(batches: list[dict]) -> list[float]:
    """Each operation's median time over the batches, in batch order."""
    per_op = zip(*([t for _, _, t in b["times"]] for b in batches))
    return [statistics.median(ts) for ts in per_op]


def batch_wall(batches: list[dict]) -> float:
    """One batch's time, each operation taken at its median over the batches."""
    return sum(op_medians(batches))


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(1, math.floor(100 * (1 - 10 / n)))


def quantile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(wl: str, batches: list[dict], setup: list[float]) -> tuple[dict, dict]:
    op_times = [t for b in batches for _, _, t in b["times"]]
    n = len(op_times)
    pct = tail_percentile(n)
    who = resource.RUSAGE_CHILDREN if wl == "cli-cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (batch_wall(batches), "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "op_tail_s": (quantile(op_times, pct), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    failed = sum(len(b["failures"]) for b in batches)
    extra = {
        "failed_frac": {"value": failed / n, "unit": "1"},
        "op_tail_s": {"percentile": pct, "n": n},
        "setup_s": {"samples": setup},
        "batch_wall_s": [batch_wall([b]) for b in batches],
        "op_median_s": [
            [name, tag, t] for (name, tag, _), t in zip(batches[0]["times"], op_medians(batches))
        ],
    }
    if wl == "cli-cold":
        verify = [t for b in batches for name, _, t in b["times"] if name == "verify"]
        extra["verify_s"] = {"value": statistics.median(verify), "unit": "s", "n": len(verify)}
    return metrics, extra


def per_layer(wl: str, summary, untraced: dict, traced: dict) -> tuple[dict, dict]:
    """Result-line layer metrics plus the full per-function table."""
    funcs = summary.functions()
    flat: dict[str, float] = {}
    for name, row in funcs.items():
        for key, value in row.items():
            flat[f"{name}.{key}"] = value
    reached = set(summary.modules())
    absent = [m for m in EXPECTED[wl] if m not in reached]
    detail: dict = {"functions": funcs, "modules": summary.modules(), "absent": absent}

    zero = summary.probe_values.get("problem.remainder.zero", [])
    if zero:
        detail["problem.remainder.zero_frac"] = sum(zero) / len(zero)
        inside = [
            v for v, parent in zip(zero, summary.probe_parents["problem.remainder.zero"])
            if parent == "legendre.legendre_remainder_sum"
        ]
        if inside:
            detail["problem.remainder.zero_frac_in_legendre_remainder_sum"] = (
                sum(inside) / len(inside)
            )
    support = summary.probe_values.get("selberg.lambda_weights.support")
    if support:
        detail["selberg.lambda_weights.support_max"] = max(support)
    build = funcs.get("buchstab.build_grid[s_max=30]")
    load = funcs.get("buchstab.load_grid")
    if build and load:
        detail["buchstab.cache_speedup"] = {
            "value": (build["s"] / build["calls"]) / (load["s"] / load["calls"]),
            "base": "mean build_grid(30, 1e-4) s / mean load_grid s",
        }
    suites = {
        name.split("[", 1)[1].rstrip("]"): row["s"]
        for name, row in funcs.items()
        if name.startswith("harness.run_suite[")
    }
    if suites:
        detail["harness.run_suite.s"] = suites
    imports = [e["import_s"] for e in traced["exports"] if "import_s" in e]
    if imports:
        detail["cli.import_s"] = {"median": statistics.median(imports), "n": len(imports)}
    scaling = {}
    for op, small, large in SCALING_PAIRS:
        a, b = op_mean(traced, op, small), op_mean(traced, op, large)
        if a and b:
            scaling[op] = {small: a, large: b, "ratio": b / a}
    if scaling:
        detail["scaling"] = scaling
    overhead = batch_wall([traced]) - batch_wall([untraced])
    detail["overhead"] = {
        "traced_wall_s": batch_wall([traced]),
        "untraced_wall_s": batch_wall([untraced]),
        "overhead_s": overhead,
    }
    flat["trace.spans"] = summary.spans
    flat["trace.overhead_s"] = overhead
    metrics = {name: (flat[name], unit) for name, unit in LAYER_METRICS if name in flat}
    return metrics, detail


def op_mean(batch: dict, name: str, tag: str) -> float | None:
    """Mean time of a batch's operations with this name and tag."""
    times = [t for op, op_tag, t in batch["times"] if op == name and op_tag == tag]
    return statistics.mean(times) if times else None


def main() -> None:
    args = parse_args()
    if not (ROOT / "src" / "sievelab" / "__init__.py").is_file():
        fail(f"no sievelab sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    import brute
    import workloads as W

    wl = args.workload
    workdir = BENCH / "_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = W.Context(root=ROOT, workdir=workdir, oracle=brute.Oracle(W.TABLE_LIMIT), env=env)
    try:
        facts = context_facts()
        probe = W.CLI_IMPORT_CODE if wl == "cli-cold" else W.SETUP_CODE
        timed_child(probe, env)  # warm-up: fills the bytecode cache
        if wl != "cli-cold":
            W.in_process_setup(ctx)
        if args.trace == 0:
            setup = [timed_child(probe, env) for _ in range(SETUP_SAMPLES)]
            reps = max(1, round(BATCHES_PER_30S[wl] * args.seconds / 30))
            batches = [run_batch(wl, ctx, args.seed, b) for b in range(reps)]
            metrics, extra = end_to_end(wl, batches, setup)
        else:
            import tracing

            warm = run_batch(wl, ctx, args.seed, 0)  # so both timed batches start warm
            untraced = run_batch(wl, ctx, args.seed, 1)
            if wl == "cli-cold":
                traced = run_batch(wl, ctx, args.seed, 2, spans_dir=workdir)
                exports = traced["exports"]
            else:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    tracer.run_op(-1, "setup", lambda: W.in_process_setup(ctx))
                    traced = run_batch(wl, ctx, args.seed, 2, tracer)
                finally:
                    tracer.uninstall()
                exports = [tracer.export()]
            summary = tracing.Summary()
            for export in exports:
                summary.add(export)
            out_dir = BENCH / "_out"
            tracing.write_spans(out_dir / f"spans-{wl}-seed{args.seed}.json.gz", exports)
            batches = [warm, untraced, traced]
            metrics, extra = per_layer(wl, summary, untraced, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = sorted({b["digest"] for b in batches})
    failures = [f for b in batches for f in b["failures"]]
    if len(digests) > 1:
        failures.append("batches of one seed gave different outputs")
    attempted = sum(len(b["times"]) for b in batches)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    detail = {
        "workload": wl,
        "seed": args.seed,
        "trace": args.trace,
        "digest": digests[0],
        "context": facts,
        "details": extra,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
