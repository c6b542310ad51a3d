"""Command-line front end for the sieve toolkit.

Subcommands pick a problem, run one bound or report, and emit it as an
aligned table, JSON with fixed field names, or bare CSV.  `verify` runs
the cross-module suites and exits nonzero when any case fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction

from .arith import PrimeTables, build_tables
from .buchstab import build_grid, evaluate, grid_cached
from .errors import CapacityError, DensityRangeError, InputError, ZeroDensityError
from .harness import SUITES, bv_scan, run_suite
from .legendre import legendre_count, legendre_remainder_sum, problem_W
from .parity import prediction_row
from .problem import ALL_KINDS, KINDS, make_problem
from .rosser import combinatorial_bounds
from .selberg import SieveReport, brun_titchmarsh, fundamental_upper_bound
from .weighted import (
    WeightedConfig,
    W_exact,
    chen_report,
    lambda_r,
    level_condition,
    pr_count,
    repeated_window_factor_count,
)

MAX_CLI_TABLES = 20_000_200

#: the problem parameters whose flag is spelled differently
_PARAM_FLAG = {"y": "len", "two_N": "two-n", "N": "n"}


def _num(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return f"{float(v):.12g}"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, (float, Fraction)):
        x = float(v)
        return f"{x:.12g}" if math.isfinite(x) else "null"
    if isinstance(v, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_json_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    return json.dumps(str(v))


def _csv_cell(v) -> str:
    return _num(v).replace(",", ";")


def _table_text(rows: list[dict]) -> str:
    if not rows:
        return ""
    cols = list(rows[0])
    cells = [[_num(r.get(c)) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _csv_text(rows: list[dict]) -> str:
    if not rows:
        return ""
    cols = list(rows[0])
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_csv_cell(r.get(c)) for c in cols))
    return "\n".join(lines)


def emit_report(report, fmt: str) -> str:
    """Serialize a report dict (or list of row dicts) in the chosen format."""
    if fmt == "json":
        return _json_value(report)
    rows = report if isinstance(report, list) else [report]
    if fmt == "csv":
        return _csv_text(rows)
    return _table_text(rows)


#: the fields of a sieve report, in output order
_SIEVE_FIELDS = (
    "problem", "z", "y", "s", "X", "main_term", "remainder_bound", "upper_bound",
    "lower_bound", "exact_count", "ratio", "notes",
)


def _sieve_dict(rep: SieveReport) -> dict:
    return {name: getattr(rep, name) for name in _SIEVE_FIELDS}


def _require(args: argparse.Namespace, **named) -> list:
    vals = []
    for name, v in named.items():
        if v is None:
            raise InputError(f"{args.command} needs --{name.replace('_', '-')}")
        vals.append(v)
    return vals


def _problem_params(args: argparse.Namespace) -> tuple[str, dict]:
    kind = args.problem
    if kind is None:
        raise InputError(f"{args.command} needs --problem (one of {', '.join(ALL_KINDS)})")
    names = KINDS[kind][0]
    dests = [_PARAM_FLAG.get(name, name).replace("-", "_") for name in names]
    values = _require(args, **{dest: getattr(args, dest) for dest in dests})
    return kind, {name: int(v) for name, v in zip(names, values)}


def _tables_for(args: argparse.Namespace, extra: int = 0) -> PrimeTables:
    need = max(10_000, extra)
    for v in (getattr(args, "z", None), getattr(args, "y", None)):
        if v is not None:
            need = max(need, int(v) + 1)
    if getattr(args, "problem", None) is not None:
        kind, params = _problem_params(args)
        size = KINDS[kind][1]
        if size is not None:
            need = max(need, params[size] + 1)
    if need > MAX_CLI_TABLES:
        raise InputError(
            f"parameters need factor tables to {need}; the command line caps"
            f" them at {MAX_CLI_TABLES}"
        )
    return build_tables(need + 200)


def _make_problem(args: argparse.Namespace, tables: PrimeTables):
    return make_problem(*_problem_params(args), tables)


def _cmd_legendre(args: argparse.Namespace) -> tuple[str, int]:
    (z,) = _require(args, z=args.z)
    t = _tables_for(args)
    p = _make_problem(args, t)
    count = legendre_count(p, z)
    mv = problem_W(p, z)
    main = p.X * mv.W
    try:
        rem = legendre_remainder_sum(p, z)
    except (CapacityError, InputError):
        rem = None
    rep = SieveReport(
        problem=p.label, X=p.X, z=z, main_term=main, remainder_bound=rem,
        exact_count=count, ratio=count / main if main > 0 else None,
        notes="exact inclusion-exclusion count; ratio = exact / (X W)",
    )
    return emit_report(_sieve_dict(rep), args.format), 0


def _cmd_selberg(args: argparse.Namespace) -> tuple[str, int]:
    (y,) = _require(args, y=args.y)
    z = args.z if args.z is not None else math.sqrt(y)
    t = _tables_for(args)
    p = _make_problem(args, t)
    rep = fundamental_upper_bound(p, y, z, with_exact=not args.skip_exact)
    return emit_report(_sieve_dict(rep), args.format), 0


def _cmd_rosser(args: argparse.Namespace) -> tuple[str, int]:
    t = _tables_for(args)
    p = _make_problem(args, t)
    y = args.y
    if y is None:
        base = max(p.X, 3.0)
        try:
            y = base**args.level_exponent * math.log(base) ** args.log_power
        except OverflowError:
            y = math.inf
        if math.isinf(y):
            raise InputError("--level-exponent and --log-power overflow the level y")
    z = args.z if args.z is not None else math.sqrt(y)
    if z > t.limit:  # a cut derived from X can outgrow the tables the parameters need
        t = _tables_for(args, extra=math.ceil(z))
        p = _make_problem(args, t)
    pair = combinatorial_bounds(p, y, z, with_exact=not args.skip_exact)
    up = _sieve_dict(pair.upper)
    lo = _sieve_dict(pair.lower)
    if args.format == "json":
        return emit_report({"upper": up, "lower": lo}, "json"), 0
    rows = [{"side": side, **d} for side, d in (("upper", up), ("lower", lo))]
    return emit_report(rows, args.format), 0


def _cmd_buchstab(args: argparse.Namespace) -> tuple[str, int]:
    grid = grid_cached(args.s_max, args.step, args.cache or None)
    if args.format == "csv":
        cols = (grid.s[1:].tolist(), grid.F_values[1:].tolist(), grid.f_values[1:].tolist())
        return "\n".join(["s,F,f", *(f"{s:.12g},{F:.12g},{f:.12g}" for s, F, f in zip(*cols))]), 0
    rows = [
        {"s": float(s), "F": evaluate(grid, float(s), "F"), "f": evaluate(grid, float(s), "f")}
        for s in range(2, int(grid.s_max) + 1)
    ]
    if args.format == "json":
        out = {"s_max": grid.s_max, "step": grid.step, "join_error": grid.join_error, "rows": rows}
        return emit_report(out, "json"), 0
    return emit_report(rows, args.format), 0


def _cmd_weighted(args: argparse.Namespace) -> tuple[str, int]:
    (r,) = _require(args, r=args.r)
    out: dict = {"r": r, "threshold": lambda_r(r)}
    have_geometry = None not in (args.alpha, args.beta, args.gamma_level)
    if have_geometry:
        (n,) = _require(args, n=args.n)
        wc = WeightedConfig(N=int(n), r=r, alpha=args.alpha, beta=args.beta,
                            gamma_level=args.gamma_level)
        mi, mc = level_condition(wc, build_grid(30.0, 1e-4))
        out.update(alpha=wc.alpha, beta=wc.beta, gamma_level=wc.gamma_level,
                   margin_integral=mi, margin_closed=mc)
        if args.problem is not None:
            t = _tables_for(args, extra=wc.N)
            p = _make_problem(args, t)
            out["weighted_sum"] = W_exact(p, wc)
            out["almost_prime_count"] = pr_count(p, r, wc.alpha, N=wc.N)
            out["square_factor_correction"] = repeated_window_factor_count(p, wc)
    return emit_report(out, args.format), 0


def _cmd_parity(args: argparse.Namespace) -> tuple[str, int]:
    (x,) = _require(args, x=args.x)
    if not args.s:
        raise InputError("parity needs --s (comma-separated list)")
    t = _tables_for(args, extra=int(x))
    grid = build_grid(30.0, 1e-4)
    rows = []
    for s in args.s:
        row = prediction_row(int(x), s, grid, t)
        rows.append(
            {
                "x": row.x,
                "s": row.s,
                "S+": row.exact_plus,
                "predict+": row.predict_plus,
                "S-": row.exact_minus,
                "predict-": row.predict_minus,
            }
        )
    return emit_report(rows, args.format), 0


def _cmd_chen(args: argparse.Namespace) -> tuple[str, int]:
    (n,) = _require(args, n=args.n)
    t = _tables_for(args, extra=int(n))
    return emit_report(asdict(chen_report(int(n), t)), args.format), 0


def _cmd_brun_titchmarsh(args: argparse.Namespace) -> tuple[str, int]:
    (x,) = _require(args, x=args.x)
    t = _tables_for(args, extra=max(int(x), args.scan_q or 0) + 1)
    if args.scan_q is not None:
        scan = bv_scan(int(x), args.scan_q, t)
        rows = [{"k": k, "E1": e} for k, e in scan.rows]
        if args.format == "json":
            out = {"x": scan.x, "q_max": scan.q_max, "rows": rows, "total": scan.total}
            return emit_report(out, "json"), 0
        text = emit_report(rows, args.format)
        if args.format == "table":
            text += f"\ntotal  {scan.total:.12g}"
        return text, 0
    k, l = _require(args, k=args.k, l=args.l)
    return emit_report(asdict(brun_titchmarsh(int(x), k, l, t)), args.format), 0


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    results = [run_suite(args.suite, args.seed)]
    if args.extended and args.suite == "all":
        results.append(run_suite("extended", args.seed))
    passed = all(r.passed for r in results)
    if args.format == "json":
        out = [
            {
                "suite": r.name,
                "cases": r.cases,
                "failures": [list(f) for f in r.failures],
                "elapsed": r.elapsed,
                "passed": r.passed,
            }
            for r in results
        ]
        return emit_report(out if len(out) > 1 else out[0], "json"), 0 if passed else 1
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.name}: {status} ({r.cases} cases, {len(r.failures)} failures,"
            f" {r.elapsed:.2f}s)"
        )
        for cid, rel, obs in r.failures:
            lines.append(f"  {cid} | expected {rel} | got {obs}")
    return "\n".join(lines), 0 if passed else 1


_COMMANDS = {
    "legendre": _cmd_legendre,
    "selberg": _cmd_selberg,
    "rosser": _cmd_rosser,
    "buchstab": _cmd_buchstab,
    "weighted": _cmd_weighted,
    "parity": _cmd_parity,
    "chen": _cmd_chen,
    "brun-titchmarsh": _cmd_brun_titchmarsh,
    "verify": _cmd_verify,
}


def _float_list(text: str) -> tuple[float, ...]:
    """The comma-separated numbers of --s."""
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and the subcommand parsers by name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="json")
    common.add_argument("--config", default=None, help="JSON file of flag defaults")
    common.add_argument("--seed", type=int, default=0)

    prob = argparse.ArgumentParser(add_help=False)
    prob.add_argument("--problem", choices=ALL_KINDS, default=None)
    prob.add_argument("--x", type=float, default=None)
    prob.add_argument("--len", type=float, default=None, metavar="LENGTH")
    prob.add_argument("--k", type=int, default=None)
    prob.add_argument("--l", type=int, default=None)
    prob.add_argument("--two-n", type=float, default=None)
    prob.add_argument("--n", type=float, default=None, metavar="N_VALUE")

    parser = argparse.ArgumentParser(
        prog="sievelab", description="sieve bounds, extremal sequences, reports"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("legendre", parents=[common, prob])
    sp.add_argument("--z", type=float, default=None)

    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--y", type=float, default=None)
    level.add_argument("--z", type=float, default=None)
    level.add_argument("--skip-exact", action="store_true")

    sub.add_parser("selberg", parents=[common, prob, level])

    sp = sub.add_parser("rosser", parents=[common, prob, level])
    sp.add_argument("--level-exponent", type=float, default=0.5)
    sp.add_argument("--log-power", type=float, default=0.0)

    sp = sub.add_parser("buchstab", parents=[common])
    sp.add_argument("--s-max", type=float, default=30.0)
    sp.add_argument("--step", type=float, default=1e-4)
    sp.add_argument("--cache", default=None, help="export the grid to this CSV (never read)")

    sp = sub.add_parser("weighted", parents=[common, prob])
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--gamma-level", type=float, default=None)

    sp = sub.add_parser("parity", parents=[common])
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--s", type=_float_list, default=None,
                    help="comma-separated list of s values")

    sp = sub.add_parser("chen", parents=[common])
    sp.add_argument("--n", type=float, default=None, metavar="N_VALUE")

    sp = sub.add_parser("brun-titchmarsh", parents=[common])
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--l", type=int, default=None)
    sp.add_argument("--scan-q", type=int, default=None)

    sp = sub.add_parser("verify", parents=[common])
    sp.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"])
    sp.add_argument("--extended", action="store_true")
    return parser, sub.choices


def _config_flags(args: argparse.Namespace, options: dict) -> list[str]:
    """The --config file as flags: each key names a flag of the subcommand
    ('_' may stand for '-'); true gives the bare flag, false and null none."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InputError(f"config {args.config}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"config {args.config} must hold a JSON object")
    flags = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        if flag not in options:
            raise InputError(f"config key {key!r} is not a flag of {args.command}")
        if value is True:
            flags.append(flag)
        elif value is not False and value is not None:
            flags.append(f"{flag}={value}")
    return flags


def _check_domain(args: argparse.Namespace) -> None:
    """Reject non-finite numbers, and a sieve level y or cut z at or below 1."""
    for name, v in vars(args).items():
        flag = "--" + name.replace("_", "-")
        for u in v if isinstance(v, tuple) else (v,):
            if isinstance(u, float) and not math.isfinite(u):
                raise InputError(f"{flag} must be a finite number, got {u}")
        if name in ("y", "z") and v is not None and v <= 1:
            raise InputError(f"{flag} must be > 1, got {v}")


def parse_and_dispatch(argv=None) -> int:
    parser, subcommands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:  # its flags go first, so the command line's own win
            at = argv.index(args.command) + 1
            options = subcommands[args.command]._option_string_actions
            args = parser.parse_args(argv[:at] + _config_flags(args, options) + argv[at:])
        _check_domain(args)
        text, code = _COMMANDS[args.command](args)
        if text:
            print(text)
        return code
    except SystemExit as exc:  # argparse: 0 after --help, else a usage error
        return 0 if exc.code == 0 else 2
    except BrokenPipeError:
        return 0
    except (InputError, CapacityError, DensityRangeError, ZeroDensityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return parse_and_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
