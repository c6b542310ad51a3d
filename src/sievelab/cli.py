"""Command-line front end for the sieve toolkit.

Subcommands pick a problem, run one bound or report, and emit it as an
aligned table, JSON with fixed field names, or bare CSV.  `verify` runs
the cross-module suites and exits nonzero when any case fails.

The top level imports only the standard library and ``errors``; each
command imports the modules it runs, so a cold command loads no others.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import CapacityError, DensityRangeError, InputError, finite, integer, within

if TYPE_CHECKING:
    from .arith import PrimeTables
    from .problem import SieveProblem, SieveReport

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
    if v is None or isinstance(v, float) and not math.isfinite(v):
        return "null"
    if isinstance(v, (int, float, Fraction)):  # bool is an int
        return _num(v)
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
    from .problem import ALL_KINDS, KINDS

    kind = args.problem
    if kind is None:
        raise InputError(f"{args.command} needs --problem (one of {', '.join(ALL_KINDS)})")
    names = KINDS[kind][0]
    dests = [_PARAM_FLAG.get(name, name).replace("-", "_") for name in names]
    values = _require(args, **{dest: getattr(args, dest) for dest in dests})
    return kind, dict(zip(names, values))


def _tables(*needs: float) -> PrimeTables:
    """A command's one table build, reaching the largest of its needs.

    The needs are z + 1 for a cut z (so every prime below z is listed), the
    problem kind's own need, and whatever the command itself factors or
    counts.  The level y is never factored, so it is not a need.
    """
    from .arith import build_tables

    need = max(10_000, *needs)
    return build_tables(within(int(need) + 200, MAX_CLI_TABLES, "command-line factor tables"))


def _problem(args: argparse.Namespace, z: float, factored: bool = False) -> SieveProblem:
    """The command's problem, on tables for the cut z, the kind's need and,
    when the command factors the members, the largest member."""
    from .problem import kind_shape, make_problem

    kind, params = _problem_params(args)
    shape = kind_shape(kind, params)
    t = _tables(finite(z, "cut z") + 1, shape.need, shape.n_bound if factored else 0)
    return make_problem(kind, params, t)


def _cmd_legendre(args: argparse.Namespace) -> tuple[str, int]:
    from .legendre import legendre_count, legendre_remainder_sum, problem_W
    from .problem import SieveReport

    (z,) = _require(args, z=args.z)
    p = _problem(args, z)
    count = legendre_count(p, z)
    mv = problem_W(p, z)
    main = p.X * mv.W
    rem = legendre_remainder_sum(p, z)
    rep = SieveReport(
        problem=p.label, X=p.X, z=z, main_term=main, remainder_bound=rem,
        exact_count=count, ratio=count / main if main > 0 else None,
        notes="exact inclusion-exclusion count; ratio = exact / (X W)",
    )
    return emit_report(_sieve_dict(rep), args.format), 0


def _cmd_selberg(args: argparse.Namespace) -> tuple[str, int]:
    from .selberg import fundamental_upper_bound

    (y,) = _require(args, y=args.y)
    z = args.z if args.z is not None else math.sqrt(finite(y, "level y", above=1))
    p = _problem(args, z)
    rep = fundamental_upper_bound(p, y, z, with_exact=not args.skip_exact)
    return emit_report(_sieve_dict(rep), args.format), 0


def _cmd_rosser(args: argparse.Namespace) -> tuple[str, int]:
    from .problem import kind_shape
    from .rosser import combinatorial_bounds

    y = args.y
    if y is None:
        base = max(kind_shape(*_problem_params(args)).X, 3.0)
        try:
            y = base**args.level_exponent * math.log(base) ** args.log_power
        except OverflowError:  # refused below as a level that is not finite
            y = math.inf
    z = args.z if args.z is not None else math.sqrt(finite(y, "level y", above=1))
    p = _problem(args, z)
    pair = combinatorial_bounds(p, y, z, with_exact=not args.skip_exact)
    up = _sieve_dict(pair.upper)
    lo = _sieve_dict(pair.lower)
    if args.format == "json":
        return emit_report({"upper": up, "lower": lo}, "json"), 0
    rows = [{"side": side, **d} for side, d in (("upper", up), ("lower", lo))]
    return emit_report(rows, args.format), 0


def _cmd_buchstab(args: argparse.Namespace) -> tuple[str, int]:
    from .buchstab import MAX_GRID_CELLS, evaluate, grid_cached, write_csv

    grid = grid_cached(args.s_max, args.step, args.cache or None)
    if args.format == "csv":  # streamed: only one chunk of rows is held as text
        write_csv(grid, sys.stdout, digits=12)
        return "", 0
    within(round(grid.s_max) - 1, MAX_GRID_CELLS, "rows s_max - 1")
    rows = [
        {"s": float(s), "F": evaluate(float(s), "F"), "f": evaluate(float(s), "f")}
        for s in range(2, int(args.s_max) + 1)
    ]
    if args.format == "json":
        out = {"s_max": args.s_max, "step": grid.step, "join_error": grid.join_error, "rows": rows}
        return emit_report(out, "json"), 0
    return emit_report(rows, args.format), 0


def _cmd_weighted(args: argparse.Namespace) -> tuple[str, int]:
    from .weighted import (
        WeightedConfig,
        W_exact,
        lambda_r,
        level_condition,
        pr_count,
        presieve_cut,
        repeated_window_factor_count,
    )

    (r,) = _require(args, r=args.r)
    out: dict = {"r": r, "threshold": lambda_r(r)}
    have_geometry = None not in (args.alpha, args.beta, args.gamma_level)
    if have_geometry:
        (n,) = _require(args, n=args.n)
        wc = WeightedConfig(N=n, r=r, alpha=args.alpha, beta=args.beta,
                            gamma_level=args.gamma_level)
        mi, mc = level_condition(wc)
        out.update(alpha=wc.alpha, beta=wc.beta, gamma_level=wc.gamma_level,
                   margin_integral=mi, margin_closed=mc)
        if args.problem is not None:
            p = _problem(args, presieve_cut(wc.N, wc.alpha), factored=True)
            out["weighted_sum"] = W_exact(p, wc)
            out["almost_prime_count"] = pr_count(p, r, wc.alpha, N=wc.N)
            out["square_factor_correction"] = repeated_window_factor_count(p, wc)
    return emit_report(out, args.format), 0


def _cmd_parity(args: argparse.Namespace) -> tuple[str, int]:
    from .parity import prediction_row

    (x,) = _require(args, x=args.x)
    if not args.s:
        raise InputError("parity needs --s (comma-separated list)")
    t = _tables(integer(x, "x"))
    rows = []
    for s in args.s:
        row = prediction_row(x, s, t)
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
    from .weighted import chen_report

    (n,) = _require(args, n=args.n)
    t = _tables(integer(n, "N"))
    return emit_report(asdict(chen_report(n, t)), args.format), 0


def _cmd_brun_titchmarsh(args: argparse.Namespace) -> tuple[str, int]:
    (x,) = _require(args, x=args.x)
    q = args.scan_q
    t = _tables(integer(x, "x") + 1, 0 if q is None else integer(q, "q_max") + 1)
    if q is not None:
        from .arith import bv_scan

        scan = bv_scan(x, q, t)
        rows = [{"k": k, "E1": e} for k, e in scan.rows]
        if args.format == "json":
            out = {"x": scan.x, "q_max": scan.q_max, "rows": rows, "total": scan.total}
            return emit_report(out, "json"), 0
        text = emit_report(rows, args.format)
        if args.format == "table":
            text += f"\ntotal  {scan.total:.12g}"
        return text, 0
    from .selberg import brun_titchmarsh

    k, l = _require(args, k=args.k, l=args.l)
    return emit_report(asdict(brun_titchmarsh(x, k, l, t)), args.format), 0


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    from .harness import run_suite  # the suites load every module; no other command needs them

    r = run_suite(args.suite, args.seed)
    code = 0 if r.passed else 1
    if args.format == "json":
        out = {
            "suite": r.name,
            "cases": r.cases,
            "failures": [list(f) for f in r.failures],
            "elapsed": r.elapsed,
            "passed": r.passed,
        }
        return emit_report(out, "json"), code
    status = "pass" if r.passed else "FAIL"
    lines = [f"{r.name}: {status} ({r.cases} cases, {len(r.failures)} failures, {r.elapsed:.2f}s)"]
    lines += [f"  {cid} | expected {rel} | got {obs}" for cid, rel, obs in r.failures]
    return "\n".join(lines), code


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
    from .problem import ALL_KINDS  # argparse reads the choices as the flag is added

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="json")
    common.add_argument("--config", default=None, help="JSON file of flag defaults")

    prob = argparse.ArgumentParser(add_help=False)
    prob.add_argument("--problem", choices=ALL_KINDS, default=None)
    prob.add_argument("--x", type=float, default=None)
    prob.add_argument("--len", type=float, default=None, metavar="LENGTH")
    prob.add_argument("--k", type=float, default=None)
    prob.add_argument("--l", type=float, default=None)
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
    sp.add_argument("--step", type=float, default=1e-4, help="spacing of the exported s rows")
    sp.add_argument("--cache", default=None, help="export F and f to this CSV (never read)")

    sp = sub.add_parser("weighted", parents=[common, prob])
    sp.add_argument("--r", type=float, default=None)
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
    sp.add_argument("--k", type=float, default=None)
    sp.add_argument("--l", type=float, default=None)
    sp.add_argument("--scan-q", type=float, default=None)

    sp = sub.add_parser("verify", parents=[common])
    sp.add_argument("--suite", default="all")
    sp.add_argument("--seed", type=int, default=0)
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


def main(argv=None) -> int:
    """Run one command line; the exit code is 0, 1 (a failed verification) or 2 (an error)."""
    parser, subcommands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:  # its flags go first, so the command line's own win
            at = argv.index(args.command) + 1
            options = subcommands[args.command]._option_string_actions
            args = parser.parse_args(argv[:at] + _config_flags(args, options) + argv[at:])
        text, code = _COMMANDS[args.command](args)
        if text:
            print(text)
        return code
    except SystemExit as exc:  # argparse: 0 after --help, else a usage error
        return 0 if exc.code == 0 else 2
    except BrokenPipeError:
        return 0
    except (InputError, CapacityError, DensityRangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
