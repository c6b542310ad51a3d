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
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from .arith import PrimeTables, build_tables
from .buchstab import build_grid, evaluate, grid_cached
from .errors import CapacityError, DensityRangeError, InputError
from .harness import SUITES, bv_scan, run_suite
from .legendre import legendre_count, legendre_remainder_sum, problem_W
from .parity import prediction_row
from .problem import ALL_KINDS, make_problem
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


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command, problem, knobs, output shape."""

    command: str
    fmt: str = "json"
    seed: int = 0
    problem: str | None = None
    params: dict | None = None
    z: float | None = None
    y: float | None = None
    s_list: tuple[float, ...] = ()
    level_exponent: float = 0.5
    log_power: float = 0.0
    skip_exact: bool = False
    s_max: float = 30.0
    step: float = 1e-4
    cache: str | None = None
    r: int | None = None
    alpha: float | None = None
    beta: float | None = None
    gamma_level: float | None = None
    n_value: float | None = None
    x: float | None = None
    k: int | None = None
    l: int | None = None
    scan_q: int | None = None
    suite: str = "all"
    extended: bool = False


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


def _require(cfg: RunConfig, **named) -> list:
    vals = []
    for name, v in named.items():
        if v is None:
            raise InputError(f"{cfg.command} needs --{name.replace('_', '-')}")
        vals.append(v)
    return vals


def _problem_params(cfg: RunConfig) -> tuple[str, dict]:
    kind = cfg.problem
    if kind is None:
        raise InputError(f"{cfg.command} needs --problem (one of {', '.join(ALL_KINDS)})")
    p = cfg.params or {}
    if kind == "interval":
        (x,) = _require(cfg, x=p.get("x"))
        (ln,) = _require(cfg, len=p.get("length"))
        return kind, {"x": int(x), "y": int(ln)}
    if kind == "arithmetic_progression":
        x, k, l = _require(cfg, x=p.get("x"), k=p.get("k"), l=p.get("l"))
        return kind, {"x": int(x), "k": int(k), "l": int(l)}
    if kind == "goldbach_product":
        (tn,) = _require(cfg, two_n=p.get("two_n"))
        return kind, {"two_N": int(tn)}
    if kind == "shifted_prime":
        (n,) = _require(cfg, n=p.get("n_value"))
        return kind, {"N": int(n)}
    if kind in ("square_plus_one", "liouville_plus", "liouville_minus"):
        (x,) = _require(cfg, x=p.get("x"))
        return kind, {"x": int(x)}
    raise InputError(f"unknown problem kind {kind!r}")


#: the parameter each kind needs factor tables up to (an interval needs none)
_TABLE_PARAM = {
    "arithmetic_progression": "x", "goldbach_product": "two_N", "shifted_prime": "N",
    "square_plus_one": "x", "liouville_plus": "x", "liouville_minus": "x",
}


def _tables_for(cfg: RunConfig, extra: int = 0) -> PrimeTables:
    need = max(10_000, extra)
    for v in (cfg.z, cfg.y):
        if v is not None:
            need = max(need, int(v) + 1)
    if cfg.problem is not None:
        kind, params = _problem_params(cfg)
        if kind in _TABLE_PARAM:
            need = max(need, params[_TABLE_PARAM[kind]] + 1)
    if need > MAX_CLI_TABLES:
        raise InputError(
            f"parameters need factor tables to {need}; the command line caps"
            f" them at {MAX_CLI_TABLES}"
        )
    return build_tables(need + 200)


def _make_problem(cfg: RunConfig, tables: PrimeTables):
    kind, params = _problem_params(cfg)
    return make_problem(kind, params, tables)


def _cmd_legendre(cfg: RunConfig) -> tuple[str, int]:
    (z,) = _require(cfg, z=cfg.z)
    t = _tables_for(cfg)
    p = _make_problem(cfg, t)
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
    return emit_report(_sieve_dict(rep), cfg.fmt), 0


def _cmd_selberg(cfg: RunConfig) -> tuple[str, int]:
    (y,) = _require(cfg, y=cfg.y)
    z = cfg.z if cfg.z is not None else math.sqrt(y)
    t = _tables_for(cfg)
    p = _make_problem(cfg, t)
    rep = fundamental_upper_bound(p, y, z, with_exact=not cfg.skip_exact)
    return emit_report(_sieve_dict(rep), cfg.fmt), 0


def _cmd_rosser(cfg: RunConfig) -> tuple[str, int]:
    t = _tables_for(cfg)
    p = _make_problem(cfg, t)
    y = cfg.y
    if y is None:
        base = max(p.X, 3.0)
        y = base**cfg.level_exponent * math.log(base) ** cfg.log_power
    z = cfg.z if cfg.z is not None else math.sqrt(y)
    if z > t.limit:  # a cut derived from X can outgrow the tables the parameters need
        t = _tables_for(cfg, extra=math.ceil(z))
        p = _make_problem(cfg, t)
    pair = combinatorial_bounds(p, y, z, with_exact=not cfg.skip_exact)
    up = _sieve_dict(pair.upper)
    lo = _sieve_dict(pair.lower)
    if cfg.fmt == "json":
        return emit_report({"upper": up, "lower": lo}, "json"), 0
    rows = [{"side": side, **d} for side, d in (("upper", up), ("lower", lo))]
    return emit_report(rows, cfg.fmt), 0


def _cmd_buchstab(cfg: RunConfig) -> tuple[str, int]:
    grid = grid_cached(cfg.s_max, cfg.step, cfg.cache or None)
    if cfg.fmt == "csv":
        cols = (grid.s[1:].tolist(), grid.F_values[1:].tolist(), grid.f_values[1:].tolist())
        return "\n".join(["s,F,f", *(f"{s:.12g},{F:.12g},{f:.12g}" for s, F, f in zip(*cols))]), 0
    rows = [
        {"s": float(s), "F": evaluate(grid, float(s), "F"), "f": evaluate(grid, float(s), "f")}
        for s in range(2, int(grid.s_max) + 1)
    ]
    if cfg.fmt == "json":
        out = {"s_max": grid.s_max, "step": grid.step, "join_error": grid.join_error, "rows": rows}
        return emit_report(out, "json"), 0
    return emit_report(rows, cfg.fmt), 0


def _cmd_weighted(cfg: RunConfig) -> tuple[str, int]:
    (r,) = _require(cfg, r=cfg.r)
    out: dict = {"r": r, "threshold": lambda_r(r)}
    have_geometry = None not in (cfg.alpha, cfg.beta, cfg.gamma_level)
    if have_geometry:
        (n,) = _require(cfg, n=cfg.n_value)
        wc = WeightedConfig(
            N=int(n),
            r=r,
            alpha=cfg.alpha,
            beta=cfg.beta,
            gamma_level=cfg.gamma_level,
        )
        grid = build_grid(30.0, 1e-4)
        mi, mc = level_condition(wc, grid)
        out.update(
            {
                "alpha": wc.alpha,
                "beta": wc.beta,
                "gamma_level": wc.gamma_level,
                "margin_integral": mi,
                "margin_closed": mc,
            }
        )
        if cfg.problem is not None:
            t = _tables_for(cfg, extra=wc.N)
            p = _make_problem(cfg, t)
            out["weighted_sum"] = W_exact(p, wc)
            out["almost_prime_count"] = pr_count(p, r, wc.alpha, N=wc.N)
            out["square_factor_correction"] = repeated_window_factor_count(p, wc)
    return emit_report(out, cfg.fmt), 0


def _cmd_parity(cfg: RunConfig) -> tuple[str, int]:
    (x,) = _require(cfg, x=cfg.x)
    if not cfg.s_list:
        raise InputError("parity needs --s (comma-separated list)")
    t = _tables_for(cfg, extra=int(x))
    grid = build_grid(30.0, 1e-4)
    rows = []
    for s in cfg.s_list:
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
    return emit_report(rows, cfg.fmt), 0


def _cmd_chen(cfg: RunConfig) -> tuple[str, int]:
    (n,) = _require(cfg, n=cfg.n_value)
    t = _tables_for(cfg, extra=int(n))
    return emit_report(asdict(chen_report(int(n), t)), cfg.fmt), 0


def _cmd_brun_titchmarsh(cfg: RunConfig) -> tuple[str, int]:
    (x,) = _require(cfg, x=cfg.x)
    t = _tables_for(cfg, extra=max(int(x), cfg.scan_q or 0) + 1)
    if cfg.scan_q is not None:
        scan = bv_scan(int(x), cfg.scan_q, t)
        rows = [{"k": k, "E1": e} for k, e in scan.rows]
        if cfg.fmt == "json":
            out = {"x": scan.x, "q_max": scan.q_max, "rows": rows, "total": scan.total}
            return emit_report(out, "json"), 0
        text = emit_report(rows, cfg.fmt)
        if cfg.fmt == "table":
            text += f"\ntotal  {scan.total:.12g}"
        return text, 0
    k, l = _require(cfg, k=cfg.k, l=cfg.l)
    return emit_report(asdict(brun_titchmarsh(int(x), k, l, t)), cfg.fmt), 0


def _cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    results = [run_suite(cfg.suite, cfg.seed)]
    if cfg.extended and cfg.suite == "all":
        results.append(run_suite("extended", cfg.seed))
    passed = all(r.passed for r in results)
    if cfg.fmt == "json":
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default=None)
    common.add_argument("--config", default=None, help="JSON file of flag defaults")
    common.add_argument("--seed", type=int, default=None)

    prob = argparse.ArgumentParser(add_help=False)
    prob.add_argument("--problem", choices=ALL_KINDS, default=None)
    prob.add_argument("--x", type=float, default=None)
    prob.add_argument("--len", type=float, default=None, dest="length")
    prob.add_argument("--k", type=int, default=None)
    prob.add_argument("--l", type=int, default=None)
    prob.add_argument("--two-n", type=float, default=None, dest="two_n")
    prob.add_argument("--n", type=float, default=None, dest="n_value")

    parser = argparse.ArgumentParser(
        prog="sievelab", description="sieve bounds, extremal sequences, reports"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("legendre", parents=[common, prob])
    sp.add_argument("--z", type=float, default=None)

    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--y", type=float, default=None)
    level.add_argument("--z", type=float, default=None)
    level.add_argument(
        "--skip-exact", action="store_const", const=True, default=None,
        dest="skip_exact",
    )

    sub.add_parser("selberg", parents=[common, prob, level])

    sp = sub.add_parser("rosser", parents=[common, prob, level])
    sp.add_argument(
        "--level-exponent", type=float, default=None, dest="level_exponent"
    )
    sp.add_argument("--log-power", type=float, default=None, dest="log_power")

    sp = sub.add_parser("buchstab", parents=[common])
    sp.add_argument("--s-max", type=float, default=None, dest="s_max")
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--cache", default=None, help="export the grid to this CSV (never read)")

    sp = sub.add_parser("weighted", parents=[common, prob])
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--gamma-level", type=float, default=None, dest="gamma_level")

    sp = sub.add_parser("parity", parents=[common])
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--s", default=None, help="comma-separated list of s values")

    sp = sub.add_parser("chen", parents=[common])
    sp.add_argument("--n", type=float, default=None, dest="n_value")

    sp = sub.add_parser("brun-titchmarsh", parents=[common])
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--l", type=int, default=None)
    sp.add_argument("--scan-q", type=int, default=None, dest="scan_q")

    sp = sub.add_parser("verify", parents=[common])
    sp.add_argument("--suite", default=None, choices=sorted(SUITES) + ["all"])
    sp.add_argument(
        "--extended", action="store_const", const=True, default=None
    )
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InputError(f"config {args.config} must hold a JSON object")
    for key, value in data.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, value)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    def get(name, fallback=None):
        v = getattr(args, name, None)
        return fallback if v is None else v

    s_list: tuple[float, ...] = ()
    raw_s = get("s")
    if raw_s is not None:
        parts = str(raw_s).split(",")
        s_list = tuple(float(p) for p in parts if p.strip())
    params = {name: get(name) for name in ("x", "length", "k", "l", "two_n", "n_value")}
    passed = ("problem", "cache", "r", "alpha", "beta", "gamma_level", "n_value", "x",
              "k", "l", "scan_q")
    return RunConfig(
        command=args.command,
        fmt=get("format", "json"),
        seed=int(get("seed", 0)),
        params=params,
        z=None if get("z") is None else float(get("z")),
        y=None if get("y") is None else float(get("y")),
        s_list=s_list,
        level_exponent=float(get("level_exponent", 0.5)),
        log_power=float(get("log_power", 0.0)),
        skip_exact=bool(get("skip_exact", False)),
        s_max=float(get("s_max", 30.0)),
        step=float(get("step", 1e-4)),
        suite=get("suite", "all"),
        extended=bool(get("extended", False)),
        **{name: get(name) for name in passed},
    )


def _check_domain(cfg: RunConfig) -> None:
    """Reject non-finite numbers, and a sieve level y or cut z at or below 1."""
    numbers = [(f.name, getattr(cfg, f.name)) for f in fields(cfg)]
    numbers += list((cfg.params or {}).items()) + [("s", s) for s in cfg.s_list]
    for name, v in numbers:
        flag = "--" + {"length": "len", "n_value": "n"}.get(name, name).replace("_", "-")
        if isinstance(v, float) and not math.isfinite(v):
            raise InputError(f"{flag} must be a finite number, got {v}")
        if name in ("y", "z") and v is not None and v <= 1:
            raise InputError(f"{flag} must be > 1, got {v}")


def parse_and_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        _apply_config(args)
        cfg = _config_from_args(args)
        _check_domain(cfg)
        text, code = _COMMANDS[cfg.command](cfg)
        if text:
            print(text)
        return code
    except BrokenPipeError:
        return 0
    except (InputError, CapacityError, DensityRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return parse_and_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
