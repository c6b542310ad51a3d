import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievelab
from sievelab import arith, cli, harness
from sievelab.arith import build_tables
from sievelab.cli import _json_value, main
from sievelab.problem import ALL_KINDS


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@contextlib.contextmanager
def table_builds():
    """The limit of every table build the command line makes inside the block.

    The command line reads ``build_tables`` off ``arith`` when it runs, so
    the spy is put there; the package's own modules bound theirs at import.
    """
    calls = []

    def spy(limit, *args, **kwargs):
        calls.append(limit)
        return build_tables(limit, *args, **kwargs)

    with mock.patch.object(arith, "build_tables", spy):
        yield calls


FIXED_FIELDS = [
    "problem", "z", "y", "s", "X", "main_term", "remainder_bound",
    "upper_bound", "lower_bound", "exact_count", "ratio", "notes",
]


def test_selberg_json_roundtrip(capsys):
    rc, out, _ = run(capsys, [
        "selberg", "--problem", "interval", "--x", "0", "--len", "100000",
        "--y", "2500",
    ])
    assert rc == 0
    d = json.loads(out)
    assert list(d) == FIXED_FIELDS
    assert isinstance(d["exact_count"], int)
    assert d["lower_bound"] is None
    assert d["upper_bound"] >= d["exact_count"]
    # serializing the parsed values reproduces the report byte for byte
    assert _json_value(d) == out.strip()


def test_unknown_command_and_flags_exit_2(capsys):
    assert run(capsys, ["frobnicate"])[0] == 2
    rc, _, err = run(capsys, ["selberg", "--nonsense", "1"])
    assert rc == 2
    assert "usage" in err
    assert run(capsys, [])[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0


def test_missing_or_bad_parameters_exit_2(capsys):
    rc, _, err = run(capsys, ["selberg", "--problem", "interval", "--x", "0",
                              "--len", "1000"])
    assert rc == 2 and "--y" in err
    rc, _, err = run(capsys, ["legendre", "--problem", "interval", "--x", "0",
                              "--len", "100", "--z", "500"])
    assert rc == 2 and "cap" in err
    rc, _, err = run(capsys, ["parity", "--x", "10000"])
    assert rc == 2 and "--s" in err


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"z": 11, "format": "table"}))
    rc, out, _ = run(capsys, [
        "legendre", "--problem", "interval", "--x", "0", "--len", "10000",
        "--config", str(cfg),
    ])
    assert rc == 0
    assert out.splitlines()[0].startswith("problem")
    assert "11" in out.splitlines()[1].split()[1]
    rc, out, _ = run(capsys, [
        "legendre", "--problem", "interval", "--x", "0", "--len", "10000",
        "--config", str(cfg), "--z", "3", "--format", "json",
    ])
    assert rc == 0
    d = json.loads(out)
    assert d["z"] == 3
    assert d["exact_count"] == 5000


@pytest.mark.parametrize(
    "data,argv,flags",
    [
        ({"len": 10000, "z": 11}, ["legendre", "--problem", "interval", "--x", "0"],
         ["--len", "10000", "--z", "11"]),
        ({"n": 10000}, ["chen"], ["--n", "10000"]),
        ({"s_max": 6, "step": 0.001, "format": "csv"}, ["buchstab"],
         ["--s-max", "6", "--step", "1e-3", "--format", "csv"]),
        ({"s-max": 6, "step": 0.001, "format": "csv"}, ["buchstab"],
         ["--s-max", "6", "--step", "1e-3", "--format", "csv"]),
        ({"two_n": 1000, "skip_exact": True, "z": None},
         ["selberg", "--problem", "goldbach_product", "--y", "100"],
         ["--two-n", "1000", "--skip-exact"]),
        ({"problem": "goldbach_product", "two-n": 1000, "skip-exact": False},
         ["selberg", "--y", "100"], ["--problem", "goldbach_product", "--two-n", "1000"]),
    ],
)
def test_config_keys_are_flags(tmp_path, capsys, data, argv, flags):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(data))
    want = run(capsys, argv + flags)
    assert want[0] == 0
    assert run(capsys, argv + ["--config", str(cfg)]) == want


@pytest.mark.parametrize(
    "data",
    [{"frob": 1}, {"length": 10000}, {"le": 10000}, {"scan_q": 3}, {"z": "abc"},
     {"format": "xml"}, {"skip_exact": 1}],
)
def test_bad_config_key_or_value_exits_2(tmp_path, capsys, data):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(data))
    rc, out, err = run(capsys, ["selberg", "--problem", "interval", "--x", "0",
                                "--len", "100", "--y", "100", "--config", str(cfg)])
    assert rc == 2 and out == "" and "Traceback" not in err


def test_buchstab_csv_grid(capsys):
    rc, out, _ = run(capsys, [
        "buchstab", "--s-max", "6", "--step", "1e-3", "--format", "csv",
    ])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,F,f"
    assert len(lines) == 6001
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1e-3)
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(6.0)
    assert float(last[1]) >= float(last[2])


def test_buchstab_csv_into_a_closed_pipe_exits_0():
    src = str(Path(sievelab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sievelab.cli", "buchstab", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"s,F,f\n"
    proc.stdout.close()  # the reader leaves partway through the rows
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0 and err == b""


def test_buchstab_cache_reused(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    args = ["buchstab", "--s-max", "6", "--step", "1e-3", "--cache", str(path),
            "--format", "csv"]
    rc1, out1, _ = run(capsys, args)
    assert rc1 == 0 and path.exists()
    stamp = path.stat().st_mtime_ns
    rc2, out2, _ = run(capsys, args)
    assert rc2 == 0 and out2 == out1
    assert path.stat().st_mtime_ns == stamp
    # the export is never read back, so json reports the built grid's join_error
    rc3, out3, _ = run(capsys, args[:-2] + ["--format", "json"])
    assert rc3 == 0
    assert 0 <= json.loads(out3)["join_error"] <= 1e-6


def test_curves_answer_past_the_last_unit(capsys):
    # F and f are functions of s, 1.0 past the series' last unit: s and gamma/alpha
    # past 30 answer, and so does any step 1/m
    rc, out, _ = run(capsys, ["parity", "--x", "10000", "--s", "31"])
    assert rc == 0
    (row,) = json.loads(out)
    assert row["predict+"] == row["predict-"] > 0
    rc, out, _ = run(capsys, ["weighted", "--r", "2", "--alpha", "0.01", "--beta", "0.4",
                              "--gamma-level", "0.5", "--n", "100"])
    assert rc == 0 and json.loads(out)["margin_integral"] < 0
    rc, out, _ = run(capsys, ["buchstab", "--s-max", "6", "--step", "0.002", "--format", "json"])
    assert rc == 0 and json.loads(out)["step"] == 0.002


def test_parity_table_header(capsys):
    rc, out, _ = run(capsys, [
        "parity", "--x", "10000", "--s", "2.5", "--format", "table",
    ])
    assert rc == 0
    header = out.splitlines()[0].split()
    assert header == ["x", "s", "S+", "predict+", "S-", "predict-"]
    assert len(out.splitlines()) == 2


def test_rosser_emits_both_sides(capsys):
    argv = ["rosser", "--problem", "interval", "--x", "0", "--len", "10000",
            "--y", "100", "--z", "5"]
    rc, out, _ = run(capsys, argv + ["--format", "table"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("upper") and lines[2].startswith("lower")
    rc, out, _ = run(capsys, argv)
    d = json.loads(out)
    assert set(d) == {"upper", "lower"}
    assert d["lower"]["lower_bound"] <= d["lower"]["exact_count"]
    assert d["upper"]["upper_bound"] >= d["upper"]["exact_count"]


def test_rosser_level_exponent_sizes_tables_for_derived_z(capsys):
    # y = 5000^2.2 gives z = sqrt(y) = 11,718, beyond the 10,200 tables x = 5000 needs
    with table_builds() as builds:
        rc, out, err = run(capsys, ["rosser", "--problem", "square_plus_one", "--x", "5000",
                                    "--level-exponent", "2.2"])
    assert rc == 0, err
    assert builds == [11_919]  # z + 1, built once
    d = json.loads(out)
    assert d["upper"]["z"] > 10_200
    assert d["lower"]["lower_bound"] <= d["upper"]["exact_count"] <= d["upper"]["upper_bound"]


def test_weighted_threshold_only(capsys):
    rc, out, _ = run(capsys, ["weighted", "--r", "2"])
    assert rc == 0
    d = json.loads(out)
    assert d["r"] == 2
    assert d["threshold"] == pytest.approx(1.834043767146470, abs=1e-9)


_WEIGHTED = ["weighted", "--r", "3", "--alpha", "0.1225", "--beta", "0.4725",
             "--gamma-level", "0.49", "--n", "10000"]


def test_weighted_sizes_tables_for_the_members_it_factors(capsys):
    # the products n(2N - n) reach N^2 / 4 = 250,000, past the tables --n asks for
    with table_builds() as builds:
        rc, out, _ = run(capsys, _WEIGHTED + ["--problem", "goldbach_product", "--two-n", "1000"])
    assert rc == 0
    assert builds == [250_200]
    d = json.loads(out)
    assert d["weighted_sum"] == pytest.approx(114.175457263, rel=1e-9)
    assert d["almost_prime_count"] == 114
    # n^2 + 1 up to 1e8 + 1 is past the command line's table cap: refused before any build
    with table_builds() as builds:
        rc, out, err = run(capsys, _WEIGHTED + ["--problem", "square_plus_one", "--x", "10000"])
    assert rc == 2 and out == ""
    assert "command-line factor tables: 100000201 is past the cap of 20000200" in err
    assert builds == []


def test_table_cap_compares_the_limit_it_builds(capsys):
    # the tables reach the largest need + 200, and that limit meets the cap
    cap = cli.MAX_CLI_TABLES
    with mock.patch.object(arith, "build_tables", lambda limit: limit):
        assert cli._tables(cap - 200) == cap
    with table_builds() as builds:
        rc, out, err = run(capsys, ["parity", "--x", str(cap - 199), "--s", "2"])
    assert rc == 2 and out == "" and builds == []
    assert f"command-line factor tables: {cap + 1} is past the cap of {cap}" in err


@pytest.mark.parametrize("command", ["selberg", "rosser"])
def test_level_is_never_factored(capsys, command):
    # y = 1e8 once sized the tables past the command line's cap; z = 100 needs 10,200
    with table_builds() as builds:
        rc, out, err = run(capsys, [command, "--problem", "interval", "--x", "0",
                                    "--len", "1000000", "--y", "1e8", "--z", "100"])
    assert rc == 0, err
    assert builds == [10_200]
    d = json.loads(out)
    up, lo = (d["upper"], d["lower"]) if command == "rosser" else (d, {"lower_bound": 0})
    assert lo["lower_bound"] <= up["exact_count"] == 120_760 <= up["upper_bound"]


def test_remainder_sum_at_25_primes_brackets_the_count(capsys):
    # 25 sieve primes below 100: the remainder sum walks the count's pruned
    # tree, not its 2^25 divisors
    start = time.perf_counter()
    rc, out, _ = run(capsys, ["legendre", "--problem", "liouville_plus", "--x", "3",
                              "--z", "100"])
    assert rc == 0
    d = json.loads(out)
    assert d["exact_count"] == 0 and d["remainder_bound"] is not None
    assert abs(d["exact_count"] - d["main_term"]) <= d["remainder_bound"]
    assert time.perf_counter() - start < 2


def test_brun_titchmarsh_report_and_scan(capsys):
    rc, out, _ = run(capsys, ["brun-titchmarsh", "--x", "10000", "--k", "3",
                              "--l", "2"])
    assert rc == 0
    d = json.loads(out)
    assert d["exact"] <= d["sieve_bound"]
    assert d["exact"] <= d["asymptotic_bound"]
    rc, out, _ = run(capsys, ["brun-titchmarsh", "--x", "10000", "--scan-q",
                              "3", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,E1"
    assert len(lines) == 4


def test_progression_scan_cap(capsys):
    start = time.perf_counter()
    rc, _, err = run(capsys, ["brun-titchmarsh", "--x", "1000000", "--scan-q",
                              "100000"])
    assert rc == 2 and "past the cap of 100000000" in err
    # refused before the scan starts, not after minutes of it
    assert time.perf_counter() - start < 10
    rc, out, _ = run(capsys, ["brun-titchmarsh", "--x", "1000000", "--scan-q",
                              "200"])
    assert rc == 0
    d = json.loads(out)
    assert [row["k"] for row in d["rows"]] == list(range(1, 201))


def test_verify_suite_passes(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "mertens-products",
                              "--format", "table"])
    assert rc == 0
    assert "pass" in out
    rc, out, _ = run(capsys, ["verify", "--suite", "delay-grid", "--format",
                              "json"])
    assert rc == 0
    d = json.loads(out)
    assert d["passed"] is True and d["cases"] > 0 and d["failures"] == []


def test_verify_failure_exits_1(monkeypatch, capsys):
    def bad(res, seed):
        res.check("always-bad", "one", "x == y", False, "1 vs 2")

    monkeypatch.setitem(harness.SUITES, "always-bad", bad)
    rc, out, _ = run(capsys, ["verify", "--suite", "always-bad",
                              "--format", "table"])
    assert rc == 1
    assert "FAIL" in out and "1 vs 2" in out


def test_verify_unknown_suite_exits_2_and_lists_the_suites(capsys):
    # the name is checked once, by run_suite, not by the parser as well
    rc, out, err = run(capsys, ["verify", "--suite", "nope"])
    assert rc == 2 and out == "" and "Traceback" not in err
    assert "unknown suite 'nope'" in err
    assert all(name in err for name in [*harness.SUITES, "all"])


def _loaded_after(code: str) -> list:
    """The last line a child process prints after running code, as JSON."""
    src = str(Path(sievelab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_IMPORT_STAGES = """
import contextlib, io, json, sys
loaded = []
def stage(name):
    loaded.append([name, "sievelab.harness" in sys.modules])
import sievelab
stage("import sievelab")
from sievelab import cli
stage("import sievelab.cli")
for argv in (["brun-titchmarsh", "--x", "100000", "--scan-q", "5"],
             ["legendre", "--problem", "interval", "--x", "0", "--len", "1000", "--z", "10"],
             ["verify", "--suite", "mertens-products"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    stage(argv[0])
print(json.dumps(loaded))
"""


def test_only_verify_loads_the_suites():
    assert _loaded_after(_IMPORT_STAGES) == [
        ["import sievelab", False], ["import sievelab.cli", False],
        ["brun-titchmarsh", False], ["legendre", False], ["verify", True],
    ]


_LOADED = """
import json, sys
def loaded():
    return [sorted(m[9:] for m in sys.modules if m.startswith("sievelab.")), "numpy" in sys.modules]
"""

#: the nine modules the package's exports come from
COMPUTING = ["arith", "buchstab", "errors", "legendre", "parity", "problem", "rosser",
             "selberg", "weighted"]


def test_a_bare_cli_import_loads_no_numpy():
    assert _loaded_after(_LOADED + "import sievelab.cli\nprint(json.dumps(loaded()))") == [
        ["cli", "errors"], False,
    ]


@pytest.mark.parametrize("read", ["sievelab.prime_pi", "sievelab.arith.prime_pi"])
def test_the_package_loads_its_modules_on_the_first_public_read(read):
    code = _LOADED + f"""
import sievelab
stages = [loaded()]
names = dir(sievelab)
stages.append(loaded())
{read}
stages += [loaded(), names == dir(sievelab), sievelab.__version__]
namespace = {{}}
exec("from sievelab import *", namespace)
del namespace["__builtins__"]
stages.append(sorted(namespace) == sievelab.__all__)
stages.append(all(namespace[n] is getattr(sievelab, n) for n in sievelab.__all__))
print(json.dumps(stages))
"""
    assert _loaded_after(code) == [
        [[], False], [[], False], [COMPUTING, True], True, "0.1.0", True, True,
    ]
    assert len(sievelab.__all__) == 63 and sievelab.__all__ == sorted(sievelab.__all__)
    assert set(dir(sievelab)) >= {*sievelab.__all__, *COMPUTING, "__version__"}


#: the modules each command loads beside cli and errors; problem is read by the parser
_COMMAND_MODULES = [
    (["buchstab", "--s-max", "10"], ["arith", "buchstab", "problem"]),
    (["parity", "--x", "10000", "--s", "2.5"], ["arith", "buchstab", "parity", "problem"]),
    (["chen", "--n", "1000"], ["arith", "buchstab", "problem", "selberg", "weighted"]),
    (["legendre", "--problem", "interval", "--x", "0", "--len", "1000", "--z", "10"],
     ["arith", "legendre", "problem"]),
    (["rosser", "--problem", "interval", "--x", "0", "--len", "1000", "--y", "100"],
     ["arith", "buchstab", "legendre", "problem", "rosser"]),
    (["brun-titchmarsh", "--x", "100000", "--scan-q", "5"], ["arith", "problem"]),
    (["brun-titchmarsh", "--x", "100000", "--k", "3", "--l", "1"],
     ["arith", "problem", "selberg"]),
    (["verify", "--suite", "mertens-products"], [*COMPUTING, "harness"]),
]


@pytest.mark.parametrize("argv, modules", _COMMAND_MODULES,
                         ids=["buchstab", "parity", "chen", "legendre", "rosser", "bt-scan-q",
                              "bt-k-l", "verify"])
def test_each_command_loads_only_its_modules(argv, modules):
    code = _LOADED + f"""
import contextlib, io
from sievelab import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
print(json.dumps(loaded()))
"""
    assert _loaded_after(code) == [sorted({"cli", "errors", *modules}), True]


def test_progression_scan_sizes_tables_for_q(capsys):
    # q_max beyond x: the tables cover the moduli, not only the primes up to x
    rc, out, err = run(capsys, ["brun-titchmarsh", "--x", "1000", "--scan-q", "20000"])
    assert rc == 0, err
    assert len(json.loads(out)["rows"]) == 20_000


@pytest.mark.parametrize(
    "argv",
    [
        ["selberg", "--problem", "interval", "--len", "1000", "--x", "0", "--y", "inf"],
        ["selberg", "--problem", "interval", "--len", "1000", "--x", "0", "--y", "100",
         "--z", "-5"],
        ["selberg", "--problem", "interval", "--len", "nan", "--x", "0", "--y", "100"],
        ["rosser", "--problem", "interval", "--len", "1000", "--x", "0", "--y", "1"],
        ["legendre", "--problem", "interval", "--len", "1000", "--x", "0", "--z", "1"],
        ["buchstab", "--step", "0"],
        ["buchstab", "--step=-0.0001"],
        ["buchstab", "--s-max", "inf"],
        ["parity", "--x", "1000", "--s", "2,nan"],
        ["buchstab", "--s-max", "1e9"],
        ["parity", "--x", "1", "--s", "2"],
        ["rosser", "--problem", "interval", "--len", "1000", "--x", "0",
         "--level-exponent", "1e12"],
        # 78,495 sieve primes: the refusal names 2^78495 without writing out its digits
        ["legendre", "--problem", "shifted_prime", "--n", "30", "--z", "1e6"],
        # a modulus past int64, which the prime set's numpy reduction cannot hold
        ["legendre", "--problem", "arithmetic_progression", "--x", "100", "--k", "1e30",
         "--l", "1", "--z", "10"],
    ],
)
def test_numbers_outside_the_domain_exit_2(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--x", "1.5", "--len", "100"], ["--x", "0", "--len", "100.5"]])
def test_non_integral_problem_parameters_exit_2(capsys, flags):
    rc, out, err = run(capsys, ["legendre", "--problem", "interval", *flags, "--z", "10"])
    assert rc == 2 and out == ""
    assert "must be an integer" in err
    rc, out, _ = run(capsys, ["legendre", "--problem", "interval", "--x", "1e1", "--len", "1e2",
                              "--z", "10"])
    assert rc == 0 and "interval[11..110]" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["brun-titchmarsh", "--x", "1000.7", "--k", "3", "--l", "1"],
        ["parity", "--x", "10000.5", "--s", "2"],
        ["chen", "--n", "1000.5"],
        [*_WEIGHTED[:-1], "10000.5", "--problem", "interval", "--x", "0", "--len", "1000"],
        ["brun-titchmarsh", "--x", "1e6", "--scan-q", "2.5"],
    ],
)
def test_non_integral_numbers_exit_2_before_any_tables(capsys, argv):
    # refused, never truncated to the integer below, and before any table is built
    with table_builds() as builds:
        rc, out, err = run(capsys, argv)
    assert rc == 2 and out == "" and "must be an integer" in err
    assert builds == []


def test_integer_flags_parse_like_x(capsys):
    base = ["brun-titchmarsh", "--x", "1e6", "--l", "7"]
    rc, want, _ = run(capsys, base + ["--k", "101"])
    assert rc == 0
    assert run(capsys, base + ["--k", "1.01e2"]) == (0, want, "")
    rc, out, err = run(capsys, base + ["--k", "1.5"])
    assert rc == 2 and out == ""
    assert err == "error: modulus k must be an integer >= 1, got 1.5\n"


def test_only_verify_takes_a_seed(capsys):
    _, subcommands = cli._build_parser()
    seeded = [name for name, sp in subcommands.items() if "--seed" in sp._option_string_actions]
    assert seeded == ["verify"]
    assert run(capsys, ["chen", "--n", "10000", "--seed", "1"])[0] == 2


def test_huge_exact_scan_refused_before_it_allocates(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, ["selberg", "--problem", "interval", "--x", "0",
                                "--len", "1e12", "--y", "100"])
    assert rc == 2 and out == "" and "exact scan indices: 1000000000000 is past the cap of" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [
    ["legendre", "--problem", "interval", "--x", "1e19", "--len", "10", "--z", "30"],
    ["selberg", "--problem", "square_plus_one", "--x", "1e10", "--y", "100"],
])
def test_members_past_int64_exit_2(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == "" and "largest member (int64)" in err
    assert "past the cap of 9223372036854775807" in err


def test_crt_walk_past_its_class_cap_exits_2(capsys):
    # goldbach at 2N = 2e9 stores no members; its Legendre walk to z = 100
    # would lift about 8.8 million classes at one level
    rc, out, err = run(capsys, ["legendre", "--problem", "goldbach_product", "--two-n", "2e9",
                                "--z", "100"])
    assert rc == 2 and out == "" and "CRT classes one walk level lifts" in err
    assert "past the cap of 4000000" in err


_FUZZ_VALUES = st.sampled_from(
    ["0", "1", "1.5", "-5", "1e12", "nan", "inf", "2", "3", "7", "30", "50", "100", "200",
     "500", "2.5"]
)
_PROBLEM_FLAGS = ["--x", "--len", "--k", "--l", "--two-n", "--n"]
_FUZZ_FLAGS = {
    "legendre": _PROBLEM_FLAGS + ["--z"],
    "selberg": _PROBLEM_FLAGS + ["--y", "--z"],
    "rosser": _PROBLEM_FLAGS + ["--y", "--z", "--level-exponent", "--log-power"],
    "buchstab": ["--s-max", "--step"],
    "weighted": _PROBLEM_FLAGS + ["--r", "--alpha", "--beta", "--gamma-level"],
    "parity": ["--x", "--s"],
    "chen": ["--n"],
    "brun-titchmarsh": ["--x", "--k", "--l", "--scan-q"],
}


@st.composite
def _command_lines(draw):
    cmd = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [cmd, "--format", draw(st.sampled_from(["json", "table", "csv"]))]
    if "--len" in _FUZZ_FLAGS[cmd]:
        argv += ["--problem", draw(st.sampled_from(ALL_KINDS))]
    for flag in draw(st.lists(st.sampled_from(_FUZZ_FLAGS[cmd]), unique=True)):
        if flag == "--s":
            argv += [flag, ",".join(draw(st.lists(_FUZZ_VALUES, min_size=1, max_size=3)))]
        else:
            argv += [flag, draw(_FUZZ_VALUES)]
    return argv


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(argv=_command_lines())
def test_cli_fuzz_exits_0_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), table_builds() as builds:
        rc = main(argv)
    assert rc in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert len(builds) <= 1, (argv, builds)


def _readme_lines() -> list[str]:
    """The shell lines of the README's sh blocks, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M)
    return "\n".join(blocks).replace("\\\n", " ").splitlines()


def test_readme_commands_build_tables_at_most_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in _readme_lines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["echo"]:  # echo TEXT > FILE
            Path(words[3]).write_text(words[1])
        # verify builds its own tables in the harness, not through the command line
        if words[:1] != ["sievelab"] or words[1] == "verify":
            continue
        argv = words[1 : words.index(">")] if ">" in words else words[1:]
        with table_builds() as builds:
            rc, _, err = run(capsys, argv)
        assert rc == 0, (line, err)
        assert len(builds) <= 1, (line, builds)
        ran += 1
    assert ran >= 12
