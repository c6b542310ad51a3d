"""sievelab: small-sieve bounds with exact brute-force cross checks.

The package builds sifting problems over several integer sequences,
computes classical upper and lower bounds for them (inclusion-exclusion,
the quadratic-form sieve, combinatorial truncations, weighted variants),
tabulates the limit curves those bounds approach, and verifies every
bound numerically against exact counts.

The exports are lazy (PEP 562): ``import sievelab`` loads no submodule.
The first read of a name in ``__all__``, or of one of the nine computing
modules (``sievelab.arith``, ...), imports those nine modules in the order
below and binds every exported name, so later reads are plain globals.
A bare ``import sievelab.cli`` therefore loads only the command line and
``errors``, and each command imports what it runs.
"""

#: the exported names of each computing module, in import order
_EXPORTS = {
    "arith": (
        "EULER_GAMMA", "BVScanResult", "MultStats", "PrimeTables", "build_tables", "bv_scan",
        "factorize", "integrate_adaptive", "li_eval", "mult_stats", "pi_ap", "prime_pi",
    ),
    "buchstab": ("build_grid", "evaluate", "grid_cached", "save_grid"),
    "errors": ("CapacityError", "DensityRangeError", "InputError"),
    "legendre": (
        "MertensValue", "legendre_count", "legendre_remainder_sum", "mertens_products",
        "problem_W",
    ),
    "parity": (
        "L_summatory", "ParityRow", "S_pm_exact", "prediction_row", "recursion_check",
        "rough_signed_count",
    ),
    "problem": (
        "MultiplicativeDensity", "PrimeSet", "SieveProblem", "SieveReport", "make_problem",
        "sift_exact", "sifted_members",
    ),
    "rosser": (
        "BoundPair", "FundamentalRow", "combinatorial_bounds", "fundamental_lemma_report",
        "truncated_mobius_sum",
    ),
    "selberg": (
        "TWIN_CONSTANT", "BrunTitchmarshReport", "PairBoundReport", "SelbergWeights",
        "SieveWeights", "brun_titchmarsh", "fundamental_upper_bound",
        "goldbach_report", "lambda_weights", "mu_plus", "twin_report", "y_values",
    ),
    "weighted": (
        "ChenReport", "WeightedConfig", "W_exact", "chen_report", "lambda_r", "level_condition",
        "pr_count", "repeated_window_factor_count", "richert_weight",
    ),
}

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _load() -> None:
    """Import the computing modules and bind every exported name."""
    from importlib import import_module

    for module, names in _EXPORTS.items():
        owner = import_module(f"{__name__}.{module}")
        for name in names:
            globals()[name] = getattr(owner, name)


def __getattr__(name: str):
    if name not in _EXPORTS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    return globals()[name]


def __dir__() -> list[str]:
    public = {n for n in globals() if n.startswith("__") or not n.startswith("_")}
    return sorted((public - {"__getattr__", "__dir__"}) | set(__all__) | set(_EXPORTS))
