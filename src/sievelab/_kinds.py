"""The problem kinds and their integer parameters, in order.  It imports
nothing, so the CLI's parser lists the kinds without loading numpy."""

KIND_PARAMS: dict[str, tuple[str, ...]] = {
    "interval": ("x", "y"),
    "arithmetic_progression": ("x", "k", "l"),
    "goldbach_product": ("two_N",),
    "shifted_prime": ("N",),
    "square_plus_one": ("x",),
    "liouville_plus": ("x",),
    "liouville_minus": ("x",),
}
ALL_KINDS = tuple(KIND_PARAMS)
