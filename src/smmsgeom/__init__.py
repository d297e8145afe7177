"""Weighted curvature invariants and ambient expansions of smooth metric
measure spaces, computed numerically through truncated jet arithmetic.
The package exports only `__version__`; import every other name from
the module that defines it."""

__version__ = "0.1.0"
