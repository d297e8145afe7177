"""The one base class of the typed input and solver errors.

`cli.main` reports an `InputError` as `error = <Name>: ...` with exit
status 2, and any other exception as an internal error (exit 3).  This
module imports nothing, so every module can derive its errors from it,
and `cli` catches them all without importing the modules that raise
them.  Each error also keeps its built-in base:

    config.ConfigError          ValueError
    invariants.ValidationError  ValueError
    catalog.EntryRejected       ValueError
    expansion.OrderError        ValueError
    expansion.ConsistencyError  ArithmeticError
    jets.JetDivisionError       ZeroDivisionError
"""

__all__ = ["InputError"]


class InputError(Exception):
    """An input the package rejects, or cannot solve, with a message that
    names the fault."""
