"""Exception hierarchy. Exit codes follow the CLI contract."""

__all__ = ["PlantedScanError", "ValidationError", "BudgetError", "NumericError"]


class PlantedScanError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(PlantedScanError):
    """Bad argument or domain violation (CLI exit code 2)."""

    exit_code = 2


class BudgetError(PlantedScanError):
    """Requested enumeration exceeds the configured budget (CLI exit code 3)."""

    exit_code = 3


class NumericError(PlantedScanError):
    """Numerical failure, e.g. a root finder that did not converge (CLI exit code 4)."""

    exit_code = 4
