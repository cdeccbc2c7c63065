"""Shared exception types for the icplan package."""


class IcplanError(Exception):
    """Base class for every error raised by this package."""


class InstanceError(IcplanError, ValueError):
    """Malformed, unreadable or unwritable file, or inconsistent network data."""


class ConfigurationError(IcplanError, ValueError):
    """Problem specification that cannot be assembled into a model."""


class GuardExceeded(IcplanError, RuntimeError):
    """An enumeration guard refused to build or run (instance too large)."""


class SolverError(IcplanError, RuntimeError):
    """Backend failed, is unavailable, or returned an unusable status."""

