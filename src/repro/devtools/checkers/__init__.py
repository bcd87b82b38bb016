"""Built-in checker families.

Importing this package registers every built-in checker with the
registry in :mod:`repro.devtools.registry`.
"""

from repro.devtools.checkers import (
    concurrency,
    crypto,
    hygiene,
    privacy,
    runtime,
    telemetry,
)

__all__ = [
    "concurrency",
    "crypto",
    "hygiene",
    "privacy",
    "runtime",
    "telemetry",
]
