"""Built-in checker families.

Importing this package registers every built-in checker with the
registry in :mod:`repro.devtools.registry`.
"""

from repro.devtools.checkers import (
    batching,
    concurrency,
    crypto,
    durability,
    hygiene,
    membership,
    privacy,
    runtime,
    shm,
    telemetry,
)

__all__ = [
    "batching",
    "concurrency",
    "crypto",
    "durability",
    "hygiene",
    "membership",
    "privacy",
    "runtime",
    "shm",
    "telemetry",
]
