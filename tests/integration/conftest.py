"""Integration-suite plumbing for the CI batch-size matrix.

``FRESQUE_BATCH_SIZE=<n>`` reruns every integration test whose config
does not pin a batch size with ``batch_size=n`` — the CI matrix runs the
suite at 1 and 64, so batch transparency is exercised on the real
end-to-end flows (cross-system, scale, stateful), not only in the
dedicated equivalence harness.  Tests that pass ``batch_size=``
explicitly (the equivalence harness compares specific sizes) are left
untouched.
"""

from __future__ import annotations

import functools
import os

import pytest

from repro.core.config import FresqueConfig

_BATCH_OVERRIDE = int(os.environ.get("FRESQUE_BATCH_SIZE", "0"))


@pytest.fixture(autouse=True)
def _batch_size_matrix(monkeypatch):
    if _BATCH_OVERRIDE <= 0:
        yield
        return
    original = FresqueConfig.__init__

    @functools.wraps(original)
    def patched(self, *args, **kwargs):
        kwargs.setdefault("batch_size", _BATCH_OVERRIDE)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FresqueConfig, "__init__", patched)
    yield
