"""A publication encrypts through the batch calls only.

The batched hot path (docs/BATCHING.md) makes one cipher call per batch:
``encrypt_batch`` (or ``encrypt_batch_seeded`` under
``deterministic_ivs``) at the computing node and one for the merger's
padding.  A batch function that quietly loops the scalar ``encrypt``
produces the same plaintexts under fresh IVs, so every equivalence test
still passes; the count of scalar calls does not.
"""

import dataclasses

import pytest

from repro.core.system import FresqueSystem

SCALAR = ("encrypt", "encrypt_seeded")


@pytest.mark.parametrize("deterministic_ivs", [False, True])
@pytest.mark.parametrize("cipher_fixture", ["fast_cipher", "aes_cipher"])
def test_a_sync_publication_makes_no_scalar_encrypt_call(
    cipher_fixture, deterministic_ivs, flu_config, flu_generator, request,
    monkeypatch,
):
    cipher = request.getfixturevalue(cipher_fixture)
    calls = []
    for name in SCALAR:
        real = getattr(cipher, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cipher, name, counted)
    config = dataclasses.replace(
        flu_config, deterministic_ivs=deterministic_ivs
    )
    system = FresqueSystem(config, cipher, seed=5)
    summary = system.run_publication(list(flu_generator.raw_lines(600)))
    assert summary.published_pairs > 0
    assert system.merger.reports[-1].padding_encrypts > 0
    assert calls == []
