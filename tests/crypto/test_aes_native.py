"""The ``libcrypto`` binding behind :class:`AesBlockCipher`.

* ECB through ``libcrypto`` equals the FIPS-197 reference
  (:mod:`tests.crypto.reference_aes`) in both directions, for every key
  size and for block counts around the modes' 512-message run;
* one :class:`AesCbcCipher` shared by four threads returns the bytes of
  the same calls made one after the other;
* the error cases: a key of another length, a partial block, and no
  library to load.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aes
from repro.crypto.aes import (
    BLOCK_SIZE,
    AesBlockCipher,
    AesKeyError,
    AesUnavailableError,
)
from repro.crypto.cipher import AesCbcCipher, SimulatedCipher, record_nonce
from repro.crypto.keys import KeyStore
from tests.crypto.reference_aes import ReferenceAes

_MASTER_KEY = b"fresque-test-master-key-32bytes!"


@pytest.mark.parametrize("count", [0, 1, 511, 512, 513, None])
@pytest.mark.parametrize("key_size", [16, 24, 32])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_libcrypto_ecb_equals_the_reference(key_size, count, data):
    """``count`` ``None`` draws the block count too."""
    if count is None:
        count = data.draw(st.integers(min_value=2, max_value=600))
    key = data.draw(st.binary(min_size=key_size, max_size=key_size))
    seed = data.draw(st.binary(min_size=1, max_size=32))
    blocks = hashlib.shake_256(seed).digest(BLOCK_SIZE * count)
    cipher, reference = AesBlockCipher(key), ReferenceAes(key)
    encrypted = cipher.encrypt_blocks(blocks)
    assert encrypted == reference.encrypt_blocks(blocks)
    assert cipher.decrypt_blocks(blocks) == reference.decrypt_blocks(blocks)
    assert cipher.decrypt_blocks(encrypted) == blocks


def test_one_cipher_shared_by_four_threads_returns_the_sequential_bytes():
    """Seeded encryption and batch decryption from four threads at once,
    on one cipher and so on one pair of ``libcrypto`` contexts: every
    call returns what the same call returns when nothing runs beside it."""
    cipher = AesCbcCipher(KeyStore(_MASTER_KEY, key_size=16))
    workers, rounds = 4, 30
    calls = {
        worker: [
            (
                [
                    b"w%d-r%d-m%d:" % (worker, round_, n) + bytes(7 * n)
                    for n in range(1 + (worker * 7 + round_) % 19)
                ],
                [
                    record_nonce(1000 * (rounds * worker + round_) + n)
                    for n in range(1 + (worker * 7 + round_) % 19)
                ],
            )
            for round_ in range(rounds)
        ]
        for worker in range(workers)
    }
    sequential = {
        worker: [
            cipher.encrypt_batch_seeded(plaintexts, nonces)
            for plaintexts, nonces in calls[worker]
        ]
        for worker in range(workers)
    }
    results: dict[int, list[tuple[list[bytes], list[bytes]]]] = {}
    start = threading.Barrier(workers)

    def run(worker: int) -> None:
        start.wait(timeout=10)
        out = []
        for plaintexts, nonces in calls[worker]:
            ciphertexts = cipher.encrypt_batch_seeded(plaintexts, nonces)
            out.append((ciphertexts, cipher.decrypt_batch(ciphertexts)))
        results[worker] = out

    threads = [
        threading.Thread(target=run, args=(worker,)) for worker in range(workers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for worker in range(workers):
        assert [ciphertexts for ciphertexts, _ in results[worker]] == sequential[
            worker
        ]
        assert [decrypted for _, decrypted in results[worker]] == [
            plaintexts for plaintexts, _ in calls[worker]
        ]


@pytest.mark.parametrize("length", [0, 1, 8, 15, 17, 20, 31, 33, 48, 64])
def test_key_of_another_length_is_rejected(length):
    with pytest.raises(AesKeyError):
        AesBlockCipher(bytes(length))


@pytest.mark.parametrize("length", [1, 15, 17, 31, 8191])
def test_partial_block_is_rejected(length):
    cipher = AesBlockCipher(bytes(16))
    with pytest.raises(ValueError, match="multiple of 16"):
        cipher.encrypt_blocks(bytes(length))
    with pytest.raises(ValueError, match="multiple of 16"):
        cipher.decrypt_blocks(bytes(length))


def test_no_library_raises_an_error_naming_it(monkeypatch):
    """When no candidate loads, constructing a cipher says what is
    missing; nothing else (the stand-in cipher) is affected."""

    def no_library(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "PyDLL", no_library)
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    monkeypatch.setattr(aes, "_LIBCRYPTO", aes._load_libcrypto())
    assert aes._LIBCRYPTO is None
    with pytest.raises(AesUnavailableError, match="libcrypto"):
        AesBlockCipher(bytes(16))
    keys = KeyStore(_MASTER_KEY, key_size=16)
    with pytest.raises(AesUnavailableError, match="libcrypto"):
        AesCbcCipher(keys)
    stand_in = SimulatedCipher(keys)
    assert stand_in.decrypt(stand_in.encrypt(b"payload")) == b"payload"
