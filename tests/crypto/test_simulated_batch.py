"""The stand-in cipher's one-pass batch path is mapped ``encrypt``.

``SimulatedCipher.encrypt_batch`` and ``encrypt_batch_seeded`` pad every
plaintext, join them, join every keystream, XOR the two joins as one big
integer and cut the result back into messages.  Nothing about that may
show in the bytes: each property below compares the batch with the
per-message form over plaintext lengths 0–130, which cross the 32- and
64-byte keystream boundaries (a keystream is whole SHA-256 digests,
trimmed) as well as every PKCS#7 padding length.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import SimulatedCipher, padding_nonce, record_nonce
from repro.crypto.keys import KeyStore

_MASTER_KEY = b"fresque-test-master-key-32bytes!"

_plaintexts = st.lists(st.binary(min_size=0, max_size=130), max_size=24)


def _cipher() -> SimulatedCipher:
    return SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16))


def test_every_length_up_to_130_in_one_batch():
    plaintexts = [bytes(range(length)) for length in range(131)]
    batching, mapping = _cipher(), _cipher()
    batch = batching.encrypt_batch(plaintexts)
    assert batch == [mapping.encrypt(plaintext) for plaintext in plaintexts]
    assert mapping.decrypt_batch(batch) == plaintexts
    nonces = [record_nonce(length) for length in range(131)]
    assert batching.encrypt_batch_seeded(plaintexts, nonces) == [
        mapping.encrypt_seeded(plaintext, nonce)
        for plaintext, nonce in zip(plaintexts, nonces)
    ]


@settings(max_examples=60, deadline=None)
@given(plaintexts=_plaintexts)
def test_batch_equals_mapped_encrypt(plaintexts):
    batching, mapping = _cipher(), _cipher()
    batch = batching.encrypt_batch(plaintexts)
    assert batch == [mapping.encrypt(plaintext) for plaintext in plaintexts]
    assert [mapping.decrypt(ciphertext) for ciphertext in batch] == plaintexts


@settings(max_examples=60, deadline=None)
@given(plaintexts=_plaintexts, publication=st.integers(0, 2**40))
def test_seeded_batch_equals_mapped_encrypt_seeded(plaintexts, publication):
    cipher = _cipher()
    nonces = [
        padding_nonce(publication, counter)
        for counter in range(len(plaintexts))
    ]
    assert cipher.encrypt_batch_seeded(plaintexts, nonces) == [
        cipher.encrypt_seeded(plaintext, nonce)
        for plaintext, nonce in zip(plaintexts, nonces)
    ]


@settings(max_examples=30, deadline=None)
@given(runs=st.lists(_plaintexts, max_size=5))
def test_consecutive_batches_continue_the_counter(runs):
    """Batch after batch, empty ones included, the IV counter runs on as
    if every message had been one ``encrypt`` call."""
    batching, mapping = _cipher(), _cipher()
    stream = [c for run in runs for c in batching.encrypt_batch(run)]
    assert stream == [mapping.encrypt(p) for run in runs for p in run]


def test_two_threads_drawing_batches_never_share_an_iv():
    """The counter run is reserved under the lock: two threads batching on
    one cipher get disjoint IVs, and the union of their IVs is exactly
    the counter sequence a single thread would have drawn."""
    cipher = _cipher()
    rounds, size = 40, 25
    ivs: dict[int, list[bytes]] = {0: [], 1: []}
    plaintexts: dict[int, list[bytes]] = {}
    ciphertexts: dict[int, list[bytes]] = {0: [], 1: []}
    start = threading.Barrier(2)

    def draw(worker: int) -> None:
        start.wait(timeout=10)
        for round_ in range(rounds):
            batch = [
                b"w%d-r%d-m%d" % (worker, round_, n) + bytes(n * 7 % 70)
                for n in range(size)
            ]
            plaintexts.setdefault(worker, []).extend(batch)
            out = cipher.encrypt_batch(batch)
            ciphertexts[worker] += out
            ivs[worker] += [ciphertext[:16] for ciphertext in out]

    threads = [threading.Thread(target=draw, args=(w,)) for w in (0, 1)]
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
    drawn = ivs[0] + ivs[1]
    assert len(set(drawn)) == len(drawn) == 2 * rounds * size
    single = _cipher()
    assert set(drawn) == {
        ciphertext[:16]
        for ciphertext in single.encrypt_batch([b""] * len(drawn))
    }
    for worker in (0, 1):
        assert cipher.decrypt_batch(ciphertexts[worker]) == plaintexts[worker]
