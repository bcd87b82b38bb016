"""Multi-block batch encryption vectors and the batch ≡ map property.

The batched ingest path calls :meth:`RecordCipher.encrypt_batch` once per
:class:`RawBatch`.  Everything downstream (the equivalence harness, the
cloud fingerprints) rests on one contract: *the batch fast path is
byte-identical to mapping* :meth:`encrypt` *over the batch*, IV sequence
included.  This module pins that contract three ways:

* NIST SP 800-38A CBC vectors (AES-128 F.2.1, AES-256 F.2.5) pushed
  through :func:`cbc_encrypt_framed`, including the chained per-block form;
* explicit long chains (≥16 blocks) and every PKCS#7 padding length
  1..16 through the batch path;
* hypothesis round-trip properties for :class:`SimulatedCipher` and
  :class:`AesCbcCipher` (the latter under a deterministic-IV key store,
  since batch-vs-map comparison needs both sides to draw the same IVs).
"""

from __future__ import annotations

import hashlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import BLOCK_SIZE, AesBlockCipher
from repro.crypto.cipher import AesCbcCipher, SimulatedCipher, record_nonce
from repro.crypto.keys import KeyStore
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, cbc_encrypt_framed
from tests.crypto.reference_aes import ReferenceAes, reference_cbc_encrypt

# NIST SP 800-38A F.2.1 (CBC-AES128.Encrypt).
_KEY_128 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
_NIST_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
_NIST_CIPHER_128 = bytes.fromhex(
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7"
)

# NIST SP 800-38A F.2.5 (CBC-AES256.Encrypt), same plaintext and IV.
_KEY_256 = bytes.fromhex(
    "603deb1015ca71be2b73aef0857d7781"
    "1f352c073b6108d72d9810a30914dff4"
)
_NIST_CIPHER_256 = bytes.fromhex(
    "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
    "9cfc4e967edb808d679f777bc6702c7d"
    "39f23369a9d9bacfa530e26304231461"
    "b2eb05e2c39be9fcda6c19078c6a9d1b"
)

_MASTER_KEY = b"fresque-test-master-key-32bytes!"


def _iv(index: int) -> bytes:
    """Deterministic distinct IVs for vector construction."""
    return hashlib.sha256(b"iv-%d" % index).digest()[:BLOCK_SIZE]


class _DeterministicKeyStore(KeyStore):
    """A key store whose IVs come from a counter, not ``os.urandom``.

    Two instances built alike draw identical IV sequences, which is what
    lets the AES batch-vs-map comparison run both sides independently.
    """

    def __init__(self):
        super().__init__(_MASTER_KEY, key_size=16)
        self._iv_counter = 0

    def fresh_ivs(self, count: int) -> bytes:
        first = self._iv_counter + 1
        self._iv_counter += count
        return b"".join([_iv(index) for index in range(first, first + count)])


class TestNistBatchVectors:
    @pytest.mark.parametrize(
        "key, expected",
        [(_KEY_128, _NIST_CIPHER_128), (_KEY_256, _NIST_CIPHER_256)],
        ids=["aes128", "aes256"],
    )
    def test_single_message_batch_matches_vector(self, key, expected):
        cipher = AesBlockCipher(key)
        (framed,) = cbc_encrypt_framed(cipher, [_NIST_PLAIN], _IV)
        # Our CBC appends a PKCS#7 padding block after the four vector
        # blocks; the vector prefix must survive the batch path exactly.
        assert framed[:BLOCK_SIZE] == _IV
        assert framed[BLOCK_SIZE : BLOCK_SIZE + 64] == expected
        assert framed[BLOCK_SIZE:] == cbc_encrypt(cipher, _NIST_PLAIN, _IV)

    @pytest.mark.parametrize(
        "key, expected",
        [(_KEY_128, _NIST_CIPHER_128), (_KEY_256, _NIST_CIPHER_256)],
        ids=["aes128", "aes256"],
    )
    def test_chained_blocks_as_batch_members(self, key, expected):
        """The vector's CBC chain, unrolled into a four-message batch:
        message ``i`` is vector block ``P_i`` under IV ``C_{i-1}`` (with
        ``C_0 = IV``), so each result's first block must be ``C_i``."""
        cipher = AesBlockCipher(key)
        plain_blocks = [_NIST_PLAIN[i : i + 16] for i in range(0, 64, 16)]
        chain_ivs = [_IV] + [expected[i : i + 16] for i in range(0, 48, 16)]
        framed = cbc_encrypt_framed(cipher, plain_blocks, b"".join(chain_ivs))
        for index, ciphertext in enumerate(framed):
            assert ciphertext[16:32] == expected[index * 16 : index * 16 + 16]


class TestLongChainsAndPadding:
    def test_sixteen_block_chain_matches_block_recurrence(self):
        """A ≥16-block message through the batch path satisfies the CBC
        recurrence C_i = E(P_i xor C_{i-1}) block by block, E being the
        FIPS-197 reference."""
        cipher = AesBlockCipher(_KEY_128)
        reference = ReferenceAes(_KEY_128)
        plaintext = bytes(range(256))  # exactly 16 blocks before padding
        (framed,) = cbc_encrypt_framed(cipher, [plaintext], _iv(0))
        ciphertext = framed[BLOCK_SIZE:]
        assert len(ciphertext) == 17 * BLOCK_SIZE  # + full padding block
        padded = plaintext + bytes([BLOCK_SIZE]) * BLOCK_SIZE
        previous = _iv(0)
        for offset in range(0, len(padded), BLOCK_SIZE):
            block = bytes(
                a ^ b
                for a, b in zip(
                    padded[offset : offset + BLOCK_SIZE], previous
                )
            )
            previous = reference.encrypt_block(block)
            assert ciphertext[offset : offset + BLOCK_SIZE] == previous

    def test_mixed_length_chains_in_one_batch(self):
        """Chains of 1..33 blocks share one batch buffer without bleeding
        into each other: each equals its standalone encryption."""
        cipher = AesBlockCipher(_KEY_128)
        plaintexts = [bytes([n % 251]) * (16 * n) for n in (1, 2, 16, 33)]
        ivs = [_iv(n) for n in range(len(plaintexts))]
        batch = cbc_encrypt_framed(cipher, plaintexts, b"".join(ivs))
        for plaintext, iv, framed in zip(plaintexts, ivs, batch):
            assert framed == iv + cbc_encrypt(cipher, plaintext, iv)
            assert cbc_decrypt(cipher, framed[BLOCK_SIZE:], iv) == plaintext

    def test_every_padding_length_through_batch_path(self):
        """Plaintext lengths 0..32 cover every PKCS#7 pad amount 1..16
        twice; all of them in a single batch call."""
        cipher = AesBlockCipher(_KEY_128)
        plaintexts = [bytes([length]) * length for length in range(33)]
        ivs = [_iv(100 + length) for length in range(33)]
        batch = cbc_encrypt_framed(cipher, plaintexts, b"".join(ivs))
        assert {16 - (len(p) % 16) for p in plaintexts} == set(range(1, 17))
        for plaintext, iv, framed in zip(plaintexts, ivs, batch):
            assert framed[:BLOCK_SIZE] == iv
            ciphertext = framed[BLOCK_SIZE:]
            expected_blocks = len(plaintext) // 16 + 1
            assert len(ciphertext) == expected_blocks * BLOCK_SIZE
            assert ciphertext == cbc_encrypt(cipher, plaintext, iv)
            assert cbc_decrypt(cipher, ciphertext, iv) == plaintext

    def test_batch_input_validation(self):
        cipher = AesBlockCipher(_KEY_128)
        assert cbc_encrypt_framed(cipher, [], b"") == []
        with pytest.raises(ValueError):
            cbc_encrypt_framed(cipher, [b"a", b"b"], _iv(0))
        with pytest.raises(ValueError):
            cbc_encrypt_framed(cipher, [b"a"], b"short")


@settings(max_examples=20, deadline=None)
@given(
    messages=st.lists(
        st.binary(min_size=0, max_size=80), min_size=0, max_size=5
    ),
    iv_seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_cbc_many_equals_map(messages, iv_seed):
    """Modes level: one framed batch ≡ one cbc_encrypt call per message
    ≡ CBC block by block over the FIPS-197 reference."""
    cipher = AesBlockCipher(_KEY_128)
    ivs = [_iv(iv_seed + index) for index in range(len(messages))]
    batch = cbc_encrypt_framed(cipher, messages, b"".join(ivs))
    assert batch == [
        iv + cbc_encrypt(cipher, message, iv)
        for message, iv in zip(messages, ivs)
    ]
    assert batch == [
        iv + reference_cbc_encrypt(_KEY_128, message, iv)
        for message, iv in zip(messages, ivs)
    ]


@settings(max_examples=30, deadline=None)
@given(
    messages=st.lists(
        st.binary(min_size=0, max_size=200), min_size=0, max_size=12
    )
)
def test_property_simulated_batch_equals_map(messages):
    """Record-cipher level, fast cipher: two identically-keyed instances,
    one batching and one mapping, must emit identical ciphertexts (the
    batch reserves the same IV-counter run) — and both must decrypt."""
    batching = SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16))
    mapping = SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16))
    batched = batching.encrypt_batch(messages)
    assert batched == [mapping.encrypt(message) for message in messages]
    for message, ciphertext in zip(messages, batched):
        assert mapping.decrypt(ciphertext) == message


@settings(max_examples=10, deadline=None)
@given(
    messages=st.lists(
        st.binary(min_size=0, max_size=48), min_size=0, max_size=4
    )
)
def test_property_aes_batch_equals_map(messages):
    """Record-cipher level, real AES-CBC, under deterministic IVs."""
    batching = AesCbcCipher(_DeterministicKeyStore())
    mapping = AesCbcCipher(_DeterministicKeyStore())
    batched = batching.encrypt_batch(messages)
    assert batched == [mapping.encrypt(message) for message in messages]
    for message, ciphertext in zip(messages, batched):
        assert mapping.decrypt(ciphertext) == message


def test_simulated_interleaved_batches_continue_counter():
    """Mixing single encrypts and batches advances one shared IV counter:
    the concatenated output stream equals the all-singles stream."""
    interleaved = SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16))
    singles = SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16))
    messages = [b"m%d" % n for n in range(7)]
    stream = [interleaved.encrypt(messages[0])]
    stream += interleaved.encrypt_batch(messages[1:4])
    stream += interleaved.encrypt_batch([])
    stream += interleaved.encrypt_batch(messages[4:])
    assert stream == [singles.encrypt(message) for message in messages]


# ---------------------------------------------------------------------------
# Byte identity with the pre-kernel cipher, and one cipher under threads
# ---------------------------------------------------------------------------

#: sha256 over the concatenated ciphertexts of ``_pinned_plaintexts()``
#: under ``record_nonce(0..199)``, recorded at commit 84c0f44 — before the
#: many-block kernel existed — by mapping ``encrypt_seeded`` (one
#: ``cbc_encrypt`` per message over the single-block reference).
_PINNED_SEEDED_STREAM = (
    "cba820f963fa39c99bcb1bf51baced05c110ef7c9ad2c0feccf0047eeeb0071a"
)


def _pinned_plaintexts() -> list[bytes]:
    """200 fixed plaintexts covering every length 0..80."""
    return [
        (hashlib.sha256(b"pt-%d" % index).digest() * 3)[: (index * 7) % 81]
        for index in range(200)
    ]


def test_seeded_batch_stream_is_the_parent_commits():
    """Same key, same IVs, same bytes: neither the many-block kernel nor
    the move to libcrypto changed anything but the cost of the stream."""
    cipher = AesCbcCipher(KeyStore(_MASTER_KEY, key_size=16))
    plaintexts = _pinned_plaintexts()
    nonces = [record_nonce(ordinal) for ordinal in range(len(plaintexts))]
    batch = cipher.encrypt_batch_seeded(plaintexts, nonces)
    assert hashlib.sha256(b"".join(batch)).hexdigest() == _PINNED_SEEDED_STREAM
    assert batch == [
        cipher.encrypt_seeded(plaintext, nonce)
        for plaintext, nonce in zip(plaintexts, nonces)
    ]
    assert cipher.decrypt_batch(batch) == plaintexts


def test_aes_seeded_batch_needs_one_nonce_per_plaintext():
    cipher = AesCbcCipher(KeyStore(_MASTER_KEY, key_size=16))
    with pytest.raises(ValueError):
        cipher.encrypt_batch_seeded([b"a", b"b"], [record_nonce(0)])


def test_one_aes_cipher_shared_by_concurrent_batches():
    """Computing-node threads and the merger share one cipher object: its
    libcrypto contexts are only used with the GIL held, so interleaved
    batches of different shapes all round-trip."""
    cipher = AesCbcCipher(KeyStore(_MASTER_KEY, key_size=16))
    workers = 4
    batches = {
        worker: [
            [
                b"w%d-r%d-m%d:" % (worker, round_, n) + bytes(n * (worker + 1))
                for n in range(3 + 5 * worker)
            ]
            for round_ in range(25)
        ]
        for worker in range(workers)
    }
    results: dict[int, list[list[bytes]]] = {}
    start = threading.Barrier(workers)

    def encrypt_all(worker: int) -> None:
        start.wait(timeout=10)
        results[worker] = [
            cipher.encrypt_batch(batch) for batch in batches[worker]
        ]

    threads = [
        threading.Thread(target=encrypt_all, args=(worker,))
        for worker in range(workers)
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
        assert len(results[worker]) == len(batches[worker])
        for batch, ciphertexts in zip(batches[worker], results[worker]):
            assert cipher.decrypt_batch(ciphertexts) == batch
            assert [cipher.decrypt(c) for c in ciphertexts] == batch
