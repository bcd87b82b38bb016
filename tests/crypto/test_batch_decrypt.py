"""The batch ≡ map property of :meth:`RecordCipher.decrypt_batch`.

The query client decrypts a whole result set with one ``decrypt_batch``
call.  The contract mirrors ``test_batch_encrypt.py``: *the batch path is
identical to mapping* :meth:`decrypt` — same plaintexts, and for a
malformed element the same :class:`DecryptionError` at the same element.
In particular the length and PKCS#7 checks run on every ciphertext,
whatever it decrypts to: a dummy with corrupt padding is as much a
protocol violation as a real record with corrupt padding.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import BLOCK_SIZE
from repro.crypto.cipher import AesCbcCipher, DecryptionError, SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.records.schema import flu_survey_schema
from repro.records.serialize import (
    DUMMY_PAYLOAD_PREFIX,
    DummyRecordSerializer,
)

_MASTER_KEY = b"fresque-test-master-key-32bytes!"


def _simulated():
    return SimulatedCipher(KeyStore(_MASTER_KEY))


def _aes():
    return AesCbcCipher(KeyStore(_MASTER_KEY, key_size=16))


_CIPHERS = pytest.mark.parametrize(
    "make_cipher",
    [_simulated, _aes],
    ids=["simulated", "aes-cbc"],
)

#: Which ciphertext byte carries the last padding byte: the keystream
#: cipher XORs in place; in CBC the last plaintext block is XORed with
#: the ciphertext block before it (the IV for a one-block message).
_LAST_PAD_BYTE = {
    _simulated: -1,
    _aes: -1 - BLOCK_SIZE,
}


def _with_zero_pad_length(ciphertext: bytes, plaintext: bytes, position: int):
    """``ciphertext`` changed so its padding length decrypts to 0 —
    always invalid PKCS#7, whatever the plaintext length."""
    pad_length = BLOCK_SIZE - len(plaintext) % BLOCK_SIZE
    corrupted = bytearray(ciphertext)
    corrupted[position] ^= pad_length
    return bytes(corrupted)


def _outcome(decrypt):
    """What a decryption produced: its plaintexts, or its error."""
    try:
        return decrypt()
    except DecryptionError as exc:
        return type(exc), str(exc)


def _both_forms(cipher, ciphertexts):
    batch = _outcome(lambda: cipher.decrypt_batch(ciphertexts))
    mapped = _outcome(lambda: [cipher.decrypt(c) for c in ciphertexts])
    assert batch == mapped
    return batch


@_CIPHERS
class TestBatchEqualsMap:
    def test_empty_batch(self, make_cipher):
        assert make_cipher().decrypt_batch([]) == []

    def test_every_padding_length(self, make_cipher):
        cipher = make_cipher()
        messages = [bytes(range(length)) for length in range(40)]
        ciphertexts = [cipher.encrypt(message) for message in messages]
        assert _both_forms(cipher, ciphertexts) == messages

    def test_too_short_ciphertext_raises_from_both_forms(self, make_cipher):
        cipher = make_cipher()
        good = cipher.encrypt(b"payload")
        outcome = _both_forms(cipher, [good, good[:BLOCK_SIZE], good])
        assert issubclass(outcome[0], DecryptionError)

    def test_first_bad_element_decides_the_error(self, make_cipher):
        """Two malformed elements with different faults: the batch raises
        what mapping raises — the earlier element's error."""
        cipher = make_cipher()
        good = cipher.encrypt(b"payload")
        tampered = _with_zero_pad_length(
            good, b"payload", _LAST_PAD_BYTE[make_cipher]
        )
        first = _both_forms(cipher, [good, tampered, good[:3]])
        second = _both_forms(cipher, [good, good[:3], tampered])
        assert first == _outcome(lambda: cipher.decrypt(tampered))
        assert second == _outcome(lambda: cipher.decrypt(good[:3]))
        assert first != second


@_CIPHERS
class TestPaddingIsCheckedOnEveryElement:
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_corrupt_padding_at_position_k(self, make_cipher, position):
        cipher = make_cipher()
        messages = [b"record-%d" % index * index for index in range(5)]
        ciphertexts = [cipher.encrypt(message) for message in messages]
        assert _both_forms(cipher, ciphertexts) == messages
        ciphertexts[position] = _with_zero_pad_length(
            ciphertexts[position],
            messages[position],
            _LAST_PAD_BYTE[make_cipher],
        )
        assert _both_forms(cipher, ciphertexts) == (
            DecryptionError,
            "invalid padding length 0",
        )

    def test_corrupt_padding_on_a_dummy(self, make_cipher):
        """The check is not conditional on the flag the plaintext leads
        with: a dummy whose padding is corrupt fails the batch."""
        cipher = make_cipher()
        serializer = DummyRecordSerializer(flu_survey_schema())
        (dummy,) = serializer.serialize_many([37.5])
        assert dummy.startswith(DUMMY_PAYLOAD_PREFIX)
        real = b"\x00" + dummy[1:]
        ciphertexts = [cipher.encrypt(p) for p in (real, dummy, real)]
        assert _both_forms(cipher, ciphertexts) == [real, dummy, real]
        ciphertexts[1] = _with_zero_pad_length(
            ciphertexts[1], dummy, _LAST_PAD_BYTE[make_cipher]
        )
        assert _both_forms(cipher, ciphertexts) == (
            DecryptionError,
            "invalid padding length 0",
        )


#: Plaintext lengths whose padded bodies run from 16 to 256 bytes, with
#: odd and even 16-byte block counts side by side (1, 16, 2, 2, 3, 3, 7,
#: 16, 1, 5, 13, 9, 1): the stand-in zero-extends the odd ones to whole
#: 32-byte keystream blocks inside one joined buffer.
_MIXED_LENGTHS = (0, 255, 16, 31, 32, 47, 100, 240, 15, 64, 200, 128, 1)


@_CIPHERS
@pytest.mark.parametrize(
    "position",
    [0, len(_MIXED_LENGTHS) // 2, len(_MIXED_LENGTHS) - 1],
    ids=["first", "middle", "last"],
)
def test_mixed_length_batch_with_one_corrupt_element(make_cipher, position):
    cipher = make_cipher()
    messages = [bytes(range(length)) for length in _MIXED_LENGTHS]
    ciphertexts = [cipher.encrypt(message) for message in messages]
    assert _both_forms(cipher, ciphertexts) == messages
    for corrupt in (
        _with_zero_pad_length(
            ciphertexts[position], messages[position], _LAST_PAD_BYTE[make_cipher]
        ),
        ciphertexts[position][:-1],  # an impossible length
    ):
        batch = list(ciphertexts)
        batch[position] = corrupt
        outcome = _both_forms(cipher, batch)
        assert outcome == _outcome(lambda: cipher.decrypt(corrupt))
        assert issubclass(outcome[0], DecryptionError)


_messages = st.lists(st.binary(max_size=200), max_size=12)


@given(messages=_messages)
@settings(max_examples=60, deadline=None)
def test_simulated_batch_equals_map(messages):
    cipher = _simulated()
    ciphertexts = cipher.encrypt_batch(messages)
    assert cipher.decrypt_batch(ciphertexts) == messages
    assert [cipher.decrypt(c) for c in ciphertexts] == messages


@given(messages=st.lists(st.binary(max_size=70), max_size=4))
@settings(max_examples=15, deadline=None)
def test_aes_batch_equals_map(messages):
    cipher = _aes()
    ciphertexts = cipher.encrypt_batch(messages)
    assert cipher.decrypt_batch(ciphertexts) == messages
    assert [cipher.decrypt(c) for c in ciphertexts] == messages


@given(blobs=st.lists(st.binary(max_size=80), max_size=6))
@settings(max_examples=40, deadline=None)
def test_aes_batch_equals_map_on_arbitrary_bytes(blobs):
    """Arbitrary byte strings of every length class — too short, not a
    block multiple, well-formed with (almost surely) invalid padding."""
    _both_forms(_aes(), blobs)


@given(blobs=st.lists(st.binary(max_size=80), max_size=6))
@settings(max_examples=80, deadline=None)
def test_simulated_batch_equals_map_on_arbitrary_bytes(blobs):
    """Not only on well-formed ciphertexts: whatever mapping does with a
    byte string — plaintext or error — the batch does too."""
    _both_forms(_simulated(), blobs)
