"""CBC mode tests, including the NIST SP 800-38A vectors."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import BLOCK_SIZE, AesBlockCipher
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_decrypt_many,
    cbc_encrypt,
    cbc_encrypt_many,
)
from repro.crypto.padding import PaddingError

# NIST SP 800-38A F.2.1 (AES-128 CBC).
_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
_NIST_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
_NIST_CIPHER = bytes.fromhex(
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7"
)


class TestNistVectors:
    def test_cbc_encrypt_blocks_match(self):
        cipher = AesBlockCipher(_KEY)
        ciphertext = cbc_encrypt(cipher, _NIST_PLAIN, _IV)
        # Our CBC appends a PKCS#7 padding block; the first four blocks
        # must match the NIST vector exactly.
        assert ciphertext[:64] == _NIST_CIPHER

    def test_cbc_decrypt_recovers_plaintext(self):
        cipher = AesBlockCipher(_KEY)
        ciphertext = cbc_encrypt(cipher, _NIST_PLAIN, _IV)
        assert cbc_decrypt(cipher, ciphertext, _IV) == _NIST_PLAIN


class TestCbcBehaviour:
    def test_iv_must_be_block_sized(self):
        cipher = AesBlockCipher(_KEY)
        with pytest.raises(ValueError):
            cbc_encrypt(cipher, b"data", b"short-iv")
        with pytest.raises(ValueError):
            cbc_decrypt(cipher, b"\x00" * 16, b"short-iv")

    def test_ciphertext_must_be_block_multiple(self):
        cipher = AesBlockCipher(_KEY)
        with pytest.raises(ValueError):
            cbc_decrypt(cipher, b"\x00" * 17, _IV)
        with pytest.raises(ValueError):
            cbc_decrypt(cipher, b"", _IV)

    def test_same_plaintext_different_iv_differs(self):
        cipher = AesBlockCipher(_KEY)
        other_iv = bytes(reversed(_IV))
        assert cbc_encrypt(cipher, b"hello", _IV) != cbc_encrypt(
            cipher, b"hello", other_iv
        )

    def test_tampered_ciphertext_fails_padding(self):
        cipher = AesBlockCipher(_KEY)
        ciphertext = bytearray(cbc_encrypt(cipher, b"hello world", _IV))
        ciphertext[-1] ^= 0xFF
        with pytest.raises((PaddingError, ValueError)):
            cbc_decrypt(cipher, bytes(ciphertext), _IV)

    @given(st.binary(min_size=0, max_size=200))
    def test_roundtrip_property(self, plaintext):
        """CBC decrypt(encrypt(m)) == m for any message length."""
        cipher = AesBlockCipher(_KEY)
        ciphertext = cbc_encrypt(cipher, plaintext, _IV)
        assert len(ciphertext) % 16 == 0
        assert cbc_decrypt(cipher, ciphertext, _IV) == plaintext


def _iv(index: int) -> bytes:
    return hashlib.sha256(b"modes-iv-%d" % index).digest()[:BLOCK_SIZE]


def _message(index: int, length: int) -> bytes:
    return hashlib.shake_256(b"modes-message-%d" % index).digest(length)


def _outcome(call):
    """What a call produced: its value, or its error's type and text."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


class TestManyEqualsMap:
    """The batch forms against the one-message forms they replace: the
    same bytes, the same errors, for any batch shape."""

    def test_encrypt_across_two_run_cuts(self):
        """1 025 messages of lengths 0..80: three kernel runs (512 + 512
        + 1), every padding length, empty and block-aligned plaintexts,
        and chains of one to six blocks sharing each run."""
        cipher = AesBlockCipher(_KEY)
        lengths = [(index * 37) % 81 for index in range(1025)]
        assert {0, 16, 32, 48, 64, 80} <= set(lengths)
        messages = [_message(i, length) for i, length in enumerate(lengths)]
        ivs = [_iv(index) for index in range(len(messages))]
        batch = cbc_encrypt_many(cipher, messages, ivs)
        assert batch == [
            cbc_encrypt(cipher, message, iv)
            for message, iv in zip(messages, ivs)
        ]
        assert cbc_decrypt_many(cipher, batch, ivs) == messages

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 5])
    def test_small_batches(self, count):
        """Down to a single block in flight per kernel call."""
        cipher = AesBlockCipher(_KEY)
        messages = [_message(index, 7 + 20 * index) for index in range(count)]
        ivs = [_iv(index) for index in range(count)]
        batch = cbc_encrypt_many(cipher, messages, ivs)
        assert batch == [
            cbc_encrypt(cipher, message, iv)
            for message, iv in zip(messages, ivs)
        ]
        assert cbc_decrypt_many(cipher, batch, ivs) == [
            cbc_decrypt(cipher, ciphertext, iv)
            for ciphertext, iv in zip(batch, ivs)
        ]

    def test_input_order_is_kept_whatever_the_lengths(self):
        """Internally the run is sorted longest-first; results come back
        in the caller's order."""
        cipher = AesBlockCipher(_KEY)
        messages = [
            bytes([index]) * length
            for index, length in enumerate([3, 70, 0, 33, 16, 70, 1])
        ]
        ivs = [_iv(index) for index in range(len(messages))]
        batch = cbc_encrypt_many(cipher, messages, ivs)
        for message, iv, ciphertext in zip(messages, ivs, batch):
            assert ciphertext == cbc_encrypt(cipher, message, iv)

    def test_nist_vector_through_decrypt_many(self):
        """SP 800-38A F.2.2 (CBC-AES128.Decrypt): the four vector blocks
        decrypt to the vector plaintext, alone and beside other messages.
        The vector has no PKCS#7 block, so one is chained on."""
        cipher = AesBlockCipher(_KEY)
        final = cbc_encrypt(cipher, b"", _NIST_CIPHER[-BLOCK_SIZE:])
        vector = _NIST_CIPHER + final
        assert cbc_decrypt_many(cipher, [vector], [_IV]) == [_NIST_PLAIN]
        other = cbc_encrypt(cipher, b"neighbour", _iv(1))
        assert cbc_decrypt_many(
            cipher, [other, vector, other, vector], [_iv(1), _IV, _iv(1), _IV]
        ) == [b"neighbour", _NIST_PLAIN, b"neighbour", _NIST_PLAIN]

    @given(
        messages=st.lists(st.binary(max_size=80), max_size=6),
        iv_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_decrypt_many_equals_map_property(self, messages, iv_seed):
        cipher = AesBlockCipher(_KEY)
        ivs = [_iv(iv_seed + index) for index in range(len(messages))]
        batch = cbc_encrypt_many(cipher, messages, ivs)
        assert cbc_decrypt_many(cipher, batch, ivs) == messages
        assert [
            cbc_decrypt(cipher, ciphertext, iv)
            for ciphertext, iv in zip(batch, ivs)
        ] == messages

    @pytest.mark.parametrize(
        "bad_body, bad_iv",
        [
            (b"", _IV),
            (b"\x00" * 17, _IV),
            (b"\x00" * 15, _IV),
            (b"\x00" * 16, b"short-iv"),
            (b"\x00" * 16, b""),
            (b"", b"short-iv"),
        ],
    )
    def test_decrypt_many_rejects_what_decrypt_rejects(self, bad_body, bad_iv):
        """Same ``ValueError`` text as ``cbc_decrypt``, wherever in the
        batch the malformed element sits — and before any decryption, so
        it also beats an earlier element's padding error."""
        cipher = AesBlockCipher(_KEY)
        good = cbc_encrypt(cipher, b"fine", _iv(0))
        expected = _outcome(lambda: cbc_decrypt(cipher, bad_body, bad_iv))
        assert expected[0] is ValueError
        for position in range(3):
            bodies = [good, good, good]
            ivs = [_iv(0), _iv(0), _iv(0)]
            bodies[position], ivs[position] = bad_body, bad_iv
            assert _outcome(
                lambda: cbc_decrypt_many(cipher, bodies, ivs)
            ) == expected
        corrupt_padding = bytes(BLOCK_SIZE)
        assert _outcome(
            lambda: cbc_decrypt_many(
                cipher, [corrupt_padding, bad_body], [_iv(0), bad_iv]
            )
        ) == expected

    def test_decrypt_many_raises_the_first_padding_error(self):
        """Two elements with different padding faults, in both orders.
        A one-block message's plaintext is D(C) ^ IV, so a fault is
        planted by flipping IV bits."""
        cipher = AesBlockCipher(_KEY)
        iv = _iv(0)
        body = cbc_encrypt(cipher, b"x" * 12, iv)  # padded with 4 x 0x04
        zero_length_iv = iv[:-1] + bytes([iv[-1] ^ 4])
        corrupt_bytes_iv = iv[:-2] + bytes([iv[-2] ^ 1]) + iv[-1:]
        zero_length = _outcome(lambda: cbc_decrypt(cipher, body, zero_length_iv))
        corrupt_bytes = _outcome(
            lambda: cbc_decrypt(cipher, body, corrupt_bytes_iv)
        )
        assert zero_length == (PaddingError, "invalid padding length 0")
        assert corrupt_bytes == (PaddingError, "corrupt padding bytes")
        assert _outcome(
            lambda: cbc_decrypt_many(
                cipher, [body] * 3, [iv, zero_length_iv, corrupt_bytes_iv]
            )
        ) == zero_length
        assert _outcome(
            lambda: cbc_decrypt_many(
                cipher, [body] * 3, [iv, corrupt_bytes_iv, zero_length_iv]
            )
        ) == corrupt_bytes

    def test_count_mismatch_rejected(self):
        cipher = AesBlockCipher(_KEY)
        with pytest.raises(ValueError):
            cbc_decrypt_many(cipher, [bytes(16), bytes(16)], [_IV])
