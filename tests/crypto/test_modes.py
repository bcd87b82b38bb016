"""CBC mode tests, including the NIST SP 800-38A vectors."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import BLOCK_SIZE, AesBlockCipher
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_decrypt_framed,
    cbc_encrypt,
    cbc_encrypt_framed,
)
from repro.crypto.padding import PaddingError
from tests.crypto.reference_aes import reference_cbc_encrypt

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
    """The framed batch forms against the one-message forms: the same
    bytes, the same errors, for any batch shape."""

    def test_encrypt_across_two_run_cuts(self):
        """1 025 messages of lengths 0..80: three kernel runs (512 + 512
        + 1), every padding length, empty and block-aligned plaintexts,
        and chains of one to six blocks sharing each run."""
        cipher = AesBlockCipher(_KEY)
        lengths = [(index * 37) % 81 for index in range(1025)]
        assert {0, 16, 32, 48, 64, 80} <= set(lengths)
        messages = [_message(i, length) for i, length in enumerate(lengths)]
        ivs = [_iv(index) for index in range(len(messages))]
        batch = cbc_encrypt_framed(cipher, messages, b"".join(ivs))
        assert batch == _framed_map(cipher, messages, ivs)
        assert cbc_decrypt_framed(cipher, batch) == messages

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 5])
    def test_small_batches(self, count):
        """Down to a single block in flight per kernel call."""
        cipher = AesBlockCipher(_KEY)
        messages = [_message(index, 7 + 20 * index) for index in range(count)]
        ivs = [_iv(index) for index in range(count)]
        batch = cbc_encrypt_framed(cipher, messages, b"".join(ivs))
        assert batch == _framed_map(cipher, messages, ivs)
        assert cbc_decrypt_framed(cipher, batch) == [
            cbc_decrypt(cipher, ciphertext[BLOCK_SIZE:], iv)
            for ciphertext, iv in zip(batch, ivs)
        ]

    def test_input_order_is_kept_whatever_the_lengths(self):
        """Messages of one to five blocks share the rectangle; results
        come back in the caller's order."""
        cipher = AesBlockCipher(_KEY)
        messages = [
            bytes([index]) * length
            for index, length in enumerate([3, 70, 0, 33, 16, 70, 1])
        ]
        ivs = [_iv(index) for index in range(len(messages))]
        batch = cbc_encrypt_framed(cipher, messages, b"".join(ivs))
        assert batch == _framed_map(cipher, messages, ivs)

    def test_nist_vector_through_decrypt_many(self):
        """SP 800-38A F.2.2 (CBC-AES128.Decrypt): the four vector blocks
        decrypt to the vector plaintext, alone and beside other messages.
        The vector has no PKCS#7 block, so one is chained on."""
        cipher = AesBlockCipher(_KEY)
        final = cbc_encrypt(cipher, b"", _NIST_CIPHER[-BLOCK_SIZE:])
        vector = _IV + _NIST_CIPHER + final
        assert cbc_decrypt_framed(cipher, [vector]) == [_NIST_PLAIN]
        other = _iv(1) + cbc_encrypt(cipher, b"neighbour", _iv(1))
        assert cbc_decrypt_framed(cipher, [other, vector, other, vector]) == [
            b"neighbour", _NIST_PLAIN, b"neighbour", _NIST_PLAIN
        ]

    @given(
        messages=st.lists(st.binary(max_size=80), max_size=6),
        iv_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_decrypt_many_equals_map_property(self, messages, iv_seed):
        cipher = AesBlockCipher(_KEY)
        ivs = [_iv(iv_seed + index) for index in range(len(messages))]
        batch = cbc_encrypt_framed(cipher, messages, b"".join(ivs))
        assert cbc_decrypt_framed(cipher, batch) == messages
        assert [
            cbc_decrypt(cipher, ciphertext[BLOCK_SIZE:], iv)
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
        """A frame ``iv ‖ body`` that ``cbc_decrypt`` rejects is a
        ``ValueError`` wherever in the batch it sits — raised before any
        decryption, so it also beats an earlier element's padding
        error."""
        cipher = AesBlockCipher(_KEY)
        assert _outcome(lambda: cbc_decrypt(cipher, bad_body, bad_iv))[0] is (
            ValueError
        )
        good = _iv(0) + cbc_encrypt(cipher, b"fine", _iv(0))
        bad = bad_iv + bad_body
        expected = _outcome(lambda: cbc_decrypt_framed(cipher, [bad]))
        assert expected[0] is ValueError
        for position in range(3):
            frames = [good, good, good]
            frames[position] = bad
            assert _outcome(lambda: cbc_decrypt_framed(cipher, frames)) == (
                expected
            )
        corrupt_padding = _iv(0) + bytes(BLOCK_SIZE)
        assert _outcome(
            lambda: cbc_decrypt_framed(cipher, [corrupt_padding, bad])
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
            lambda: cbc_decrypt_framed(
                cipher,
                [iv + body, zero_length_iv + body, corrupt_bytes_iv + body],
            )
        ) == zero_length
        assert _outcome(
            lambda: cbc_decrypt_framed(
                cipher,
                [iv + body, corrupt_bytes_iv + body, zero_length_iv + body],
            )
        ) == corrupt_bytes

    def test_count_mismatch_rejected(self):
        cipher = AesBlockCipher(_KEY)
        with pytest.raises(ValueError):
            cbc_encrypt_framed(cipher, [bytes(16), bytes(16)], _IV)


def _framed_map(cipher, messages, ivs) -> list[bytes]:
    """The framed batch as mapping the one-message form builds it."""
    return [
        iv + cbc_encrypt(cipher, message, iv)
        for message, iv in zip(messages, ivs)
    ]


#: Lengths around every block edge the rectangle's padding and cut meet.
_EDGE_LENGTHS = [0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 64, 80]


def _framed_reference(messages, ivs):
    """CBC block after block over the FIPS-197 reference, framed."""
    return [
        iv + reference_cbc_encrypt(_KEY, message, iv)
        for message, iv in zip(messages, ivs)
    ]


class TestRectangle:
    """The framed forms the record cipher calls: messages as equal-width
    rows, cut into bands when one message is far wider than the rest."""

    @given(
        lengths=st.lists(
            st.one_of(
                st.sampled_from(_EDGE_LENGTHS),
                st.integers(min_value=0, max_value=80),
            ),
            max_size=12,
        ),
        long_length=st.one_of(
            st.none(), st.integers(min_value=300, max_value=700)
        ),
        position=st.integers(min_value=0, max_value=12),
        iv_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_encrypt_equals_reference_property(
        self, lengths, long_length, position, iv_seed
    ):
        """Mixed lengths, and at times one message many times longer
        than the rest (its own band), against the reference CBC; the
        framed decrypt recovers them and agrees with mapping."""
        if long_length is not None:
            lengths.insert(min(position, len(lengths)), long_length)
        messages = [
            _message(iv_seed + index, length)
            for index, length in enumerate(lengths)
        ]
        ivs = [_iv(iv_seed + index) for index in range(len(messages))]
        cipher = AesBlockCipher(_KEY)
        framed = cbc_encrypt_framed(cipher, messages, b"".join(ivs))
        assert framed == _framed_reference(messages, ivs)
        assert cbc_decrypt_framed(cipher, framed) == messages
        assert [
            cbc_decrypt(cipher, ciphertext[BLOCK_SIZE:], iv)
            for ciphertext, iv in zip(framed, ivs)
        ] == messages

    @pytest.mark.parametrize("count", [511, 512, 513])
    def test_run_sizes_around_the_cut(self, count):
        """One run, exactly one run, and a second run of one message;
        a long message in the first run gives that run two bands."""
        lengths = [(index * 7) % 50 for index in range(count)]
        lengths[3] = 2000
        messages = [_message(i, length) for i, length in enumerate(lengths)]
        ivs = [_iv(index) for index in range(count)]
        cipher = AesBlockCipher(_KEY)
        framed = cbc_encrypt_framed(cipher, messages, b"".join(ivs))
        assert framed == _framed_reference(messages, ivs)
        assert cbc_decrypt_framed(cipher, framed) == messages

    def test_decrypt_framed_equals_map(self):
        """Framed ciphertexts of every padding length decrypt as mapping
        :func:`cbc_decrypt` over their IVs and bodies does."""
        cipher = AesBlockCipher(_KEY)
        messages = [_message(index, index) for index in range(40)]
        ivs = [_iv(index) for index in range(len(messages))]
        framed = [
            iv + cbc_encrypt(cipher, message, iv)
            for message, iv in zip(messages, ivs)
        ]
        assert cbc_decrypt_framed(cipher, framed) == [
            cbc_decrypt(cipher, ciphertext[BLOCK_SIZE:], ciphertext[:BLOCK_SIZE])
            for ciphertext in framed
        ]
        assert cbc_decrypt_framed(cipher, []) == []

    def test_framed_input_checks(self):
        cipher = AesBlockCipher(_KEY)
        assert cbc_encrypt_framed(cipher, [], b"") == []
        with pytest.raises(ValueError):
            cbc_encrypt_framed(cipher, [b"a", b"b"], _IV)
        with pytest.raises(ValueError, match="shorter than IV"):
            cbc_decrypt_framed(cipher, [bytes(32), bytes(16)])
        with pytest.raises(ValueError, match="block multiple"):
            cbc_decrypt_framed(cipher, [bytes(32), bytes(40)])


def _decrypt_block_by_block(cipher, framed: bytes) -> bytes:
    """CBC decryption of one framed ciphertext over independent ECB
    blocks, padding stripped: no chaining state anywhere."""
    blocks = [
        framed[start : start + BLOCK_SIZE]
        for start in range(0, len(framed), BLOCK_SIZE)
    ]
    plain = b"".join(
        bytes(a ^ b for a, b in zip(cipher.decrypt_blocks(block), previous))
        for previous, block in zip(blocks, blocks[1:])
    )
    return plain[: -plain[-1]]


class TestChainedDecrypt:
    """The framed decrypt is one CBC call per run, and the CBC context
    carries its chain from call to call; the block that chain lands on
    is an IV's, so no call depends on the one before."""

    def _runs(self, cipher):
        runs = []
        for offset, count in ((0, 7), (100, 1), (200, 30)):
            messages = [
                _message(offset + index, (offset + 11 * index) % 70)
                for index in range(count)
            ]
            ivs = b"".join(_iv(offset + index) for index in range(count))
            runs.append(
                (cbc_encrypt_framed(cipher, messages, ivs), messages)
            )
        return runs

    def test_runs_back_to_back_equal_mapping_decrypt(self):
        cipher = AesBlockCipher(_KEY)
        runs = self._runs(cipher)
        for framed, messages in runs + runs[::-1]:
            assert cbc_decrypt_framed(cipher, framed) == messages
            assert [
                _decrypt_block_by_block(cipher, ciphertext)
                for ciphertext in framed
            ] == messages

    def test_interleaved_calls_equal_mapping_decrypt(self):
        """Decrypts of different runs interleaved with encryptions, ECB
        calls and one-message decrypts on the same cipher."""
        cipher = AesBlockCipher(_KEY)
        runs = self._runs(cipher)
        for step in range(6):
            framed, messages = runs[step % len(runs)]
            cipher.encrypt_blocks(_message(step, 48))
            assert cbc_decrypt_framed(cipher, framed) == messages
            cipher.decrypt_blocks(_message(step, 16))
            assert [
                cbc_decrypt(cipher, ciphertext[BLOCK_SIZE:], ciphertext[:BLOCK_SIZE])
                for ciphertext in framed
            ] == messages
            assert cipher.decrypt_chain(b"".join(framed))[BLOCK_SIZE:] == (
                AesBlockCipher(_KEY).decrypt_chain(b"".join(framed))[BLOCK_SIZE:]
            )
