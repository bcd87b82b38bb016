"""AES block cipher tests against the FIPS-197 / NIST vectors."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import BLOCK_SIZE, AesBlockCipher, AesKeyError, expand_key

# FIPS-197 Appendix C: key = 000102...; plaintext = 00112233...
_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
_VECTORS = {
    16: "69c4e0d86a7b0430d8cdb78070b4c55a",
    24: "dda97ca4864cdfe06eaf70a0ec0d7191",
    32: "8ea2b7ca516745bfeafc49904b496089",
}


class TestFips197Vectors:
    @pytest.mark.parametrize("key_size", sorted(_VECTORS))
    def test_encrypt_vector(self, key_size):
        cipher = AesBlockCipher(bytes(range(key_size)))
        assert cipher.encrypt_block(_PLAINTEXT).hex() == _VECTORS[key_size]

    @pytest.mark.parametrize("key_size", sorted(_VECTORS))
    def test_decrypt_vector(self, key_size):
        cipher = AesBlockCipher(bytes(range(key_size)))
        ciphertext = bytes.fromhex(_VECTORS[key_size])
        assert cipher.decrypt_block(ciphertext) == _PLAINTEXT

    def test_appendix_b_vector(self):
        # FIPS-197 Appendix B worked example.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        cipher = AesBlockCipher(key)
        assert (
            cipher.encrypt_block(plaintext).hex()
            == "3925841d02dc09fbdc118597196a0b32"
        )


# FIPS-197 Appendix B worked example (AES-128).
_APPENDIX_B = (
    bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
    bytes.fromhex("3243f6a8885a308d313198a2e0370734"),
    bytes.fromhex("3925841d02dc09fbdc118597196a0b32"),
)


def _each_block(transform, data):
    """The single-block reference mapped over ``data``: the kernel's oracle."""
    return b"".join(
        transform(data[offset : offset + BLOCK_SIZE])
        for offset in range(0, len(data), BLOCK_SIZE)
    )


class TestManyBlockKernelVectors:
    """The FIPS-197 vectors through ``encrypt_blocks`` / ``decrypt_blocks``."""

    @pytest.mark.parametrize("key_size", sorted(_VECTORS))
    def test_appendix_c_alone(self, key_size):
        cipher = AesBlockCipher(bytes(range(key_size)))
        ciphertext = bytes.fromhex(_VECTORS[key_size])
        assert cipher.encrypt_blocks(_PLAINTEXT) == ciphertext
        assert cipher.decrypt_blocks(ciphertext) == _PLAINTEXT

    @pytest.mark.parametrize("copies", [2, 7, 64, 300])
    @pytest.mark.parametrize("key_size", sorted(_VECTORS))
    def test_appendix_c_inside_a_larger_call(self, key_size, copies):
        """The vector at every position of a call whose other blocks all
        differ: no block's result depends on its neighbours or position."""
        cipher = AesBlockCipher(bytes(range(key_size)))
        ciphertext = bytes.fromhex(_VECTORS[key_size])
        filler = [bytes([index % 256]) * BLOCK_SIZE for index in range(copies)]
        plain = b"".join(_PLAINTEXT + block for block in filler)
        encrypted = cipher.encrypt_blocks(plain)
        for index in range(copies):
            start = 2 * BLOCK_SIZE * index
            assert encrypted[start : start + BLOCK_SIZE] == ciphertext
        assert cipher.decrypt_blocks(encrypted) == plain
        assert cipher.encrypt_blocks(_PLAINTEXT * copies) == ciphertext * copies
        assert cipher.decrypt_blocks(ciphertext * copies) == _PLAINTEXT * copies

    @pytest.mark.parametrize("copies", [1, 5, 129])
    def test_appendix_b(self, copies):
        key, plaintext, ciphertext = _APPENDIX_B
        cipher = AesBlockCipher(key)
        assert cipher.encrypt_blocks(plaintext * copies) == ciphertext * copies
        assert cipher.decrypt_blocks(ciphertext * copies) == plaintext * copies


class TestManyBlockKernelEqualsReference:
    @pytest.mark.parametrize("count", [1, 2, 3, 63, 64, 65, 511, 513])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_kernel_equals_mapped_single_block(self, count, data):
        """``encrypt_blocks(d)`` is ``encrypt_block`` over the pieces of
        ``d``, and ``decrypt_blocks`` likewise, for every key size."""
        key_size = data.draw(st.sampled_from([16, 24, 32]))
        key = data.draw(st.binary(min_size=key_size, max_size=key_size))
        # Hypothesis draws a short seed; the call's 16 * count bytes are
        # that seed either repeated (runs of equal and near-equal blocks)
        # or stretched by SHAKE-256 (every block different).
        seed = data.draw(st.binary(min_size=1, max_size=48))
        size = BLOCK_SIZE * count
        if data.draw(st.booleans()):
            blocks = (seed * (size // len(seed) + 1))[:size]
        else:
            blocks = hashlib.shake_256(seed).digest(size)
        cipher = AesBlockCipher(key)
        encrypted = cipher.encrypt_blocks(blocks)
        assert encrypted == _each_block(cipher.encrypt_block, blocks)
        assert cipher.decrypt_blocks(blocks) == _each_block(
            cipher.decrypt_block, blocks
        )
        assert cipher.decrypt_blocks(encrypted) == blocks

    def test_empty_input(self):
        cipher = AesBlockCipher(bytes(16))
        assert cipher.encrypt_blocks(b"") == b""
        assert cipher.decrypt_blocks(b"") == b""

    @pytest.mark.parametrize("length", [1, 15, 17, 31, 1000])
    def test_partial_block_rejected(self, length):
        cipher = AesBlockCipher(bytes(16))
        with pytest.raises(ValueError):
            cipher.encrypt_blocks(bytes(length))
        with pytest.raises(ValueError):
            cipher.decrypt_blocks(bytes(length))


class TestKeyExpansion:
    def test_round_key_counts(self):
        assert len(expand_key(bytes(16))) == 11
        assert len(expand_key(bytes(24))) == 13
        assert len(expand_key(bytes(32))) == 15

    def test_first_round_key_is_key(self):
        key = bytes(range(16))
        assert bytes(expand_key(key)[0]) == key

    @pytest.mark.parametrize("bad", [0, 1, 15, 17, 33, 64])
    def test_bad_key_sizes_rejected(self, bad):
        with pytest.raises(AesKeyError):
            expand_key(bytes(bad))


class TestBlockOperations:
    def test_wrong_block_size_rejected(self):
        cipher = AesBlockCipher(bytes(16))
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"short")
        with pytest.raises(ValueError):
            cipher.decrypt_block(b"x" * 17)

    def test_encryption_changes_data(self):
        cipher = AesBlockCipher(bytes(16))
        block = b"\x00" * BLOCK_SIZE
        assert cipher.encrypt_block(block) != block

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_roundtrip_property(self, key, block):
        """decrypt(encrypt(x)) == x for every key/block pair."""
        cipher = AesBlockCipher(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @given(st.binary(min_size=16, max_size=16))
    def test_different_keys_differ(self, block):
        a = AesBlockCipher(b"\x00" * 16)
        b = AesBlockCipher(b"\x01" + b"\x00" * 15)
        assert a.encrypt_block(block) != b.encrypt_block(block)
