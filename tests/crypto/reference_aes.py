"""FIPS-197 single-block AES, step by step: the tests' oracle.

:class:`repro.crypto.aes.AesBlockCipher` calls OpenSSL's ``libcrypto``;
this module is the independent implementation the vector and equivalence
tests check it against.  It follows the standard one round step at a time
over a 16-element state and is slow (tens of µs per block), which is fine
for an oracle and is why nothing under ``src/`` uses it.
"""

from __future__ import annotations

from repro.crypto.aes import BLOCK_SIZE, check_key
from repro.crypto.padding import pad

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8]


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a


def _gmul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Precomputed multiplication tables for MixColumns / InvMixColumns.
_MUL2 = [_gmul(x, 2) for x in range(256)]
_MUL3 = [_gmul(x, 3) for x in range(256)]
_MUL9 = [_gmul(x, 9) for x in range(256)]
_MUL11 = [_gmul(x, 11) for x in range(256)]
_MUL13 = [_gmul(x, 13) for x in range(256)]
_MUL14 = [_gmul(x, 14) for x in range(256)]


def expand_key(key: bytes) -> list[list[int]]:
    """Expand an AES key into the per-round key schedule.

    Returns a list of ``rounds + 1`` round keys, each a flat list of 16
    byte values in column-major (state) order.  Raises
    :class:`~repro.crypto.aes.AesKeyError` for a key of another length.
    """
    check_key(key)
    nk = len(key) // 4
    rounds = {4: 10, 6: 12, 8: 14}[nk]
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        word = list(words[i - 1])
        if i % nk == 0:
            word = word[1:] + word[:1]
            word = [_SBOX[b] for b in word]
            word[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            word = [_SBOX[b] for b in word]
        word = [a ^ b for a, b in zip(word, words[i - nk])]
        words.append(word)
    round_keys = []
    for round_index in range(rounds + 1):
        chunk = words[4 * round_index : 4 * round_index + 4]
        round_keys.append([b for word in chunk for b in word])
    return round_keys


def _sub_bytes(state: list[int]) -> None:
    for i in range(16):
        state[i] = _SBOX[state[i]]


def _inv_sub_bytes(state: list[int]) -> None:
    for i in range(16):
        state[i] = _INV_SBOX[state[i]]


# The state is stored column-major: byte r,c lives at index 4*c + r.
_SHIFT_MAP = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]
_INV_SHIFT_MAP = [0] * 16
for _dst, _src in enumerate(_SHIFT_MAP):
    _INV_SHIFT_MAP[_src] = _dst


def _shift_rows(state: list[int]) -> list[int]:
    return [state[_SHIFT_MAP[i]] for i in range(16)]


def _inv_shift_rows(state: list[int]) -> list[int]:
    return [state[_INV_SHIFT_MAP[i]] for i in range(16)]


def _mix_columns(state: list[int]) -> None:
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = state[c : c + 4]
        state[c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
        state[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
        state[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
        state[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]


def _inv_mix_columns(state: list[int]) -> None:
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = state[c : c + 4]
        state[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
        state[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
        state[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
        state[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]


def _add_round_key(state: list[int], round_key: list[int]) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


class ReferenceAes:
    """One 16-byte block at a time, as FIPS-197 writes it.

    Parameters
    ----------
    key:
        16-, 24- or 32-byte secret key.
    """

    def __init__(self, key: bytes):
        self._round_keys = expand_key(key)
        self._rounds = len(self._round_keys) - 1

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = list(block)
        _add_round_key(state, self._round_keys[0])
        for round_index in range(1, self._rounds):
            _sub_bytes(state)
            state = _shift_rows(state)
            _mix_columns(state)
            _add_round_key(state, self._round_keys[round_index])
        _sub_bytes(state)
        state = _shift_rows(state)
        _add_round_key(state, self._round_keys[self._rounds])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = list(block)
        _add_round_key(state, self._round_keys[self._rounds])
        for round_index in range(self._rounds - 1, 0, -1):
            state = _inv_shift_rows(state)
            _inv_sub_bytes(state)
            _add_round_key(state, self._round_keys[round_index])
            _inv_mix_columns(state)
        state = _inv_shift_rows(state)
        _inv_sub_bytes(state)
        _add_round_key(state, self._round_keys[0])
        return bytes(state)

    def encrypt_blocks(self, data: bytes) -> bytes:
        """:meth:`encrypt_block` over every 16-byte piece of ``data``."""
        return _each_block(self.encrypt_block, data)

    def decrypt_blocks(self, data: bytes) -> bytes:
        """:meth:`decrypt_block` over every 16-byte piece of ``data``."""
        return _each_block(self.decrypt_block, data)


def _each_block(transform, data: bytes) -> bytes:
    return b"".join(
        transform(data[offset : offset + BLOCK_SIZE])
        for offset in range(0, len(data), BLOCK_SIZE)
    )


def reference_cbc_encrypt(key: bytes, plaintext: bytes, iv: bytes) -> bytes:
    """CBC with PKCS#7 padding over :class:`ReferenceAes`, one block after
    the other: ``C_j = E(P_j ^ C_{j-1})`` with ``C_{-1} = iv``."""
    cipher = ReferenceAes(key)
    padded = pad(plaintext, BLOCK_SIZE)
    previous, out = iv, []
    for offset in range(0, len(padded), BLOCK_SIZE):
        block = padded[offset : offset + BLOCK_SIZE]
        previous = cipher.encrypt_block(
            bytes(a ^ b for a, b in zip(block, previous))
        )
        out.append(previous)
    return b"".join(out)
