"""Pure-Python AES block cipher (FIPS-197).

The paper encrypts records with ``javax.crypto`` AES; no third-party crypto
package is available offline, so the block cipher is implemented here from
the standard.  It supports 128/192/256-bit keys and is validated against the
FIPS-197 appendix test vectors in the test suite.

There are two round implementations over one key schedule.  The
single-block reference (:meth:`AesBlockCipher.encrypt_block`) follows the
standard step by step and costs ~35 µs per block.  The many-block kernel
(:meth:`AesBlockCipher.encrypt_blocks`) runs every block of a call through
each round together using only standard-library operations that loop in C
(``bytes.translate``, big-integer XOR, slicing) and costs ~1 µs per block
from a few dozen blocks up; every batch path of the pipeline runs on it
(:mod:`repro.crypto.modes`), which puts real AES-CBC in the same throughput
band as the cost-modelled :class:`~repro.crypto.cipher.SimulatedCipher`.
``docs/BATCHING.md`` ("How the AES kernel works") has the walk-through.
"""

from __future__ import annotations

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

#: AES block size in bytes.
BLOCK_SIZE = 16

#: Supported key lengths in bytes.
KEY_SIZES = (16, 24, 32)


class AesKeyError(ValueError):
    """Raised for keys of unsupported length."""


def expand_key(key: bytes) -> list[list[int]]:
    """Expand an AES key into the per-round key schedule.

    Returns a list of ``rounds + 1`` round keys, each a flat list of 16
    byte values in column-major (state) order.
    """
    if len(key) not in KEY_SIZES:
        raise AesKeyError(
            f"AES key must be one of {KEY_SIZES} bytes, got {len(key)}"
        )
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


# ---------------------------------------------------------------------------
# The many-block kernel's tables.  SubBytes and the MixColumns products are
# composed into one 256-byte table each, so ``bytes.translate`` does both
# for every block of a call in one C loop.
# ---------------------------------------------------------------------------

_SUB = bytes(_SBOX)
_SUB_X2 = bytes(_MUL2[v] for v in _SBOX)
_INV_SUB = bytes(_INV_SBOX)
_INV_SUB_X9 = bytes(_MUL9[v] for v in _INV_SBOX)
_INV_SUB_X11 = bytes(_MUL11[v] for v in _INV_SBOX)
_INV_SUB_X13 = bytes(_MUL13[v] for v in _INV_SBOX)
_INV_SUB_X14 = bytes(_MUL14[v] for v in _INV_SBOX)


def _row_key_tables(round_key: list[int]) -> list[bytes]:
    """One translate table per state row: column index -> round-key byte.

    Translating the kernel's ``columns`` template (``n`` zeros, ``n``
    ones, ``n`` twos, ``n`` threes) through row ``r``'s table lays the
    four key bytes of that row out across all ``n`` blocks, whatever
    ``n`` is — the round keys are stored once per key, not once per
    batch size.
    """
    return [
        bytes(round_key[4 * column + row] for column in range(4)) + bytes(252)
        for row in range(4)
    ]


class AesBlockCipher:
    """Raw AES encryption/decryption of 16-byte blocks.

    Two round implementations share one key schedule:

    * :meth:`encrypt_block` / :meth:`decrypt_block` — the FIPS-197
      reference, one block as a 16-element list.  The scalar CBC paths
      use it, and it is the oracle the kernel is tested against.
    * :meth:`encrypt_blocks` / :meth:`decrypt_blocks` — the many-block
      kernel every batch path runs on: all ``n`` independent blocks of a
      call go through each round together, in C loops.

    The kernel keeps the state as four big integers, one per state row.
    Row ``r`` is the concatenation of four *planes* — byte ``4c + r`` of
    every block (``data[4 * c + r :: 16]``), for columns ``c`` = 0..3 —
    so it is ``4n`` bytes long.  In that layout

    * SubBytes is ``bytes.translate`` over a row, and the ×2 (resp. ×9,
      ×11, ×13, ×14) products MixColumns needs are further translates
      through tables composed with the S-box;
    * ShiftRows moves whole planes and no byte within one: row ``r``
      rotates by ``r`` planes, two slices and a concatenation;
    * MixColumns combines the four rows of a column, which sit at the
      same offset of the four integers, so it is plain XOR of rows;
    * AddRoundKey is one more XOR, with the row's four key bytes spread
      over the planes by a translate of the ``columns`` template.

    Nothing is cached on the instance between calls, so one cipher can be
    shared by concurrent callers.

    Parameters
    ----------
    key:
        16-, 24- or 32-byte secret key.
    """

    def __init__(self, key: bytes):
        self._round_keys = expand_key(key)
        self._rounds = len(self._round_keys) - 1
        self._row_keys = [_row_key_tables(rk) for rk in self._round_keys]
        # Decryption adds the round key *before* InvMixColumns; the
        # transform is linear, so the kernel adds InvMixColumns(key)
        # after it instead and mixes table products only.
        self._inv_mixed_row_keys = []
        for round_key in self._round_keys:
            mixed = list(round_key)
            _inv_mix_columns(mixed)
            self._inv_mixed_row_keys.append(_row_key_tables(mixed))

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
        """Encrypt ``len(data) // 16`` independent blocks (ECB, no chaining).

        Equal to joining :meth:`encrypt_block` over the 16-byte pieces of
        ``data``; an empty input gives ``b""``.
        """
        count = _block_count(data)
        if count == 0:
            return b""
        from_bytes = int.from_bytes
        columns = _columns_template(count)
        rows = _xor_rows(
            _rows_of(data), _key_rows(columns, self._row_keys[0])
        )
        for round_index in range(1, self._rounds):
            b0, b1, b2, b3 = _shifted_rows(rows, count, 1)
            s0 = from_bytes(b0.translate(_SUB), "little")
            s1 = from_bytes(b1.translate(_SUB), "little")
            s2 = from_bytes(b2.translate(_SUB), "little")
            s3 = from_bytes(b3.translate(_SUB), "little")
            d0 = from_bytes(b0.translate(_SUB_X2), "little")
            d1 = from_bytes(b1.translate(_SUB_X2), "little")
            d2 = from_bytes(b2.translate(_SUB_X2), "little")
            d3 = from_bytes(b3.translate(_SUB_X2), "little")
            # Row r of MixColumns is 2·s[r] ^ 3·s[r+1] ^ s[r+2] ^ s[r+3];
            # with 3·x = 2·x ^ x that is (all four s) ^ s[r] ^ d[r] ^ d[r+1].
            every = s0 ^ s1 ^ s2 ^ s3
            k0, k1, k2, k3 = _key_rows(columns, self._row_keys[round_index])
            rows = [
                every ^ s0 ^ d0 ^ d1 ^ k0,
                every ^ s1 ^ d1 ^ d2 ^ k1,
                every ^ s2 ^ d2 ^ d3 ^ k2,
                every ^ s3 ^ d3 ^ d0 ^ k3,
            ]
        substituted = [
            from_bytes(row.translate(_SUB), "little")
            for row in _shifted_rows(rows, count, 1)
        ]
        return _blocks_of(
            _xor_rows(
                substituted, _key_rows(columns, self._row_keys[self._rounds])
            ),
            count,
        )

    def decrypt_blocks(self, data: bytes) -> bytes:
        """Decrypt ``len(data) // 16`` independent blocks; the inverse of
        :meth:`encrypt_blocks` and equal to joining :meth:`decrypt_block`."""
        count = _block_count(data)
        if count == 0:
            return b""
        from_bytes = int.from_bytes
        columns = _columns_template(count)
        rows = _xor_rows(
            _rows_of(data), _key_rows(columns, self._row_keys[self._rounds])
        )
        for round_index in range(self._rounds - 1, 0, -1):
            b0, b1, b2, b3 = _shifted_rows(rows, count, 3)
            k0, k1, k2, k3 = _key_rows(
                columns, self._inv_mixed_row_keys[round_index]
            )
            # InvMixColumns: row r is 14·u[r] ^ 11·u[r+1] ^ 13·u[r+2] ^
            # 9·u[r+3] over u = InvSubBytes(state).
            rows = [
                from_bytes(b0.translate(_INV_SUB_X14), "little")
                ^ from_bytes(b1.translate(_INV_SUB_X11), "little")
                ^ from_bytes(b2.translate(_INV_SUB_X13), "little")
                ^ from_bytes(b3.translate(_INV_SUB_X9), "little")
                ^ k0,
                from_bytes(b1.translate(_INV_SUB_X14), "little")
                ^ from_bytes(b2.translate(_INV_SUB_X11), "little")
                ^ from_bytes(b3.translate(_INV_SUB_X13), "little")
                ^ from_bytes(b0.translate(_INV_SUB_X9), "little")
                ^ k1,
                from_bytes(b2.translate(_INV_SUB_X14), "little")
                ^ from_bytes(b3.translate(_INV_SUB_X11), "little")
                ^ from_bytes(b0.translate(_INV_SUB_X13), "little")
                ^ from_bytes(b1.translate(_INV_SUB_X9), "little")
                ^ k2,
                from_bytes(b3.translate(_INV_SUB_X14), "little")
                ^ from_bytes(b0.translate(_INV_SUB_X11), "little")
                ^ from_bytes(b1.translate(_INV_SUB_X13), "little")
                ^ from_bytes(b2.translate(_INV_SUB_X9), "little")
                ^ k3,
            ]
        substituted = [
            from_bytes(row.translate(_INV_SUB), "little")
            for row in _shifted_rows(rows, count, 3)
        ]
        return _blocks_of(
            _xor_rows(substituted, _key_rows(columns, self._row_keys[0])),
            count,
        )


def _block_count(data: bytes) -> int:
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError(
            f"data must be a multiple of {BLOCK_SIZE} bytes, got {len(data)}"
        )
    return len(data) // BLOCK_SIZE


def _columns_template(count: int) -> bytes:
    """The column index of every byte of a row: what a row-key table
    translates into that row's AddRoundKey operand."""
    return b"\x00" * count + b"\x01" * count + b"\x02" * count + b"\x03" * count


def _rows_of(data: bytes) -> list[int]:
    """The four state rows of every block: row ``r`` is planes ``r``,
    ``4 + r``, ``8 + r`` and ``12 + r`` (its four columns) end to end."""
    return [
        int.from_bytes(
            data[row::16]
            + data[4 + row :: 16]
            + data[8 + row :: 16]
            + data[12 + row :: 16],
            "little",
        )
        for row in range(4)
    ]


def _key_rows(columns: bytes, tables: list[bytes]) -> list[int]:
    """One round key as four row operands for AddRoundKey."""
    return [
        int.from_bytes(columns.translate(table), "little") for table in tables
    ]


def _xor_rows(rows: list[int], others: list[int]) -> list[int]:
    return [row ^ other for row, other in zip(rows, others)]


def _shifted_rows(rows: list[int], count: int, step: int) -> list[bytes]:
    """The rows as bytes, row ``r`` rotated left by ``r * step`` planes:
    ShiftRows for ``step`` 1, InvShiftRows for ``step`` 3 (= -1 mod 4)."""
    width = 4 * count
    b0 = rows[0].to_bytes(width, "little")
    b1 = rows[1].to_bytes(width, "little")
    b2 = rows[2].to_bytes(width, "little")
    b3 = rows[3].to_bytes(width, "little")
    one, two = step * count, 2 * count
    three = width - one
    return [
        b0,
        b1[one:] + b1[:one],
        b2[two:] + b2[:two],
        b3[three:] + b3[:three],
    ]


def _blocks_of(rows: list[int], count: int) -> bytes:
    """Interleave the planes of four rows back into 16-byte blocks."""
    out = bytearray(BLOCK_SIZE * count)
    for row in range(4):
        planes = rows[row].to_bytes(4 * count, "little")
        for column in range(4):
            out[4 * column + row :: 16] = planes[
                column * count : (column + 1) * count
            ]
    return bytes(out)
