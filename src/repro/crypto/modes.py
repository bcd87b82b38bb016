"""Block cipher modes of operation.

Only CBC is provided: the paper's unified privacy model (Definition 3)
explicitly assumes AES in CBC mode as the semantically secure encryption
scheme.

:func:`cbc_encrypt_framed` / :func:`cbc_decrypt_framed` are the batch
forms the record cipher calls; their ciphertexts are framed ``iv ‖ body``,
as records are stored.  :func:`cbc_encrypt_many` / :func:`cbc_decrypt_many`
are the same functions with the IVs kept apart from the bodies, and
:func:`cbc_encrypt` / :func:`cbc_decrypt` are those over a batch of one.
All of them run on :class:`AesBlockCipher`, one ``libcrypto`` call per set
of independent blocks.  The Python around the calls does a fixed number
of steps per block offset, plus a pass over the messages to pad (or
check the padding) and one to cut the results; none of it is work per
message per offset:

* in CBC *encryption* block ``j`` of a message needs that message's
  ciphertext block ``j - 1`` first, so the only independent blocks are
  those at the same offset of *different* messages.  A run's padded
  messages are laid out as equal-width rows of one buffer (zeros past
  each message's end) and the IVs as column 0 of the output buffer; block
  offset ``j`` is one column, copied out and back by strided memoryview
  slices around one big-integer XOR and one call.  Each framed
  ciphertext is then a single slice of the output.  When one message is
  far wider than the rest, the run is cut into *bands* of similar width,
  so it never sets the width of the short ones' rows;
* in CBC *decryption* every block's cipher input is ciphertext that is
  already there: the framed ciphertexts are joined, IVs included, and
  decrypted by one call, and one XOR against the same buffer shifted by a
  block chains every message at once (what lands on an IV block is
  discarded).
"""

from __future__ import annotations

from itertools import accumulate, repeat

from repro.crypto.aes import BLOCK_SIZE, AesBlockCipher
from repro.crypto.padding import unpad

#: Messages per run.  Bounds the transient buffers of a batch (the merger
#: pads a whole publication with one call).
_RUN_MESSAGES = 512

#: PKCS#7 padding by plaintext length mod 16.
_PADS = tuple(bytes([16 - rest]) * (16 - rest) for rest in range(16))

#: By pad byte ``k`` (1..16): the padding a valid message ends with.
_PAD_OF = (b"",) + tuple(bytes([size]) * size for size in range(1, 17))


def _check_iv(iv: bytes) -> None:
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")


def cbc_encrypt(cipher: AesBlockCipher, plaintext: bytes, iv: bytes) -> bytes:
    """Encrypt ``plaintext`` under CBC with PKCS#7 padding.

    Parameters
    ----------
    cipher:
        The underlying block cipher.
    plaintext:
        Arbitrary-length message.
    iv:
        16-byte initialisation vector; must be fresh and uniformly random
        per message for semantic security.
    """
    return cbc_encrypt_many(cipher, [plaintext], [iv])[0]


def cbc_encrypt_many(
    cipher: AesBlockCipher,
    plaintexts: list[bytes],
    ivs: list[bytes],
) -> list[bytes]:
    """:func:`cbc_encrypt_framed` with one IV per message, bodies only."""
    if len(plaintexts) != len(ivs):
        raise ValueError(
            f"{len(plaintexts)} plaintexts but {len(ivs)} IVs"
        )
    for iv in ivs:
        _check_iv(iv)
    framed = cbc_encrypt_framed(cipher, plaintexts, b"".join(ivs))
    return [ciphertext[BLOCK_SIZE:] for ciphertext in framed]


def cbc_encrypt_framed(
    cipher: AesBlockCipher, plaintexts: list[bytes], ivs: bytes
) -> list[bytes]:
    """CBC-encrypt a batch; message ``k`` gives ``iv_k ‖ body_k``.

    ``ivs`` holds the IVs back to back, 16 bytes per plaintext.  Every
    message's chain starts from its own IV, so the bytes do not depend on
    the batch's shape.
    """
    count = len(plaintexts)
    if len(ivs) != BLOCK_SIZE * count:
        raise ValueError(
            f"{count} plaintexts need {BLOCK_SIZE * count} bytes of IVs, "
            f"got {len(ivs)}"
        )
    ciphertexts: list[bytes] = []
    for start in range(0, count, _RUN_MESSAGES):
        stop = start + _RUN_MESSAGES
        ciphertexts += _encrypt_run(
            cipher,
            plaintexts[start:stop],
            ivs[BLOCK_SIZE * start : BLOCK_SIZE * stop],
        )
    return ciphertexts


def _encrypt_run(
    cipher: AesBlockCipher, plaintexts: list[bytes], ivs: bytes
) -> list[bytes]:
    lengths = list(map(len, plaintexts))
    count = len(lengths)
    # Rows are as wide as the widest padded message.  While they hold at
    # most twice the run's bytes plus a block per message the run is one
    # band; otherwise messages band by the bit length of their width in
    # blocks, so no band's rows are twice as wide as any of its messages.
    width = (max(lengths) >> 4) + 1
    if count * width <= 2 * (count + (sum(lengths) >> 4)):
        return _encrypt_band(cipher, plaintexts, lengths, ivs, width)
    bands: dict[int, list[int]] = {}
    for index, length in enumerate(lengths):
        bands.setdefault(((length >> 4) + 1).bit_length(), []).append(index)
    ciphertexts = [b""] * count
    for members in bands.values():
        band_lengths = [lengths[index] for index in members]
        band = _encrypt_band(
            cipher,
            [plaintexts[index] for index in members],
            band_lengths,
            b"".join(
                [
                    ivs[BLOCK_SIZE * index : BLOCK_SIZE * (index + 1)]
                    for index in members
                ]
            ),
            (max(band_lengths) >> 4) + 1,
        )
        for index, ciphertext in zip(members, band):
            ciphertexts[index] = ciphertext
    return ciphertexts


def _encrypt_band(
    cipher: AesBlockCipher,
    plaintexts: list[bytes],
    lengths: list[int],
    ivs: bytes,
    width: int,
) -> list[bytes]:
    """The rectangle: ``len(plaintexts)`` rows of ``width`` blocks.

    Buffers are viewed as 8-byte words, two per block, so column ``j`` of
    a buffer whose rows are ``stride`` words wide is the two strided
    slices at words ``2j`` and ``2j + 1``.
    """
    row = BLOCK_SIZE * width
    pads = _PADS
    plain = memoryview(
        b"".join(
            [
                (plaintext + pads[length & 15]).ljust(row, b"\0")
                for plaintext, length in zip(plaintexts, lengths)
            ]
        )
    ).cast("Q")
    size = len(ivs)
    rectangle = bytearray(size + len(plaintexts) * row)
    out = memoryview(rectangle).cast("Q")
    in_stride, out_stride = 2 * width, 2 * width + 2
    iv_words = memoryview(ivs).cast("Q")
    out[0::out_stride] = iv_words[0::2]
    out[1::out_stride] = iv_words[1::2]
    column = bytearray(size)
    words = memoryview(column).cast("Q")
    previous = int.from_bytes(ivs, "little")
    for offset in range(0, in_stride, 2):
        words[0::2] = plain[offset::in_stride]
        words[1::2] = plain[offset + 1 :: in_stride]
        encrypted = cipher.encrypt_blocks(
            (int.from_bytes(column, "little") ^ previous).to_bytes(
                size, "little"
            )
        )
        encrypted_words = memoryview(encrypted).cast("Q")
        out[offset + 2 :: out_stride] = encrypted_words[0::2]
        out[offset + 3 :: out_stride] = encrypted_words[1::2]
        previous = int.from_bytes(encrypted, "little")
    framed = bytes(rectangle)
    step = row + BLOCK_SIZE
    # A framed ciphertext is its IV plus (length | 15) + 1 padded bytes.
    return [
        framed[start : start + (length | 15) + 1 + BLOCK_SIZE]
        for start, length in zip(range(0, len(framed), step), lengths)
    ]


def cbc_decrypt(cipher: AesBlockCipher, ciphertext: bytes, iv: bytes) -> bytes:
    """Decrypt a CBC ciphertext and strip PKCS#7 padding.

    Raises
    ------
    ValueError
        If the ciphertext is not a positive multiple of the block size.
    repro.crypto.padding.PaddingError
        If the recovered padding is invalid (wrong key or corrupt data).
    """
    return cbc_decrypt_many(cipher, [ciphertext], [iv])[0]


def _check_body(ciphertext: bytes, iv: bytes) -> None:
    _check_iv(iv)
    if not ciphertext or len(ciphertext) % BLOCK_SIZE != 0:
        raise ValueError("ciphertext must be a non-empty block multiple")


def cbc_decrypt_many(
    cipher: AesBlockCipher,
    ciphertexts: list[bytes],
    ivs: list[bytes],
) -> list[bytes]:
    """:func:`cbc_decrypt_framed` with the IVs apart from the bodies.

    Every IV and ciphertext length is checked before anything is
    decrypted, and every message is unpadded, in order, so the first
    invalid padding is the one raised.
    """
    if len(ciphertexts) != len(ivs):
        raise ValueError(
            f"{len(ciphertexts)} ciphertexts but {len(ivs)} IVs"
        )
    for ciphertext, iv in zip(ciphertexts, ivs):
        _check_body(ciphertext, iv)
    return cbc_decrypt_framed(
        cipher, [iv + ciphertext for iv, ciphertext in zip(ivs, ciphertexts)]
    )


def cbc_decrypt_framed(
    cipher: AesBlockCipher, ciphertexts: list[bytes]
) -> list[bytes]:
    """CBC-decrypt a batch of framed ``iv ‖ body`` ciphertexts.

    Every length is checked before anything is decrypted — the first
    ciphertext that is not an IV plus a non-empty block multiple raises
    :class:`ValueError` — and every message is unpadded, in order, so the
    first invalid padding is the :class:`~repro.crypto.padding.PaddingError`
    raised.
    """
    lengths = list(map(len, ciphertexts))
    sizes = set(lengths)
    if min(sizes, default=2 * BLOCK_SIZE) < 2 * BLOCK_SIZE or any(
        size % BLOCK_SIZE for size in sizes
    ):
        for length in lengths:
            if length < 2 * BLOCK_SIZE:
                raise ValueError("ciphertext shorter than IV + one block")
            if length % BLOCK_SIZE:
                raise ValueError("ciphertext must be a non-empty block multiple")
    plaintexts: list[bytes] = []
    for start in range(0, len(ciphertexts), _RUN_MESSAGES):
        stop = start + _RUN_MESSAGES
        plaintexts += _decrypt_run(
            cipher, ciphertexts[start:stop], lengths[start:stop]
        )
    return plaintexts


def _decrypt_run(
    cipher: AesBlockCipher, ciphertexts: list[bytes], lengths: list[int]
) -> list[bytes]:
    # P_j = D(C_j) ^ C_{j-1}, and C_{-1} = IV is the block before C_0 in
    # the joined buffer: D(whole)[16:] ^ whole[:-16] is every message's
    # padded plaintext, each starting where its IV starts in ``whole``.
    whole = b"".join(ciphertexts)
    size = len(whole) - BLOCK_SIZE
    chained = (
        int.from_bytes(
            memoryview(cipher.decrypt_blocks(whole))[BLOCK_SIZE:], "little"
        )
        ^ int.from_bytes(memoryview(whole)[:size], "little")
    ).to_bytes(size, "little")
    # Message k is chained[marks[k] + 16 : ends[k]]: its padded
    # plaintext, as long as its body.  A pad is never longer than a
    # message, so ``endswith`` needs only each message's end.
    marks = list(accumulate(lengths, initial=-BLOCK_SIZE))
    ends = marks[1:]
    pads = bytes([chained[end - 1] for end in ends])
    if (
        0 in pads
        or max(pads) > BLOCK_SIZE
        or not all(
            map(chained.endswith, map(_PAD_OF.__getitem__, pads), repeat(0), ends)
        )
    ):
        for mark, end in zip(marks, ends):  # the first bad one raises
            unpad(chained[mark + BLOCK_SIZE : end], BLOCK_SIZE)
    return [
        chained[mark + BLOCK_SIZE : end - pad]
        for mark, end, pad in zip(marks, ends, pads)
    ]
