"""Block cipher modes of operation.

Only CBC is provided: the paper's unified privacy model (Definition 3)
explicitly assumes AES in CBC mode as the semantically secure encryption
scheme.

:func:`cbc_encrypt` / :func:`cbc_decrypt` handle one message over the
single-block reference cipher.  :func:`cbc_encrypt_many` /
:func:`cbc_decrypt_many` are the batch forms every pipeline stage calls;
they produce the same bytes over the many-block kernel
(:meth:`AesBlockCipher.encrypt_blocks`), which needs its blocks to be
independent of each other:

* in CBC *encryption* block ``j`` of a message needs that message's
  ciphertext block ``j - 1`` first, so the only independent blocks are
  those at the same offset of *different* messages — the batch goes
  through the kernel position-major, one call per block offset;
* in CBC *decryption* every block's cipher input is ciphertext that is
  already there, so all blocks of all messages go through one call and
  the chaining is a single XOR afterwards.
"""

from __future__ import annotations

from repro.crypto.aes import BLOCK_SIZE, AesBlockCipher
from repro.crypto.padding import pad, unpad

#: Messages per kernel run.  Bounds the transient buffers of a batch
#: (the merger pads a whole publication with one call); the kernel is
#: already at its per-block floor well below this.
_RUN_MESSAGES = 512


def _xor(a: bytes, b: bytes) -> bytes:
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(len(a), "little")


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
    _check_iv(iv)
    padded = pad(plaintext, BLOCK_SIZE)
    blocks = []
    previous = iv
    for offset in range(0, len(padded), BLOCK_SIZE):
        block = _xor(padded[offset : offset + BLOCK_SIZE], previous)
        previous = cipher.encrypt_block(block)
        blocks.append(previous)
    return b"".join(blocks)


def cbc_encrypt_many(
    cipher: AesBlockCipher,
    plaintexts: list[bytes],
    ivs: list[bytes],
) -> list[bytes]:
    """CBC-encrypt a batch of messages, position-major over the kernel.

    Byte-identical to ``[cbc_encrypt(cipher, p, iv) for p, iv in
    zip(plaintexts, ivs)]`` — every message's chain starts from its own
    IV.  At block offset ``j`` the ``j``-th block of every message that
    still has one is XORed with that message's previous ciphertext block
    and all of them are encrypted by one kernel call.
    """
    if len(plaintexts) != len(ivs):
        raise ValueError(
            f"{len(plaintexts)} plaintexts but {len(ivs)} IVs"
        )
    for iv in ivs:
        _check_iv(iv)
    ciphertexts: list[bytes] = []
    for start in range(0, len(plaintexts), _RUN_MESSAGES):
        stop = start + _RUN_MESSAGES
        ciphertexts += _cbc_encrypt_run(
            cipher, plaintexts[start:stop], ivs[start:stop]
        )
    return ciphertexts


def _cbc_encrypt_run(
    cipher: AesBlockCipher, plaintexts: list[bytes], ivs: list[bytes]
) -> list[bytes]:
    padded = [pad(plaintext, BLOCK_SIZE) for plaintext in plaintexts]
    # Longest first: the messages still active at an offset are then a
    # prefix, and so are their previous ciphertext blocks.
    order = sorted(
        range(len(padded)), key=lambda index: len(padded[index]), reverse=True
    )
    messages = [padded[index] for index in order]
    previous = b"".join([ivs[index] for index in order])
    active = len(messages)
    # by_offset[j]: ciphertext block j of every message that has one, in
    # rank order — also the "previous block" operand of offset j + 1.
    by_offset = []
    offset = 0
    while active:
        end = offset + BLOCK_SIZE
        blocks = b"".join(
            [message[offset:end] for message in messages[:active]]
        )
        previous = cipher.encrypt_blocks(
            _xor(blocks, previous[: BLOCK_SIZE * active])
        )
        by_offset.append(previous)
        offset = end
        while active and len(messages[active - 1]) <= offset:
            active -= 1
    ciphertexts = [b""] * len(messages)
    for rank, index in enumerate(order):
        start = BLOCK_SIZE * rank
        stop = start + BLOCK_SIZE
        length = len(messages[rank]) // BLOCK_SIZE
        ciphertexts[index] = b"".join(
            [stage[start:stop] for stage in by_offset[:length]]
        )
    return ciphertexts


def cbc_decrypt(cipher: AesBlockCipher, ciphertext: bytes, iv: bytes) -> bytes:
    """Decrypt a CBC ciphertext and strip PKCS#7 padding.

    Raises
    ------
    ValueError
        If the ciphertext is not a positive multiple of the block size.
    repro.crypto.padding.PaddingError
        If the recovered padding is invalid (wrong key or corrupt data).
    """
    _check_body(ciphertext, iv)
    plaintext = bytearray()
    previous = iv
    for offset in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[offset : offset + BLOCK_SIZE]
        plaintext += _xor(cipher.decrypt_block(block), previous)
        previous = block
    return unpad(bytes(plaintext), BLOCK_SIZE)


def _check_body(ciphertext: bytes, iv: bytes) -> None:
    _check_iv(iv)
    if not ciphertext or len(ciphertext) % BLOCK_SIZE != 0:
        raise ValueError("ciphertext must be a non-empty block multiple")


def cbc_decrypt_many(
    cipher: AesBlockCipher,
    ciphertexts: list[bytes],
    ivs: list[bytes],
) -> list[bytes]:
    """CBC-decrypt a batch of messages with one kernel call per run.

    Equal to ``[cbc_decrypt(cipher, c, iv) for c, iv in zip(ciphertexts,
    ivs)]``, with the same errors: every IV and ciphertext length is
    checked before anything is decrypted, and every message is unpadded,
    in order, so the first invalid padding is the one raised.
    """
    if len(ciphertexts) != len(ivs):
        raise ValueError(
            f"{len(ciphertexts)} ciphertexts but {len(ivs)} IVs"
        )
    for ciphertext, iv in zip(ciphertexts, ivs):
        _check_body(ciphertext, iv)
    plaintexts: list[bytes] = []
    for start in range(0, len(ciphertexts), _RUN_MESSAGES):
        stop = start + _RUN_MESSAGES
        plaintexts += _cbc_decrypt_run(
            cipher, ciphertexts[start:stop], ivs[start:stop]
        )
    return plaintexts


def _cbc_decrypt_run(
    cipher: AesBlockCipher, ciphertexts: list[bytes], ivs: list[bytes]
) -> list[bytes]:
    # P_j = D(C_j) ^ C_{j-1} with C_{-1} = IV: the XOR operand is the
    # ciphertext stream itself, shifted by one block within each message.
    chained = b"".join(
        [
            iv + ciphertext[:-BLOCK_SIZE]
            for iv, ciphertext in zip(ivs, ciphertexts)
        ]
    )
    padded = _xor(cipher.decrypt_blocks(b"".join(ciphertexts)), chained)
    plaintexts = []
    offset = 0
    for ciphertext in ciphertexts:
        end = offset + len(ciphertext)
        plaintexts.append(unpad(padded[offset:end], BLOCK_SIZE))
        offset = end
    return plaintexts
