"""Record cipher API used by every ingestion pipeline.

Two interchangeable implementations:

* :class:`AesCbcCipher` — real AES-CBC, the paper's scheme.  Its batch
  methods (``encrypt_batch``, ``encrypt_batch_seeded``, ``decrypt_batch``
  — what computing nodes, the merger and the query client call) run on the
  many-block AES kernel and land in the same throughput band as the
  stand-in below; single-record ``encrypt`` / ``decrypt`` use the
  single-block reference at ~35 µs per block.
* :class:`SimulatedCipher` — a stand-in that produces ciphertexts of the
  same length as AES-CBC would (IV + padded blocks) by keyed-stream XOR.  It
  preserves everything the system cares about structurally (length, dummy
  indistinguishability, decrypt-ability with the key).  It remains for the
  discrete-event simulation, whose cost model charges the *cost* of AES
  explicitly, and for callers that encrypt one record at a time (the
  PINED-RQ family and the baselines), where the AES kernel has nothing to
  batch.

Both hide the record's dummy flag inside the ciphertext, as the paper
requires (an observer of ``<leaf offset, e-record>`` pairs cannot tell
dummies from real records).
"""

from __future__ import annotations

import hashlib
import threading
from abc import ABC, abstractmethod
from itertools import accumulate

from repro.crypto.aes import BLOCK_SIZE, AesBlockCipher
from repro.crypto.keys import KeyStore
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_decrypt_many,
    cbc_encrypt,
    cbc_encrypt_many,
)
from repro.crypto.padding import PaddingError, pad, unpad


#: By plaintext length mod 32: the PKCS#7 padding to a 16-byte block, then
#: the zeros that extend the padded message to a whole 32-byte keystream
#: block (:meth:`SimulatedCipher._encrypt_batch_with_ivs`).
_BLOCK_TAILS = tuple(
    bytes([16 - rest % 16]) * (16 - rest % 16)
    + bytes(16 if (rest + 16 - rest % 16) % 32 else 0)
    for rest in range(32)
)


class DecryptionError(ValueError):
    """Raised when a ciphertext cannot be decrypted (wrong key / corrupt)."""


def record_nonce(ordinal: int) -> bytes:
    """Seeded-IV nonce for the record at global dispatch ``ordinal``.

    Namespaced (``rec``) so a record nonce can never collide with a
    :func:`padding_nonce` even when the integers coincide.
    """
    return b"rec" + ordinal.to_bytes(8, "little")


def padding_nonce(publication: int, counter: int) -> bytes:
    """Seeded-IV nonce for the merger's ``counter``-th padding dummy of
    ``publication``."""
    return (
        b"pad"
        + publication.to_bytes(8, "little")
        + counter.to_bytes(8, "little")
    )


class RecordCipher(ABC):
    """Encrypts and decrypts serialized record payloads."""

    @abstractmethod
    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext``; the result embeds the IV."""

    @abstractmethod
    def decrypt(self, ciphertext: bytes) -> bytes:
        """Invert :meth:`encrypt`.

        Raises
        ------
        DecryptionError
            If the ciphertext is malformed or the padding check fails.
        """

    def encrypt_batch(self, plaintexts: list[bytes]) -> list[bytes]:
        """Encrypt a batch; byte-identical to mapping :meth:`encrypt`.

        The contract every implementation must honour (property-tested in
        ``tests/crypto/test_batch_encrypt.py``): the result equals
        ``[self.encrypt(p) for p in plaintexts]`` including IV order, so
        the batched ingest path produces the exact ciphertext stream of
        the per-record path.  Subclasses override this with a fast path
        (the AES kernel, the inlined keystream loop); the base
        implementation is the semantic reference.
        """
        return [self.encrypt(plaintext) for plaintext in plaintexts]

    def decrypt_batch(self, ciphertexts: list[bytes]) -> list[bytes]:
        """Decrypt a batch; identical to mapping :meth:`decrypt`.

        The mirror of :meth:`encrypt_batch` and the same contract
        (property-tested in ``tests/crypto/test_batch_decrypt.py``): the
        result equals ``[self.decrypt(c) for c in ciphertexts]``, and a
        malformed element raises the :class:`DecryptionError` the mapped
        form raises at that element — every ciphertext gets the full
        length and padding checks, whatever it decrypts to.
        """
        return [self.decrypt(ciphertext) for ciphertext in ciphertexts]

    def encrypt_seeded(self, plaintext: bytes, nonce: bytes) -> bytes:
        """Encrypt with an IV derived deterministically from ``nonce``.

        The multiprocess runtimes use this (``config.deterministic_ivs``)
        so every worker derives the IV from the record's pipeline-wide
        identity (its dispatch ordinal) instead of a process-local
        counter: the ciphertext stream then does not depend on which
        process encrypted which record, which is what lets the
        shared-memory runtime reproduce the in-memory runtime's cloud
        state byte for byte.  The caller must never reuse a nonce for two
        different plaintext positions — uniqueness of the derived IV is
        the only requirement the construction inherits.
        """
        return self._encrypt_with_iv(plaintext, self.derive_iv(nonce))

    def encrypt_batch_seeded(
        self, plaintexts: list[bytes], nonces: list[bytes]
    ) -> list[bytes]:
        """Batch counterpart of :meth:`encrypt_seeded`, same contract as
        :meth:`encrypt_batch`: byte-identical to the mapped form."""
        if len(plaintexts) != len(nonces):
            raise ValueError("one nonce per plaintext is required")
        return self._encrypt_batch_with_ivs(
            plaintexts, [self.derive_iv(nonce) for nonce in nonces]
        )

    def _encrypt_batch_with_ivs(
        self, plaintexts: list[bytes], ivs: list[bytes]
    ) -> list[bytes]:
        return [
            self._encrypt_with_iv(plaintext, iv)
            for plaintext, iv in zip(plaintexts, ivs)
        ]

    def derive_iv(self, nonce: bytes) -> bytes:
        """The deterministic IV bound to ``nonce`` (domain-separated)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support seeded IVs"
        )

    def _encrypt_with_iv(self, plaintext: bytes, iv: bytes) -> bytes:
        raise NotImplementedError(
            f"{type(self).__name__} does not support seeded IVs"
        )

    def ciphertext_length(self, plaintext_length: int) -> int:
        """Length in bytes of the ciphertext for a given plaintext length.

        CBC with PKCS#7: one IV block plus the padded plaintext.
        """
        padded = plaintext_length + (BLOCK_SIZE - plaintext_length % BLOCK_SIZE)
        return BLOCK_SIZE + padded


class AesCbcCipher(RecordCipher):
    """AES-CBC with per-message random IV, the paper's encryption scheme.

    Parameters
    ----------
    keys:
        Key store shared between collector and client.
    """

    def __init__(self, keys: KeyStore):
        self._keys = keys
        self._block = AesBlockCipher(keys.record_key())
        self._iv_key = keys.derive("fresque/seeded-iv")

    def encrypt(self, plaintext: bytes) -> bytes:
        iv = self._keys.fresh_iv()
        return iv + cbc_encrypt(self._block, plaintext, iv)

    def derive_iv(self, nonce: bytes) -> bytes:
        # PRF of a never-reused nonce under a dedicated subkey — the IV
        # stays unpredictable to the cloud, which only requires that the
        # nonce assignment (dispatch ordinals) never repeats.
        return hashlib.sha256(self._iv_key + nonce).digest()[:BLOCK_SIZE]

    def _encrypt_with_iv(self, plaintext: bytes, iv: bytes) -> bytes:
        return iv + cbc_encrypt(self._block, plaintext, iv)

    def encrypt_batch(self, plaintexts: list[bytes]) -> list[bytes]:
        """The batch through the many-block kernel, position-major.

        Each message still gets its own fresh IV and its own chain — the
        construction and the bytes are those of mapping :meth:`encrypt`.
        """
        return self._encrypt_batch_with_ivs(
            plaintexts, [self._keys.fresh_iv() for _ in plaintexts]
        )

    def _encrypt_batch_with_ivs(
        self, plaintexts: list[bytes], ivs: list[bytes]
    ) -> list[bytes]:
        bodies = cbc_encrypt_many(self._block, plaintexts, ivs)
        return [iv + body for iv, body in zip(ivs, bodies)]

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < 2 * BLOCK_SIZE:
            raise DecryptionError("ciphertext shorter than IV + one block")
        iv, body = ciphertext[:BLOCK_SIZE], ciphertext[BLOCK_SIZE:]
        try:
            return cbc_decrypt(self._block, body, iv)
        except (PaddingError, ValueError) as exc:
            raise DecryptionError(str(exc)) from exc

    def decrypt_batch(self, ciphertexts: list[bytes]) -> list[bytes]:
        """Every block of the batch through one kernel call.

        All length, IV and PKCS#7 checks of :meth:`decrypt` run on every
        element.  A ciphertext of impossible length is handed to
        :meth:`decrypt` for its error, but only after the elements before
        it have been decrypted and unpadded — as when mapping, an earlier
        element's padding error wins.
        """
        for index, ciphertext in enumerate(ciphertexts):
            if (
                len(ciphertext) < 2 * BLOCK_SIZE
                or len(ciphertext) % BLOCK_SIZE != 0
            ):
                return self.decrypt_batch(ciphertexts[:index]) + [
                    self.decrypt(ciphertext)
                ]
        try:
            return cbc_decrypt_many(
                self._block,
                [ciphertext[BLOCK_SIZE:] for ciphertext in ciphertexts],
                [ciphertext[:BLOCK_SIZE] for ciphertext in ciphertexts],
            )
        except PaddingError as exc:
            raise DecryptionError(str(exc)) from exc


class SimulatedCipher(RecordCipher):
    """Length-preserving fast cipher for high-rate simulations.

    Encrypts by XOR with a keystream derived from SHA-256(key || IV || ctr)
    over the PKCS#7-padded plaintext, prefixed by the IV — so ciphertext
    lengths match :class:`AesCbcCipher` exactly.  This is *not* offered as a
    secure construction; it exists so structural experiments and
    record-at-a-time callers don't pay the single-block AES cost (which
    the simulator models separately).
    """

    def __init__(self, keys: KeyStore, counter_start: int = 0):
        self._key = keys.record_key()
        self._keys = keys
        # ``counter_start`` partitions the IV-counter space between
        # cipher instances that share a key but not an address space
        # (one worker process each): with per-worker offsets, e.g.
        # ``worker_index << 44``, no two processes can draw the same
        # counter IV even without the shared lock.
        self._counter = counter_start
        # The cipher is shared by every computing-node thread plus the
        # merger; the counter bump must be atomic or two threads can draw
        # the same IV (keystream reuse).
        self._counter_lock = threading.Lock()

    def _keystream(self, iv: bytes, length: int) -> bytes:
        prefix = self._key + iv
        sha256 = hashlib.sha256
        blocks = [
            sha256(prefix + counter.to_bytes(4, "little")).digest()
            for counter in range((length + 31) // 32)
        ]
        return b"".join(blocks)[:length]

    def _next_iv(self) -> bytes:
        # A cheap deterministic nonce is enough here; uniqueness per message
        # is what keeps decryption well-defined.
        with self._counter_lock:
            self._counter += 1
            counter = self._counter
        return hashlib.sha256(
            self._key + b"iv" + counter.to_bytes(8, "little")
        ).digest()[:BLOCK_SIZE]

    @staticmethod
    def _xor(data: bytes, keystream: bytes) -> bytes:
        return (
            int.from_bytes(data, "little")
            ^ int.from_bytes(keystream, "little")
        ).to_bytes(len(data), "little")

    def encrypt(self, plaintext: bytes) -> bytes:
        return self._encrypt_with_iv(plaintext, self._next_iv())

    def derive_iv(self, nonce: bytes) -> bytes:
        # Domain-separated from the counter IVs (``iv-seeded`` vs ``iv``)
        # so a seeded IV can never collide with a counter IV under the
        # same key.
        return hashlib.sha256(self._key + b"iv-seeded" + nonce).digest()[
            :BLOCK_SIZE
        ]

    def _encrypt_with_iv(self, plaintext: bytes, iv: bytes) -> bytes:
        padded = pad(plaintext, BLOCK_SIZE)
        return iv + self._xor(padded, self._keystream(iv, len(padded)))

    def encrypt_batch(self, plaintexts: list[bytes]) -> list[bytes]:
        """Fast path: one lock round trip reserves a contiguous run of IV
        counters (the sequence the per-record path would draw), then
        :meth:`_encrypt_batch_with_ivs`; byte-identical to mapping
        :meth:`encrypt`."""
        count = len(plaintexts)
        with self._counter_lock:
            first = self._counter + 1
            self._counter += count
        sha256, iv_tag = hashlib.sha256, self._key + b"iv"
        ivs = [
            sha256(iv_tag + counter.to_bytes(8, "little")).digest()[:BLOCK_SIZE]
            for counter in range(first, first + count)
        ]
        return self._encrypt_batch_with_ivs(plaintexts, ivs)

    def _encrypt_batch_with_ivs(
        self, plaintexts: list[bytes], ivs: list[bytes]
    ) -> list[bytes]:
        """The whole batch in one pass.

        Each plaintext takes its PKCS#7 padding and then zeros up to a
        whole number of 32-byte keystream blocks (:data:`_BLOCK_TAILS`),
        so the keystreams are every message's digests back to back: one
        big-int XOR of the joined plaintexts against them, and each
        ciphertext is its IV plus the first ``len(pad(plaintext))``
        bytes of its stretch — the bytes of mapping :meth:`encrypt`.
        """
        sha256, key, tails = hashlib.sha256, self._key, _BLOCK_TAILS
        wide = [plaintext + tails[len(plaintext) & 31] for plaintext in plaintexts]
        counters = [
            counter.to_bytes(4, "little")
            for counter in range(max(map(len, wide), default=0) >> 5)
        ]
        first = counters[:1]
        keystream = b"".join(
            [
                sha256(prefix + counter).digest()
                for prefix, block in zip([key + iv for iv in ivs], wide)
                for counter in (
                    first if len(block) == 32 else counters[: len(block) >> 5]
                )
            ]
        )
        body = (
            int.from_bytes(b"".join(wide), "little")
            ^ int.from_bytes(keystream, "little")
        ).to_bytes(len(keystream), "little")
        return [
            iv + body[start : start + (len(plaintext) | 15) + 1]
            for iv, plaintext, start in zip(
                ivs, plaintexts, accumulate(map(len, wide), initial=0)
            )
        ]

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < 2 * BLOCK_SIZE:
            raise DecryptionError("ciphertext shorter than IV + one block")
        iv, body = ciphertext[:BLOCK_SIZE], ciphertext[BLOCK_SIZE:]
        padded = self._xor(body, self._keystream(iv, len(body)))
        try:
            return unpad(padded, BLOCK_SIZE)
        except PaddingError as exc:
            raise DecryptionError(str(exc)) from exc

    def decrypt_batch(self, ciphertexts: list[bytes]) -> list[bytes]:
        """Fast path: :meth:`decrypt` with the keystream derived inline,
        one tight loop over the batch; checks and errors are unchanged."""
        sha256 = hashlib.sha256
        key = self._key
        from_bytes = int.from_bytes
        out = []
        for ciphertext in ciphertexts:
            length = len(ciphertext) - BLOCK_SIZE
            if length < BLOCK_SIZE:
                raise DecryptionError("ciphertext shorter than IV + one block")
            prefix = key + ciphertext[:BLOCK_SIZE]
            keystream = b"".join(
                sha256(prefix + counter.to_bytes(4, "little")).digest()
                for counter in range((length + 31) // 32)
            )[:length]
            padded = (
                from_bytes(ciphertext[BLOCK_SIZE:], "little")
                ^ from_bytes(keystream, "little")
            ).to_bytes(length, "little")
            try:
                out.append(unpad(padded, BLOCK_SIZE))
            except PaddingError as exc:
                raise DecryptionError(str(exc)) from exc
        return out
