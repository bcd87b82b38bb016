"""Record cipher API used by every ingestion pipeline.

Two interchangeable implementations:

* :class:`AesCbcCipher` — real AES-CBC, the paper's scheme, on OpenSSL's
  ``libcrypto`` (:mod:`repro.crypto.aes`).  Its batch methods
  (``encrypt_batch``, ``encrypt_batch_seeded``, ``decrypt_batch`` — what
  computing nodes, the merger and the query client call) hand the whole
  batch to :func:`~repro.crypto.modes.cbc_encrypt_framed` /
  :func:`~repro.crypto.modes.cbc_decrypt_framed`, whose ciphertexts are
  already framed ``iv ‖ body``: one library call per block offset of a
  run to encrypt, one per run to decrypt, and no per-message join or
  split of IV and body here.  The random IVs go in as
  :meth:`KeyStore.fresh_ivs` draws them, back to back in one ``bytes``.
  Single-record ``encrypt`` / ``decrypt`` are batches of one.
* :class:`SimulatedCipher` — a stand-in that produces ciphertexts of the
  same length as AES-CBC would (IV + padded blocks) by keyed-stream XOR.  It
  preserves everything the system cares about structurally (length, dummy
  indistinguishability, decrypt-ability with the key).  It remains for the
  discrete-event simulation, whose cost model charges the *cost* of AES
  explicitly, and for every workload and test whose pinned ciphertexts
  were computed under it.

Both hide the record's dummy flag inside the ciphertext, as the paper
requires (an observer of ``<leaf offset, e-record>`` pairs cannot tell
dummies from real records).
"""

from __future__ import annotations

import hashlib
import threading
from abc import ABC, abstractmethod
from functools import partial
from itertools import accumulate

from repro.crypto.aes import BLOCK_SIZE, AesBlockCipher
from repro.crypto.keys import KeyStore
from repro.crypto.modes import cbc_decrypt_framed, cbc_encrypt_framed
from repro.crypto.padding import PaddingError, pad, unpad


#: By plaintext length mod 32: the PKCS#7 padding to a 16-byte block, then
#: the zeros that extend the padded message to a whole 32-byte keystream
#: block (:meth:`SimulatedCipher._encrypt_batch_with_ivs`).
_BLOCK_TAILS = tuple(
    bytes([16 - rest % 16]) * (16 - rest % 16)
    + bytes(16 if (rest + 16 - rest % 16) % 32 else 0)
    for rest in range(32)
)

#: IV counters per :class:`SimulatedCipher` counter block: a cipher built
#: by :meth:`SimulatedCipher.for_process` draws from a block of its own,
#: and no process draws 2**48 IVs.
_COUNTER_BLOCK = 1 << 48


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
        (the AES-CBC rectangle, the inlined keystream loop); the base
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

        The runtimes use this under ``config.deterministic_ivs`` so
        every computing node derives the IV from the record's
        pipeline-wide identity (its dispatch ordinal) instead of a
        shared counter: the ciphertext stream then does not depend on
        which node encrypted which record, which is what lets the
        scheduled and TCP runtimes reproduce the in-memory runtime's
        cloud state byte for byte.  The caller must never reuse a nonce
        for two different plaintext positions — uniqueness of the
        derived IV is the only requirement the construction inherits.
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

    @abstractmethod
    def for_process(self):
        """A zero-argument callable that builds this cipher afresh from
        its key store, to be called in another process (a forked
        computing node): what the new cipher encrypts decrypts here, it
        draws no IV that this cipher or another one it built draws, and
        no library context crosses the fork."""

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

    def for_process(self):
        """Random IVs come from the OS, so only the ``libcrypto``
        contexts need building anew."""
        return partial(AesCbcCipher, self._keys)

    def encrypt(self, plaintext: bytes) -> bytes:
        return cbc_encrypt_framed(
            self._block, [plaintext], self._keys.fresh_ivs(1)
        )[0]

    def derive_iv(self, nonce: bytes) -> bytes:
        # PRF of a never-reused nonce under a dedicated subkey — the IV
        # stays unpredictable to the cloud, which only requires that the
        # nonce assignment (dispatch ordinals) never repeats.
        return hashlib.sha256(self._iv_key + nonce).digest()[:BLOCK_SIZE]

    def _encrypt_with_iv(self, plaintext: bytes, iv: bytes) -> bytes:
        return cbc_encrypt_framed(self._block, [plaintext], iv)[0]

    def encrypt_batch(self, plaintexts: list[bytes]) -> list[bytes]:
        """The batch through :func:`cbc_encrypt_framed`.

        Each message still gets its own fresh IV (all drawn by one
        :meth:`KeyStore.fresh_ivs`, handed on as drawn) and its own chain
        — the construction is that of mapping :meth:`encrypt`.
        """
        return cbc_encrypt_framed(
            self._block, plaintexts, self._keys.fresh_ivs(len(plaintexts))
        )

    def _encrypt_batch_with_ivs(
        self, plaintexts: list[bytes], ivs: list[bytes]
    ) -> list[bytes]:
        return cbc_encrypt_framed(self._block, plaintexts, b"".join(ivs))

    def decrypt(self, ciphertext: bytes) -> bytes:
        try:
            return cbc_decrypt_framed(self._block, [ciphertext])[0]
        except ValueError as exc:  # PaddingError included
            raise DecryptionError(str(exc)) from exc

    def decrypt_batch(self, ciphertexts: list[bytes]) -> list[bytes]:
        """Every block of a run through one ``libcrypto`` call.

        All length and PKCS#7 checks of :meth:`decrypt` run on every
        element.  If one fails, the batch is decrypted again by mapping
        :meth:`decrypt`, so the error raised is the one mapping raises —
        the first bad element's, whether its length or its padding is at
        fault.
        """
        try:
            return cbc_decrypt_framed(self._block, ciphertexts)
        except ValueError:  # PaddingError included
            return [self.decrypt(ciphertext) for ciphertext in ciphertexts]


class SimulatedCipher(RecordCipher):
    """Length-preserving fast cipher for high-rate simulations.

    Encrypts by XOR with a keystream derived from SHA-256(key || IV || ctr)
    over the PKCS#7-padded plaintext, prefixed by the IV — so ciphertext
    lengths match :class:`AesCbcCipher` exactly.  This is *not* offered as a
    secure construction; it exists for the simulator, which models the
    cost of AES separately, and for the structural experiments whose
    pinned ciphertexts were computed under it.
    """

    def __init__(self, keys: KeyStore):
        self._key = keys.record_key()
        self._keys = keys
        self._counter = 0
        # The cipher is shared by every computing-node thread plus the
        # merger; the counter bump must be atomic or two threads can draw
        # the same IV (keystream reuse).
        self._counter_lock = threading.Lock()
        #: Counter blocks handed to ciphers built by :meth:`for_process`.
        self._blocks = 0

    def for_process(self):
        """The new cipher counts its IVs from the next unused counter
        block, so it shares none with this one or its siblings."""
        with self._counter_lock:
            self._blocks += 1
            first = self._blocks * _COUNTER_BLOCK
        return partial(_simulated_from, self._keys, first)

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
        """The mirror of :meth:`_encrypt_batch_with_ivs`: bodies
        zero-extended to whole 32-byte keystream blocks, one big-int XOR
        against all digests back to back, then :meth:`decrypt`'s PKCS#7
        check on every slice.  An element of impossible length or bad
        padding goes to :meth:`decrypt` for its error, after the elements
        before it — as when mapping."""
        lengths = list(map(len, ciphertexts))
        for index, length in enumerate(lengths):
            if length < 2 * BLOCK_SIZE or length & 15:
                return self.decrypt_batch(ciphertexts[:index]) + [
                    self.decrypt(ciphertexts[index])
                ]
        sha256, key = hashlib.sha256, self._key
        counters = [
            counter.to_bytes(4, "little")
            for counter in range((max(lengths, default=0) + 15) >> 5)
        ]
        prefixes = [key + ciphertext[:BLOCK_SIZE] for ciphertext in ciphertexts]
        keystream = b"".join(
            [
                sha256(prefix + counter).digest()
                for prefix, length in zip(prefixes, lengths)
                for counter in counters[: (length + 15) >> 5]
            ]
        )
        wide = b"".join(
            [
                ciphertext[BLOCK_SIZE:] + bytes(16 - (length & 16))
                for ciphertext, length in zip(ciphertexts, lengths)
            ]
        )
        body = (
            int.from_bytes(wide, "little")
            ^ int.from_bytes(keystream, "little")
        ).to_bytes(len(keystream), "little")
        out, start = [], 0
        for ciphertext, length in zip(ciphertexts, lengths):
            end = start + length - BLOCK_SIZE
            pad = body[end - 1]
            if 0 < pad <= BLOCK_SIZE and body.count(pad, end - pad, end) == pad:
                out.append(body[start : end - pad])
            else:  # raises the error mapping raises here
                out.append(self.decrypt(ciphertext))
            start += (length + 15) >> 5 << 5
        return out


def _simulated_from(keys: KeyStore, counter: int) -> SimulatedCipher:
    """A :class:`SimulatedCipher` whose next IV counter is ``counter + 1``."""
    cipher = SimulatedCipher(keys)
    cipher._counter = counter
    return cipher
