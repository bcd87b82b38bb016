"""Authenticated record encryption (encrypt-then-MAC).

The paper's honest-but-curious cloud never modifies data, so plain AES-CBC
suffices there.  This extension hardens the pipeline against a *malicious*
cloud (or a man-in-the-middle on the collector-cloud link) by appending an
HMAC-SHA256 tag over the ciphertext: the client then detects any
modification, reordering of CBC blocks, or truncation before decrypting.

Composable over any :class:`~repro.crypto.cipher.RecordCipher`, so both
the real AES cipher and the fast simulated cipher can be authenticated.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.cipher import DecryptionError, RecordCipher
from repro.crypto.keys import KeyStore

_TAG_BYTES = 32


class AuthenticationError(DecryptionError):
    """Raised when a ciphertext's MAC does not verify."""


class AuthenticatedCipher(RecordCipher):
    """Encrypt-then-MAC wrapper: ``inner_ciphertext || HMAC-SHA256``.

    Parameters
    ----------
    inner:
        The confidentiality cipher being wrapped.
    keys:
        Key store; the MAC key is derived under its own purpose label so
        it never overlaps the encryption key.
    """

    def __init__(self, inner: RecordCipher, keys: KeyStore):
        self._inner = inner
        self._mac_key = keys.derive("fresque/record-authentication")

    def _tag(self, ciphertext: bytes) -> bytes:
        return hmac.new(self._mac_key, ciphertext, hashlib.sha256).digest()

    def _tagged(self, body: bytes) -> bytes:
        return body + self._tag(body)

    def _verified_body(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < _TAG_BYTES + 32:
            raise AuthenticationError("ciphertext too short for a MAC tag")
        body, tag = ciphertext[:-_TAG_BYTES], ciphertext[-_TAG_BYTES:]
        if not hmac.compare_digest(self._tag(body), tag):
            raise AuthenticationError("MAC verification failed")
        return body

    def encrypt(self, plaintext: bytes) -> bytes:
        return self._tagged(self._inner.encrypt(plaintext))

    def decrypt(self, ciphertext: bytes) -> bytes:
        return self._inner.decrypt(self._verified_body(ciphertext))

    def encrypt_batch(self, plaintexts: list[bytes]) -> list[bytes]:
        """One inner batch call (its fast path, its IV sequence), then a
        tag per element."""
        return [
            self._tagged(body)
            for body in self._inner.encrypt_batch(plaintexts)
        ]

    def encrypt_batch_seeded(
        self, plaintexts: list[bytes], nonces: list[bytes]
    ) -> list[bytes]:
        return [
            self._tagged(body)
            for body in self._inner.encrypt_batch_seeded(plaintexts, nonces)
        ]

    def decrypt_batch(self, ciphertexts: list[bytes]) -> list[bytes]:
        """Verify every tag, then one inner batch call.

        Keeps the map contract: when element ``k`` fails verification the
        elements before it are still decrypted first, so an earlier
        element's decryption error is the one raised.
        """
        bodies = []
        for ciphertext in ciphertexts:
            try:
                bodies.append(self._verified_body(ciphertext))
            except AuthenticationError:
                self._inner.decrypt_batch(bodies)
                raise
        return self._inner.decrypt_batch(bodies)

    # Seeded IVs are the inner cipher's: the tag covers whatever IV the
    # body carries, so the wrapper adds no derivation of its own.

    def derive_iv(self, nonce: bytes) -> bytes:
        return self._inner.derive_iv(nonce)

    def _encrypt_with_iv(self, plaintext: bytes, iv: bytes) -> bytes:
        return self._tagged(self._inner._encrypt_with_iv(plaintext, iv))

    def ciphertext_length(self, plaintext_length: int) -> int:
        return self._inner.ciphertext_length(plaintext_length) + _TAG_BYTES
