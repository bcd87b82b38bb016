"""Key generation and the trusted key store.

In the paper's model the collector and the client share a secret key; the
cloud never sees it.  :class:`KeyStore` models that shared secret and derives
purpose-specific subkeys so the record cipher and any auxiliary MACs never
reuse key material.
"""

from __future__ import annotations

import hashlib
import hmac
import os

from repro.crypto.aes import KEY_SIZES


class KeyStore:
    """Holder of the collector/client shared secret.

    Parameters
    ----------
    master_key:
        The shared secret.  If ``None``, a fresh random key is drawn from the
        OS CSPRNG.
    key_size:
        AES key length in bytes for derived keys (16, 24 or 32).
    """

    def __init__(self, master_key: bytes | None = None, key_size: int = 16):
        if key_size not in KEY_SIZES:
            raise ValueError(f"key size must be one of {KEY_SIZES}")
        if master_key is None:
            master_key = os.urandom(32)
        if len(master_key) < 16:
            raise ValueError("master key must be at least 16 bytes")
        self._master_key = bytes(master_key)
        self._key_size = key_size

    @property
    def key_size(self) -> int:
        """Length in bytes of derived AES keys."""
        return self._key_size

    def derive(self, purpose: str) -> bytes:
        """Derive a subkey bound to ``purpose`` (HKDF-style, HMAC-SHA256).

        Deterministic: the client derives the same subkeys from the same
        master key, which is what allows it to decrypt records the collector
        encrypted.
        """
        output = b""
        counter = 1
        info = purpose.encode("utf-8")
        while len(output) < self._key_size:
            block = hmac.new(
                self._master_key, info + bytes([counter]), hashlib.sha256
            ).digest()
            output += block
            counter += 1
        return output[: self._key_size]

    def record_key(self) -> bytes:
        """Subkey used to encrypt record payloads."""
        return self.derive("fresque/record-encryption")

    def fresh_ivs(self, count: int) -> bytes:
        """``count`` fresh random 16-byte IVs back to back, one per CBC
        encryption, from a single ``os.urandom`` draw."""
        return os.urandom(16 * count)
