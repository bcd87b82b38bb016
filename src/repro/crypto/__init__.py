"""Encryption substrate: AES-CBC on libcrypto and the record cipher API."""

from repro.crypto.aes import BLOCK_SIZE, KEY_SIZES, AesBlockCipher, AesKeyError
from repro.crypto.cipher import (
    AesCbcCipher,
    DecryptionError,
    RecordCipher,
    SimulatedCipher,
)
from repro.crypto.keys import KeyStore
from repro.crypto.modes import cbc_decrypt, cbc_encrypt
from repro.crypto.padding import PaddingError, pad, unpad

__all__ = [
    "AesBlockCipher",
    "AesCbcCipher",
    "AesKeyError",
    "BLOCK_SIZE",
    "DecryptionError",
    "KEY_SIZES",
    "KeyStore",
    "PaddingError",
    "RecordCipher",
    "SimulatedCipher",
    "cbc_decrypt",
    "cbc_encrypt",
    "pad",
    "unpad",
]
