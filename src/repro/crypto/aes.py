"""AES block cipher (FIPS-197) on OpenSSL's ``libcrypto``.

The paper encrypts records with ``javax.crypto`` AES.  No third-party
crypto package is available offline, but CPython's own ``hashlib`` links
OpenSSL's ``libcrypto``, so its EVP AES is bound here through the standard
library's ``ctypes``.  The library is resolved when this module is
imported, as ``hashlib`` does; if no candidate loads, importing still
succeeds (the :class:`~repro.crypto.cipher.SimulatedCipher` workloads do
not need it) and constructing an :class:`AesBlockCipher` raises
:class:`AesUnavailableError`.  There is no other implementation to fall
back on.

:class:`AesBlockCipher` encrypts or decrypts any number of independent
16-byte blocks (ECB) in one library call; :mod:`repro.crypto.modes` builds
CBC on top of it.  The FIPS-197 vectors and a step-by-step reference
(``tests/crypto/reference_aes.py``) check it in the test suite.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import weakref

#: AES block size in bytes.
BLOCK_SIZE = 16

#: Supported key lengths in bytes.
KEY_SIZES = (16, 24, 32)

#: Sonames tried in order, then whatever ``ctypes.util`` finds.  The first
#: is the one CPython's ``_hashlib`` links on current distributions, so
#: the load maps no second copy of the library.
_LIBCRYPTO_NAMES = ("libcrypto.so.3", "libcrypto.so.1.1")


class AesKeyError(ValueError):
    """Raised for keys of unsupported length."""


class AesUnavailableError(RuntimeError):
    """Raised when OpenSSL's ``libcrypto`` could not be loaded."""


def check_key(key: bytes) -> None:
    """Raise :class:`AesKeyError` unless ``key`` is 16, 24 or 32 bytes."""
    if len(key) not in KEY_SIZES:
        raise AesKeyError(
            f"AES key must be one of {KEY_SIZES} bytes, got {len(key)}"
        )


def _load_libcrypto() -> ctypes.PyDLL | None:
    """``libcrypto`` with the EVP prototypes this module calls, or ``None``.

    ``PyDLL`` keeps the GIL held across every call: a cipher context is
    then never used by two threads at once, so one cipher is safe to share
    between the TCP runtime's computing-node threads.
    """
    for name in _candidates():
        try:
            lib = ctypes.PyDLL(name)
        except OSError:
            continue
        void, text, number = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
        lib.EVP_CIPHER_CTX_new.argtypes = []
        lib.EVP_CIPHER_CTX_new.restype = void
        lib.EVP_CIPHER_CTX_free.argtypes = [void]
        lib.EVP_CIPHER_CTX_free.restype = None
        lib.EVP_CipherInit_ex.argtypes = [void, void, void, text, text, number]
        lib.EVP_CipherInit_ex.restype = number
        lib.EVP_CIPHER_CTX_set_padding.argtypes = [void, number]
        lib.EVP_CIPHER_CTX_set_padding.restype = number
        lib.EVP_CipherUpdate.argtypes = [
            void, text, ctypes.POINTER(number), text, number
        ]
        lib.EVP_CipherUpdate.restype = number
        for bits in (128, 192, 256):
            getattr(lib, f"EVP_aes_{bits}_ecb").restype = void
        return lib
    return None


def _candidates():
    yield from _LIBCRYPTO_NAMES
    found = ctypes.util.find_library("crypto")  # spawns a process: last
    if found:
        yield found


_LIBCRYPTO = _load_libcrypto()


class AesBlockCipher:
    """Raw AES encryption/decryption of 16-byte blocks.

    Holds one encrypt and one decrypt AES-ECB ``EVP_CIPHER_CTX`` with
    padding off, keyed once and freed when the cipher is collected.  Each
    :meth:`encrypt_blocks` / :meth:`decrypt_blocks` is one
    ``EVP_CipherUpdate`` over every block of the call.

    Parameters
    ----------
    key:
        16-, 24- or 32-byte secret key.

    Raises
    ------
    AesKeyError
        For a key of another length.
    AesUnavailableError
        If ``libcrypto`` could not be loaded.
    """

    def __init__(self, key: bytes):
        check_key(key)
        lib = _LIBCRYPTO
        if lib is None:
            raise AesUnavailableError(
                "AES needs OpenSSL's libcrypto (tried "
                + ", ".join(_LIBCRYPTO_NAMES)
                + "), which could not be loaded"
            )
        self._update = lib.EVP_CipherUpdate
        self._encrypt_ctx = self._context(lib, key, encrypt=True)
        self._decrypt_ctx = self._context(lib, key, encrypt=False)

    def _context(self, lib: ctypes.PyDLL, key: bytes, encrypt: bool) -> int:
        ctx = lib.EVP_CIPHER_CTX_new()
        if not ctx:
            raise MemoryError("EVP_CIPHER_CTX_new failed")
        weakref.finalize(self, lib.EVP_CIPHER_CTX_free, ctx)
        ecb = getattr(lib, f"EVP_aes_{8 * len(key)}_ecb")()
        if not (
            lib.EVP_CipherInit_ex(ctx, ecb, None, bytes(key), None, int(encrypt))
            and lib.EVP_CIPHER_CTX_set_padding(ctx, 0)
        ):
            raise AesUnavailableError("libcrypto refused the AES-ECB key")
        return ctx

    def encrypt_blocks(self, data: bytes) -> bytes:
        """Encrypt ``len(data) // 16`` independent blocks (ECB, no chaining);
        an empty input gives ``b""``."""
        return self._run(self._encrypt_ctx, data)

    def decrypt_blocks(self, data: bytes) -> bytes:
        """Decrypt ``len(data) // 16`` independent blocks; the inverse of
        :meth:`encrypt_blocks`."""
        return self._run(self._decrypt_ctx, data)

    def _run(self, ctx: int, data: bytes) -> bytes:
        size = len(data)
        if size % BLOCK_SIZE:
            raise ValueError(
                f"data must be a multiple of {BLOCK_SIZE} bytes, got {size}"
            )
        if not size:
            return b""
        out = ctypes.create_string_buffer(size)
        written = ctypes.c_int()
        if not self._update(ctx, out, written, bytes(data), size):
            raise RuntimeError("EVP_CipherUpdate failed")
        return out.raw
