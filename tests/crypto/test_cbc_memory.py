"""Transient memory of CBC encryption: O(input bytes), whatever the mix.

The rectangle lays a run's messages out as rows as wide as the widest,
so a single long message among short ones must go in a band of its own;
otherwise 511 short rows would each be as wide as it.  A byte bound on
the traced peak, not a time bound.
"""

import tracemalloc

from repro.crypto.cipher import AesCbcCipher
from repro.crypto.keys import KeyStore

#: Traced peak allowed for the batch below.  The position-major form
#: this layout replaced peaked at 0.82 MiB on it; rows all as wide as
#: the long message would take ~32 MiB.
_PEAK_BOUND = 2 * 1024 * 1024


def test_one_long_message_does_not_widen_the_short_ones():
    cipher = AesCbcCipher(KeyStore(b"memory-test-master-key-32-bytes!"))
    plaintexts = [bytes([index % 251]) * 40 for index in range(511)]
    plaintexts.append(bytes(range(256)) * 256)  # 64 KiB
    tracemalloc.start()
    try:
        ciphertexts = cipher.encrypt_batch(plaintexts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_BOUND, f"peak {peak / 2**20:.2f} MiB"
    assert cipher.decrypt_batch(ciphertexts) == plaintexts
