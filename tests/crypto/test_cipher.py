"""Record cipher tests (AES-CBC and the simulated fast cipher)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import AesCbcCipher, DecryptionError, SimulatedCipher
from repro.crypto.keys import KeyStore


@pytest.fixture(params=[AesCbcCipher, SimulatedCipher])
def cipher(request, keystore):
    return request.param(keystore)


class TestRecordCiphers:
    def test_roundtrip(self, cipher):
        assert cipher.decrypt(cipher.encrypt(b"payload")) == b"payload"

    def test_empty_plaintext(self, cipher):
        assert cipher.decrypt(cipher.encrypt(b"")) == b""

    def test_distinct_ciphertexts_for_equal_plaintexts(self, cipher):
        # Fresh IV (or nonce) per message: equal plaintexts must not
        # produce equal ciphertexts, or dummies become linkable.
        assert cipher.encrypt(b"same") != cipher.encrypt(b"same")

    def test_ciphertext_length_prediction(self, cipher):
        for size in (0, 1, 15, 16, 17, 100, 255):
            ciphertext = cipher.encrypt(b"z" * size)
            assert len(ciphertext) == cipher.ciphertext_length(size)

    def test_too_short_ciphertext_rejected(self, cipher):
        with pytest.raises(DecryptionError):
            cipher.decrypt(b"\x00" * 16)

    def test_wrong_key_fails_or_garbles(self, keystore):
        # With CBC + PKCS#7 a wrong key overwhelmingly fails the padding
        # check; on the rare valid-padding draw it must at least not
        # return the true plaintext.
        cipher = AesCbcCipher(keystore)
        other = AesCbcCipher(KeyStore(b"another-master-key-of-32-bytes!!"))
        ciphertext = cipher.encrypt(b"secret payload")
        try:
            assert other.decrypt(ciphertext) != b"secret payload"
        except DecryptionError:
            pass

    def test_both_ciphers_same_length_schedule(self, keystore):
        # The simulated cipher must be a drop-in for AES-CBC size-wise,
        # or the cost model would charge the wrong bytes.
        aes = AesCbcCipher(keystore)
        fast = SimulatedCipher(keystore)
        for size in (0, 5, 16, 31, 32, 100):
            assert aes.ciphertext_length(size) == fast.ciphertext_length(size)
            assert len(aes.encrypt(b"p" * size)) == len(fast.encrypt(b"p" * size))


class TestKeyStore:
    def test_derivation_is_deterministic(self):
        a = KeyStore(b"shared-master-key-32-bytes-long!")
        b = KeyStore(b"shared-master-key-32-bytes-long!")
        assert a.record_key() == b.record_key()

    def test_purpose_separation(self, keystore):
        assert keystore.derive("a") != keystore.derive("b")

    def test_key_size(self):
        for size in (16, 24, 32):
            assert len(KeyStore(b"k" * 32, key_size=size).record_key()) == size

    def test_bad_key_size_rejected(self):
        with pytest.raises(ValueError):
            KeyStore(b"k" * 32, key_size=20)

    def test_short_master_rejected(self):
        with pytest.raises(ValueError):
            KeyStore(b"short")

    def test_random_master_keys_differ(self):
        assert KeyStore().record_key() != KeyStore().record_key()

    def test_fresh_ivs_differ(self, keystore):
        pool = keystore.fresh_ivs(3) + keystore.fresh_ivs(1)
        assert len(pool) == 4 * 16
        ivs = {pool[start : start + 16] for start in range(0, len(pool), 16)}
        assert len(ivs) == 4
        assert keystore.fresh_ivs(0) == b""


@settings(max_examples=25)
@given(st.binary(max_size=300))
def test_aes_cbc_roundtrip_property(payload):
    """AesCbcCipher round-trips arbitrary payloads."""
    cipher = AesCbcCipher(KeyStore(b"property-test-master-key-32byte!"))
    assert cipher.decrypt(cipher.encrypt(payload)) == payload


@given(st.binary(max_size=2000))
def test_simulated_roundtrip_property(payload):
    """SimulatedCipher round-trips arbitrary payloads."""
    cipher = SimulatedCipher(KeyStore(b"property-test-master-key-32byte!"))
    assert cipher.decrypt(cipher.encrypt(payload)) == payload


class TestCipherThreadSafety:
    """The cipher is shared by every computing-node thread plus the merger
    (see TcpFresqueCluster); concurrent encrypts must never reuse an IV."""

    def test_concurrent_encrypts_use_unique_ivs(self, keystore):
        import threading

        cipher = SimulatedCipher(keystore)
        per_thread = 200
        results: list[list[bytes]] = [[] for _ in range(8)]
        barrier = threading.Barrier(8)

        def worker(slot: int) -> None:
            barrier.wait()
            for _ in range(per_thread):
                results[slot].append(cipher.encrypt(b"shared-cipher-payload"))

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ciphertexts = [c for bucket in results for c in bucket]
        ivs = {c[:16] for c in ciphertexts}
        assert len(ivs) == 8 * per_thread
        for ciphertext in ciphertexts:
            assert cipher.decrypt(ciphertext) == b"shared-cipher-payload"


class TestForProcess:
    """``for_process`` builds the cipher a forked computing node uses:
    from the key store, never from the parent's objects."""

    def test_the_new_cipher_round_trips_with_the_parent(self, cipher):
        child = cipher.for_process()()
        assert type(child) is type(cipher)
        assert cipher.decrypt(child.encrypt(b"payload")) == b"payload"
        assert child.decrypt(cipher.encrypt(b"payload")) == b"payload"

    def test_aes_builds_its_own_libcrypto_contexts(self, keystore):
        parent = AesCbcCipher(keystore)
        child = parent.for_process()()
        assert child._block is not parent._block

    def test_simulated_ciphers_draw_from_disjoint_counter_blocks(
        self, keystore
    ):
        """Neither child continues the parent's counter, nor its
        sibling's, whatever the parent drew before building them."""
        parent = SimulatedCipher(keystore)
        parent.encrypt_batch([b"x"] * 5)
        first, second = parent.for_process(), parent.for_process()
        ciphers = [parent, first(), second()]
        ivs = [
            ciphertext[:16]
            for cipher in ciphers
            for ciphertext in cipher.encrypt_batch([b"y"] * 50)
        ]
        assert len(set(ivs)) == len(ivs) == 150
