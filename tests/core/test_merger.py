"""Merger tests: index assembly and overflow arrays."""

import random

import pytest

from repro.core.config import FresqueConfig
from repro.core.merger import Merger
from repro.core.messages import (
    AlSnapshot,
    MergedPublication,
    RemovedBatch,
    TemplateMsg,
)
from repro.crypto.cipher import AesCbcCipher, SimulatedCipher, padding_nonce
from repro.datasets.flu import flu_domain
from repro.index.overflow import OverflowArray
from repro.index.perturb import draw_noise_plan
from repro.index.tree import IndexTree
from repro.records.record import EncryptedRecord, Record
from repro.records.schema import flu_survey_schema
from repro.records.serialize import (
    DUMMY_PAYLOAD_PREFIX,
    DummyRecordSerializer,
    serialize_record,
)


@pytest.fixture
def merger(flu_config, fast_cipher):
    return Merger(flu_config, fast_cipher, rng=random.Random(12))


@pytest.fixture
def plan(flu_config):
    tree = IndexTree(flu_config.domain, fanout=flu_config.fanout)
    return draw_noise_plan(tree, flu_config.epsilon, rng=random.Random(55))


def _removed(cipher, offset: int, publication: int = 0) -> RemovedBatch:
    """One real record removed under leaf ``offset``."""
    plaintext = serialize_record(
        Record(("p", 1, 370 + offset, "none")), flu_survey_schema()
    )
    return RemovedBatch(publication, (offset,), (cipher.encrypt(plaintext),))


def _real_count(cipher, column) -> int:
    """How many of a sealed array's ciphertexts are real records: what a
    client learns by decrypting it (``real_count`` never leaves the
    merger)."""
    return sum(
        not plaintext.startswith(DUMMY_PAYLOAD_PREFIX)
        for plaintext in cipher.decrypt_batch(list(column))
    )


class TestMergeJob:
    def test_merge_produces_truth_plus_noise(self, merger, flu_config, plan):
        merger.on_template(TemplateMsg(0, plan))
        al = [3] * flu_config.domain.num_leaves
        out = merger.on_al(AlSnapshot(0, tuple(al)))
        (destination, message), = out
        assert destination == "cloud"
        assert isinstance(message, MergedPublication)
        for offset, leaf in enumerate(message.tree.leaves):
            assert leaf.count == 3 + plan.leaf_noise[offset]

    def test_overflow_arrays_sealed_at_capacity(
        self, merger, flu_config, fast_cipher, plan
    ):
        merger.on_template(TemplateMsg(0, plan))
        merger.on_removed(_removed(fast_cipher, 2))
        (_, message), = merger.on_al(
            AlSnapshot(0, tuple([0] * flu_config.domain.num_leaves))
        )
        arrays = message.overflow
        assert len(arrays) == flu_config.domain.num_leaves
        capacity = flu_config.overflow_capacity
        assert all(
            type(column) is tuple and len(column) == capacity
            for column in arrays.values()
        )
        assert _real_count(fast_cipher, arrays[2]) == 1
        assert _real_count(fast_cipher, arrays[3]) == 0
        assert merger.reports[0].removed_records == 1

    def test_removed_before_template_buffers(
        self, merger, flu_config, fast_cipher, plan
    ):
        # Race tolerance: a removed record may beat the template message.
        merger.on_removed(_removed(fast_cipher, 1))
        merger.on_template(TemplateMsg(0, plan))
        (_, message), = merger.on_al(
            AlSnapshot(0, tuple([0] * flu_config.domain.num_leaves))
        )
        assert _real_count(fast_cipher, message.overflow[1]) == 1

    def test_al_without_template_raises(self, merger, flu_config):
        with pytest.raises(KeyError):
            merger.on_al(AlSnapshot(9, tuple([0] * flu_config.domain.num_leaves)))

    def test_report_accounting(self, merger, flu_config, fast_cipher, plan):
        merger.on_template(TemplateMsg(0, plan))
        merger.on_removed(_removed(fast_cipher, 0))
        merger.on_al(AlSnapshot(0, tuple([1] * flu_config.domain.num_leaves)))
        report = merger.reports[0]
        assert report.publication == 0
        assert report.removed_records == 1
        assert report.overflow_capacity == (
            flu_config.overflow_capacity * flu_config.domain.num_leaves
        )
        assert report.padding_encrypts == report.overflow_capacity - 1

    def test_overflow_capacity_caps_removed(
        self, merger, flu_config, fast_cipher, plan
    ):
        merger.on_template(TemplateMsg(0, plan))
        capacity = flu_config.overflow_capacity
        for _ in range(capacity + 5):
            merger.on_removed(_removed(fast_cipher, 4))
        (_, message), = merger.on_al(
            AlSnapshot(0, tuple([0] * flu_config.domain.num_leaves))
        )
        assert _real_count(fast_cipher, message.overflow[4]) == capacity
        assert merger.reports[0].removed_records == capacity

    def test_two_publications_independent(
        self, merger, flu_config, fast_cipher, plan
    ):
        tree = IndexTree(flu_config.domain, fanout=flu_config.fanout)
        other = draw_noise_plan(tree, 1.0, rng=random.Random(99))
        merger.on_template(TemplateMsg(0, plan))
        merger.on_template(TemplateMsg(1, other))
        merger.on_removed(_removed(fast_cipher, 0, publication=1))
        zeros = tuple([0] * flu_config.domain.num_leaves)
        (_, first), = merger.on_al(AlSnapshot(0, zeros))
        (_, second), = merger.on_al(AlSnapshot(1, zeros))
        assert _real_count(fast_cipher, first.overflow[0]) == 0
        assert _real_count(fast_cipher, second.overflow[0]) == 1
        assert [r.removed_records for r in merger.reports] == [0, 1]


def _reference_merge(config, cipher, rng, removed_by_leaf, publication):
    """The merge job as it was before padding was batched: one
    ``OverflowArray.seal(make_padding)`` per leaf, one serialization and
    one ``encrypt`` (or ``encrypt_seeded``) call per dummy, drawn and
    encrypted leaf by leaf.  ``removed_by_leaf`` holds ciphertexts."""
    serializer = DummyRecordSerializer(config.schema)
    capacity = config.overflow_capacity
    counter = 0
    removed_total = 0
    overflow = {}
    for offset in range(config.domain.num_leaves):
        array = OverflowArray(offset, capacity=capacity)
        for ciphertext in removed_by_leaf.get(offset, ())[:capacity]:
            array.add_removed(EncryptedRecord(offset, ciphertext))
            removed_total += 1

        def padding(offset=offset):
            nonlocal counter
            low, high = config.domain.leaf_range(offset)
            value = low if high <= low else low + rng.random() * (high - low)
            (plaintext,) = serializer.serialize_many([value])
            if config.deterministic_ivs:
                ciphertext = cipher.encrypt_seeded(
                    plaintext, padding_nonce(publication, counter)
                )
            else:
                ciphertext = cipher.encrypt(plaintext)
            counter += 1
            return EncryptedRecord(
                leaf_offset=None, ciphertext=ciphertext, publication=publication
            )

        array.seal(padding, rng=rng)
        overflow[offset] = array
    return overflow, removed_total, counter


class TestBatchedPaddingEqualsPerLeafSealing:
    """``on_al`` pads a publication in one batch; the arrays, their entry
    order and the report must be those of the per-leaf loop it replaced."""

    @pytest.mark.parametrize(
        "cipher_cls, seeded",
        [
            (SimulatedCipher, False),
            (SimulatedCipher, True),
            (AesCbcCipher, True),
        ],
    )
    def test_same_seeds_same_arrays(self, keystore, plan, cipher_cls, seeded):
        config = FresqueConfig(
            schema=flu_survey_schema(),
            domain=flu_domain(),
            num_computing_nodes=3,
            epsilon=1.0,
            alpha=2.0,
            deterministic_ivs=seeded,
        )
        capacity = config.overflow_capacity
        removed = {
            2: [bytes(48)],
            # One leaf over capacity: the excess is dropped, not sealed.
            4: [bytes([fill]) * 48 for fill in range(capacity + 3)],
            7: [bytes([200 + fill]) * 32 for fill in range(3)],
        }
        publication = 5
        expected, removed_total, paddings = _reference_merge(
            config, cipher_cls(keystore), random.Random(12), removed, publication
        )

        merger = Merger(config, cipher_cls(keystore), rng=random.Random(12))
        merger.on_template(TemplateMsg(publication, plan))
        for offset, ciphertexts in removed.items():
            # Removed records arrive in runs of any length.
            for start in range(0, len(ciphertexts), 2):
                run = tuple(ciphertexts[start : start + 2])
                merger.on_removed(
                    RemovedBatch(publication, (offset,) * len(run), run)
                )
        al = tuple([0] * config.domain.num_leaves)
        (_, message), = merger.on_al(AlSnapshot(publication, al))

        assert message.overflow.keys() == expected.keys()
        for offset, column in message.overflow.items():
            assert column == expected[offset].ciphertexts
        (report,) = merger.reports
        assert report.removed_records == removed_total == capacity + 4
        assert report.padding_encrypts == paddings
        assert report.overflow_capacity == capacity * config.domain.num_leaves

    def test_padding_is_one_batch_call(self, flu_config, fast_cipher, plan):
        calls = []
        encrypt_batch = fast_cipher.encrypt_batch
        fast_cipher.encrypt_batch = lambda plaintexts: (
            calls.append(len(plaintexts)) or encrypt_batch(plaintexts)
        )
        fast_cipher.encrypt = None  # any per-dummy call would raise
        merger = Merger(flu_config, fast_cipher, rng=random.Random(12))
        merger.on_template(TemplateMsg(0, plan))
        merger.on_al(AlSnapshot(0, tuple([0] * flu_config.domain.num_leaves)))
        assert calls == [merger.reports[0].padding_encrypts]
