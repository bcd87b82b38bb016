"""Trusted-client tests: decryption, dummy filtering, exact-range filter.

``FRESQUE_BATCH_SIZE=<n>`` (the CI batch matrix) reruns these with every
config that does not pin a batch size at ``batch_size=n``, through the
integration suite's autouse override: the query-path pins below must
hold at every batch size.
"""

import hashlib
import math
from collections import Counter

import pytest

from repro.client.query_client import ClientResult, QueryClient
from repro.cloud.node import FresqueCloud
from repro.cloud.query_engine import QueryResult
from repro.core.system import CollectorAwareQueryTarget, FresqueSystem
from repro.crypto.cipher import DecryptionError, SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator
from repro.index.domain import AttributeDomain
from repro.index.query import RangeQuery
from repro.index.tree import IndexTree
from repro.records.record import Record, RecordError, make_dummy
from repro.records.schema import flu_survey_schema
from repro.records.serialize import (
    DUMMY_PAYLOAD_PREFIX,
    deserialize_record,
    serialize_record,
)
from tests.integration.conftest import _batch_size_matrix  # noqa: F401


@pytest.fixture
def domain():
    return AttributeDomain(340, 420, 10)


@pytest.fixture
def schema():
    return flu_survey_schema()


def _publish(cloud, domain, cipher, schema, records):
    cloud.announce_publication(0)
    counts = [0] * domain.num_leaves
    for record in records:
        offset = domain.leaf_offset(record.indexed_value(schema))
        counts[offset] += 1
        cloud.receive_pairs(
            0, (offset,), (cipher.encrypt(serialize_record(record, schema)),)
        )
    tree = IndexTree(domain, fanout=4)
    tree.set_leaf_counts(counts)
    cloud.receive_publication(0, tree, {})


class TestQueryClient:
    def test_exact_range_filtering(self, domain, schema, fast_cipher):
        cloud = FresqueCloud(domain)
        records = [
            Record(("a", 1, 361, "none")),
            Record(("b", 1, 365, "cough")),
            Record(("c", 1, 372, "none")),
        ]
        _publish(cloud, domain, fast_cipher, schema, records)
        client = QueryClient(schema, fast_cipher, cloud)
        result = client.range_query(362, 372)
        values = sorted(r.values[2] for r in result.records)
        assert values == [365, 372]
        # 361 shares leaf [360, 370) with 365 → returned but filtered.
        assert result.out_of_range_discarded == 1

    def test_dummies_filtered(self, domain, schema, fast_cipher):
        cloud = FresqueCloud(domain)
        records = [Record(("a", 1, 365, "none")), make_dummy(schema, 366)]
        _publish(cloud, domain, fast_cipher, schema, records)
        client = QueryClient(schema, fast_cipher, cloud)
        result = client.range_query(360, 369)
        assert len(result.records) == 1
        assert result.dummies_discarded == 1
        assert result.ciphertexts_received == 2

    def test_empty_result(self, domain, schema, fast_cipher):
        cloud = FresqueCloud(domain)
        _publish(cloud, domain, fast_cipher, schema, [])
        client = QueryClient(schema, fast_cipher, cloud)
        result = client.range_query(340, 420)
        assert result.records == ()

    def test_wrong_key_raises(self, domain, schema, fast_cipher):
        cloud = FresqueCloud(domain)
        _publish(
            cloud, domain, fast_cipher, schema, [Record(("a", 1, 365, "none"))]
        )
        wrong = SimulatedCipher(KeyStore(b"some-entirely-different-key-32b!"))
        client = QueryClient(schema, wrong, cloud)
        with pytest.raises(DecryptionError):
            client.range_query(360, 369)


class _FixedResponse:
    """A query target answering every query with the same ciphertexts."""

    def __init__(self, ciphertexts):
        self._ciphertexts = tuple(ciphertexts)

    def query(self, query):
        return QueryResult(
            indexed=self._ciphertexts,
            overflow=(),
            unindexed=(),
            nodes_visited=0,
        )


class TestOnlySurvivorsAreDecoded:
    """Dummies are told by the flag byte of the *verified* plaintext and
    never decoded; everything else about a result is checked as before."""

    def test_truncated_real_record_raises(self, schema, fast_cipher):
        payload = serialize_record(Record(("a", 1, 365, "none")), schema)
        client = QueryClient(
            schema,
            fast_cipher,
            _FixedResponse([fast_cipher.encrypt(payload[:-3])]),
        )
        with pytest.raises(RecordError):
            client.range_query(360, 369)

    def test_real_record_with_a_trailing_byte_raises(
        self, schema, fast_cipher
    ):
        """The ciphertext decrypts and unpads, but its plaintext has a
        byte after the last declared field: the query raises instead of
        returning the record the prefix decodes to."""
        payload = serialize_record(Record(("a", 1, 365, "none")), schema)
        good = fast_cipher.encrypt(payload)
        bad = fast_cipher.encrypt(payload + b"\x00")
        assert fast_cipher.decrypt_batch([good, bad]) == [
            payload, payload + b"\x00"
        ]
        client = QueryClient(schema, fast_cipher, _FixedResponse([good, bad]))
        with pytest.raises(RecordError):
            client.range_query(360, 369)

    def test_unknown_flag_raises(self, schema, fast_cipher):
        """A survivor whose flag is neither real nor dummy is not returned
        as a real record: the query raises."""
        payload = serialize_record(Record(("a", 1, 365, "none")), schema)
        client = QueryClient(
            schema,
            fast_cipher,
            _FixedResponse([fast_cipher.encrypt(b"\x05" + payload[1:])]),
        )
        with pytest.raises(RecordError, match="flag 5 is neither"):
            client.range_query(360, 369)

    def test_dummy_with_corrupt_padding_raises(self, schema, fast_cipher):
        """The padding check is not conditional on the dummy flag."""
        payload = serialize_record(make_dummy(schema, 366), schema)
        assert payload.startswith(DUMMY_PAYLOAD_PREFIX)
        ciphertext = bytearray(fast_cipher.encrypt(payload))
        ciphertext[-1] ^= 16 - len(payload) % 16  # padding length -> 0
        client = QueryClient(
            schema, fast_cipher, _FixedResponse([bytes(ciphertext)])
        )
        with pytest.raises(DecryptionError):
            client.range_query(360, 369)


def _reference_range_query(schema, cipher, target, low, high):
    """The per-ciphertext loop ``range_query`` replaced: decrypt and
    decode every returned ciphertext, then look at the flag."""
    query = RangeQuery(low, high)
    ciphertexts = target.query(query).ciphertexts()
    matches, dummies, out_of_range = [], 0, 0
    for ciphertext in ciphertexts:
        record = deserialize_record(cipher.decrypt(ciphertext), schema)
        if record.is_dummy:
            dummies += 1
        elif not query.contains(record.indexed_value(schema)):
            out_of_range += 1
        else:
            matches.append(record)
    return ClientResult(
        records=tuple(matches),
        ciphertexts_received=len(ciphertexts),
        dummies_discarded=dummies,
        out_of_range_discarded=out_of_range,
    )


_QUERY_PLAN = [(340, 420), (362.5, 371.5), (365, 365), (401, 419), (380, 395)]

#: What the cloud did for each query of the plan when the reference loop
#: was the client (recorded at 2eda40d): store reads, bytes read, and a
#: digest of the ciphertexts it returned, in the order it returned them.
_CLOUD_SIDE_AT_PARENT = [
    (3036, 192928, "4128d73255e82041"),
    (2526, 161504, "367d5515b0c386d3"),
    (255, 16320, "c381d9d8ce165779"),
    (17, 896, "082fce042b2ec942"),
    (114, 6928, "c496adf47e70fcda"),
]


@pytest.fixture
def mid_publication(flu_config, fast_cipher):
    """One publication at the cloud (index, overflow arrays with their
    padding), a second one under way: pairs in flight at the cloud,
    residents in the randomer, removed records at the merger."""
    system = FresqueSystem(flu_config, fast_cipher, seed=151)
    system.start()
    generator = FluSurveyGenerator(seed=152)
    system.run_publication(list(generator.raw_lines(2500)))
    for line in generator.raw_lines(2500):
        system.ingest(line)
    system.flush_ingest()
    assert system.cloud.engine.published
    assert system.unpublished_pairs
    assert system.checking.buffered_pairs()
    assert system.merger.pending_removed()
    return system


class TestAgainstTheReferenceLoop:
    def test_results_equal_the_reference(self, mid_publication, fast_cipher):
        system = mid_publication
        schema = system.config.schema
        target = CollectorAwareQueryTarget(
            system.cloud, system.checking, system.merger
        )
        client = system.make_client()
        results = []
        for low, high in _QUERY_PLAN:
            got = client.range_query(low, high)
            want = _reference_range_query(
                schema, fast_cipher, target, low, high
            )
            assert Counter(got.records) == Counter(want.records)
            assert got.ciphertexts_received == want.ciphertexts_received
            assert got.dummies_discarded == want.dummies_discarded
            assert got.out_of_range_discarded == want.out_of_range_discarded
            results.append(got)
        # The plan exercises both discards.
        assert any(result.dummies_discarded for result in results)
        assert any(result.out_of_range_discarded for result in results)

    def test_cloud_observes_the_same_thing(
        self, mid_publication, fast_cipher, monkeypatch
    ):
        """What the cloud can see of a query — one ``query`` call, its
        reads from the store, the ordinals it returns (Oblivious Query
        Processing's access pattern, arXiv:1312.4012) — does not depend
        on how the client post-processes the answer."""
        system = mid_publication
        cloud, store = system.cloud, system.cloud.store
        cloud_query = cloud.query
        observed = []

        def observing(query):
            reads = store.read_ops, store.bytes_read
            result = cloud_query(query)
            observed.append(
                (
                    store.read_ops - reads[0],
                    store.bytes_read - reads[1],
                    result,
                )
            )
            return result

        monkeypatch.setattr(cloud, "query", observing)
        target = CollectorAwareQueryTarget(
            cloud, system.checking, system.merger
        )
        for low, high in _QUERY_PLAN:
            _reference_range_query(
                system.config.schema, fast_cipher, target, low, high
            )
        recorded, observed[:] = list(observed), []
        client = system.make_client()
        for low, high in _QUERY_PLAN:
            client.range_query(low, high)
        assert len(observed) == len(_QUERY_PLAN)  # one call per query
        assert observed == recorded
        assert [
            (
                read_ops,
                bytes_read,
                hashlib.sha256(
                    b"".join(result.ciphertexts())
                ).hexdigest()[:16],
            )
            for read_ops, bytes_read, result in observed
        ] == _CLOUD_SIDE_AT_PARENT


class TestColumnDecode:
    """Survivors are decoded as columns and a Record is built per match;
    the result, record order included, is the reference loop's."""

    def test_mixed_result_equals_the_reference(self, schema, fast_cipher):
        records = [
            Record(("a", 1, 365, "none")),
            make_dummy(schema, 366),
            Record(("b", 2, 361, "cough")),  # same leaf, out of range
            Record(("c\u00e9", 3, 369, "")),
            make_dummy(schema, 360),
            Record(("d", 4, 362, "fever")),
            Record(("e", 5, 370, "none")),  # out of range
        ]
        target = _FixedResponse(
            fast_cipher.encrypt(serialize_record(record, schema))
            for record in records
        )
        client = QueryClient(schema, fast_cipher, target)
        got = client.range_query(362, 369)
        assert got == _reference_range_query(
            schema, fast_cipher, target, 362, 369
        )
        assert got == ClientResult(
            records=(records[0], records[3], records[5]),
            ciphertexts_received=7,
            dummies_discarded=2,
            out_of_range_discarded=2,
        )


class TestNanBounds:
    """A NaN bound is refused before the cloud sees the query."""

    @pytest.fixture
    def system(self, flu_config, fast_cipher):
        system = FresqueSystem(flu_config, fast_cipher, seed=161)
        system.start()
        system.run_publication(list(FluSurveyGenerator(seed=162).raw_lines(400)))
        return system

    @pytest.mark.parametrize(
        ("low", "high"), [(math.nan, 400.0), (340.0, math.nan)]
    )
    def test_raises_before_the_cloud_is_asked(
        self, system, monkeypatch, low, high
    ):
        cloud, store = system.cloud, system.cloud.store
        asked = []
        cloud_query = cloud.query
        monkeypatch.setattr(
            cloud, "query", lambda query: asked.append(query) or cloud_query(query)
        )
        reads = store.read_ops
        with pytest.raises(ValueError, match="empty query range"):
            system.query(low, high)
        assert asked == []
        assert store.read_ops == reads

    def test_infinite_bounds_return_the_whole_domain(self, system):
        everything = system.query(-math.inf, math.inf)
        assert everything.records
        domain = system.config.domain
        whole = system.query(domain.dmin, domain.dmax)
        assert Counter(everything.records) == Counter(whole.records)
