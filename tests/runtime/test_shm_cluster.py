"""The shared-memory multiprocess runtime: gate ordering, end-to-end
smoke, durability, and the worker-crash drill.

The byte-identity property (cluster ≡ in-memory ``FresqueSystem``) is
pinned separately in ``tests/integration/test_shm_equivalence.py``;
this module covers the machinery underneath it.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import FresqueConfig
from repro.core.messages import (
    CnPublishing,
    NewPublication,
    NodeDown,
    PairBatch,
    PublishingMsg,
)
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.records.schema import flu_survey_schema
from repro.runtime.shm.cluster import ShmFresqueCluster
from repro.runtime.shm.workers import CheckingGate, stats_fields

_MASTER_KEY = b"fresque-test-master-key-32bytes!"
_SEED = 20210323


def _config(batch_size: int = 8, num_computing_nodes: int = 3) -> FresqueConfig:
    return FresqueConfig(
        schema=flu_survey_schema(),
        domain=flu_domain(),
        num_computing_nodes=num_computing_nodes,
        epsilon=1.0,
        alpha=2.0,
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# CheckingGate: the order-restoring front of the checking worker
# ---------------------------------------------------------------------------


class _Recorder:
    """Stand-in handler: records delivery order, emits nothing."""

    def __init__(self):
        self.delivered = []

    def __call__(self, message):
        self.delivered.append(message)
        return []


def _batch(seq: int, publication: int = 0) -> PairBatch:
    return PairBatch(publication, (), seq=seq)


class TestCheckingGate:
    def test_batches_delivered_in_seq_order(self):
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=2)
        gate.feed(_batch(2))
        gate.feed(_batch(1))
        assert recorder.delivered == []  # seq 0 still missing
        gate.feed(_batch(0))
        assert [m.seq for m in recorder.delivered] == [0, 1, 2]
        assert gate.next_seq == 3

    def test_redispatch_duplicates_dropped(self):
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=2)
        gate.feed(_batch(0))
        gate.feed(_batch(0))  # already delivered
        gate.feed(_batch(2))
        gate.feed(_batch(2))  # already buffered
        gate.feed(_batch(1))
        assert [m.seq for m in recorder.delivered] == [0, 1, 2]
        assert gate.duplicates == 2

    def test_publishing_waits_for_every_seq(self):
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=2)
        publishing = PublishingMsg(0, last_seq=1)
        gate.feed(publishing)
        assert recorder.delivered == []
        gate.feed(_batch(0))
        assert publishing not in recorder.delivered  # seq 1 outstanding
        gate.feed(_batch(1))
        assert recorder.delivered[-1] is publishing

    def test_empty_publication_publishes_immediately(self):
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=2)
        publishing = PublishingMsg(0, last_seq=-1)  # no batches dispatched
        gate.feed(publishing)
        assert recorder.delivered == [publishing]

    def test_cn_ack_waits_for_its_publishing(self):
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=2)
        ack = CnPublishing(0, node_id=1)
        gate.feed(ack)
        assert recorder.delivered == []
        gate.feed(PublishingMsg(0, last_seq=-1))
        assert recorder.delivered[-1] is ack

    def test_new_publication_waits_for_finalisation(self):
        """The next interval's announcement must not overtake the
        previous one's randomer flush (an RNG draw)."""
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=2)
        gate.feed(PublishingMsg(0, last_seq=-1))
        announcement = NewPublication(1, plan=None)
        gate.feed(announcement)
        assert announcement not in recorder.delivered
        gate.feed(CnPublishing(0, node_id=0))
        assert announcement not in recorder.delivered  # node 1 outstanding
        gate.feed(CnPublishing(0, node_id=1))
        assert recorder.delivered[-1] is announcement
        assert gate.pending == 0

    def test_node_down_relaxes_the_ack_gate(self):
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=3)
        gate.feed(PublishingMsg(0, last_seq=-1))
        gate.feed(NewPublication(1, plan=None))
        gate.feed(CnPublishing(0, node_id=0))
        down = NodeDown(0, node_id=1)
        gate.feed(down)
        assert down in recorder.delivered  # passes through immediately
        gate.feed(CnPublishing(0, node_id=2))
        assert isinstance(recorder.delivered[-1], NewPublication)

    def test_pending_counts_every_gate(self):
        gate = CheckingGate(_Recorder(), num_nodes=2)
        gate.feed(_batch(5))
        gate.feed(PublishingMsg(0, last_seq=5))
        gate.feed(CnPublishing(0, node_id=0))
        gate.feed(NewPublication(1, plan=None))
        assert gate.pending == 4


def test_stats_fields_layouts():
    assert stats_fields("cn-2") == stats_fields("cn-0")
    assert "pairs_processed" in stats_fields("checking")
    assert stats_fields("merger")[0] == "heartbeat"


# ---------------------------------------------------------------------------
# End-to-end smoke (spawns the full worker constellation)
# ---------------------------------------------------------------------------


def _stream(seed: int, per_interval: int, intervals: int) -> list[list[str]]:
    generator = FluSurveyGenerator(seed=seed)
    return [list(generator.raw_lines(per_interval)) for _ in range(intervals)]


class TestClusterSmoke:
    def test_two_publications_end_to_end(self):
        publications = _stream(71, 60, 2)
        with ShmFresqueCluster(_config(8), _MASTER_KEY, seed=_SEED) as cluster:
            counts = [cluster.run_publication(lines) for lines in publications]
            assert all(count >= len(lines)
                       for count, lines in zip(counts, publications))
            assert cluster.status() == dict(enumerate(counts))
            count, sha = cluster.query_fingerprint(36.0, 39.0)
            assert count >= 0 and len(sha) == 64
        # Shutdown reaped every shared-memory segment.
        for ring in cluster._rings.values():
            with pytest.raises(FileNotFoundError):
                os.stat(f"/dev/shm/{ring.name}")

    def test_empty_publication(self):
        with ShmFresqueCluster(_config(4), _MASTER_KEY, seed=_SEED) as cluster:
            records = cluster.run_publication([])
            # Only dummies (if the noise plan drew any) reach the cloud.
            assert records >= 0
            assert cluster.receipts[0] == records

    def test_durable_mode_journals_and_commits(self, tmp_path):
        publications = _stream(13, 30, 2)
        with ShmFresqueCluster(
            _config(8), _MASTER_KEY, seed=_SEED, data_dir=tmp_path
        ) as cluster:
            for lines in publications:
                cluster.run_publication(lines)
            assert cluster.accountant.committed_publications == frozenset({0, 1})
        assert (tmp_path / "journal.wal").stat().st_size > 0
        assert (tmp_path / "epsilon.ledger").stat().st_size > 0

    def test_durable_close_publication_journals_and_ledgers(self, tmp_path):
        """The public ``close_publication()`` used to be "the
        non-durable boundary only" even with ``data_dir`` set: it opened
        the next publication with a freshly drawn plan and no grant, and
        journalled nothing.  It now runs the same durable hooks as
        ``run_publication``."""
        from collections import Counter

        lines = _stream(17, 40, 1)[0]
        with ShmFresqueCluster(
            _config(8), _MASTER_KEY, seed=_SEED, data_dir=tmp_path
        ) as cluster:
            for line in lines:
                cluster.ingest(line)
            cluster.close_publication()
            types = Counter(r.type for r in cluster.journal.replay())
            assert types == {"open": 2, "rawb": 40, "close": 1, "commit": 1}
            assert cluster.accountant.publications_granted == 2
            assert cluster.accountant.committed_publications == frozenset({0})
            assert cluster.dispatcher.publication == 1
            assert 0 in cluster.receipts


class TestWorkerCrash:
    def test_cn_death_mid_publication_loses_nothing(self):
        """Hard-kill a computing node mid-interval: the publication still
        completes, count-exact, through NodeDown + backlog redispatch +
        the checking gate's sequence dedup."""
        lines = _stream(5, 240, 1)[0]
        cluster = ShmFresqueCluster(_config(8), _MASTER_KEY, seed=_SEED)
        cluster.start()
        try:
            publication = cluster.dispatcher.publication
            for index, line in enumerate(lines):
                if index == 97:
                    cluster.kill_worker("cn-1")
                cluster.ingest(line)
            cluster._send_all(cluster.dispatcher.end_publication())
            cluster._send_all(cluster.dispatcher.start_publication())
            records = cluster._await_receipt(publication, timeout=60.0)
            stats = cluster._stats["checking"].read_all()
            expected = (
                len(lines)
                + int(stats["dummies_passed"])
                - int(stats["records_removed"])
            )
            assert records == expected
            assert cluster.dispatcher.dead_nodes == {1}
            assert cluster.dispatcher.records_rerouted > 0
        finally:
            cluster.shutdown()

    def test_checking_death_raises_worker_died(self):
        from repro.runtime.shm.cluster import WorkerDied

        cluster = ShmFresqueCluster(_config(4), _MASTER_KEY, seed=_SEED)
        cluster.start()
        try:
            cluster.kill_worker("checking")
            with pytest.raises(WorkerDied):
                cluster._supervise()
        finally:
            cluster.shutdown()
