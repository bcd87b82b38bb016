"""Crash/restart drills: journal replay, checkpointed recovery, dedupe.

The acceptance property throughout: after killing the collector
mid-publication and recovering, the published dataset and the remaining
ε budget are *identical* to a run that never crashed — no lost records,
no duplicate cloud rows, never more budget than the crash-free run.
"""

import base64
import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.benchfab.fingerprint import publication_digest
from repro.crypto.cipher import SimulatedCipher
from repro.durability.checkpoint import FORMAT, CheckpointStore
from repro.durability.recovery import RecoveryManager
from repro.durability.system import CollectorCrash, DurableFresqueSystem
from repro.records.codec import pairs_from_bytes
from repro.runtime.faults import FaultPlan
from repro.telemetry import Telemetry
from tests.conftest import cloud_state_fingerprint


@pytest.fixture
def lines(flu_generator):
    return list(flu_generator.raw_lines(400))


def _run_to_crash(system, lines):
    """Feed ``lines`` until the injected crash; return lines journalled."""
    system.start()
    total = max(1, len(lines))
    fed = 0
    try:
        for position, line in enumerate(lines):
            system.pump_dummies((position + 1) / (total + 1))
            system.ingest(line)
            fed += 1
    except CollectorCrash:
        # The crashing record was journalled but never dispatched.
        return fed + 1
    raise AssertionError("fault plan never fired")


def _finish_after_recovery(system, lines, journaled):
    """Resume the interval with the lines the journal never saw."""
    total = max(1, len(lines))
    for position, line in enumerate(lines[journaled:], start=journaled):
        system.pump_dummies((position + 1) / (total + 1))
        system.ingest(line)
    return system.finish_publication()


def _read_checkpoint(path) -> dict:
    """One checkpoint file's whole document, read through the store."""
    return CheckpointStore(path.parent).read(path)


def _write_legacy_json(path, document) -> None:
    """Write ``document`` over ``path`` as an older collector did: one
    JSON document, packed columns as base64 strings."""

    def legacy(value):
        if isinstance(value, dict):
            return {key: legacy(item) for key, item in value.items()}
        if isinstance(value, list):
            return [legacy(item) for item in value]
        if isinstance(value, bytes):
            return base64.b64encode(value).decode("ascii")
        return value

    path.write_text(json.dumps(legacy(document)))


def _one_pair_randomer(config):
    """``config`` with a one-pair randomer (``delta_prime`` 0.5 makes the
    per-leaf bound 0): every pair is released on arrival, so the checker
    removes records — and the merger holds them — mid-interval."""
    return replace(config, delta_prime=0.5)


def _baseline(config, cipher, tmp_path, lines):
    system = DurableFresqueSystem(config, cipher, tmp_path / "base", seed=101)
    summary = system.run_publication(lines)
    return summary, system.accountant.remaining_epsilon


class TestCrashDrill:
    @pytest.mark.parametrize("crash_after", [3, 120, 399])
    def test_recovery_matches_crash_free_run(
        self, flu_config, fast_cipher, tmp_path, lines, crash_after
    ):
        summary, baseline_eps = _baseline(
            flu_config, fast_cipher, tmp_path, lines
        )

        plan = FaultPlan().crash_collector(after_records=crash_after)
        crashed = DurableFresqueSystem(
            flu_config,
            fast_cipher,
            tmp_path / "crash",
            seed=101,
            fault_plan=plan,
            checkpoint_every=64,
        )
        cloud = crashed.cloud  # a different machine: survives the crash
        journaled = _run_to_crash(crashed, lines)
        assert plan.schedule[-1].target == "collector"
        # The crash window of a batch-size-1 collector: the line is
        # durable, alone in its ``rawb`` frame, and was never dispatched.
        last = list(crashed.journal.replay())[-1]
        assert (last.type, last.lines) == ("rawb", (lines[journaled - 1],))
        dispatcher = crashed.dispatcher
        released_dummies = (
            dispatcher.dummies_generated - dispatcher.pending_dummies
        )
        assert dispatcher.records_dispatched - released_dummies == (
            journaled - 1
        )

        recovered, report = RecoveryManager(
            flu_config,
            fast_cipher,
            tmp_path / "crash",
            cloud=cloud,
            seed=202,
            checkpoint_every=64,
        ).recover()
        receipt = _finish_after_recovery(recovered, lines, journaled)

        # Zero lost records, zero duplicate rows.
        assert receipt.records_matched == summary.published_pairs
        assert cloud.pair_count(1) == 0  # next interval opened clean
        # ε identical to the crash-free run — and in particular never
        # higher (the double-spend direction).
        assert recovered.accountant.remaining_epsilon == pytest.approx(
            baseline_eps
        )
        assert report.replayed_raw > 0

    def test_journal_with_a_raw_frame_is_refused(
        self, flu_config, fast_cipher, tmp_path
    ):
        """``rawb`` is the only raw-line frame.  A journal holding the
        retired one-line ``raw`` type is refused loudly — replaying
        around it would drop a durably ingested record."""
        from repro.durability.journal import JournalCorrupt

        system = DurableFresqueSystem(
            flu_config, fast_cipher, tmp_path, seed=101, checkpoint_every=0
        )
        system.start()
        system.journal._append(
            {"t": "raw", "pub": 0, "line": "p1\t1\t375\tnone"}, sync=True
        )
        with pytest.raises(JournalCorrupt, match="unknown journal record"):
            RecoveryManager(
                flu_config, fast_cipher, tmp_path, cloud=system.cloud
            ).recover()

    def test_drill_is_deterministic(
        self, flu_config, fast_cipher, tmp_path, lines
    ):
        def drill(root):
            plan = FaultPlan().crash_collector(after_records=200)
            system = DurableFresqueSystem(
                flu_config,
                fast_cipher,
                root,
                seed=101,
                fault_plan=plan,
                checkpoint_every=64,
            )
            journaled = _run_to_crash(system, lines)
            recovered, report = RecoveryManager(
                flu_config,
                fast_cipher,
                root,
                cloud=system.cloud,
                seed=202,
                checkpoint_every=64,
            ).recover()
            receipt = _finish_after_recovery(recovered, lines, journaled)
            return (
                journaled,
                report.watermark,
                report.replayed_raw,
                receipt.records_matched,
                recovered.accountant.remaining_epsilon,
            )

        assert drill(tmp_path / "one") == drill(tmp_path / "two")

    def test_recovery_without_checkpoint_replays_from_scratch(
        self, flu_config, fast_cipher, tmp_path, lines
    ):
        summary, baseline_eps = _baseline(
            flu_config, fast_cipher, tmp_path, lines
        )
        plan = FaultPlan().crash_collector(after_records=150)
        crashed = DurableFresqueSystem(
            flu_config,
            fast_cipher,
            tmp_path / "crash",
            seed=101,
            fault_plan=plan,
            checkpoint_every=0,  # no periodic checkpoints at all
        )
        cloud = crashed.cloud
        journaled = _run_to_crash(crashed, lines)

        recovered, report = RecoveryManager(
            flu_config,
            fast_cipher,
            tmp_path / "crash",
            cloud=cloud,
            seed=202,
            checkpoint_every=0,
        ).recover()
        assert not report.checkpoint_used
        assert report.reset_publications == [0]
        assert report.replayed_raw == journaled

        receipt = _finish_after_recovery(recovered, lines, journaled)
        assert receipt.records_matched == summary.published_pairs
        assert recovered.accountant.remaining_epsilon == pytest.approx(
            baseline_eps
        )

    def test_a_format_1_checkpoint_is_no_checkpoint(
        self, flu_config, keystore, tmp_path, lines
    ):
        """A data dir whose only checkpoints were written by the previous
        document format (no stamp, one JSON object per resident) recovers
        exactly as one with no checkpoint at all: a longer replay, the
        same cloud — not a failed ``restore``."""

        def drill(data_dir, spoil):
            cipher = SimulatedCipher(keystore)  # fresh IV sequence per drill
            plan = FaultPlan().crash_collector(after_records=150)
            crashed = DurableFresqueSystem(
                flu_config, cipher, data_dir, seed=101, fault_plan=plan
            )
            journaled = _run_to_crash(crashed, lines)
            checkpoints = sorted((data_dir / "checkpoints").glob("*.ckpt"))
            assert checkpoints
            for path in checkpoints:
                spoil(path)
            recovered, report = RecoveryManager(
                flu_config, cipher, data_dir, cloud=crashed.cloud, seed=202
            ).recover()
            assert not report.checkpoint_used
            assert report.reset_publications == [0]
            assert report.replayed_raw == journaled
            _finish_after_recovery(recovered, lines, journaled)
            return cloud_state_fingerprint(recovered)

        def as_format_1(path):
            document = _read_checkpoint(path)
            assert document.pop("format") == FORMAT
            for saved in document["state"]["checking"]["publications"].values():
                leaves, ciphertexts, dummies = pairs_from_bytes(
                    saved["residents"]
                )
                assert leaves  # mid-publication: the randomer holds pairs
                saved["residents"] = [
                    {"pub": 0, "leaf": leaf, "dummy": bool(dummy), "enc": {
                        "leaf": leaf, "tag": None, "pub": 0,
                        "ct": base64.b64encode(ciphertext).decode("ascii"),
                    }}
                    for leaf, ciphertext, dummy in zip(
                        leaves, ciphertexts, dummies
                    )
                ]
            _write_legacy_json(path, document)

        assert drill(tmp_path / "old", as_format_1) == drill(
            tmp_path / "none", lambda path: path.unlink()
        )

    def test_a_format_2_checkpoint_is_no_checkpoint(
        self, flu_config, keystore, tmp_path, lines
    ):
        """Format 2 kept the merger's removed records as one JSON object
        each, and format 3 the dispatcher's credit window, whose deferred
        batches nothing can release any more.  A data dir whose only
        checkpoints are format 2, or format 3, recovers exactly as one
        with no checkpoint at all — as a torn document does — not
        through a failed ``restore``."""
        config = _one_pair_randomer(flu_config)

        def drill(data_dir, spoil):
            cipher = SimulatedCipher(keystore)  # fresh IV sequence per drill
            plan = FaultPlan().crash_collector(after_records=300)
            crashed = DurableFresqueSystem(
                config, cipher, data_dir, seed=101, fault_plan=plan
            )
            journaled = _run_to_crash(crashed, lines)
            checkpoints = sorted((data_dir / "checkpoints").glob("*.ckpt"))
            assert checkpoints
            for path in checkpoints:
                spoil(path)
            recovered, report = RecoveryManager(
                config, cipher, data_dir, cloud=crashed.cloud, seed=202
            ).recover()
            assert not report.checkpoint_used
            assert report.reset_publications == [0]
            assert report.replayed_raw == journaled
            _finish_after_recovery(recovered, lines, journaled)
            return cloud_state_fingerprint(recovered)

        spoiled = []

        def as_format_2(path):
            document = _read_checkpoint(path)
            assert document["format"] == FORMAT
            document["format"] = 2
            merger = document["state"]["merger"]
            for publication, saved in merger["publications"].items():
                leaves, ciphertexts, _ = pairs_from_bytes(saved["removed"])
                removed: dict[str, list] = {}
                for leaf, ciphertext in zip(leaves, ciphertexts):
                    removed.setdefault(str(leaf), []).append({
                        "leaf": leaf, "tag": None, "pub": int(publication),
                        "ct": base64.b64encode(ciphertext).decode("ascii"),
                    })
                spoiled.append(len(leaves))
                saved["removed"] = removed
            _write_legacy_json(path, document)

        def as_format_3(path):
            document = _read_checkpoint(path)
            assert document["format"] == FORMAT
            document["format"] = 3
            document["state"]["dispatcher"]["flow"] = {
                "credits": {"available": 0, "deferred": []}
            }
            _write_legacy_json(path, document)

        none = drill(tmp_path / "none", lambda path: path.unlink())
        assert drill(tmp_path / "old", as_format_2) == none
        assert any(spoiled)  # some document held removed records
        assert drill(tmp_path / "format-3", as_format_3) == none

    def test_queries_work_after_recovery(
        self, flu_config, fast_cipher, tmp_path, lines
    ):
        plan = FaultPlan().crash_collector(after_records=250)
        crashed = DurableFresqueSystem(
            flu_config,
            fast_cipher,
            tmp_path / "crash",
            seed=101,
            fault_plan=plan,
        )
        journaled = _run_to_crash(crashed, lines)
        recovered, _ = RecoveryManager(
            flu_config,
            fast_cipher,
            tmp_path / "crash",
            cloud=crashed.cloud,
            seed=202,
        ).recover()
        _finish_after_recovery(recovered, lines, journaled)
        result = recovered.query(340, 420)
        assert len(result.records) > 0


class TestCrashWhileTheMergerHoldsRemovedRecords:
    """A crash that lands while the merger holds removed records of the
    open publication: the checkpoint carries them (packed columns, format
    3), and they reach the publication's overflow arrays byte for byte.

    Recovery restarts the randomer's RNG (``Randomer.restore``), so the
    order pairs reach the cloud file after the crash is free to differ
    from the uncrashed run's; nothing else is.  The drill keeps every
    other source of divergence out: deterministic IVs (a replayed record
    encrypts as the original did), the same seed (the merger has drawn
    nothing before the close, so its padding draws restart where the
    original's were), and no dummies paced between ingests (their release
    positions are not journalled) — all of them go out at the close."""

    def test_recovers_the_uncrashed_publication(
        self, flu_config, keystore, tmp_path, lines
    ):
        config = replace(_one_pair_randomer(flu_config), deterministic_ivs=True)

        def feed(system, part):
            for line in part:
                system.ingest(line)

        uncrashed = DurableFresqueSystem(
            config, SimulatedCipher(keystore), tmp_path / "base", seed=101
        )
        uncrashed.start()
        feed(uncrashed, lines)
        uncrashed.finish_publication()

        plan = FaultPlan().crash_collector(after_records=300)
        crashed = DurableFresqueSystem(
            config,
            SimulatedCipher(keystore),
            tmp_path / "crash",
            seed=101,
            fault_plan=plan,
            checkpoint_every=64,
        )
        crashed.start()
        fed = 0
        with pytest.raises(CollectorCrash):
            for line in lines:
                crashed.ingest(line)
                fed += 1
        assert crashed.merger.pending_removed()
        latest = sorted((tmp_path / "crash" / "checkpoints").glob("*.ckpt"))[-1]
        saved = crashed.checkpoints.read(latest)["state"]["merger"]
        held, _, _ = pairs_from_bytes(saved["publications"]["0"]["removed"])
        assert held  # the checkpoint caught the merger holding records

        recovered, report = RecoveryManager(
            config,
            SimulatedCipher(keystore),
            tmp_path / "crash",
            cloud=crashed.cloud,
            seed=101,
            checkpoint_every=64,
        ).recover()
        assert report.checkpoint_used
        feed(recovered, lines[fed + 1 :])
        recovered.finish_publication()

        assert publication_digest(recovered) == publication_digest(uncrashed)
        got = cloud_state_fingerprint(recovered)
        want = cloud_state_fingerprint(uncrashed)
        assert got.pop("files").keys() == want.pop("files").keys()
        assert got == want  # receipts and every checking counter
        for file_id in uncrashed.cloud.store.file_ids():
            assert Counter(recovered.cloud.store.scan(file_id)) == Counter(
                uncrashed.cloud.store.scan(file_id)
            )


class TestCommittedPublicationsSurvive:
    def test_crash_in_second_interval_leaves_first_untouched(
        self, flu_config, fast_cipher, tmp_path, flu_generator
    ):
        first = list(flu_generator.raw_lines(200))
        second = list(flu_generator.raw_lines(200))
        plan = FaultPlan().crash_collector(after_records=300)
        system = DurableFresqueSystem(
            flu_config,
            fast_cipher,
            tmp_path / "crash",
            seed=101,
            fault_plan=plan,
            checkpoint_every=64,
        )
        cloud = system.cloud
        summary_one = system.run_publication(first)
        with pytest.raises(CollectorCrash):
            for line in second:
                system.ingest(line)

        recovered, report = RecoveryManager(
            flu_config,
            fast_cipher,
            tmp_path / "crash",
            cloud=cloud,
            seed=202,
            checkpoint_every=64,
        ).recover()
        # Publication 0 was committed before the crash: untouched.
        assert cloud.is_published(0)
        assert (
            cloud.receipt_for(0).records_matched == summary_one.published_pairs
        )
        assert 0 not in report.reset_publications
        assert recovered.accountant.committed_publications == frozenset({0})
        # The second interval resumes where the journal ends.
        assert recovered.dispatcher.publication == 1

    def test_lost_acknowledgement_is_healed_from_receipt(
        self, flu_config, fast_cipher, tmp_path, flu_generator
    ):
        """Crash exactly between the cloud's receipt and the collector's
        commit: recovery commits from the surviving receipt instead of
        replaying the whole publication."""
        lines = list(flu_generator.raw_lines(150))
        system = DurableFresqueSystem(
            flu_config, fast_cipher, tmp_path / "crash", seed=101
        )
        cloud = system.cloud
        system.start()
        for line in lines:
            system.ingest(line)
        # Hand-run finish_publication up to the receipt, then "crash"
        # before commit/checkpoint.
        publication = system.dispatcher.publication
        system.journal.append_close(publication)
        system._send_all(system.dispatcher.end_publication())
        assert cloud.is_published(publication)

        recovered, report = RecoveryManager(
            flu_config,
            fast_cipher,
            tmp_path / "crash",
            cloud=cloud,
            seed=202,
        ).recover()
        assert report.committed_publications == [0]
        assert recovered.accountant.committed_publications == frozenset({0})
        # Exactly-once: nothing was re-stored at the cloud.
        assert cloud.store.record_count(0) == (
            cloud.receipt_for(0).records_matched
        )


class TestCheckpointIsAQuiescentCut:
    def test_a_retained_batch_refuses_the_checkpoint(
        self, flu_config, fast_cipher, tmp_path, lines
    ):
        """At a quiescent point every shipped batch is admitted, so no
        checkpoint field holds retained batches; a batch still retained
        means the cut is not quiescent, and the checkpoint raises
        instead of saving a state that silently lost it."""
        system = DurableFresqueSystem(
            flu_config, fast_cipher, tmp_path, seed=101, checkpoint_every=0
        )
        system.start()
        system.ingest_batch(lines[:50])
        system.checkpoint()
        saved = system.checkpoints.latest()
        # Shipped, never delivered: as if the batch were still in flight.
        dispatcher = system.dispatcher
        (_, batch), = dispatcher.on_raw(lines[50]) + dispatcher.flush_batch()
        with pytest.raises(RuntimeError, match=f"seq {batch.seq} unadmitted"):
            system.checkpoint()
        assert system.checkpoints.latest() == saved
        system.close()


class TestRecoveryTelemetry:
    def test_counters_and_histogram(
        self, flu_config, fast_cipher, tmp_path, lines
    ):
        telemetry = Telemetry()
        plan = FaultPlan().crash_collector(after_records=100)
        system = DurableFresqueSystem(
            flu_config,
            fast_cipher,
            tmp_path / "crash",
            seed=101,
            telemetry=telemetry,
            fault_plan=plan,
            checkpoint_every=64,
        )
        journaled = _run_to_crash(system, lines)
        assert telemetry.registry.counter(
            "durability_journal_records"
        ).value > 0
        assert telemetry.registry.counter("durability_journal_bytes").value > 0

        _, report = RecoveryManager(
            flu_config,
            fast_cipher,
            tmp_path / "crash",
            cloud=system.cloud,
            seed=202,
            telemetry=telemetry,
            checkpoint_every=64,
        ).recover()
        assert telemetry.registry.counter(
            "recovery_replayed_records_total"
        ).value == report.replayed_records
        assert telemetry.registry.counter("recovery_runs_total").value == 1
        assert telemetry.registry.histogram("recovery_seconds").count == 1
        assert journaled > 0


class TestPublicCloseIsDurable:
    def test_close_publication_journals_and_ledgers(
        self, flu_config, fast_cipher, tmp_path, flu_generator
    ):
        """The inherited public ``close_publication()`` used to publish
        publication *n* and open *n + 1* around the journal and the ε
        ledger (no ``close``/``commit``, no ``open``, no grant).  Every
        boundary now goes through the durable hooks."""
        from collections import Counter

        root = tmp_path / "close"
        system = DurableFresqueSystem(
            flu_config, fast_cipher, root, seed=101, checkpoint_every=0
        )
        system.start()
        for line in flu_generator.raw_lines(300):
            system.ingest(line)
        system.close_publication()

        types = Counter(r.type for r in system.journal.replay())
        assert types == {"open": 2, "rawb": 300, "close": 1, "commit": 1}
        assert system.cloud.is_published(0)
        assert system.dispatcher.publication == 1
        assert system.accountant.publications_granted == 2
        assert system.accountant.committed_publications == frozenset({0})
        assert system._open_publications == {1}

        # A crash right here recovers to the same place: publication 0
        # done, publication 1 open under its journalled plan, and no ε
        # beyond the two logged intents.
        system.journal.sync()
        recovered, report = RecoveryManager(
            flu_config, fast_cipher, root, cloud=system.cloud, seed=202
        ).recover()
        assert recovered.dispatcher.publication == 1
        assert recovered._open_publications == {1}
        assert recovered.accountant.publications_granted == 2
        assert recovered.accountant.remaining_epsilon == pytest.approx(
            system.accountant.remaining_epsilon
        )
        assert 0 not in report.reset_publications  # committed, not redone

    def test_close_closes_the_ledger_file(
        self, flu_config, fast_cipher, tmp_path
    ):
        """``close()`` releases the ε ledger through the accountant's
        own ``close()``: the handle takes no further entries."""
        from repro.durability.ledger import BudgetLedger
        from repro.privacy.accountant import PublicationAccountant

        ledger = BudgetLedger(tmp_path / "epsilon.ledger")
        system = DurableFresqueSystem(
            flu_config,
            fast_cipher,
            tmp_path / "collector",
            seed=101,
            accountant=PublicationAccountant(1.0, 4, ledger=ledger),
        )
        system.start()
        system.close()
        with pytest.raises(ValueError, match="closed file"):
            ledger.append_intent(1, 0.25)
        PublicationAccountant(1.0, 4).close()  # no ledger: a no-op
