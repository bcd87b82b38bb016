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

from repro.cloud.filestore import FileBackedStore
from repro.benchfab.fingerprint import publication_digest
from repro.cloud.node import FresqueCloud
from repro.crypto.cipher import SimulatedCipher
from repro.durability.recovery import RecoveryManager
from repro.durability.system import CollectorCrash, DurableFresqueSystem
from repro.records.codec import decode_pairs
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

        plan = FaultPlan(seed=5).crash_collector(after_records=crash_after)
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
            plan = FaultPlan(seed=5).crash_collector(after_records=200)
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
        plan = FaultPlan(seed=5).crash_collector(after_records=150)
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
            plan = FaultPlan(seed=5).crash_collector(after_records=150)
            crashed = DurableFresqueSystem(
                flu_config, cipher, data_dir, seed=101, fault_plan=plan
            )
            journaled = _run_to_crash(crashed, lines)
            checkpoints = sorted((data_dir / "checkpoints").glob("*.json"))
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
            document = json.loads(path.read_text())
            assert document.pop("format") == 3
            for saved in document["state"]["checking"]["publications"].values():
                leaves, ciphertexts, dummies = decode_pairs(saved["residents"])
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
            path.write_text(json.dumps(document))

        assert drill(tmp_path / "old", as_format_1) == drill(
            tmp_path / "none", lambda path: path.unlink()
        )

    def test_a_format_2_checkpoint_is_no_checkpoint(
        self, flu_config, keystore, tmp_path, lines
    ):
        """Format 2 kept the merger's removed records as one JSON object
        each.  A data dir whose only checkpoints are format 2 recovers
        exactly as one with no checkpoint at all — as a torn document
        does — not through a failed ``restore``."""
        config = _one_pair_randomer(flu_config)

        def drill(data_dir, spoil):
            cipher = SimulatedCipher(keystore)  # fresh IV sequence per drill
            plan = FaultPlan(seed=5).crash_collector(after_records=300)
            crashed = DurableFresqueSystem(
                config, cipher, data_dir, seed=101, fault_plan=plan
            )
            journaled = _run_to_crash(crashed, lines)
            checkpoints = sorted((data_dir / "checkpoints").glob("*.json"))
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
            document = json.loads(path.read_text())
            assert document["format"] == 3
            document["format"] = 2
            merger = document["state"]["merger"]
            for publication, saved in merger["publications"].items():
                leaves, ciphertexts, _ = decode_pairs(saved["removed"])
                removed: dict[str, list] = {}
                for leaf, ciphertext in zip(leaves, ciphertexts):
                    removed.setdefault(str(leaf), []).append({
                        "leaf": leaf, "tag": None, "pub": int(publication),
                        "ct": base64.b64encode(ciphertext).decode("ascii"),
                    })
                spoiled.append(len(leaves))
                saved["removed"] = removed
            path.write_text(json.dumps(document))

        assert drill(tmp_path / "old", as_format_2) == drill(
            tmp_path / "none", lambda path: path.unlink()
        )
        assert any(spoiled)  # some document held removed records

    def test_a_batch_controller_entry_in_the_checkpoint_is_ignored(
        self, flu_config, keystore, tmp_path, lines
    ):
        """A format-3 document carrying ``flow["controller"]`` beside the
        credit gate (what a dispatcher with the deleted batch controller
        wrote) restores the same dispatcher and recovers the same cloud
        as the one without it: the stray key needs no format of its own."""

        def drill(data_dir, spoil):
            cipher = SimulatedCipher(keystore)  # fresh IV sequence per drill
            plan = FaultPlan(seed=5).crash_collector(after_records=150)
            crashed = DurableFresqueSystem(
                flu_config, cipher, data_dir, seed=101, fault_plan=plan
            )
            journaled = _run_to_crash(crashed, lines)
            checkpoints = sorted((data_dir / "checkpoints").glob("*.json"))
            assert checkpoints
            for path in checkpoints:
                spoil(path)
            latest = json.loads(checkpoints[-1].read_text())["state"]
            recovered, report = RecoveryManager(
                flu_config, cipher, data_dir, cloud=crashed.cloud, seed=202
            ).recover()
            assert report.checkpoint_used
            restored = recovered.dispatcher.snapshot()
            _finish_after_recovery(recovered, lines, journaled)
            return latest["dispatcher"], restored, cloud_state_fingerprint(
                recovered
            )

        def with_controller(path):
            document = json.loads(path.read_text())
            assert document["format"] == 3
            document["state"]["dispatcher"]["flow"]["controller"] = {
                "size": 512,
                "delay": 0.003,
                "best_rate": 41_000.0,
            }
            path.write_text(json.dumps(document))

        old_saved, old_restored, old_cloud = drill(
            tmp_path / "old", with_controller
        )
        saved, restored, cloud = drill(tmp_path / "new", lambda path: None)
        assert "controller" in old_saved["flow"]
        assert "controller" not in saved["flow"]
        assert old_restored == restored
        assert old_cloud == cloud

    def test_queries_work_after_recovery(
        self, flu_config, fast_cipher, tmp_path, lines
    ):
        plan = FaultPlan(seed=5).crash_collector(after_records=250)
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

        plan = FaultPlan(seed=5).crash_collector(after_records=300)
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
        latest = sorted((tmp_path / "crash" / "checkpoints").glob("*.json"))[-1]
        saved = json.loads(latest.read_text())["state"]["merger"]
        held, _, _ = decode_pairs(saved["publications"]["0"]["removed"])
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
            assert Counter(
                (record.leaf_offset, record.ciphertext)
                for _, record in recovered.cloud.store.scan(file_id)
            ) == Counter(
                (record.leaf_offset, record.ciphertext)
                for _, record in uncrashed.cloud.store.scan(file_id)
            )


class TestCommittedPublicationsSurvive:
    def test_crash_in_second_interval_leaves_first_untouched(
        self, flu_config, fast_cipher, tmp_path, flu_generator
    ):
        first = list(flu_generator.raw_lines(200))
        second = list(flu_generator.raw_lines(200))
        plan = FaultPlan(seed=5).crash_collector(after_records=300)
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


class TestDurableStoreIntegration:
    def test_drill_with_durable_file_store(
        self, flu_config, fast_cipher, tmp_path, lines
    ):
        store = FileBackedStore(tmp_path / "cloud", durable=True)
        cloud = FresqueCloud(flu_config.domain, store=store)
        plan = FaultPlan(seed=5).crash_collector(after_records=250)
        system = DurableFresqueSystem(
            flu_config,
            fast_cipher,
            tmp_path / "collector",
            seed=101,
            cloud=cloud,
            fault_plan=plan,
            checkpoint_every=64,
        )
        journaled = _run_to_crash(system, lines)
        recovered, _ = RecoveryManager(
            flu_config,
            fast_cipher,
            tmp_path / "collector",
            cloud=cloud,
            seed=202,
            checkpoint_every=64,
        ).recover()
        receipt = _finish_after_recovery(recovered, lines, journaled)
        # The published file was committed: final name, fsync'd contents.
        assert (tmp_path / "cloud" / "publication-0.dat").exists()
        records = sum(1 for _ in store.scan(0))
        assert records == receipt.records_matched


class TestRecoveryTelemetry:
    def test_counters_and_histogram(
        self, flu_config, fast_cipher, tmp_path, lines
    ):
        telemetry = Telemetry()
        plan = FaultPlan(seed=5).crash_collector(after_records=100)
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
