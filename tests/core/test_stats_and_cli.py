"""Tests for the observability snapshot and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core.stats import CollectorStats, collect_stats
from repro.core.system import FresqueSystem
from repro.datasets.flu import FluSurveyGenerator


def _stats(**overrides):
    """A consistent baseline snapshot, with per-test overrides."""
    values = dict(
        records_dispatched=500,
        dummies_generated=40,
        lines_parsed=500,
        records_encrypted=540,
        records_rejected=0,
        pairs_checked=540,
        dummies_passed=40,
        records_removed=12,
        cloud_records=540,
        cloud_bytes=95_040,
        publications_done=1,
    )
    values.update(overrides)
    return CollectorStats(**values)


class TestCollectorStats:
    def test_snapshot_consistency(self, flu_config, fast_cipher):
        system = FresqueSystem(flu_config, fast_cipher, seed=77)
        system.start()
        generator = FluSurveyGenerator(seed=21)
        summary = system.run_publication(list(generator.raw_lines(500)))
        stats = collect_stats(system)
        assert stats.lines_parsed == 500
        assert stats.records_rejected == 0
        assert stats.pairs_checked == stats.records_encrypted
        assert stats.records_removed == summary.removed
        assert stats.dummies_passed == summary.dummies
        assert stats.publications_done == 1
        assert stats.cloud_records == summary.published_pairs
        assert stats.ingest_accounting_consistent()

    def test_consistent_baseline(self):
        assert _stats().ingest_accounting_consistent()

    def test_violated_checked_exceeds_encrypted(self):
        # A checker processing pairs nobody encrypted means lost or
        # duplicated messages.
        assert not _stats(pairs_checked=541).ingest_accounting_consistent()

    def test_violated_dummies_passed_exceeds_generated(self):
        # Dummies only enter at the dispatcher; passing more than were
        # generated means the checker misclassified real records.
        assert not _stats(dummies_passed=41).ingest_accounting_consistent()

    def test_violated_cloud_exceeds_forwarded(self):
        # The cloud can hold at most what the checker forwarded plus the
        # removed records re-entering via overflow arrays.
        assert not _stats(cloud_records=553).ingest_accounting_consistent()

    def test_cloud_bound_includes_removed_records(self):
        # Exactly at the bound (every removed record re-published) is
        # still consistent.
        assert _stats(cloud_records=552).ingest_accounting_consistent()

    def test_render_contains_counters(self, flu_config, fast_cipher):
        system = FresqueSystem(flu_config, fast_cipher, seed=78)
        system.start()
        system.run_publication(
            list(FluSurveyGenerator(seed=22).raw_lines(100))
        )
        text = collect_stats(system).render()
        assert "dispatched" in text
        assert "100 parsed" in text


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_runs(self, capsys):
        assert main(["demo", "--records", "200", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "publication 0" in out
        assert "collector stats" in out

    def test_capacity_runs(self, capsys):
        assert main(["capacity", "nasa", "--max-nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "FRESQUE" in out

    def test_figure_fig9(self, capsys):
        assert main(["figure", "fig9", "--dataset", "gowalla"]) == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_figure_fig13(self, capsys):
        assert main(["figure", "fig13"]) == 0
        assert "dispatcher" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2

    def test_attack_runs(self, capsys):
        assert (
            main(["attack", "--records", "500", "--dummies", "50"]) == 0
        )
        out = capsys.readouterr().out
        assert "identification rate" in out

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["capacity", "unknown-dataset"])

    def test_node_subcommand_is_gone(self):
        """``repro node`` served ProcessCluster's node processes and
        went with it; no runtime runs a node in its own process."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["node", "--role", "checking", "--config", "/tmp/c.json"]
            )


class TestUnpublishedPairs:
    def test_inflight_pairs_visible(self, flu_config, fast_cipher):
        system = FresqueSystem(flu_config, fast_cipher, seed=81)
        system.start()
        generator = FluSurveyGenerator(seed=24)
        # Fill past the randomer so some pairs reach the cloud unindexed.
        for line in generator.raw_lines(
            flu_config.randomer_buffer_size + 200
        ):
            system.ingest(line)
        assert len(system.unpublished_pairs) > 0
