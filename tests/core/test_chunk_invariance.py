"""Chunk invariance: a run through the dispatcher is a per-line loop.

``Dispatcher.on_run(lines, fractions)`` merges the dummies due among the
lines and cuts whole ``RawBatch``es by slicing.  Whatever the cut of a
stream into runs, it must yield the ``RawBatch`` sequence — destination,
seq, ordinal, items — and the leftover dummy schedule that the per-line
loop written below does: ``due_dummies(fraction)`` then
``on_raw(line)``, one line at a time.  The clock is injected and never
advances, so the delay flush cannot fire on either side.

At the drivers, the sync and the durable ``run_publication`` (both
dispatch ``batch_size``-line runs) must leave the cloud in the state the
per-line ``pump_dummies`` + ``ingest`` loop leaves it in.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchfab.fingerprint import publication_digest
from repro.core.dispatcher import Dispatcher
from repro.core.messages import RawBatch
from repro.core.system import FresqueSystem
from repro.crypto.cipher import SimulatedCipher
from repro.datasets.flu import FluSurveyGenerator
from repro.durability.system import DurableFresqueSystem
from repro.telemetry.clock import SimulatedClock

from tests.conftest import cloud_state_fingerprint

BATCH_SIZES = (1, 3, 64, 256)


class _FrozenLoop:
    now = 0.0


def _dispatcher(config, batch_size: int, seed: int) -> Dispatcher:
    dispatcher = Dispatcher(
        replace(config, batch_size=batch_size),
        rng=random.Random(seed),
        clock=SimulatedClock(_FrozenLoop()),
    )
    dispatcher.start_publication()
    return dispatcher


def _batches(outbox) -> list[tuple]:
    return [
        (destination, message.seq, message.ordinal, message.items)
        for destination, message in outbox
        if isinstance(message, RawBatch)
    ]


def _schedule(dispatcher) -> list[tuple]:
    return list(dispatcher._dummy_schedule)


def _reference(dispatcher, lines, fractions) -> list:
    """The per-line loop every run must reproduce."""
    outbox = []
    for line, fraction in zip(lines, fractions):
        outbox += dispatcher.due_dummies(fraction)
        outbox += dispatcher.on_raw(line)
    return outbox


@st.composite
def _streams(draw):
    count = draw(st.integers(0, 700))
    lines = [f"line-{index}" for index in range(count)]
    if draw(st.booleans()):  # the drivers' uniform positions
        fractions = [(i + 1) / (count + 1) for i in range(count)]
    else:  # any non-decreasing positions, repeats included
        fractions = sorted(
            draw(
                st.lists(
                    st.sampled_from([0.0, 0.25, 0.5, 1.0])
                    | st.floats(0.0, 1.0),
                    min_size=count,
                    max_size=count,
                )
            )
        )
    cuts = sorted(
        draw(st.lists(st.integers(0, count), max_size=12, unique=True))
    )
    return lines, fractions, cuts


class TestDispatcherRuns:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(stream=_streams(), seed=st.integers(0, 2**16))
    def test_any_cut_into_runs_is_the_per_line_loop(
        self, flu_config, batch_size, stream, seed
    ):
        lines, fractions, cuts = stream
        reference = _dispatcher(flu_config, batch_size, seed)
        expected = _reference(reference, lines, fractions)

        chunked = _dispatcher(flu_config, batch_size, seed)
        outbox = []
        bounds = [0, *cuts, len(lines)]
        for start, end in zip(bounds, bounds[1:]):
            outbox += chunked.on_run(lines[start:end], fractions[start:end])

        assert _batches(outbox) == _batches(expected)
        assert _schedule(chunked) == _schedule(reference)
        assert chunked.records_dispatched == reference.records_dispatched
        assert chunked.pending_batch_records == reference.pending_batch_records
        # And the interval closes the same way: the leftover dummies, the
        # close flush and the publishing broadcast.
        assert _batches(chunked.end_publication()) == _batches(
            reference.end_publication()
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_a_run_without_fractions_releases_no_dummy(
        self, flu_config, batch_size
    ):
        dispatcher = _dispatcher(flu_config, batch_size, seed=5)
        scheduled = _schedule(dispatcher)
        assert scheduled  # the noise plan scheduled dummies
        lines = [f"line-{index}" for index in range(600)]
        outbox = dispatcher.on_run(lines)
        reference = _dispatcher(flu_config, batch_size, seed=5)
        expected = [
            message for line in lines for message in reference.on_raw(line)
        ]
        assert _batches(outbox) == _batches(expected)
        assert _schedule(dispatcher) == scheduled


def _system(kind, config, keystore, tmp_path):
    """A deployment with a fresh cipher (its IV counter must not leak
    between the runs under comparison)."""
    cipher = SimulatedCipher(keystore)
    if kind == "sync":
        return FresqueSystem(config, cipher, seed=31)
    return DurableFresqueSystem(config, cipher, tmp_path, seed=31)


def _per_line(system, lines) -> None:
    """The per-line reference: ``pump_dummies`` + ``ingest``."""
    if not system._started:
        system.start()
    total = max(1, len(lines))
    for position, line in enumerate(lines):
        system.pump_dummies((position + 1) / (total + 1))
        system.ingest(line)
    system.finish_publication()


def _cloud(system) -> dict:
    state = cloud_state_fingerprint(system)
    state["publications"] = publication_digest(system)
    return state


class TestDriverRuns:
    @pytest.mark.parametrize("kind", ["sync", "durable"])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_run_publication_is_the_per_line_loop(
        self, flu_config, keystore, tmp_path, kind, batch_size
    ):
        # A delay no run can reach: the per-line reference reads the
        # wall clock once per line, the runs once per chunk.
        config = replace(
            flu_config, batch_size=batch_size, max_batch_delay=3600.0
        )
        generator = FluSurveyGenerator(seed=13)
        publications = [list(generator.raw_lines(n)) for n in (300, 1, 0, 257)]

        chunked = _system(kind, config, keystore, tmp_path / "runs")
        for lines in publications:
            chunked.run_publication(lines)
        reference = _system(kind, config, keystore, tmp_path / "lines")
        for lines in publications:
            _per_line(reference, lines)
        assert _cloud(chunked) == _cloud(reference)
