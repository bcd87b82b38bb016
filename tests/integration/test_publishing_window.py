"""Back-to-back publications through the publishing window.

The computing nodes keep ingesting publication ``n + 1`` while they
wait for the checking node's *done* of ``n`` (Section 5.3), so
publications overlap.  Three 120-line publications are closed back to
back without waiting, then settled once; with or without computing node
1 crashing at line 40 of publication 1, the cloud must end up
byte-identical to the synchronous driver's at the same seed.  The
crash is a crash-stop: nothing the victim received or held is read back,
and the dispatcher re-sends every batch it shipped there that the
checking node has not admitted.

The scheduled runtime replays one interleaving per seed, so a seed
sweep covers interleavings that threads reach only rarely.  Tier-1
sweeps :data:`TIER1_SEEDS` plus :data:`PINNED`; the full sweep runs as

    PYTHONPATH=src python -m tests.integration.test_publishing_window 60

and exits non-zero on any mismatch or stall.  The TCP cases run the
same stream on real threads and sockets; ``--tcp 10`` sweeps seeds 0-9
there the same way (a seed names the components' randomness, not the
interleaving, which the threads choose).

At the default ``delta_prime`` the Randomer's buffer (1,920 pairs at
Flu) never fills, so no pair reaches the cloud before its publication
closes.  The filling cells (:data:`FILLING_CELLS`) run the same stream at
``delta_prime`` :data:`FILLING_DELTA_PRIME`: a 160-pair buffer against a
120-line publication plus its dummies, so evictions interleave with the
window and the crash; each first checks that its sync baseline had pairs
at the cloud before the first close.

An empty publication closed right after its predecessor is the
window's edge case: it dispatches no batch, so its *publishing* notice
reaches the checking node while its announcement still waits for the
predecessor's finalisation (:data:`EMPTY_SEEDS`).
"""

from __future__ import annotations

import sys

import pytest

from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.records.schema import flu_survey_schema
from repro.runtime.schedule import ScheduledFresque, ScheduleStall

from tests.conftest import cloud_state_fingerprint

_MASTER_KEY = b"fresque-test-master-key-32bytes!"
_LINES = 120
_PUBS = 3
#: Node 1 crashes before line 40 of publication 1.
_VICTIM = 1
_CRASH_PUB = 1
_CRASH_AT = 40
BATCH_SIZES = (1, 4, 8)
TIER1_SEEDS = tuple(range(8))
#: Seeds whose schedules stalled before two fixes, as ``(seed, crash)``:
#: seed 30 on the ordering layer holding ``NewPublication(n + 1)`` behind
#: ``PublishingMsg(n + 2)``; seed 12 (with the crash) on a computing
#: node keeping a re-sent batch of the publication it re-armed for
#: behind that publication's own marker.
PINNED = ((30, False), (12, True))
#: ``delta_prime`` of the filling cells, and the cells themselves.
FILLING_DELTA_PRIME = 0.6
FILLING_CELLS = [
    (seed, batch_size, crash)
    for seed in range(4)
    for batch_size in (1, 8)
    for crash in (False, True)
]

_STREAM = FluSurveyGenerator(seed=71)
PUBLICATIONS = [list(_STREAM.raw_lines(_LINES)) for _ in range(_PUBS)]


def _config(batch_size: int, **extra) -> FresqueConfig:
    return FresqueConfig(
        schema=flu_survey_schema(),
        domain=flu_domain(),
        num_computing_nodes=3,
        epsilon=1.0,
        alpha=2.0,
        batch_size=batch_size,
        deterministic_ivs=True,
        **extra,
    )


def _cipher() -> SimulatedCipher:
    return SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16))


_SYNC: dict[tuple, tuple[dict, int]] = {}


def sync_baseline(seed: int, **extra) -> tuple[dict, int]:
    """The synchronous driver's cloud state at ``seed`` and the pairs
    at the cloud before the first close (cached)."""
    key = (seed, *sorted(extra.items()))
    if key not in _SYNC:
        system = FresqueSystem(_config(8, **extra), _cipher(), seed=seed)
        evicted = 0
        for index, lines in enumerate(PUBLICATIONS):
            system._feed(lines)
            if index == 0:
                evicted = len(system.unpublished_pairs)
            system.finish_publication()
        _SYNC[key] = cloud_state_fingerprint(system), evicted
    return _SYNC[key]


def sync_fingerprint(seed: int) -> dict:
    """The synchronous driver's cloud state at ``seed`` (cached)."""
    return sync_baseline(seed)[0]


def run_back_to_back(
    runtime_cls, seed: int, batch_size: int, crash: bool, **extra
):
    """Close every publication without waiting, settle once, and return
    the cloud fingerprint.  ``extra`` overrides configuration fields."""
    config = _config(batch_size, **extra)
    with runtime_cls(config, _cipher(), seed=seed) as system:
        for index, lines in enumerate(PUBLICATIONS):
            for position, line in enumerate(lines):
                if crash and (index, position) == (_CRASH_PUB, _CRASH_AT):
                    system.crash_node(_VICTIM)
                system.pump_dummies((position + 1) / (len(lines) + 1))
                system.ingest(line)
            system.close_publication()
        system.settle(_PUBS - 1)
        return cloud_state_fingerprint(system)


_CELLS = [
    (seed, batch_size, crash)
    for seed in TIER1_SEEDS
    for batch_size in BATCH_SIZES
    for crash in (False, True)
] + [
    (seed, batch_size, crash)
    for seed, crash in PINNED
    for batch_size in BATCH_SIZES
]


def _ids(cells) -> list[str]:
    return [
        f"seed={seed}-batch={batch}-{'crash' if crash else 'healthy'}"
        for seed, batch, crash in cells
    ]


@pytest.mark.parametrize("seed,batch_size,crash", _CELLS, ids=_ids(_CELLS))
def test_scheduled_run_matches_sync(seed, batch_size, crash):
    state = run_back_to_back(ScheduledFresque, seed, batch_size, crash)
    assert state == sync_fingerprint(seed)


@pytest.mark.parametrize(
    "seed,batch_size,crash", FILLING_CELLS, ids=_ids(FILLING_CELLS)
)
def test_filling_randomer_matches_sync(seed, batch_size, crash):
    expected, evicted = sync_baseline(seed, delta_prime=FILLING_DELTA_PRIME)
    assert evicted > 0, "the buffer never filled before the first close"
    state = run_back_to_back(
        ScheduledFresque,
        seed,
        batch_size,
        crash,
        delta_prime=FILLING_DELTA_PRIME,
    )
    assert state == expected


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_tcp_crash_in_the_window_matches_sync(batch_size):
    """A crash while publications overlap: the checking node's *done*
    to the dead node takes the degraded path, and the pairs the dead
    node held are never read: the dispatcher re-sends their batches."""
    from repro.runtime.tcp import TcpFresqueCluster

    state = run_back_to_back(TcpFresqueCluster, 20210323, batch_size, True)
    assert state == sync_fingerprint(20210323)


#: Seeds of the empty-publication case on the scheduled runtime; before
#: ``PublishingMsg(p)`` waited for ``p``'s announcement, 29 of them
#: raised ``ProtocolError``.
EMPTY_SEEDS = tuple(range(40))
_EMPTY_LINES = list(FluSurveyGenerator(seed=71).raw_lines(40))


def empty_publication_receipt(runtime_cls, seed: int):
    """Ingest 40 lines into publication 0, close it and then publication
    1 with nothing in it, settle publication 1 and return its receipt.
    ``epsilon`` is so large that no dummy is drawn."""
    config = FresqueConfig(
        schema=flu_survey_schema(),
        domain=flu_domain(),
        num_computing_nodes=2,
        epsilon=1000.0,
        batch_size=4,
    )
    with runtime_cls(config, _cipher(), seed=seed) as system:
        for line in _EMPTY_LINES:
            system.ingest(line)
        system.close_publication()
        system.close_publication()
        system.settle(1)
        return system._receipt(1)


@pytest.mark.parametrize("seed", EMPTY_SEEDS)
def test_scheduled_empty_publication_matches_sync(seed):
    receipt = empty_publication_receipt(ScheduledFresque, seed)
    assert receipt.records_matched == 0
    assert receipt == empty_publication_receipt(FresqueSystem, seed)


def test_tcp_empty_publication_matches_sync():
    from repro.runtime.tcp import TcpFresqueCluster

    receipt = empty_publication_receipt(TcpFresqueCluster, 0)
    assert receipt == empty_publication_receipt(FresqueSystem, 0)


def main(argv: list[str]) -> int:
    """``[--tcp] [seeds]``: every seed below ``seeds`` (60; 10 with
    ``--tcp``) at each batch size, healthy and with the crash, on the
    scheduled runtime — or, with ``--tcp``, on real threads and sockets
    — each compared with the synchronous driver at that seed."""
    from repro.runtime.tcp import ClusterTimeout, TcpFresqueCluster

    tcp = "--tcp" in argv
    counts = [arg for arg in argv if arg != "--tcp"]
    seeds = int(counts[0]) if counts else (10 if tcp else 60)
    runtime_cls = TcpFresqueCluster if tcp else ScheduledFresque
    failures = []
    for seed in range(seeds):
        for batch_size in BATCH_SIZES:
            for crash in (False, True):
                try:
                    state = run_back_to_back(
                        runtime_cls, seed, batch_size, crash
                    )
                    matched = state == sync_fingerprint(seed)
                    verdict = "cloud state differs from sync"
                except (ScheduleStall, ClusterTimeout, RuntimeError) as error:
                    matched, verdict = False, f"{type(error).__name__}: {error}"
                if not matched:
                    failures.append((seed, batch_size, crash, verdict))
    for seed, batch_size, crash, verdict in failures:
        print(f"seed {seed} batch {batch_size} crash={crash}: {verdict}")
    runs = seeds * len(BATCH_SIZES) * 2
    kind = "tcp" if tcp else "scheduled"
    print(f"{runs - len(failures)}/{runs} {kind} runs match sync")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
