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
same stream on real threads and sockets.

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

_STREAM = FluSurveyGenerator(seed=71)
PUBLICATIONS = [list(_STREAM.raw_lines(_LINES)) for _ in range(_PUBS)]


def _config(batch_size: int) -> FresqueConfig:
    return FresqueConfig(
        schema=flu_survey_schema(),
        domain=flu_domain(),
        num_computing_nodes=3,
        epsilon=1.0,
        alpha=2.0,
        batch_size=batch_size,
        deterministic_ivs=True,
    )


def _cipher() -> SimulatedCipher:
    return SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16))


_SYNC: dict[int, dict] = {}


def sync_fingerprint(seed: int) -> dict:
    """The synchronous driver's cloud state at ``seed`` (cached)."""
    if seed not in _SYNC:
        system = FresqueSystem(_config(8), _cipher(), seed=seed)
        for lines in PUBLICATIONS:
            system.run_publication(lines)
        _SYNC[seed] = cloud_state_fingerprint(system)
    return _SYNC[seed]


def run_back_to_back(runtime_cls, seed: int, batch_size: int, crash: bool):
    """Close every publication without waiting, settle once, and return
    the cloud fingerprint."""
    with runtime_cls(_config(batch_size), _cipher(), seed=seed) as system:
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


@pytest.mark.parametrize(
    "seed,batch_size,crash",
    _CELLS,
    ids=[
        f"seed={seed}-batch={batch}-{'crash' if crash else 'healthy'}"
        for seed, batch, crash in _CELLS
    ],
)
def test_scheduled_run_matches_sync(seed, batch_size, crash):
    state = run_back_to_back(ScheduledFresque, seed, batch_size, crash)
    assert state == sync_fingerprint(seed)


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
    seeds = int(argv[0]) if argv else 60
    failures = []
    for seed in range(seeds):
        for batch_size in BATCH_SIZES:
            for crash in (False, True):
                try:
                    state = run_back_to_back(
                        ScheduledFresque, seed, batch_size, crash
                    )
                    matched = state == sync_fingerprint(seed)
                    verdict = "cloud state differs from sync"
                except ScheduleStall as stall:
                    matched, verdict = False, str(stall)
                if not matched:
                    failures.append((seed, batch_size, crash, verdict))
    for seed, batch_size, crash, verdict in failures:
        print(f"seed {seed} batch {batch_size} crash={crash}: {verdict}")
    runs = seeds * len(BATCH_SIZES) * 2
    print(f"{runs - len(failures)}/{runs} scheduled runs match sync")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
