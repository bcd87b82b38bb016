"""Cross-runtime byte identity over every deployment cell.

Every runtime × batch-size × durability cell the project claims is a
*pure deployment change* — the sync, scheduled and TCP runtimes, batch
sizes 1, 8 and 64, in-memory and durable storage — runs the same two
Flu publications on seeded IVs, and its cloud-state fingerprint and
published-index digest must equal the sync / batch-64 / in-memory
baseline's.

The dedicated equivalence harnesses (``test_batch_equivalence``,
``test_degraded_mode``) probe *why* the property holds, with
adversarial interleavings; this suite pins it end to end on the real
constructors.
"""

from __future__ import annotations

import itertools

import pytest

from repro.benchfab.datasets import dataset
from repro.benchfab.fingerprint import (
    cloud_state_fingerprint,
    fingerprint_digest,
    publication_digest,
)
from repro.benchfab.runner import MASTER_KEY
from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.durability.system import DurableFresqueSystem
from repro.runtime.schedule import ScheduledFresque
from repro.runtime.tcp import TcpFresqueCluster

RUNTIMES = {
    "sync": FresqueSystem,
    "scheduled": ScheduledFresque,
    "tcp": TcpFresqueCluster,
}
BATCH_SIZES = (1, 8, 64)
SEED, STREAM_SEED, RECORDS, PUBLICATIONS = 9, 71, 150, 2

#: (batch_size, durability, runtime); only the sync driver has a
#: durable mode.
CELLS = [
    (batch_size, durability, runtime)
    for durability, batch_size, runtime in itertools.product(
        ("memory", "durable"), BATCH_SIZES, RUNTIMES
    )
    if durability == "memory" or runtime == "sync"
]
BASELINE = (64, "memory", "sync")
OTHERS = [cell for cell in CELLS if cell != BASELINE]


def _cell_id(cell) -> str:
    batch_size, durability, runtime = cell
    return f"batch_size={batch_size}/durability={durability}/runtime={runtime}"


def _digests(cell, data_dir) -> tuple[str, str]:
    """Run the cell's stream; its fingerprint and publication digests."""
    batch_size, durability, runtime = cell
    source = dataset("flu")
    config = FresqueConfig(
        schema=source.schema(),
        domain=source.domain(),
        num_computing_nodes=3,
        epsilon=1.0,
        alpha=2.0,
        batch_size=batch_size,
        deterministic_ivs=True,
    )
    cipher = SimulatedCipher(KeyStore(MASTER_KEY, key_size=16))
    if durability == "durable":
        system = DurableFresqueSystem(
            config, cipher, data_dir, seed=SEED, checkpoint_every=0
        )
    else:
        system = RUNTIMES[runtime](config, cipher, seed=SEED)
    with system:
        for lines in source.lines(STREAM_SEED, RECORDS, PUBLICATIONS):
            system.run_publication(lines)
        digests = (
            fingerprint_digest(cloud_state_fingerprint(system)),
            publication_digest(system),
        )
    if durability == "durable":
        system.close()
    return digests


def test_matrix_covers_every_claimed_deployment_axis():
    """Losing a runtime, a batch size or the durable column would
    silently shrink conformance coverage."""
    assert len(CELLS) == len(set(CELLS)) == 12
    assert {runtime for _, _, runtime in CELLS} == set(RUNTIMES)
    assert {batch for batch, _, _ in CELLS} == set(BATCH_SIZES)
    assert {(batch, runtime) for batch, d, runtime in CELLS
            if d == "durable"} == {(batch, "sync") for batch in BATCH_SIZES}
    assert BASELINE in CELLS


@pytest.fixture(scope="module")
def baseline_digests(tmp_path_factory):
    return _digests(BASELINE, tmp_path_factory.mktemp("baseline"))


@pytest.mark.parametrize("cell", OTHERS, ids=[_cell_id(c) for c in OTHERS])
def test_cell_matches_sync_baseline(cell, baseline_digests, tmp_path):
    assert _digests(cell, tmp_path) == baseline_digests, (
        f"{_cell_id(cell)}: cloud state diverged from the sync baseline"
    )
