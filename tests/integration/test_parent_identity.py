"""Byte identity against the commit before the columnar cloud (3aa4427).

PR 14 rewrote how the cloud keeps a publication (columns instead of one
object per record) and how the merger pads overflow arrays (one batched
encryption per publication).  Neither may change a byte the cloud holds
or a record a client gets back.  The digests pinned below were computed
by running :func:`digests` on a checkout of 3aa4427 (where
``publication_digest`` was pasted in, it reads public attributes only);
every later commit must keep reproducing them.

``python -m tests.integration.test_parent_identity`` prints the digests
of every cell, including the NASA cell under pure-Python AES (54 k
padding encryptions per publication) that tier-1 leaves out, and
exits non-zero if any cell differs from :data:`PINNED`.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro.benchfab.datasets import dataset
from repro.benchfab.fingerprint import (
    cloud_state_fingerprint,
    fingerprint_digest,
    publication_digest,
)
from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import AesCbcCipher, SimulatedCipher
from repro.crypto.keys import KeyStore

_MASTER_KEY = b"fresque-test-master-key-32bytes!"
_PIPELINE_SEED = 7

#: (dataset, cipher, deterministic IVs, records per publication, query
#: range as fractions of the domain).  AES without seeded IVs draws
#: ``os.urandom`` and is comparable on no two runs.
CELLS = {
    "nasa-sim": ("nasa", "sim", False, 1500, (0.0, 0.02)),
    "nasa-sim-seeded": ("nasa", "sim", True, 1500, (0.0, 0.02)),
    "nasa-aes-seeded": ("nasa", "aes", True, 150, (0.0, 0.02)),
    "gowalla-sim": ("gowalla", "sim", False, 1500, (0.2, 0.6)),
    "gowalla-sim-seeded": ("gowalla", "sim", True, 1500, (0.2, 0.6)),
    "gowalla-aes-seeded": ("gowalla", "aes", True, 150, (0.2, 0.6)),
}

#: Computed at 3aa4427.
PINNED = {
    "nasa-sim": {
        "fingerprint": "5773a36549389d7a28bad85df470450ad6a9653bd541a39ecec4d9a919829656",
        "publications": "7c3a2c5d353ae29aab59d57108d91dec5ca3fa4fa4522da6c3a5ccd941c672da",
        "query": "2742:2d249985b0369e8bb0e53f3d76eee3d8e9972753e3746a55f6bc076bfa795cf7"
    },
    "nasa-sim-seeded": {
        "fingerprint": "0733314f641471bc7b4a091a538889e310784496ebb94aa8cc48bbf16deafba2",
        "publications": "85d274a5307dcd20d6e6120733d3b7c68b0f33b6421a7876981c9f455a7ddc91",
        "query": "2742:2d249985b0369e8bb0e53f3d76eee3d8e9972753e3746a55f6bc076bfa795cf7"
    },
    "nasa-aes-seeded": {
        "fingerprint": "cd569c033b867369adcdbf506c7ecb485992c3b848a47512303fb3ce378483e7",
        "publications": "e905dc8d784ba10cf0a5299ffeb06da67c13147967b208557321e9151dc72a8a",
        "query": "130:f4d86a34ed8cc937706440ee2d06573a6eece00bb289eff78bc17a844a6479d1"
    },
    "gowalla-sim": {
        "fingerprint": "f6b62e69c613295fa9d926fb9c9f161c8e8526a8e4c7d858d7e75e2387ac1503",
        "publications": "b143d06427c01305fea43d8d174997a7bf7bcccadd4be5fcb7806ef4d7523291",
        "query": "973:d664d4cd67cc93bc91729f8a7a07191ac88ab47ad274abdd5ee07b3698161e1f"
    },
    "gowalla-sim-seeded": {
        "fingerprint": "ab4b879cb3d2538b6eb20e5609829bbb6caad48b2f4330b91466473571e01758",
        "publications": "62345e6c781eb6f6e79249e3ceb330de33089f6bfdf04f2c14044ee4f507dc72",
        "query": "973:d664d4cd67cc93bc91729f8a7a07191ac88ab47ad274abdd5ee07b3698161e1f"
    },
    "gowalla-aes-seeded": {
        "fingerprint": "31fa34d965e1ed58df6051d79a9b0c96590d030549d265f2d17ffb0a31b6fc4e",
        "publications": "248a9f64f18f9ea06a032c0f4cd8d1eae98604ebe095e0b3a490ba76e85018ce",
        "query": "39:372a71409c23affd664a5541b04645720b3eddf77aebab12430f03484c017bf5"
    }
}

#: Cells tier-1 runs; the rest is for the command line.
FAST_CELLS = [name for name in CELLS if name != "nasa-aes-seeded"]


def digests(cell: str) -> dict[str, str]:
    """Run one seed-7 pipeline; digest its cloud, its indexes, one query."""
    name, cipher_kind, seeded, records, (low_at, high_at) = CELLS[cell]
    source = dataset(name)
    domain = source.domain()
    config = FresqueConfig(
        schema=source.schema(),
        domain=domain,
        num_computing_nodes=2,
        epsilon=1.0,
        alpha=2.0,
        fanout=16,
        batch_size=64,
        deterministic_ivs=seeded,
    )
    keys = KeyStore(_MASTER_KEY, key_size=16)
    cipher = AesCbcCipher(keys) if cipher_kind == "aes" else SimulatedCipher(keys)
    system = FresqueSystem(config, cipher, seed=_PIPELINE_SEED)
    publications = 1 if cipher_kind == "aes" else 2
    for lines in source.lines(_PIPELINE_SEED, records, publications):
        system.run_publication(lines)
    span = domain.dmax - domain.dmin
    result = system.query(
        domain.dmin + low_at * span, domain.dmin + high_at * span
    )
    values = sorted(repr(record.values) for record in result.records)
    return {
        "fingerprint": fingerprint_digest(cloud_state_fingerprint(system)),
        "publications": publication_digest(system),
        "query": f"{len(values)}:"
        + hashlib.sha256("\n".join(values).encode()).hexdigest(),
    }


@pytest.mark.parametrize("cell", FAST_CELLS)
def test_cloud_indexes_and_query_match_the_parent_commit(cell):
    assert digests(cell) == PINNED[cell]


def main() -> int:
    """Every cell against :data:`PINNED`; the exit status is the number
    of cells that moved (CI runs this for the cell tier-1 skips)."""
    got = {cell: digests(cell) for cell in CELLS}
    print(json.dumps(got, indent=2))
    moved = [cell for cell in CELLS if got[cell] != PINNED[cell]]
    for cell in moved:
        print(f"MISMATCH {cell}: pinned {PINNED[cell]}", file=sys.stderr)
    return len(moved)


if __name__ == "__main__":
    sys.exit(main())
