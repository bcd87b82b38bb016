"""The canonical cloud-state fingerprint, as a library.

This is the byte-identity currency of the whole repository: the batch,
flow and degraded-mode equivalence harnesses all compare deployments
through this exact serialization (``tests/conftest.py`` delegates
here), and a conformance cell is one string comparison of its digest.

Two runs agree on the fingerprint iff the cloud holds byte-identical
publications in identical order with the same receipts and checking
counters.  The digest form normalises representation noise (int vs str
keys, tuple vs list) by hashing the sorted-key JSON rendering.
"""

from __future__ import annotations

import hashlib
import json

from repro.cloud.storage import file_digests


def cloud_state_fingerprint(system) -> dict:
    """Canonical, byte-level serialization of a deployment's cloud state.

    ``system`` is any runtime exposing ``.cloud`` and ``.checking``
    (the sync system, the durable system, the scheduled and TCP
    runtimes).
    """
    receipts = {
        publication: system.cloud.receipt_for(publication).records_matched
        for publication in sorted(system.cloud._done)
    }
    return {
        "files": file_digests(system.cloud.store),
        "receipts": receipts,
        "pairs_processed": system.checking.pairs_processed,
        "dummies_passed": system.checking.dummies_passed,
        "records_removed": system.checking.records_removed,
        "duplicate_pairs": system.cloud.duplicate_pairs,
    }


def publication_digest(system) -> str:
    """What the fingerprint omits: the published indexes themselves.

    One digest over every published dataset in order — its number, the
    count of every tree node level by level, and every overflow array's
    leaf, capacity and ciphertexts, in array order.  Two
    deployments agree iff the merger built byte-identical trees and
    overflow arrays.
    """
    digest = hashlib.sha256()
    for dataset in system.cloud.engine.published:
        digest.update(f"pub {dataset.publication}\n".encode())
        for level in dataset.tree.levels:
            digest.update(repr([node.count for node in level]).encode())
        for leaf_offset in sorted(dataset.overflow):
            column = dataset.overflow[leaf_offset]
            # A sealed array holds exactly ``capacity`` ciphertexts.
            digest.update(f"leaf {leaf_offset} {len(column)}\n".encode())
            for ciphertext in column:
                digest.update(len(ciphertext).to_bytes(4, "little"))
                digest.update(ciphertext)
    return digest.hexdigest()


def _normalise(value):
    """Representation-independent form: digit-string keys become ints
    (a fingerprint that went through JSON has string file ids, and
    ``"10" < "2"`` as strings would reorder them), mappings become
    key-sorted pair lists, tuples become lists."""
    if isinstance(value, dict):
        pairs = []
        for key, item in value.items():
            if isinstance(key, str) and key.isdigit():
                key = int(key)
            pairs.append((key, _normalise(item)))
        pairs.sort(key=lambda pair: (str(type(pair[0])), pair[0]))
        return [[str(key), item] for key, item in pairs]
    if isinstance(value, (list, tuple)):
        return [_normalise(item) for item in value]
    return value


def fingerprint_digest(state: dict) -> str:
    """One comparable string for a fingerprint dict.

    A fingerprint and its JSON round trip (string file ids) digest
    identically (see :func:`_normalise`); every pinned digest depends
    on that rendering, so it does not change.
    """
    return hashlib.sha256(
        json.dumps(_normalise(state), default=list).encode()
    ).hexdigest()
