"""Untrusted cloud substrate: storage, metadata, matching, query engine."""

from repro.cloud.matching import (
    LeafPointers,
    MatchStats,
    match_with_metadata,
    match_with_table,
)
from repro.cloud.metadata import MetadataCache
from repro.cloud.node import (
    CloudError,
    FresqueCloud,
    MatchingTableCloud,
    PublicationReceipt,
)
from repro.cloud.query_engine import (
    CloudQueryEngine,
    PublishedDataset,
    QueryResult,
)
from repro.cloud.storage import (
    EncryptedStore,
    PhysicalAddress,
    PublicationFile,
    StorageError,
)

__all__ = [
    "CloudError",
    "CloudQueryEngine",
    "EncryptedStore",
    "FresqueCloud",
    "LeafPointers",
    "MatchStats",
    "MatchingTableCloud",
    "MetadataCache",
    "PhysicalAddress",
    "PublicationFile",
    "PublicationReceipt",
    "PublishedDataset",
    "QueryResult",
    "StorageError",
    "match_with_metadata",
    "match_with_table",
]
