"""FRESQUE core: the paper's primary contribution.

The scalable ingestion architecture of Section 5 — dispatcher, computing
nodes, checking node (randomer + checker + updater over AL/ALN), merger and
the asynchronous publication protocol — plus a synchronous in-process
driver (:class:`FresqueSystem`) executing the exact component logic.
"""

from repro.core.checking import CheckingNode
from repro.core.computing_node import ComputingNode
from repro.core.config import ConfigError, FresqueConfig
from repro.core.dispatcher import Dispatcher
from repro.core.merger import MergeReport, Merger
from repro.core.randomer import Randomer
from repro.core.system import (
    CloudAdapter,
    CollectorAwareQueryTarget,
    FresqueSystem,
    PublicationSummary,
)

__all__ = [
    "CheckingNode",
    "CloudAdapter",
    "CollectorAwareQueryTarget",
    "ComputingNode",
    "ConfigError",
    "Dispatcher",
    "FresqueConfig",
    "FresqueSystem",
    "MergeReport",
    "Merger",
    "PublicationSummary",
    "Randomer",
]
