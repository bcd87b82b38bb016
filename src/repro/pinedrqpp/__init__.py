"""PINED-RQ++: index-template streaming ingestion (Tran et al.)."""

from repro.pinedrqpp.collector import PinedRqPPCollector, StreamPublicationReport
from repro.pinedrqpp.components import (
    Checker,
    Encrypter,
    Enricher,
    Parser,
    Updater,
)

__all__ = [
    "Checker",
    "Encrypter",
    "Enricher",
    "Parser",
    "PinedRqPPCollector",
    "StreamPublicationReport",
    "Updater",
]
