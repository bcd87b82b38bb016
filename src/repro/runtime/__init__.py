"""Execution substrates: threaded actors, TCP sockets, wire encoding."""

from repro.runtime.channel import POISON, Inbox, InFlightTracker
from repro.runtime.cluster import ThreadedFresque
from repro.runtime.tcp import Router, TcpFresqueCluster, TcpNode
from repro.runtime.wire import (
    WireError,
    decode_message,
    decode_tree,
    encode_message,
    encode_tree,
    read_frames,
)

__all__ = [
    "Inbox",
    "InFlightTracker",
    "POISON",
    "Router",
    "TcpFresqueCluster",
    "TcpNode",
    "ThreadedFresque",
    "WireError",
    "decode_message",
    "decode_tree",
    "encode_message",
    "encode_tree",
    "read_frames",
]
