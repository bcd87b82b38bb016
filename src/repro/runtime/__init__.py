"""Execution substrates: a seeded single-threaded schedule, TCP sockets,
wire encoding."""

from repro.runtime.schedule import ScheduledFresque, ScheduleStall
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
    "Router",
    "ScheduleStall",
    "ScheduledFresque",
    "TcpFresqueCluster",
    "TcpNode",
    "WireError",
    "decode_message",
    "decode_tree",
    "encode_message",
    "encode_tree",
    "read_frames",
]
