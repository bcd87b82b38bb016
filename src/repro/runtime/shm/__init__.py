"""Shared-memory multiprocess runtime (docs/RUNTIMES.md).

Computing nodes, the checking node, the merger and the cloud run as
separate OS *processes* — so parsing, encryption and checking escape the
GIL — connected by single-producer/single-consumer ring buffers over
``multiprocessing.shared_memory`` instead of sockets.  A slot holds the
same frame TCP sends (:mod:`repro.runtime.wire`); what the ring adds is
decoding it in place from the ring's ``memoryview`` and no kernel round
trip.

Public surface:

* :class:`~repro.runtime.shm.ring.RingBuffer` — the SPSC ring.
* :class:`~repro.runtime.shm.channel.ShmChannel` — channel-interface
  adapter (encode → ring) for one producer's outbound destinations.
* :class:`~repro.runtime.shm.cluster.ShmFresqueCluster` — spawns the
  worker processes, drives the dispatcher from the parent, detects
  worker crashes (heartbeats) and redispatches a dead ring's backlog
  through the degraded-mode path.
"""

from repro.runtime.shm.channel import ShmChannel
from repro.runtime.shm.cluster import ShmFresqueCluster
from repro.runtime.shm.ring import (
    RingBuffer,
    RingClosed,
    RingError,
    StatsBlock,
)

__all__ = [
    "RingBuffer",
    "RingClosed",
    "RingError",
    "ShmChannel",
    "ShmFresqueCluster",
    "StatsBlock",
]
