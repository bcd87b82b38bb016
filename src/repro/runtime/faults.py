"""Deterministic crash injection for the FRESQUE runtimes.

Links are reliable and FIFO, and nodes fail only by crashing, so a
:class:`FaultPlan` scripts crashes.  The plan plugs into

* :class:`~repro.runtime.tcp.TcpNode` — consulted once per inbox frame
  (:meth:`FaultPlan.on_node_frame`): a node can crash after handling
  a chosen number of frames, dropping whatever its inbox still holds —
  like a machine going down mid-publication.  A crashed node stays
  down (crash-stop), and the driver learns of it only through
  supervision;
* :class:`~repro.durability.DurableFresqueSystem` — consulted once per
  journalled chunk (:meth:`FaultPlan.on_collector_records`): the
  whole collector process can crash after ingesting a chosen number of
  records, exercising journal replay and checkpointed recovery.

Determinism
-----------
Rules fire on the n-th event of their target regardless of thread
interleaving, because the plan counts events per target.  Every fired
crash is appended to :attr:`FaultPlan.schedule`, which two plans built
identically and fed the same event sequence reproduce exactly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

#: The node action returned by :meth:`FaultPlan.on_node_frame`.
CRASH = "crash"


@dataclass
class _NodeRule:
    after_handled: int
    fired: bool = False


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, recorded in :attr:`FaultPlan.schedule`."""

    site: str  # "node"
    target: str
    index: int
    action: str


class FaultPlan:
    """A scripted, reproducible schedule of node crashes."""

    def __init__(self):
        self._lock = threading.Lock()
        self._node_rules: dict[str, _NodeRule] = {}
        self._frame_counts: dict[str, int] = {}
        #: Every fired fault, in observation order.
        self.schedule: list[FaultEvent] = []

    # -- rule registration (chainable) ----------------------------------

    def crash_node(self, name: str, *, after_handled: int) -> "FaultPlan":
        """Crash node ``name`` once it has handled ``after_handled``
        frames; the triggering frame and the rest of its inbox are
        dropped, and the node stays down."""
        self._node_rules[name] = _NodeRule(after_handled)
        return self

    def crash_collector(self, *, after_records: int) -> "FaultPlan":
        """Crash the whole collector process once it has ingested
        ``after_records`` raw records.  The durable driver raises
        :class:`~repro.durability.system.CollectorCrash` *after*
        journalling the triggering record but before dispatching it —
        the worst case recovery must handle: durable state says the
        record exists, volatile pipeline state never saw it."""
        self._node_rules["collector"] = _NodeRule(after_records)
        return self

    # -- event hooks -----------------------------------------------------

    def on_node_frame(self, name: str) -> str | None:
        """Decide whether node ``name`` survives its next inbox frame.

        Returns :data:`CRASH` or ``None``.  The index
        counts frames *offered* to the node (0-based): a rule with
        ``after_handled=n`` lets ``n`` frames through and kills the node
        on the ``n+1``-th.
        """
        with self._lock:
            index = self._frame_counts.get(name, 0)
            self._frame_counts[name] = index + 1
            rule = self._node_rules.get(name)
            if rule is None or rule.fired or index < rule.after_handled:
                return None
            rule.fired = True
            self.schedule.append(FaultEvent("node", name, index, CRASH))
            return CRASH

    def on_collector_records(self, count: int) -> int:
        """How many of the collector's next ``count`` raw records it
        survives.

        Counts records ingested (0-based, target ``"collector"``); a
        :meth:`crash_collector` rule with ``after_records=n`` lets ``n``
        records through and crashes on the ``n+1``-th.  A return below
        ``count`` means the collector crashes on the record after that
        many; the records behind it are never counted.
        """
        with self._lock:
            index = self._frame_counts.get("collector", 0)
            rule = self._node_rules.get("collector")
            survivors = count
            if rule is not None and not rule.fired:
                survivors = min(count, max(0, rule.after_handled - index))
            if survivors == count:
                self._frame_counts["collector"] = index + count
                return count
            rule.fired = True
            crashed_at = index + survivors
            self._frame_counts["collector"] = crashed_at + 1
            self.schedule.append(
                FaultEvent("node", "collector", crashed_at, CRASH)
            )
            return survivors
