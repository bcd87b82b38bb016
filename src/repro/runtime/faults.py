"""Deterministic, seedable fault injection for the FRESQUE runtimes.

A :class:`FaultPlan` scripts transport and node failures so the
fault-tolerance machinery (Router reconnect, degraded-mode publication,
node supervision) can be exercised reproducibly.  The plan plugs into

* :class:`~repro.runtime.tcp.Router` — consulted once per outbound
  frame (:meth:`FaultPlan.on_send`): frames can be dropped, delayed,
  duplicated, or the cached connection severed right before the write
  (the classic dead-cached-socket scenario);
* :class:`~repro.runtime.tcp.TcpNode` — consulted once per inbox frame
  (:meth:`FaultPlan.on_node_frame`): a node can crash after handling
  a chosen number of frames, dropping whatever its inbox still holds —
  like a machine going down mid-publication.  A crashed node stays
  down (crash-stop);
* :class:`~repro.runtime.schedule.ScheduledFresque` — the same
  send-side decisions applied to its in-process FIFOs;
* :class:`~repro.durability.DurableFresqueSystem` — consulted once per
  journalled chunk (:meth:`FaultPlan.on_collector_records`): the
  whole collector process can crash after ingesting a chosen number of
  records, exercising journal replay and checkpointed recovery.

Determinism
-----------
Rules keyed by frame index (``at_frames=...``) fire on the n-th event
for that destination/node regardless of thread interleaving, because
the plan counts events per target.  Probabilistic rules draw from a
dedicated ``random.Random`` seeded from ``(seed, target)`` — string
seeding is hash-randomization-free — so the decision for the n-th event
of a target is a pure function of ``(seed, target, n)``.  Every fired
action is appended to :attr:`FaultPlan.schedule`, which two plans built
identically and fed the same event sequence reproduce exactly.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

#: The node action returned by :meth:`FaultPlan.on_node_frame`.
CRASH = "crash"


@dataclass(frozen=True)
class SendDecision:
    """What the transport should do with one outbound frame."""

    drop: bool = False
    duplicates: int = 0
    delay: float = 0.0
    sever: bool = False

    @property
    def faulted(self) -> bool:
        """Whether any fault applies to this frame."""
        return self.drop or self.duplicates > 0 or self.delay > 0 or self.sever


#: The no-fault decision (shared; decisions are immutable).
DELIVER = SendDecision()


@dataclass
class _SendRule:
    action: str  # "drop" | "delay" | "duplicate" | "sever"
    at_frames: frozenset[int] = frozenset()
    probability: float = 0.0
    delay: float = 0.0

    def fires(self, index: int, rng: random.Random) -> bool:
        if index in self.at_frames:
            return True
        return self.probability > 0.0 and rng.random() < self.probability


@dataclass
class _NodeRule:
    after_handled: int
    fired: bool = False


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, recorded in :attr:`FaultPlan.schedule`."""

    site: str  # "send" | "node"
    target: str
    index: int
    action: str


class FaultPlan:
    """A scripted, reproducible schedule of transport and node faults.

    Parameters
    ----------
    seed:
        Seed for the probabilistic rules.  Two plans with equal seeds
        and equal rules produce identical schedules for identical event
        sequences.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._lock = threading.Lock()
        self._send_rules: dict[str, list[_SendRule]] = {}
        self._node_rules: dict[str, _NodeRule] = {}
        self._send_counts: dict[str, int] = {}
        self._frame_counts: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {}
        #: Every fired fault, in observation order.
        self.schedule: list[FaultEvent] = []

    # -- rule registration (chainable) ----------------------------------

    def drop_frames(
        self,
        destination: str,
        *,
        at_frames: tuple[int, ...] = (),
        probability: float = 0.0,
    ) -> "FaultPlan":
        """Drop the given outbound frames to ``destination`` silently."""
        self._add_send_rule(
            destination,
            _SendRule("drop", frozenset(at_frames), probability),
        )
        return self

    def delay_frames(
        self,
        destination: str,
        seconds: float,
        *,
        at_frames: tuple[int, ...] = (),
        probability: float = 0.0,
    ) -> "FaultPlan":
        """Stall the sender ``seconds`` before transmitting those frames."""
        self._add_send_rule(
            destination,
            _SendRule("delay", frozenset(at_frames), probability, seconds),
        )
        return self

    def duplicate_frames(
        self,
        destination: str,
        *,
        at_frames: tuple[int, ...] = (),
        probability: float = 0.0,
    ) -> "FaultPlan":
        """Transmit those frames twice (at-least-once delivery faults)."""
        self._add_send_rule(
            destination,
            _SendRule("duplicate", frozenset(at_frames), probability),
        )
        return self

    def sever_connection(
        self,
        destination: str,
        *,
        at_frames: tuple[int, ...] = (),
        probability: float = 0.0,
    ) -> "FaultPlan":
        """Kill the cached connection under the sender right before the
        write — the send fails and must reconnect with backoff."""
        self._add_send_rule(
            destination,
            _SendRule("sever", frozenset(at_frames), probability),
        )
        return self

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

    def _add_send_rule(self, destination: str, rule: _SendRule) -> None:
        self._send_rules.setdefault(destination, []).append(rule)

    # -- event hooks -----------------------------------------------------

    def _rng_for(self, target: str) -> random.Random:
        rng = self._rngs.get(target)
        if rng is None:
            rng = self._rngs[target] = random.Random(f"{self._seed}:{target}")
        return rng

    def on_send(self, destination: str) -> SendDecision:
        """Decide the fate of the next outbound frame to ``destination``."""
        with self._lock:
            index = self._send_counts.get(destination, 0)
            self._send_counts[destination] = index + 1
            rules = self._send_rules.get(destination)
            if not rules:
                return DELIVER
            rng = self._rng_for(destination)
            drop = sever = False
            duplicates = 0
            delay = 0.0
            for rule in rules:
                if not rule.fires(index, rng):
                    continue
                if rule.action == "drop":
                    drop = True
                elif rule.action == "duplicate":
                    duplicates += 1
                elif rule.action == "delay":
                    delay += rule.delay
                elif rule.action == "sever":
                    sever = True
                self.schedule.append(
                    FaultEvent("send", destination, index, rule.action)
                )
            if not (drop or duplicates or delay or sever):
                return DELIVER
            return SendDecision(
                drop=drop, duplicates=duplicates, delay=delay, sever=sever
            )

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

    def on_collector_record(self) -> bool:
        """Decide whether the collector survives its next raw record:
        :meth:`on_collector_records` for a chunk of one.  Returns
        ``True`` when the collector must crash now."""
        return not self.on_collector_records(1)

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
