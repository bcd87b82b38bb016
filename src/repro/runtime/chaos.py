"""Deterministic membership-churn chaos harness.

Drives any FRESQUE runtime through a seeded :class:`ChurnPlan` — admit,
retire, crash and rejoin events interleaved with bursty ingest at exact
record positions — so the same plan replays identically on the
synchronous system, the threaded cluster and the TCP cluster.

The load-bearing property (pinned by
``tests/integration/test_membership_churn.py``): because epochs version
*membership* and never data — batches keep their seq/ordinal/epoch
stamps across redispatch, the dummy schedule is drawn from the
dispatcher RNG independent of fleet size, and every runtime recovers a
crashed node's unprocessed work — the final cloud state of a churned
run is **byte-identical** to a static-fleet baseline run of the same
stream (docs/PROTOCOL.md).

Plan legality, guaranteed by :meth:`ChurnPlan.seeded` and checked by
:meth:`ChurnPlan.validate`:

* a *rejoin* targets a node crashed in an **earlier** publication and
  fires at position 0, after the crashed publication settled — on the
  TCP runtime the cloud receipt is what guarantees the checking node
  has consumed every frame of the dead incarnation before its
  join-epoch floor rises;
* *crash* / *retire* never drop the active fleet below one node;
* a *retired* or *down* node is never targeted twice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_ACTIONS = ("admit", "retire", "crash", "rejoin")


@dataclass(frozen=True)
class ChurnEvent:
    """One membership action at an exact point of the ingest stream.

    ``position`` counts ingested lines within ``publication``: the
    event fires *before* line ``position`` is ingested; ``position ==
    len(lines)`` fires after the last line, before the interval closes.
    ``node_id`` is ``None`` only for *admit* (the dispatcher assigns).
    """

    publication: int
    position: int
    action: str
    node_id: int | None = None

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown churn action {self.action!r}")
        if self.action != "admit" and self.node_id is None:
            raise ValueError(f"{self.action} needs a node_id")


class ChurnPlan:
    """An ordered, validated sequence of :class:`ChurnEvent`.

    Events are replayed in ``(publication, position, insertion order)``
    order by :func:`run_churn`.
    """

    def __init__(self, events, num_nodes: int):
        self.events = tuple(
            sorted(events, key=lambda e: (e.publication, e.position))
        )
        self.num_nodes = num_nodes
        self.validate()

    def validate(self) -> None:
        """Reject plans no runtime can replay deterministically."""
        active = set(range(self.num_nodes))
        crashed: dict[int, int] = {}  # node -> publication it crashed in
        gone: set[int] = set()
        next_admit = self.num_nodes
        for event in self.events:
            if event.action == "admit":
                node = (
                    event.node_id if event.node_id is not None else next_admit
                )
                if node in active or node in crashed or node in gone:
                    raise ValueError(f"admit of live node {node}")
                active.add(node)
                next_admit = max(next_admit, node + 1)
            elif event.action == "retire":
                if event.node_id not in active:
                    raise ValueError(f"retire of inactive {event.node_id}")
                if len(active) == 1:
                    raise ValueError("retire would empty the fleet")
                active.discard(event.node_id)
                gone.add(event.node_id)
            elif event.action == "crash":
                if event.node_id not in active:
                    raise ValueError(f"crash of inactive {event.node_id}")
                if len(active) == 1:
                    raise ValueError("crash would empty the fleet")
                active.discard(event.node_id)
                crashed[event.node_id] = event.publication
            else:  # rejoin
                if event.node_id not in crashed:
                    raise ValueError(f"rejoin of non-crashed {event.node_id}")
                if event.publication <= crashed[event.node_id]:
                    raise ValueError(
                        "rejoin must wait for the crashed publication to "
                        "settle (TCP frame-consumption guarantee)"
                    )
                if event.position != 0:
                    raise ValueError("rejoin must fire at position 0")
                del crashed[event.node_id]
                active.add(event.node_id)

    def for_publication(self, index: int) -> dict[int, list[ChurnEvent]]:
        """position → events of publication ``index``, replay order."""
        slots: dict[int, list[ChurnEvent]] = {}
        for event in self.events:
            if event.publication == index:
                slots.setdefault(event.position, []).append(event)
        return slots

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_publications: int,
        lines_per_publication: int,
        num_nodes: int,
    ) -> "ChurnPlan":
        """A deterministic plan with at least one admit, one retire and
        one crash + rejoin, positions drawn from ``seed``.

        Needs ``num_publications >= 2`` (the rejoin must land one
        publication after its crash) and ``num_nodes >= 2`` (someone
        must survive the crash).
        """
        if num_publications < 2:
            raise ValueError("need >= 2 publications for crash + rejoin")
        if num_nodes < 2:
            raise ValueError("need >= 2 nodes to survive a crash")
        rng = random.Random(seed)
        span = max(1, lines_per_publication)

        def position() -> int:
            return rng.randrange(1, span + 1)

        victim = rng.randrange(num_nodes)
        survivor_pool = [n for n in range(num_nodes) if n != victim]
        crash_pub = rng.randrange(0, num_publications - 1)
        rejoin_pub = crash_pub + 1
        events = [
            ChurnEvent(rng.randrange(num_publications), position(), "admit"),
            ChurnEvent(crash_pub, position(), "crash", victim),
            ChurnEvent(rejoin_pub, 0, "rejoin", victim),
        ]
        # Retire a survivor only once the fleet can spare it: not in the
        # crash publication (victim is already out mid-interval there if
        # the fleet is minimal).
        if num_nodes > 2:
            retiree = rng.choice(survivor_pool)
            events.append(
                ChurnEvent(
                    rng.randrange(num_publications), position(), "retire",
                    retiree,
                )
            )
        else:
            # With two nodes the retiree must wait for the rejoin.
            retiree = rng.choice(survivor_pool)
            events.append(
                ChurnEvent(rejoin_pub, position(), "retire", retiree)
            )
        return cls(events, num_nodes)


def fire(runtime, event: ChurnEvent) -> None:
    """Apply one churn event to any runtime exposing the elastic
    membership surface (admit/retire/crash/rejoin)."""
    if event.action == "admit":
        runtime.admit_node(event.node_id)
    elif event.action == "retire":
        runtime.retire_node(event.node_id)
    elif event.action == "crash":
        runtime.crash_node(event.node_id)
    else:
        runtime.rejoin_node(event.node_id)


def run_churn(runtime, publications, plan: ChurnPlan, timeout: float = 120.0):
    """Replay ``plan`` against ``runtime`` while ingesting
    ``publications`` (a list of line lists), settling each interval
    before the next — identical dummy pacing to every runtime's own
    ``run_publication`` loop, so a no-event plan degenerates exactly.

    Raises :class:`RuntimeError` naming the publication when ``settle``
    returns without the cloud's receipt for it: a runtime that goes
    quiescent with a publication missing has lost it, and the loss
    should surface here rather than as a fingerprint diff later.
    """
    for index, lines in enumerate(publications):
        publication = runtime.dispatcher.publication
        slots = plan.for_publication(index)
        total = max(1, len(lines))
        for position, line in enumerate(lines):
            for event in slots.get(position, ()):
                fire(runtime, event)
            runtime.pump_dummies((position + 1) / (total + 1))
            runtime.ingest(line)
        for event in slots.get(len(lines), ()):
            fire(runtime, event)
        runtime.close_publication()
        runtime.settle(publication, timeout=timeout)
        if runtime._receipt(publication) is None:
            raise RuntimeError(
                f"publication {publication} settled without a cloud "
                "receipt: its records were lost"
            )
