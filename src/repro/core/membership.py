"""Elastic membership for the computing-node fleet (docs/PROTOCOL.md).

FRESQUE's scalability argument (paper Section 6) assumes the dispatcher
spreads records over a *fixed* set of computing nodes; degraded mode
(``Dispatcher.mark_node_down``) could only shrink that set.  This module
makes the fleet elastic: nodes can be admitted, retired, or rejoin after
a crash, all at runtime, without perturbing the record stream already in
flight.

The :class:`Membership` object is owned by the dispatcher and versions
the node set with a monotonically increasing *epoch*.  Every membership
transition — admit, retire, mark-down, rejoin — bumps the epoch, and
every :class:`~repro.core.messages.RawBatch` (and the
:class:`~repro.core.messages.PairBatch` a computing node derives from
it) is stamped with the epoch under which it was dispatched.  Batches
are *never* re-stamped: a crash redispatch forwards the same message
object, so its seq/ordinal/epoch stamps — the keys for order
restoration and deterministic IVs — survive the reroute.  Epochs
therefore version the membership, not the data; a batch stamped under
an old epoch stays valid after the fleet changes.

What the epoch buys is *staleness detection for crashed incarnations*:
when node ``i`` rejoins at epoch ``F``, the checking side records
``joined[i] = F`` and discards any pair batch produced by node ``i``
under an epoch ``< F`` — output of the node's previous incarnation that
was already covered by the crash redispatch (see
``CheckingNode._admit_epoch`` and the ordering gate's stale rule).

The round-robin dispatch cursor lives here too (it is membership state:
which node receives the next batch depends on who is active), so the
rest of the codebase cannot mutate dispatch weights behind the epoch's
back — pinned by the FRQ-E1102 lint rule.
"""

from __future__ import annotations

#: Node lifecycle states.
ACTIVE, RETIRED, DOWN = "active", "retired", "down"


def stale_for(floors: dict[int, int], message) -> bool:
    """Whether ``message`` is stale output of a crashed incarnation.

    ``floors`` maps node id → join-epoch floor
    (:attr:`Membership.join_epochs`, propagated by
    :class:`~repro.core.messages.MembershipMsg`).  A message whose
    ``epoch`` stamp is below its producing ``node``'s floor was emitted
    by that node's previous incarnation, and its records are already
    covered by the crash redispatch.  Unstamped batches (``epoch`` or
    ``node`` negative — built outside a dispatcher) are never stale.
    This is the single staleness predicate every consumer (checking
    node, ordering gate) applies — ``tests/core/test_checking.py::TestEpochGate`` pins that
    no pair handler skips it.
    """
    if message.epoch < 0 or message.node < 0:
        return False
    return message.epoch < floors.get(message.node, 0)


class Membership:
    """Versioned membership of the computing-node fleet.

    Parameters
    ----------
    num_nodes:
        The initial fleet: nodes ``0 .. num_nodes - 1``, all active,
        all joined at epoch 0.
    """

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise ValueError(f"need at least one computing node, got {num_nodes}")
        self._epoch = 0
        self._states: dict[int, str] = {i: ACTIVE for i in range(num_nodes)}
        #: Epoch at which each node last (re)joined the fleet.
        self._joined: dict[int, int] = {i: 0 for i in range(num_nodes)}
        # Round-robin cursor over the sorted id space; advancing past a
        # non-active id skips it without handing it a batch, matching
        # the pre-membership dispatcher's dead-node rotation exactly.
        self._next_cn = 0

    @property
    def epoch(self) -> int:
        """Current membership epoch (bumped by every transition)."""
        return self._epoch

    @property
    def ids(self) -> list[int]:
        """Every node id ever admitted, sorted (retired/down included)."""
        return sorted(self._states)

    @property
    def active_ids(self) -> list[int]:
        """Nodes currently in the dispatch rotation, sorted."""
        return [i for i in sorted(self._states) if self._states[i] == ACTIVE]

    @property
    def retired_ids(self) -> list[int]:
        """Nodes drained out of the rotation on purpose, sorted."""
        return [i for i in sorted(self._states) if self._states[i] == RETIRED]

    @property
    def down_ids(self) -> list[int]:
        """Nodes currently believed crashed, sorted."""
        return [i for i in sorted(self._states) if self._states[i] == DOWN]

    @property
    def join_epochs(self) -> dict[int, int]:
        """Node id → epoch of its most recent (re)join."""
        return dict(self._joined)

    def state_of(self, node_id: int) -> str:
        """Lifecycle state of ``node_id`` (raises for unknown ids)."""
        try:
            return self._states[node_id]
        except KeyError:
            raise ValueError(f"unknown computing node {node_id}") from None

    def _require_known(self, node_id: int) -> None:
        if node_id not in self._states:
            raise ValueError(f"unknown computing node {node_id}")

    def next_destination(self) -> str:
        """The next computing node's address, round robin over actives.

        Advances the cursor past retired and down ids without handing
        them a batch — byte-for-byte the rotation the pre-membership
        dispatcher ran over its dead set.
        """
        ids = sorted(self._states)
        for _ in range(len(ids)):
            node_id = ids[self._next_cn % len(ids)]
            self._next_cn = (self._next_cn + 1) % len(ids)
            if self._states[node_id] == ACTIVE:
                return f"cn-{node_id}"
        raise RuntimeError("every computing node is down")

    def admit(self, node_id: int | None = None) -> int:
        """Admit a node into the fleet; returns its id.

        ``node_id`` defaults to the lowest id never used.  Admission
        bumps the epoch; batches already stamped under the old epoch are
        untouched (they stay addressed and sequenced as dispatched).
        """
        if node_id is None:
            node_id = max(self._states) + 1
        elif node_id in self._states:
            raise ValueError(
                f"computing node {node_id} already admitted "
                f"({self._states[node_id]}); use rejoin for crashed nodes"
            )
        elif node_id < 0:
            raise ValueError(f"invalid computing node id {node_id}")
        self._epoch += 1
        self._states[node_id] = ACTIVE
        self._joined[node_id] = self._epoch
        return node_id

    def retire(self, node_id: int) -> None:
        """Drain ``node_id`` out of the rotation (planned removal).

        The node stays reachable: it still reports *publishing* for the
        interval it participated in and receives its final *done*.
        Retiring the last active node is refused — the fleet must keep
        ingesting.
        """
        self._require_known(node_id)
        if self._states[node_id] != ACTIVE:
            raise ValueError(
                f"computing node {node_id} is {self._states[node_id]}, "
                f"not active"
            )
        if len(self.active_ids) <= 1:
            raise RuntimeError("cannot retire the last active computing node")
        self._epoch += 1
        self._states[node_id] = RETIRED

    def mark_down(self, node_id: int) -> bool:
        """Record a crash; False when already down (idempotent).

        Raises ``RuntimeError`` when the crash leaves no active node —
        the same contract the pre-membership dead set enforced.
        """
        self._require_known(node_id)
        if self._states[node_id] == DOWN:
            return False
        self._epoch += 1
        self._states[node_id] = DOWN
        if not self.active_ids:
            raise RuntimeError("every computing node is down")
        return True

    def rejoin(self, node_id: int) -> None:
        """A crashed node returns, fresh, under a new join epoch.

        The join epoch is the staleness floor: pair batches the node's
        previous incarnation produced (stamped with an older epoch) are
        discarded by the checking side once the rejoin is known.
        """
        self._require_known(node_id)
        if self._states[node_id] != DOWN:
            raise ValueError(
                f"computing node {node_id} is {self._states[node_id]}, "
                f"not down"
            )
        self._epoch += 1
        self._states[node_id] = ACTIVE
        self._joined[node_id] = self._epoch

    def snapshot(self) -> dict:
        """JSON-able membership state (crash recovery)."""
        return {
            "epoch": self._epoch,
            "cursor": self._next_cn,
            "states": {str(i): state for i, state in self._states.items()},
            "joined": {str(i): epoch for i, epoch in self._joined.items()},
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot`."""
        self._epoch = int(state["epoch"])
        self._next_cn = int(state["cursor"])
        self._states = {int(i): s for i, s in state["states"].items()}
        self._joined = {int(i): int(e) for i, e in state["joined"].items()}
