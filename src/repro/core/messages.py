"""Messages exchanged between FRESQUE components.

Every component is transport-agnostic: handlers consume these dataclasses
and return ``(destination, message)`` pairs.  The same message flow is
executed by the synchronous driver (``repro.core.system``), the scheduled
and TCP runtimes (``repro.runtime``) and the discrete-event simulator
(``repro.simulation``).

A ``<leaf offset, e-record>`` pair has no class of its own: from the
computing node to the cloud it is one index into parallel columns — the
layout the wire, the randomer, the checkpoint and the cloud's files
share.  Removed records and the sealed overflow arrays are columns too.

Destinations are string names: ``"cn-<i>"``, ``"checking"``,
``"merger"``, ``"cloud"`` and ``"dispatcher"``, which receives only
:class:`Admitted`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.index.perturb import NoisePlan


@dataclass(frozen=True)
class NewPublication:
    """Dispatcher → checking node: a publication starts.

    Carries the publication number and the index template's noise plan
    (the checking node seeds ALN from the leaf noise and forwards the
    template to the merger).
    """

    publication: int
    plan: NoisePlan


@dataclass(frozen=True)
class TemplateMsg:
    """Checking node → merger: the (noise-only) index template."""

    publication: int
    plan: NoisePlan


@dataclass(frozen=True)
class AnnouncePublication:
    """Checking node → cloud: the new publication number."""

    publication: int


@dataclass(frozen=True)
class RawBatch:
    """Dispatcher → computing node: an ordered batch of records.

    The only message that carries records to a computing node: one
    message (and, on the TCP transport, one frame) holds up to
    ``batch_size`` of them, and a single record is a batch of one.
    ``items`` preserves arrival order; each element is either an unparsed
    raw line (``str``) or a dispatcher-made dummy, carried as nothing but
    its indexed value (a number; the computing node renders the rest of
    the dummy from the schema).  Every item belongs to ``publication`` —
    the dispatcher flushes the accumulator at interval close, so a batch
    never straddles a publication boundary (see docs/BATCHING.md).

    ``seq`` is the dispatcher's global flush sequence number (gap-free,
    never reset across publications) and ``ordinal`` is the global
    dispatch ordinal of the batch's first item (its position in the
    arrival stream).  The dispatcher stamps both on every batch; -1
    marks a batch built without them (tests).
    ``seq`` lets the checking side restore dispatch order across
    parallel computing nodes (and deduplicate crash redispatches),
    ``ordinal`` keys the deterministic per-record IVs of
    ``config.deterministic_ivs`` (docs/RUNTIMES.md).  A crash
    redispatch forwards the same message object, so both stamps survive
    the reroute.
    """

    publication: int
    items: tuple[str | float, ...]
    seq: int = -1
    ordinal: int = -1


@dataclass(frozen=True)
class PairBatch:
    """Computing node → checking node: a batch of pairs, in batch order,
    as three parallel columns — pair ``i`` is ``(leaves[i],
    ciphertexts[i], dummies[i])``.

    ``dummies`` (one 0/1 byte each) is trusted-side metadata, the paper's
    flag hidden inside the ciphertext: the checker uses it to skip AL/ALN
    updates, and it is stripped before a pair leaves the collector.

    Produced by :meth:`ComputingNode.on_raw_batch` from one
    :class:`RawBatch`; the checking node feeds the pairs through the
    randomer in order, so the released stream does not depend on how
    the pairs were cut into batches.

    ``seq`` carries the originating :class:`RawBatch`'s flush sequence
    number through the computing node (-1 when that batch was
    unstamped); the checking node applies stamped batches in ``seq``
    order, so the randomer sees them in dispatch order on every runtime.
    """

    publication: int
    leaves: tuple[int, ...] = ()
    ciphertexts: tuple[bytes, ...] = ()
    dummies: bytes = b""
    seq: int = -1

    def __len__(self) -> int:
        return len(self.leaves)


@dataclass(frozen=True)
class ToCloudBatch:
    """Checking node → cloud: the released pairs of one checked batch.

    Same shape as :class:`BufferFlush` (two columns, dummy flags stripped)
    but emitted mid-interval, at most once per processed :class:`PairBatch`:
    the only way a released pair reaches the cloud before the flush.
    """

    publication: int
    leaves: tuple[int, ...]
    ciphertexts: tuple[bytes, ...]


@dataclass(frozen=True)
class RemovedBatch:
    """Checking node → merger: the records of one released run consumed
    by negative noise, as a leaf column and a ciphertext column in
    release order (at most one per checked run)."""

    publication: int
    leaves: tuple[int, ...]
    ciphertexts: tuple[bytes, ...]


@dataclass(frozen=True)
class PublishingMsg:
    """Dispatcher → computing nodes and checking node: interval over.

    ``last_seq`` is the dispatcher's highest flushed :class:`RawBatch`
    sequence number at interval close (-1 when none was flushed).  The
    checking node holds the message until every batch with
    ``seq <= last_seq`` has been applied, so *publishing* takes effect
    after the publication's final batch on every runtime.
    """

    publication: int
    last_seq: int = -1


@dataclass(frozen=True)
class CnPublishing:
    """Computing node → checking node: this node flushed the publication."""

    publication: int
    node_id: int


@dataclass(frozen=True)
class NodeDown:
    """Dispatcher → checking node: a computing node died mid-publication.

    Degraded mode (shared-nothing lets the survivors absorb the load):
    the checking node stops waiting for the dead node's *publishing*
    message — for the carried publication and every later one — so the
    publication-consistency condition is evaluated over live nodes only.
    """

    publication: int
    node_id: int


@dataclass(frozen=True)
class Admitted:
    """Checking node → dispatcher: the :class:`PairBatch` of dispatch
    sequence number ``seq`` was admitted, so the dispatcher stops
    retaining its :class:`RawBatch` for a crash re-send
    (docs/PROTOCOL.md, "Redispatch")."""

    seq: int


@dataclass(frozen=True)
class AlSnapshot:
    """Checking node → merger: the final AL of the publication."""

    publication: int
    al: tuple[int, ...]


@dataclass(frozen=True)
class BufferFlush:
    """Checking node → cloud: the shuffled randomer buffer contents."""

    publication: int
    leaves: tuple[int, ...]
    ciphertexts: tuple[bytes, ...]


@dataclass(frozen=True)
class DoneMsg:
    """Checking node → computing nodes: publishing tasks handed off."""

    publication: int


@dataclass(frozen=True)
class MergedPublication:
    """Merger → cloud: the secure index and the sealed overflow arrays.

    ``overflow`` maps a leaf offset to its array: ``capacity``
    ciphertexts, removed records and padding dummies in sealed
    (shuffled) order.
    """

    publication: int
    tree: object  # IndexTree; typed loosely to avoid an import cycle
    overflow: dict[int, tuple[bytes, ...]] = field(default_factory=dict)


class Routed:
    """A component that receives messages through a route table.

    ``ROUTES`` maps a message class to the *name* of the handler method;
    :meth:`handle` is "message in, routed ``(destination, message)``
    outbox out" — the one contract every driver and transport delivers
    through.  The method is looked up by name on every call, never
    captured at construction: tracing wrappers and test doubles replace
    ``on_*`` methods on a live instance and must be the ones that run.
    """

    ROUTES: dict[type, str] = {}

    def handle(self, message) -> list[tuple[str, object]]:
        """Apply one message; returns the outbox it gives rise to."""
        name = self.ROUTES.get(type(message))
        if name is None:
            raise TypeError(
                f"{type(self).__name__} cannot handle "
                f"{type(message).__name__}"
            )
        return getattr(self, name)(message)
