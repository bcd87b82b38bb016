"""Extension: sharded checking nodes.

The paper's evaluation shows the sequential checking node becoming the
bottleneck once enough computing nodes are deployed (Gowalla saturates at
~165k records/s after 8 nodes, Figure 9).  Because FRESQUE's checker state
is two flat arrays indexed by leaf offset, it shards naturally: partition
the leaves over ``c`` checking shards (``shard = leaf_offset mod c``), give
each shard its own randomer (sized from the noise bounds of *its* leaves)
and its own AL/ALN slices, and let the merger reassemble the full AL from
the per-shard snapshots.  No cross-shard coordination is needed on the
ingest path — a record touches exactly one leaf, hence one shard.

This module is a faithful "future work" extension, not part of the paper's
measured system; the ablation benchmark quantifies the ceiling it removes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import compress

from repro.client.query_client import QueryClient
from repro.cloud.node import FresqueCloud
from repro.core.checking import check_bulk
from repro.core.computing_node import ComputingNode
from repro.core.config import FresqueConfig
from repro.core.membership import stale_for
from repro.core.merger import Merger
from repro.core.messages import (
    AlSnapshot,
    AnnouncePublication,
    BufferFlush,
    CnPublishing,
    DoneMsg,
    MembershipMsg,
    NewPublication,
    PairBatch,
    PublishingMsg,
    RawBatch,
    Routed,
    TemplateMsg,
    ToCloudBatch,
)
from repro.core.randomer import Randomer
from repro.core.system import CloudAdapter, FresqueSystem
from repro.crypto.cipher import RecordCipher
from repro.index.template import LeafArrays
from repro.privacy.laplace import laplace_inverse_cdf


def shard_of(leaf_offset: int, num_shards: int) -> int:
    """The checking shard responsible for ``leaf_offset``."""
    return leaf_offset % num_shards


def shard_buffer_size(config: FresqueConfig, shard: int, num_shards: int) -> int:
    """Randomer capacity of one shard: ``α · Σ s_i`` over its own leaves.

    The per-leaf bound is uniform, so each shard's buffer is proportional
    to its leaf count; the total across shards equals the unsharded size.
    """
    owned = len(range(shard, config.domain.num_leaves, num_shards))
    bound = max(
        0, math.ceil(laplace_inverse_cdf(config.delta_prime, config.noise_scale))
    )
    return max(1, math.ceil(config.alpha * bound * owned))


@dataclass
class _ShardState:
    randomer: Randomer
    arrays: LeafArrays
    cn_reported: set[int] = field(default_factory=set)
    closed: bool = False


@dataclass(frozen=True)
class PartialAl:
    """Checking shard → merger: this shard's slice of the final AL."""

    publication: int
    shard: int
    counts: dict[int, int]  # leaf offset -> true count


class CheckingShard(Routed):
    """One of ``c`` checking nodes, owning ``leaf mod c == shard_id``.

    Runs the checking node's bulk check (:func:`check_bulk`) over its
    own randomer and array slices; emits :class:`PartialAl` instead of
    the full AL.
    """

    ROUTES = {
        PairBatch: "on_pair_batch",
        NewPublication: "on_new_publication",
        PublishingMsg: "on_publishing",
        CnPublishing: "on_cn_publishing",
        MembershipMsg: "on_membership",
    }

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        config: FresqueConfig,
        rng: random.Random | None = None,
    ):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.config = config
        self._rng = rng if rng is not None else random.Random()
        self._states: dict[int, _ShardState] = {}
        self.pairs_processed = 0
        self.dummies_passed = 0
        self.records_removed = 0
        # Per-producer join-epoch floors (elastic membership,
        # docs/PROTOCOL.md); dormant until a MembershipMsg arms them.
        self._node_epochs: dict[int, int] = {}
        self.stale_batches_discarded = 0

    @property
    def name(self) -> str:
        """Routing address of this shard."""
        return f"checking-{self.shard_id}"

    def owns(self, leaf_offset: int) -> bool:
        """Whether this shard is responsible for ``leaf_offset``."""
        return shard_of(leaf_offset, self.num_shards) == self.shard_id

    def on_new_publication(
        self, message: NewPublication
    ) -> list[tuple[str, object]]:
        """Initialise this shard's arrays and randomer."""
        self._states[message.publication] = _ShardState(
            randomer=Randomer(
                shard_buffer_size(self.config, self.shard_id, self.num_shards),
                rng=self._rng,
            ),
            arrays=LeafArrays(message.plan.leaf_noise),
        )
        out: list[tuple[str, object]] = []
        if self.shard_id == 0:
            # Exactly one shard forwards the template and announces the PN.
            out.append(("merger", TemplateMsg(message.publication, message.plan)))
            out.append(("cloud", AnnouncePublication(message.publication)))
        return out

    def on_publishing(
        self, message: PublishingMsg
    ) -> list[tuple[str, object]]:
        """The dispatcher's own notice is informational: a shard
        finalises on the computing nodes' :class:`CnPublishing`."""
        return []

    def _check_bulk(
        self, publication: int, state: _ShardState, *columns
    ) -> list:
        """Check released columns: ``[merger messages, cloud leaves,
        cloud ciphertexts]``."""
        *released, dummy_count = check_bulk(state.arrays, publication, *columns)
        self.pairs_processed += len(columns[0])
        self.dummies_passed += dummy_count
        self.records_removed += len(released[0])
        return released

    def on_membership(self, message: MembershipMsg) -> list[tuple[str, object]]:
        """Track join-epoch floors for the staleness check (monotone)."""
        for node, epoch in message.joined:
            if epoch > self._node_epochs.get(node, 0):
                self._node_epochs[node] = epoch
        return []

    def _admit_epoch(self, message) -> bool:
        """Membership-epoch staleness check (mirrors
        :meth:`CheckingNode._admit_epoch`); unstamped messages — all of
        them until a sharded deployment stamps its split batches — pass."""
        if not stale_for(self._node_epochs, message):
            return True
        self.stale_batches_discarded += 1
        return False

    def on_pair_batch(self, message: PairBatch) -> list[tuple[str, object]]:
        """Buffer one shard-split batch; check what the randomer
        releases and ship it to the cloud as one message."""
        if not self._admit_epoch(message):
            return []
        for leaf in message.leaves:
            if not self.owns(leaf):
                raise ValueError(
                    f"pair for leaf {leaf} routed to shard "
                    f"{self.shard_id} of {self.num_shards}"
                )
        state = self._states[message.publication]
        released = state.randomer.insert_batch(
            message.leaves, message.ciphertexts, message.dummies
        )
        if not released[0]:
            return []
        out, *cloud = self._check_bulk(message.publication, state, *released)
        if cloud[0]:
            out.append(("cloud", ToCloudBatch(message.publication, *cloud)))
        return out

    def on_cn_publishing(
        self, message: CnPublishing
    ) -> list[tuple[str, object]]:
        """Finalise this shard once every computing node reported."""
        state = self._states[message.publication]
        state.cn_reported.add(message.node_id)
        if len(state.cn_reported) < self.config.num_computing_nodes:
            return []
        return self._finalise(message.publication)

    def _finalise(self, publication: int) -> list[tuple[str, object]]:
        state = self._states[publication]
        state.closed = True
        out, *flushed = self._check_bulk(
            publication, state, *state.randomer.flush()
        )
        counts = {
            offset: state.arrays.al[offset]
            for offset in range(
                self.shard_id, self.config.domain.num_leaves, self.num_shards
            )
        }
        # Flush before the partial AL (see CheckingNode._finalise: the
        # cloud must hold every pair before the merger can publish).
        out.append(("cloud", BufferFlush(publication, *flushed)))
        out.append(("merger", PartialAl(publication, self.shard_id, counts)))
        done = DoneMsg(publication)
        out.extend(
            (f"cn-{i}", done) for i in range(self.config.num_computing_nodes)
        )
        del self._states[publication]
        return out


class ShardedMerger(Merger):
    """Merger variant assembling the AL from per-shard partial snapshots."""

    ROUTES = {**Merger.ROUTES, PartialAl: "on_partial_al"}

    def __init__(
        self,
        config: FresqueConfig,
        cipher: RecordCipher,
        num_shards: int,
        rng: random.Random | None = None,
    ):
        super().__init__(config, cipher, rng=rng)
        self.num_shards = num_shards
        self._partials: dict[int, dict[int, dict[int, int]]] = {}

    def on_partial_al(self, message: PartialAl) -> list[tuple[str, object]]:
        """Collect one shard's AL slice; merge once all shards reported."""
        shards = self._partials.setdefault(message.publication, {})
        shards[message.shard] = message.counts
        if len(shards) < self.num_shards:
            return []
        counts = [0] * self.config.domain.num_leaves
        for shard_counts in shards.values():
            for offset, count in shard_counts.items():
                counts[offset] = count
        del self._partials[message.publication]
        return self.on_al(
            AlSnapshot(message.publication, tuple(counts))
        )


class _RoutingComputingNode(ComputingNode):
    """Computing node that routes pairs to the owning checking shard."""

    def __init__(self, node_id, config, cipher, num_shards: int):
        super().__init__(node_id, config, cipher)
        self.num_shards = num_shards
        self._done_counts: dict[int, int] = {}

    def _broadcast_publishing(self, publication: int) -> list[tuple[str, object]]:
        return [
            (
                f"checking-{shard}",
                CnPublishing(publication, self.node_id),
            )
            for shard in range(self.num_shards)
        ]

    def _split_batch(self, batch: PairBatch) -> list[tuple[str, object]]:
        """Split one pair batch into per-shard batches, order preserved."""
        shards = [shard_of(leaf, self.num_shards) for leaf in batch.leaves]
        routed = []
        for shard in sorted(set(shards)):
            own = [owner == shard for owner in shards]
            split = PairBatch(
                batch.publication,
                tuple(compress(batch.leaves, own)),
                tuple(compress(batch.ciphertexts, own)),
                bytes(compress(batch.dummies, own)),
            )
            routed.append((f"checking-{shard}", split))
        return routed

    def on_raw_batch(self, message: RawBatch) -> list[tuple[str, object]]:
        out = super().on_raw_batch(message)
        routed: list[tuple[str, object]] = []
        for _, payload in out:
            routed.extend(self._split_batch(payload))
        return routed

    def on_publishing(
        self, message: PublishingMsg
    ) -> list[tuple[str, object]]:
        if self._waiting_done:
            self._held.append(("publishing", message.publication))
            return []
        self._waiting_done = True
        return self._broadcast_publishing(message.publication)

    def on_done(self, message: DoneMsg) -> list[tuple[str, object]]:
        # Wait for *every* shard's done before replaying held events.
        count = self._done_counts.get(message.publication, 0) + 1
        self._done_counts[message.publication] = count
        if count < self.num_shards:
            return []
        del self._done_counts[message.publication]
        self._waiting_done = False
        out: list[tuple[str, object]] = []
        while self._held:
            kind, payload = self._held.pop(0)
            if kind == "batch":
                out.extend(self._split_batch(payload))
                continue
            out.extend(self._broadcast_publishing(payload))
            self._waiting_done = True
            break
        return out


class _ShardBroadcast:
    """The ``checking`` address of a sharded deployment: what the
    dispatcher sends there reaches every shard."""

    def __init__(self, shards: list[CheckingShard]):
        self._shards = shards

    def handle(self, message) -> list[tuple[str, object]]:
        out: list[tuple[str, object]] = []
        for shard in self._shards:
            out.extend(shard.handle(message))
        return out


class ShardedFresqueSystem(FresqueSystem):
    """FRESQUE with ``num_checking_shards`` parallel checking nodes.

    The synchronous :class:`~repro.core.system.FresqueSystem` driver
    over a different component set: routing computing nodes, one
    :class:`CheckingShard` per shard (addressed ``checking-<i>``) and a
    :class:`ShardedMerger`.
    """

    def __init__(
        self,
        config: FresqueConfig,
        cipher: RecordCipher,
        num_checking_shards: int = 2,
        seed: int | None = None,
    ):
        if num_checking_shards < 1:
            raise ValueError("need at least one checking shard")
        self.num_shards = num_checking_shards
        super().__init__(config, cipher, seed=seed)

    def _new_node(self, node_id: int) -> ComputingNode:
        return _RoutingComputingNode(
            node_id, self.config, self.cipher, self.num_shards
        )

    def _build_components(self, rng: random.Random, cloud) -> None:
        # Seed chain: dispatcher (drawn by the base), one draw per shard
        # in shard order, then the merger.
        config = self.config
        for node_id in range(config.num_computing_nodes):
            self._install_node(node_id)
        self.shards = [
            CheckingShard(
                shard, self.num_shards, config,
                rng=random.Random(rng.random()),
            )
            for shard in range(self.num_shards)
        ]
        self.merger = ShardedMerger(
            config, self.cipher, self.num_shards,
            rng=random.Random(rng.random()),
        )
        self.cloud = FresqueCloud(config.domain)
        self._cloud_adapter = CloudAdapter(self.cloud)
        self._handlers["checking"] = _ShardBroadcast(self.shards).handle
        for shard in self.shards:
            self._handlers[shard.name] = shard.handle
        self._handlers["merger"] = self.merger.handle
        self._handlers["cloud"] = self._cloud_adapter.handle

    def run_publication(self, lines: list[str]) -> int:
        """Ingest ``lines``, close the publication, open the next one.

        Returns the number of pairs matched at the cloud.
        """
        self._feed(lines)
        return self.finish_publication().records_matched

    def make_client(self, schema=None) -> QueryClient:
        """Query client over the cloud (the published data only)."""
        return QueryClient(
            schema if schema is not None else self.config.schema,
            self.cipher,
            self.cloud,
        )


def sharded_capacity(costs, computing_nodes: int, shards: int) -> float:
    """Analytic throughput with ``shards`` checking nodes.

    The sequential-checker term scales by the shard count; dispatcher and
    computing nodes are unchanged.
    """
    if computing_nodes < 1 or shards < 1:
        raise ValueError("need at least one computing node and one shard")
    return min(
        1.0 / costs.t_dispatch,
        computing_nodes / costs.t_computing_node,
        shards / costs.t_check_array,
    )
