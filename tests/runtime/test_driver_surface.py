"""The one collector driver: every runtime is ``FresqueSystem`` plus a
transport.

Pins the structure so it cannot re-fork — the dispatcher-facing surface
is *the same function object* on every runtime, and exactly one module
builds a dispatcher — and pins the two behaviours the per-runtime copies
had drifted on: ``offer()``/``flush_ingest()`` existing everywhere, and
the TCP poller feeding the adaptive controller a queue depth.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
import threading

import pytest

import repro
from repro.core.messages import Routed
from repro.core.sharded import PartialAl, ShardedFresqueSystem
from repro.core.system import FresqueSystem
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator
from repro.durability.system import DurableFresqueSystem
from repro.runtime.backoff import await_condition
from repro.runtime.cluster import ThreadedFresque
from repro.runtime.shm.cluster import ShmFresqueCluster
from repro.runtime.tcp import TcpFresqueCluster
from repro.runtime.wire import decode_message, encode_message
from tests.runtime.test_wire import MESSAGES, merged_publication

_KEY = b"fresque-test-master-key-32bytes!"

#: The surface defined once, on the base driver.
SHARED = (
    "start",
    "ingest",
    "ingest_batch",
    "offer",
    "flush_ingest",
    "poll_flush",
    "_poll_flush",
    "pump_dummies",
    "close_publication",
    "finish_publication",
    "admit_node",
    "retire_node",
    "crash_node",
    "rejoin_node",
    "__enter__",
    "__exit__",
)

#: The only overrides: journal-before-dispatch on the durable drivers
#: (sync-durable, and shm's ``data_dir`` mode) and the durable boundary
#: checkpoint.
JOURNALLING_OVERRIDES = {
    ThreadedFresque: set(),
    TcpFresqueCluster: set(),
    ShmFresqueCluster: {"ingest"},
    ShardedFresqueSystem: set(),
    DurableFresqueSystem: {"ingest", "ingest_batch", "finish_publication"},
}


@pytest.mark.parametrize(
    "cls", JOURNALLING_OVERRIDES, ids=lambda cls: cls.__name__
)
def test_surface_is_the_base_drivers(cls):
    assert issubclass(cls, FresqueSystem)
    overridden = {
        name
        for name in SHARED
        if getattr(cls, name) is not getattr(FresqueSystem, name)
    }
    assert overridden == JOURNALLING_OVERRIDES[cls]


def test_one_module_constructs_the_dispatcher():
    root = pathlib.Path(repro.__file__).parent
    builders = {
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if re.search(r"(?<!class )\bDispatcher\(", path.read_text())
    }
    assert builders - {"durability/recovery.py"} == {"core/system.py"}


def _routed_messages() -> dict[type, set[str]]:
    """Every message class some component routes -> who routes it."""
    routed: dict[type, set[str]] = {}
    stack = [Routed]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("repro."):
                for message in cls.ROUTES:
                    routed.setdefault(message, set()).add(cls.__name__)
    return routed


def test_the_message_alphabet_is_closed():
    """A routable message is one somebody sends: it crosses the one
    wire codec and is constructed in the package, not only by a decoder
    — a route or codec nobody feeds is a second path waiting to drift."""
    routed = _routed_messages()
    assert len(routed) >= 15
    root = pathlib.Path(repro.__file__).parent
    codecs = {"runtime/wire.py"}
    sources = {
        str(path.relative_to(root)): path.read_text()
        for path in root.rglob("*.py")
        if str(path.relative_to(root)) not in codecs
    }
    # One home for the codec tables: nobody reaches into them.
    assert not [
        name
        for name, text in sources.items()
        if "_ENCODERS" in text or "_DECODERS" in text
    ]
    samples = {type(m): (d, m) for d, m in MESSAGES.values()}
    merged = merged_publication()
    samples[type(merged)] = ("cloud", merged)
    # Checking shards run in process only: their partial AL never
    # crosses a transport.
    in_process_only = {PartialAl}
    for message, routers in routed.items():
        name = message.__name__
        if message not in in_process_only:
            assert message in samples, f"{name} ({routers}): no wire sample"
            destination, sample = samples[message]
            frame = encode_message(destination, sample)
            got_destination, got = decode_message(frame[4:])
            assert (got_destination, type(got)) == (destination, message)
        pattern = re.compile(rf"(?<!class )\b{name}\(")
        assert any(pattern.search(text) for text in sources.values()), (
            f"{name} is routed by {routers} but nothing constructs it"
        )


def _deploy(runtime: str, config):
    cipher = SimulatedCipher(KeyStore(_KEY, key_size=16))
    if runtime == "sync":
        return FresqueSystem(config, cipher, seed=3)
    if runtime == "threaded":
        return ThreadedFresque(config, cipher, seed=3)
    if runtime == "tcp":
        return TcpFresqueCluster(config, cipher, seed=3)
    return ShmFresqueCluster(config, _KEY, seed=3)


@pytest.mark.parametrize("runtime", ["sync", "threaded", "tcp", "shm"])
class TestSurfaceOnEveryRuntime:
    """``offer`` and ``flush_ingest`` were missing on the threaded and
    TCP runtimes while each runtime spelled its own surface."""

    def _config(self, flu_config, **overrides):
        # A delay bound no poller reaches: only an explicit flush (or a
        # close) moves the sub-batch trickle.
        return dataclasses.replace(
            flu_config,
            num_computing_nodes=2,
            batch_size=64,
            max_batch_delay=60.0,
            **overrides,
        )

    def test_offer_sheds_over_the_queue_limit(self, runtime, flu_config):
        config = self._config(
            flu_config, ingest_queue_limit=4, shed_policy="drop-newest"
        )
        lines = list(FluSurveyGenerator(seed=31).raw_lines(6))
        with _deploy(runtime, config) as system:
            admitted = [system.offer(line) for line in lines]
            assert admitted == [True] * 4 + [False] * 2
            assert system.dispatcher.flow.admission.shed_total == 2
            assert system.dispatcher.pending_batch_records == 4

    def test_flush_ingest_pushes_a_trickle_to_a_receipt(
        self, runtime, flu_config
    ):
        config = self._config(flu_config)
        lines = list(FluSurveyGenerator(seed=32).raw_lines(3))
        reference = FresqueSystem(
            config, SimulatedCipher(KeyStore(_KEY, key_size=16)), seed=3
        )
        expected = reference.run_publication(lines).published_pairs
        with _deploy(runtime, config) as system:
            for position, line in enumerate(lines):
                system.pump_dummies((position + 1) / (len(lines) + 1))
                system.ingest(line)
            assert system.dispatcher.pending_batch_records > 0
            system.flush_ingest()
            assert system.dispatcher.pending_batch_records == 0
            receipt = system.finish_publication()
        # The shm parent's receipt is the bare matched-record count.
        assert getattr(receipt, "records_matched", receipt) == expected


def test_tcp_poller_feeds_the_adaptive_controller(flu_config, fast_cipher):
    """docs/BATCHING.md: the TCP cluster reports its deepest computing
    node inbox to the adaptive controller.  Its own poller used to call
    ``flush_due()`` only, so the controller never saw a depth."""
    config = dataclasses.replace(
        flu_config,
        num_computing_nodes=1,
        batch_size=4,
        max_batch_delay=0.01,
        adaptive_batching=True,
        min_batch_size=4,
        max_batch_size=4,
    )
    release = threading.Event()
    with TcpFresqueCluster(config, fast_cipher, seed=5) as cluster:
        node = cluster.computing_nodes[0]
        on_raw_batch = node.on_raw_batch

        def stalled(message):
            release.wait(30.0)
            return on_raw_batch(message)

        node.on_raw_batch = stalled
        try:
            for line in FluSurveyGenerator(seed=33).raw_lines(40):
                cluster.ingest(line)
            controller = cluster.dispatcher.flow.controller
            assert not controller.pinned
            await_condition(
                lambda: controller._depth > 0 or None,
                10.0,
                "the TCP poller never reported a queue depth",
            )
        finally:
            release.set()
        cluster.finish_publication()
