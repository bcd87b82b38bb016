"""The one collector driver: every runtime is ``FresqueSystem`` plus a
transport.

Pins the structure so it cannot re-fork — the dispatcher-facing surface
is *the same function object* on every runtime, and exactly one module
builds a dispatcher — and pins the behaviour the per-runtime copies had
drifted on: ``flush_ingest()`` existing everywhere, and ``crash_node``
refusing an id outside the fleet the same way everywhere.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
import time

import pytest

import repro
from repro.core.messages import Admitted, DoneMsg, Routed
from repro.core.system import FresqueSystem
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator
from repro.durability.system import DurableFresqueSystem
from repro.runtime.schedule import ScheduledFresque
from repro.runtime.tcp import TcpFresqueCluster
from repro.runtime.wire import decode_message, encode_message
from tests.runtime.test_wire import MESSAGES, merged_publication

_KEY = b"fresque-test-master-key-32bytes!"

#: The surface defined once, on the base driver.
SHARED = (
    "start",
    "ingest",
    "ingest_batch",
    "flush_ingest",
    "poll_flush",
    "_poll_flush",
    "pump_dummies",
    "close_publication",
    "finish_publication",
    "run_publication",
    "crash_node",
    "make_client",
    "query",
    "__enter__",
    "__exit__",
)

#: The only overrides: journal-before-dispatch on the durable driver
#: and its boundary checkpoint.
JOURNALLING_OVERRIDES = {
    ScheduledFresque: set(),
    TcpFresqueCluster: set(),
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
    assert len(routed) >= 14
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
    for message, routers in routed.items():
        name = message.__name__
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
    if runtime == "scheduled":
        return ScheduledFresque(config, cipher, seed=3)
    return TcpFresqueCluster(config, cipher, seed=3)


@pytest.mark.parametrize("runtime", ["sync", "scheduled", "tcp"])
class TestSurfaceOnEveryRuntime:
    """``flush_ingest`` was missing on the concurrent runtimes
    while each runtime spelled its own surface; ``crash_node`` of an
    unknown id raised a different error on TCP."""

    def _config(self, flu_config):
        # A delay bound no poller reaches: only an explicit flush (or a
        # close) moves the sub-batch trickle.
        return dataclasses.replace(
            flu_config,
            num_computing_nodes=2,
            batch_size=64,
            max_batch_delay=60.0,
        )

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
        assert receipt.records_matched == expected

    def test_the_dispatcher_receives_only_admitted(
        self, runtime, flu_config
    ):
        """The dispatcher has a handler — and so a FIFO or a listening
        socket, beside each computing node, checking, merger and cloud —
        for the checking node's ``Admitted`` alone: once a publication is
        matched, every batch it retained for a crash re-send is freed."""
        config = self._config(flu_config)
        expected = ["checking", "cloud", "cn-0", "cn-1", "dispatcher", "merger"]
        with _deploy(runtime, config) as system:
            assert sorted(system._handlers) == expected
            if runtime == "scheduled":
                assert sorted(system._fifos) == expected
            if runtime == "tcp":
                assert sorted(system._servers) == expected
            assert system.dispatcher.ROUTES == {Admitted: "on_admitted"}
            with pytest.raises(TypeError, match="cannot handle DoneMsg"):
                system._handlers["dispatcher"](DoneMsg(0))
            system.ingest_batch(list(FluSurveyGenerator(seed=33).raw_lines(200)))
            assert system.finish_publication() is not None
            # (On TCP the last acknowledgements may still be on the wire.)
            deadline = time.monotonic() + 10
            while (
                system.dispatcher.oldest_unadmitted is not None
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert system.dispatcher.oldest_unadmitted is None

    def test_crash_node_rejects_an_unknown_id(self, runtime, flu_config):
        """An id outside the fleet is the same ``ValueError`` on every
        runtime, raised before anything is killed: TCP used to look the
        id up in its server table first and raise ``KeyError``."""
        config = self._config(flu_config)
        with _deploy(runtime, config) as system:
            for node_id in (7, -1):
                with pytest.raises(
                    ValueError, match=f"unknown computing node {node_id}$"
                ):
                    system.crash_node(node_id)
            assert system.dead_nodes == frozenset()
            assert system.dispatcher.dead_nodes == frozenset()
            system.ingest(FluSurveyGenerator(seed=32).raw_line())
            assert system.finish_publication() is not None
