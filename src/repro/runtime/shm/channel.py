"""Channel adapter: routed outboxes → ring-buffer frames.

One :class:`ShmChannel` per producer (the parent process or a worker),
holding that producer's outbound rings keyed by destination.  ``send``
encodes the message once (:func:`repro.runtime.wire.encode_body`: the
TCP frame without its length word, the ring slot having its own) and
appends it to the destination's ring; the consumer runs
:func:`~repro.runtime.wire.decode_message` on the ring's memoryview.
"""

from __future__ import annotations

from repro.runtime.shm.ring import RingBuffer, RingClosed
from repro.runtime.wire import encode_body


class ShmChannel:
    """Sends routed messages into per-destination ring buffers.

    Parameters
    ----------
    rings:
        Destination name → outbound :class:`RingBuffer`.
    abort_for:
        Optional ``destination -> callable`` factory; the callable is
        polled while a full ring blocks the send, and a true result
        aborts it (``send`` returns ``False``).  The parent passes a
        worker-death probe so a crashed consumer cannot wedge the
        producer.
    timeout:
        Per-send cap in seconds (``None`` = wait indefinitely).
    """

    def __init__(
        self,
        rings: dict[str, RingBuffer],
        abort_for=None,
        timeout: float | None = None,
    ):
        self._rings = rings
        self._abort_for = abort_for
        self._timeout = timeout

    @property
    def rings(self) -> dict[str, RingBuffer]:
        """The destination → ring map (read-only use)."""
        return self._rings

    def send(self, destination: str, message) -> bool:
        """Deliver one message; ``False`` if the destination is gone
        (its ring closed, or its consumer died mid-put)."""
        ring = self._rings.get(destination)
        if ring is None:
            raise KeyError(f"no ring for destination {destination!r}")
        should_abort = (
            self._abort_for(destination) if self._abort_for else None
        )
        try:
            return ring.put(
                encode_body(destination, message),
                timeout=self._timeout,
                should_abort=should_abort,
            )
        except RingClosed:
            return False

    def send_all(self, outbox) -> None:
        """Deliver a whole outbox in order."""
        for destination, message in outbox:
            self.send(destination, message)

    def close(self) -> None:
        """Mark every outbound ring closed (end-of-stream downstream)."""
        for ring in self._rings.values():
            ring.mark_closed()
