"""Periodic flush polling for the TCP cluster.

The dispatcher's delay flush (:meth:`Dispatcher.flush_due`,
docs/BATCHING.md) only fires when *something* checks the clock.  Under
steady traffic the next arrival does; under a trickle below the batch
size nothing would — the stall this module exists to fix.  The TCP
cluster starts one :class:`FlushPoller` whose ``tick`` callback takes
the cluster's dispatch lock, calls ``flush_due()`` and pumps whatever
flushed.  (The scheduled runtime has no thread to poll with: its
caller calls ``poll_flush()`` on the injected clock.)

The poller wakes at half the configured ``max_batch_delay`` (clamped),
so a waiting batch overshoots the delay bound by at most one tick.
Tick exceptions are captured — a poller must never take the runtime
down between publications — and surface through ``error``.
"""

from __future__ import annotations

import threading

#: Clamp bounds for the wake interval (seconds).
MIN_INTERVAL = 0.001
MAX_INTERVAL = 0.5


def poll_interval(max_batch_delay: float) -> float:
    """Wake interval for a given flush-delay bound."""
    return min(MAX_INTERVAL, max(MIN_INTERVAL, max_batch_delay / 2.0))


class FlushPoller:
    """Daemon thread invoking ``tick()`` every ``interval`` seconds."""

    def __init__(self, interval: float, tick, name: str = "fresque-flush-poller"):
        self._interval = interval
        self._tick = tick
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        #: First exception a tick raised, if any (polling stops on it).
        self.error: BaseException | None = None

    def start(self) -> None:
        """Start polling."""
        self._thread.start()

    def stop(self) -> None:
        """Stop polling and join the thread."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._tick()
            except BaseException as exc:  # noqa: BLE001 -- surfaced via .error
                # fresque-lint: disable=FRQ-C101 -- written once, then the thread exits; readers see it after stop()/join
                self.error = exc
                return
