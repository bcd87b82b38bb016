"""Outside-in timing wrappers: the traced run's only instrument.

The harness installs these on the public methods of the objects a
driver exposes (dispatcher, computing nodes, checking node, merger,
cloud, cipher, journal, checkpoint store, accountant, router, query
client) — nothing under ``src/`` is edited.  Every wrapper keeps a
per-thread parent stack, so a layer's **self time** is its duration
minus the part its wrapped children (and GC pauses) cover.  Calls at
batch granularity or coarser are also kept as spans
``(name, start, end, parent, publication, thread)`` in memory and
written out when the run ends; per-record calls only accumulate busy
time and a count.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time


class Tracer:
    """Wraps bound methods and accumulates per-thread, per-name time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []
        self._restore: list[tuple[object, str, object, bool]] = []
        #: Publication the driver is currently feeding (span attribute).
        self.publication = -1
        #: Whether the harness is inside a timed segment: a GC pause the
        #: harness's own bookkeeping triggers between segments is not the
        #: deployment's cost and is kept under ``harness.gc``.
        self.timed = False
        self._gc_started = 0.0
        self.gc_collections = [0, 0, 0]

    # -- per-thread state --------------------------------------------------

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {
                "thread": threading.current_thread().name,
                "stack": [],
                "stats": {},
                "spans": [],
            }
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # -- installing --------------------------------------------------------

    def wrap(
        self, owner, attribute: str, name: str, *, span: bool = True,
        observe=None,
    ):
        """Replace ``owner.attribute`` with a timing wrapper called ``name``.

        ``observe(args, result)``, when given, sees every completed call
        (outside the timed interval) — for counts only the call knows.
        """
        had_own = attribute in getattr(owner, "__dict__", {})
        original = getattr(owner, attribute)
        clock = time.perf_counter
        get_state = self._state
        tracer = self

        def traced(*args, **kwargs):
            state = get_state()
            stack = state["stack"]
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                entry = state["stats"].get(name)
                if entry is None:
                    entry = state["stats"][name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if span:
                    state["spans"].append(
                        (name, start, end, parent, tracer.publication)
                    )
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attribute, traced)
        self._restore.append((owner, attribute, original, had_own))
        return original

    def install_process_hooks(self) -> None:
        """Time every ``os.fsync`` and every garbage-collection pause."""
        self.wrap(os, "fsync", "os.fsync")
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        end = time.perf_counter()
        pause = end - self._gc_started
        if self.timed:
            self.gc_collections[info["generation"]] += 1
        state = self._state()
        if state["stack"]:
            # The pause is nobody's self time: charge it to its own row.
            state["stack"][-1][1] += pause
        name = "process.gc" if self.timed else "harness.gc"
        entry = state["stats"].setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += pause
        entry[2] += pause
        if info["generation"] == 2:
            state["spans"].append(
                (name, self._gc_started, end, None, self.publication)
            )

    def uninstall(self) -> None:
        """Put every wrapped attribute back and drop the GC callback."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attribute, original, had_own in reversed(self._restore):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def totals(self, thread: str | None = None) -> dict[str, tuple]:
        """``name -> (calls, total seconds, self seconds)``, over all
        threads or only the one called ``thread``."""
        merged: dict[str, list] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            if thread is not None and state["thread"] != thread:
                continue
            for name, (calls, total, own) in state["stats"].items():
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return {name: tuple(entry) for name, entry in merged.items()}

    def busy_by_thread(self) -> dict[str, float]:
        """Thread name -> seconds spent inside wrapped calls (self time)."""
        with self._lock:
            threads = list(self._threads)
        busy: dict[str, float] = {}
        for state in threads:
            own = sum(entry[2] for entry in state["stats"].values())
            busy[state["thread"]] = busy.get(state["thread"], 0.0) + own
        return busy

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``."""
        with self._lock:
            threads = list(self._threads)
        return [
            end - start
            for state in threads
            for span, start, end, _, _ in state["spans"]
            if span == name
        ]

    def write_spans(self, path) -> int:
        """Write every span as one JSON line; returns how many."""
        with self._lock:
            threads = list(self._threads)
        rows = [
            (start, end, name, parent, publication, state["thread"])
            for state in threads
            for name, start, end, parent, publication in state["spans"]
        ]
        rows.sort()
        with open(path, "w", encoding="utf-8") as handle:
            for start, end, name, parent, publication, thread in rows:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "publication": publication,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )
        return len(rows)
