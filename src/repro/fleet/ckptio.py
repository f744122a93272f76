"""Asynchronous, double-buffered, crash-atomic checkpoint writing.

Fleet workers used to write every checkpoint synchronously: pickle the
snapshot, write it out, ``fsync``-adjacent latency and all, while the
simulation sat idle.  At the default cadence that serialized the
workers behind the disk — the direct cause of the jobs=4 < jobs=2
scaling regression in ``BENCH_fleet.json``.

:class:`AsyncCheckpointWriter` overlaps the two halves instead:

* the **simulating thread** serializes the next snapshot into its own
  buffer (pickling is CPU work that cannot move off-thread cheaply —
  the snapshot aliases live machine state that keeps mutating), then
  hands the finished buffer off and simulates on;
* the **writer thread** flushes the previous buffer through a sink —
  for local files, write the bytes to a per-process temp file, then
  :func:`os.replace` it into place.

The hand-off queue holds exactly one buffer, which is what makes this
*double* buffering: at any moment one buffer is being filled and at
most one is being flushed.  When the simulation outruns the disk,
``submit`` blocks until the in-flight flush lands — that blocked time
is recorded as ``stall_s`` and surfaces in the coordinator's profile,
so "checkpoint-bound" shows up as a number instead of a mystery.

Where a flushed buffer goes is the **sink**'s business: the local
path passes :class:`CheckpointFiles`, and the network worker passes a
sink that ships the payload as a checkpoint frame, so both get the
same overlap and the same ``stall_s``/``flushes``/``bytes_written``
accounting.

Crash atomicity (:class:`CheckpointFiles`): the rename is the commit
point.  A worker killed before the rename leaves a complete previous
checkpoint plus a stale ``.tmp`` file (ignored on resume); killed
after, the new checkpoint is complete.  There is no window in which
the checkpoint path holds a torn file.  The ``crash_after_writes`` /
``crash_before_replace`` knobs let tests die (``os._exit``) at
exactly those two points.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from pathlib import Path
from typing import Callable, Optional


class CheckpointFiles:
    """The local checkpoint sink: ``key`` maps to a file through
    ``path_for``, and each payload is written to a per-process temp
    file, then renamed into place.

    ``crash_after_writes=N``  — ``os._exit(3)`` right after the Nth
    rename commits (a worker dying between checkpoints).
    ``crash_before_replace=N`` — ``os._exit(3)`` after the Nth temp
    file is fully written but *before* its rename (a worker dying
    mid-checkpoint-write; resume must fall back to write N-1).
    """

    def __init__(self, path_for: Callable[[object], Path],
                 crash_after_writes: int = 0,
                 crash_before_replace: int = 0):
        self._path_for = path_for
        self._crash_after = crash_after_writes
        self._crash_before_replace = crash_before_replace
        self.writes = 0

    def __call__(self, key, payload: bytes) -> None:
        path = self._path_for(key)
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        tmp.write_bytes(payload)
        if 0 < self._crash_before_replace <= self.writes + 1:
            os._exit(3)       # die mid-write: temp exists, no rename
        os.replace(tmp, path)
        self.writes += 1
        if 0 < self._crash_after <= self.writes:
            os._exit(3)       # die between checkpoints


class AsyncCheckpointWriter:
    """Background writer with a one-deep hand-off queue.

    ``sink(key, payload)`` runs on the writer thread for every
    submitted checkpoint; ``key`` is opaque here and means whatever the
    sink makes of it (the fleet runners pass the device id).
    """

    def __init__(self, sink: Callable[[object, bytes], None]):
        self._queue: "queue.Queue[Optional[tuple]]" = \
            queue.Queue(maxsize=1)
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self._sink = sink
        #: completed flushes (sink calls that returned)
        self.flushes = 0
        #: seconds the simulating thread spent blocked on a full
        #: hand-off queue (the disk falling behind the simulation)
        self.stall_s = 0.0
        #: payload bytes flushed
        self.bytes_written = 0

    # -- simulating-thread side ------------------------------------------
    def submit(self, key, payload: bytes) -> None:
        """Queue one serialized checkpoint for flushing; blocks only
        while a previous flush is still in flight."""
        self._raise_pending()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="ckpt-writer", daemon=True)
            self._thread.start()
        start = time.perf_counter()
        self._queue.put((key, payload))
        self.stall_s += time.perf_counter() - start

    def drain(self) -> None:
        """Block until every queued checkpoint has been flushed."""
        self._queue.join()
        self._raise_pending()

    def close(self) -> None:
        """Drain and stop the writer thread."""
        if self._thread is not None:
            self._queue.join()
            self._queue.put(None)
            self._thread.join()
            self._thread = None
        self._raise_pending()

    def __enter__(self) -> "AsyncCheckpointWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _raise_pending(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    # -- writer-thread side ----------------------------------------------
    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            key, payload = item
            try:
                self._flush(key, payload)
            except BaseException as error:   # surfaced on next call
                self._error = error
            finally:
                self._queue.task_done()

    def _flush(self, key, payload: bytes) -> None:
        self._sink(key, payload)
        self.flushes += 1
        self.bytes_written += len(payload)
