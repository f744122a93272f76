"""Per-layer counters and spans, recorded from outside the program.

Nothing here changes the simulator: every hook is a wrapper installed
around a layer's public entry point (a class method or a module-level
function) after the program is imported.  Two recorders exist:

* :class:`Totals` — the only hook in a measured (untraced) run.  It
  wraps ``AmuletMachine.dispatch`` to add up the simulated
  instructions and cycles the end-to-end rates need.  A dispatch runs
  hundreds to thousands of simulated instructions, so the counting is
  far below 1 % of a run.  It also runs the host-speed probe of
  ``hostspeed.py`` every ``PROBE_EVERY_S``; the probes take about 1 %
  and their time is subtracted.
* :class:`Tracer` — the traced run.  Entry points that run at most a
  few hundred thousand times per run get a timed span (name, start,
  end, parent span, run id).  Bus accesses, permission invalidations,
  MPU reconfigurations and ``Cpu.step`` run millions of times, so they
  only get a counter.

Spans stay in memory until :meth:`Tracer.dump` writes them out, one
file per process.  :func:`layer_metrics` folds the dumps of every
process of a run (the benchmark, plus fleet workers) into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List

import hostspeed

#: timed spans: (module, attribute path, span name)
SPAN_TARGETS = (
    ("repro.kernel.machine", "AmuletMachine.dispatch", "kernel.dispatch"),
    ("repro.msp430.cpu", "Cpu.run", "cpu.run"),
    ("repro.kernel.scheduler", "Scheduler.step", "sched.step"),
    ("repro.aft.cache", "build_firmware", "aft.build_firmware"),
    ("repro.aft.phases", "AftPipeline.build", "aft.pipeline_build"),
    ("repro.fleet.device", "make_device", "fleet.make_device"),
    ("repro.fleet.snapshot", "snapshot_device", "fleet.snapshot"),
    ("repro.fleet.snapshot", "checkpoint_bytes", "fleet.checkpoint_bytes"),
    ("repro.fleet.ckptio", "AsyncCheckpointWriter.submit",
     "fleet.ckpt_submit"),
    ("repro.fleet.telemetry", "SummaryFold.add", "fleet.fold"),
    ("repro.fleet.net.protocol", "Channel.send", "net.send"),
    ("repro.fleet.net.protocol", "Channel.recv", "net.recv"),
    ("repro.experiments.table1", "run_table1", "exp.table1"),
    ("repro.experiments.figure2", "run_figure2", "exp.figure2"),
    ("repro.experiments.figure3", "run_figure3", "exp.figure3"),
    ("repro.experiments.code_size", "run_code_size", "exp.code_size"),
    # not a layer: a span of its own keeps the probe's time out of the
    # self time of the span it runs in (``sched.step``)
    ("hostspeed", "probe", "host.probe"),
)

#: count-only hooks on the hot path: (module, attribute path, counter)
COUNT_TARGETS = (
    ("repro.msp430.memory", "Memory.read_byte", "bus.reads"),
    ("repro.msp430.memory", "Memory.read_word", "bus.reads"),
    ("repro.msp430.memory", "Memory.write_byte", "bus.writes"),
    ("repro.msp430.memory", "Memory.write_word", "bus.writes"),
    ("repro.msp430.memory", "Memory.invalidate_permissions",
     "mpu.invalidations"),
    ("repro.msp430.mpu", "Mpu.configure", "mpu.configures"),
    ("repro.msp430.cpu", "Cpu.step", "cpu.steps"),
)

#: every per-layer metric :func:`layer_metrics` reports (plus the
#: tracing overhead), with its unit and which direction is better
PER_LAYER = (
    ("cpu.insns", "count", "higher"),
    ("cpu.step_per_kinsn", "1/kinsn", "lower"),
    ("cpu.run_self_s", "s", "lower"),
    ("bus.reads_per_kinsn", "1/kinsn", "lower"),
    ("bus.writes_per_kinsn", "1/kinsn", "lower"),
    ("mpu.invalidations_per_kinsn", "1/kinsn", "lower"),
    ("mpu.configures", "count", "lower"),
    ("xcache.block_pulls", "count", "higher"),
    ("xcache.publishes", "count", "lower"),
    ("xcache.rejects", "count", "lower"),
    ("xcache.pull_hit_frac", "fraction", "higher"),
    ("xcache.disk_loaded", "count", "higher"),
    ("xcache.disk_published", "count", "lower"),
    ("kernel.dispatches", "count", "higher"),
    ("kernel.insns_per_dispatch", "insn", "lower"),
    ("kernel.cycles_per_dispatch", "cycles", "lower"),
    ("kernel.dispatch_p50_us", "us", "lower"),
    ("kernel.dispatch_p99_us", "us", "lower"),
    ("kernel.dispatch_self_s", "s", "lower"),
    ("sched.self_s", "s", "lower"),
    ("aft.builds", "count", "lower"),
    ("aft.cache_hits", "count", "higher"),
    ("aft.build_s", "s", "lower"),
    ("fleet.make_device_s", "s", "lower"),
    ("fleet.snapshots", "count", "lower"),
    ("fleet.snapshot_s", "s", "lower"),
    ("fleet.ckpt_bytes", "bytes", "lower"),
    ("fleet.ckpt_submit_s", "s", "lower"),
    ("fleet.fold_s", "s", "lower"),
    ("net.leases", "count", "lower"),
    ("net.frames_sent", "count", "lower"),
    ("net.frames_recv", "count", "lower"),
    ("net.bytes_sent", "bytes", "lower"),
    ("net.bytes_recv", "bytes", "lower"),
    ("net.send_s", "s", "lower"),
    ("net.recv_wait_s", "s", "lower"),
    ("exp.table1_s", "s", "lower"),
    ("exp.figure2_s", "s", "lower"),
    ("exp.figure3_s", "s", "lower"),
    ("exp.code_size_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)

#: wire frames that exist to keep a link alive or to poll an empty
#: queue; how many flow depends on wall time, so they are left out of
#: the frame counts (their bytes still count)
POLL_FRAMES = frozenset({"ping", "pong", "idle", "lease_req"})


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)`` or ``None`` when the target no
    longer exists — a layer deleted from the program simply reports
    zero instead of breaking the benchmark."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attribute) if isinstance(owner, type) \
        else getattr(owner, attribute, None)
    if original is None:
        return None
    return owner, attribute, original


class _Patches:
    """Installed wrappers, so they can be taken out again."""

    def __init__(self):
        self._undo: List[tuple] = []

    def wrap(self, module_name: str, path: str,
             make: Callable[[Callable], Callable]) -> bool:
        target = _resolve(module_name, path)
        if target is None:
            return False
        owner, attribute, original = target
        wrapper = make(original)
        self._set(owner, attribute, wrapper)
        if not isinstance(owner, type):
            # a module-level function is also bound by name in every
            # module that imported it: rebind those copies too
            for module in list(sys.modules.values()):
                if (module is not owner and module is not None
                        and getattr(module, "__name__", "")
                        .startswith("repro")
                        and module.__dict__.get(attribute) is original):
                    self._set(module, attribute, wrapper)
        return True

    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


class Totals:
    """Simulated instructions, cycles and dispatches, counted at the
    kernel's dispatch boundary, plus host-speed probes: at the first
    dispatch after every ``PROBE_EVERY_S`` of wall time the hook runs
    :func:`hostspeed.probe`, so the timed phase's wall time can be
    converted into host-normalized seconds."""

    def __init__(self):
        self.insns = 0
        self.cycles = 0
        self.dispatches = 0
        self.probes: List[float] = []
        self._next_probe = 0.0
        self._patches = _Patches()

    def install(self) -> "Totals":
        def make(dispatch):
            def counted(machine, *args, **kwargs):
                result = dispatch(machine, *args, **kwargs)
                self.insns += result.instructions
                self.cycles += result.cycles
                self.dispatches += 1
                if time.perf_counter() >= self._next_probe:
                    self.probes.append(hostspeed.probe())
                    self._next_probe = time.perf_counter() \
                        + hostspeed.PROBE_EVERY_S
                return result
            return counted
        self._patches.wrap("repro.kernel.machine",
                           "AmuletMachine.dispatch", make)
        return self

    def remove(self) -> None:
        self._patches.remove()

    def as_dict(self) -> dict:
        return {"insns": self.insns, "cycles": self.cycles,
                "dispatches": self.dispatches, "probes": self.probes}


class Tracer:
    """Spans at layer boundaries plus counters on the hot path.

    ``enabled`` gates recording, so the benchmark can stop tracing
    before its own output checks run.  Span ids come from one counter
    per process; each thread keeps its own stack of open spans, so a
    span's parent is the innermost open span of the same thread.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = True
        self.spans: List[tuple] = []          # (id, parent, name, t0, t1)
        self.counts: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stores: Dict[int, object] = {}
        self._patches = _Patches()

    # -- installation -------------------------------------------------------
    def install(self) -> "Tracer":
        for module_name, path, name in SPAN_TARGETS:
            self._patches.wrap(module_name, path,
                               lambda fn, n=name: self._span(fn, n))
        for module_name, path, counter in COUNT_TARGETS:
            self.counts.setdefault(counter, 0)
            self._patches.wrap(module_name, path,
                               lambda fn, c=counter: self._counter(fn, c))
        self._patches.wrap("repro.msp430.execcache",
                           "shared_execution_cache", self._store_hook)
        return self

    def remove(self) -> None:
        self._patches.remove()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, fn: Callable, name: str) -> Callable:
        observe = _OBSERVERS.get(name)
        before = _BEFORE.get(name)

        def spanned(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            pre = before(args) if before is not None else None
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(self, args, result, pre)
            return result
        return spanned

    def _counter(self, fn: Callable, counter: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            if self.enabled:
                counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _store_hook(self, fn: Callable) -> Callable:
        def hooked(*args, **kwargs):
            store = fn(*args, **kwargs)
            if self.enabled:
                self._stores[id(store)] = store
            return store
        return hooked

    # -- output ---------------------------------------------------------------
    def xcache_stats(self) -> Dict[str, int]:
        totals = {"block_pulls": 0, "publishes": 0, "rejects": 0,
                  "disk_loaded": 0, "disk_published": 0}
        for store in self._stores.values():
            stats = store.stats()
            for key in ("block_pulls", "publishes", "rejects"):
                totals[key] += int(stats.get(key, 0))
            disk = stats.get("disk") or {}
            totals["disk_loaded"] += int(disk.get("loaded", 0))
            totals["disk_published"] += int(disk.get("published", 0))
        return totals

    def dump(self, path: Path, process: str) -> None:
        """Write every span and counter of this process as gzipped
        JSON."""
        payload = {"run_id": self.run_id, "process": process,
                   "counts": self.counts,
                   "xcache": self.xcache_stats(),
                   "spans": self.spans}
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle, separators=(",", ":"))


# -- result observers: counts read off a span's arguments or result -------

def _add(tracer: Tracer, key: str, value: int) -> None:
    tracer.counts[key] = tracer.counts.get(key, 0) + value


def _observe_dispatch(tracer: Tracer, _args, result, _pre) -> None:
    _add(tracer, "kernel.insns", result.instructions)
    _add(tracer, "kernel.cycles", result.cycles)


def _observe_checkpoint(tracer: Tracer, _args, result, _pre) -> None:
    _add(tracer, "fleet.ckpt_bytes", len(result))


def _count_frames(tracer: Tracer, key: str, message: dict) -> None:
    frames = message.get("frames") if message.get("type") == "batch" \
        else [message]
    for frame in frames or ():
        kind = frame.get("type")
        if kind in POLL_FRAMES:
            continue
        _add(tracer, key, 1)
        if kind == "lease" and key == "net.frames_sent":
            _add(tracer, "net.leases", 1)


def _moved(now: int, before: int) -> int:
    # the coordinator folds and zeroes a channel's byte counters from
    # another thread now and then; after a reset, count what is there
    return now - before if now >= before else now


def _observe_send(tracer: Tracer, args, _result, pre) -> None:
    _count_frames(tracer, "net.frames_sent", args[1])
    _add(tracer, "net.bytes_sent", _moved(args[0].bytes_out, pre))


def _observe_recv(tracer: Tracer, args, result, pre) -> None:
    _count_frames(tracer, "net.frames_recv", result[0])
    _add(tracer, "net.bytes_recv", _moved(args[0].bytes_in, pre))


_OBSERVERS = {
    "kernel.dispatch": _observe_dispatch,
    "fleet.checkpoint_bytes": _observe_checkpoint,
    "net.send": _observe_send,
    "net.recv": _observe_recv,
}

#: values read just before a span starts, handed to its observer
_BEFORE = {
    "net.send": lambda args: args[0].bytes_out,
    "net.recv": lambda args: args[0].bytes_in,
}


# -- folding dumps into per-layer metrics -----------------------------------

def _self_times(spans: List[list]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus the part its
    direct children cover."""
    duration = {span[0]: span[4] - span[3] for span in spans}
    child_time: Dict[int, float] = {}
    for span_id, parent, _name, start, end in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) \
                + (end - start)
    totals: Dict[str, float] = {}
    for span_id, _parent, name, _start, _end in spans:
        own = duration[span_id] - child_time.get(span_id, 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def _nearest_rank(ordered: List[float], q: int) -> float:
    if not ordered:
        return 0.0
    n = len(ordered)
    return ordered[min(n - 1, max(0, (q * n + 99) // 100 - 1))]


def load_dumps(paths) -> List[dict]:
    dumps = []
    for path in paths:
        with gzip.open(path, "rt") as handle:
            dumps.append(json.load(handle))
    return dumps


def layer_metrics(dumps: List[dict]) -> Dict[str, float]:
    """The per-layer metrics of one run, summed over its processes."""
    counts: Dict[str, int] = {}
    xcache: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    number: Dict[str, int] = {}
    dispatch_us: List[float] = []
    # a pipeline build under build_firmware is a cache miss
    build_misses = 0
    for dump in dumps:
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in dump["xcache"].items():
            xcache[key] = xcache.get(key, 0) + value
        spans = dump["spans"]
        for name, value in _self_times(spans).items():
            self_s[name] = self_s.get(name, 0.0) + value
        names = {span[0]: span[2] for span in spans}
        for span_id, parent, name, start, end in spans:
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            number[name] = number.get(name, 0) + 1
            if name == "kernel.dispatch":
                dispatch_us.append((end - start) * 1e6)
            if name == "aft.pipeline_build" and \
                    names.get(parent) == "aft.build_firmware":
                build_misses += 1
    dispatch_us.sort()
    insns = counts.get("kernel.insns", 0)
    dispatches = number.get("kernel.dispatch", 0)
    kinsn = insns / 1000.0 if insns else 0.0

    def per_kinsn(key: str) -> float:
        return counts.get(key, 0) / kinsn if kinsn else 0.0

    pulls = xcache.get("block_pulls", 0)
    publishes = xcache.get("publishes", 0)
    return {
        "cpu.insns": insns,
        "cpu.step_per_kinsn": per_kinsn("cpu.steps"),
        "cpu.run_self_s": self_s.get("cpu.run", 0.0),
        "bus.reads_per_kinsn": per_kinsn("bus.reads"),
        "bus.writes_per_kinsn": per_kinsn("bus.writes"),
        "mpu.invalidations_per_kinsn": per_kinsn("mpu.invalidations"),
        "mpu.configures": counts.get("mpu.configures", 0),
        "xcache.block_pulls": pulls,
        "xcache.publishes": publishes,
        "xcache.rejects": xcache.get("rejects", 0),
        "xcache.pull_hit_frac": pulls / (pulls + publishes)
        if pulls + publishes else 0.0,
        "xcache.disk_loaded": xcache.get("disk_loaded", 0),
        "xcache.disk_published": xcache.get("disk_published", 0),
        "kernel.dispatches": dispatches,
        "kernel.insns_per_dispatch": insns / dispatches
        if dispatches else 0.0,
        "kernel.cycles_per_dispatch": counts.get("kernel.cycles", 0)
        / dispatches if dispatches else 0.0,
        "kernel.dispatch_p50_us": _nearest_rank(dispatch_us, 50),
        "kernel.dispatch_p99_us": _nearest_rank(dispatch_us, 99),
        "kernel.dispatch_self_s": self_s.get("kernel.dispatch", 0.0),
        "sched.self_s": self_s.get("sched.step", 0.0),
        "aft.builds": number.get("aft.pipeline_build", 0),
        "aft.cache_hits": number.get("aft.build_firmware", 0)
        - build_misses,
        "aft.build_s": total_s.get("aft.pipeline_build", 0.0),
        "fleet.make_device_s": total_s.get("fleet.make_device", 0.0),
        "fleet.snapshots": number.get("fleet.snapshot", 0),
        "fleet.snapshot_s": total_s.get("fleet.snapshot", 0.0),
        "fleet.ckpt_bytes": counts.get("fleet.ckpt_bytes", 0),
        "fleet.ckpt_submit_s": total_s.get("fleet.ckpt_submit", 0.0),
        "fleet.fold_s": total_s.get("fleet.fold", 0.0),
        "net.leases": counts.get("net.leases", 0),
        "net.frames_sent": counts.get("net.frames_sent", 0),
        "net.frames_recv": counts.get("net.frames_recv", 0),
        "net.bytes_sent": counts.get("net.bytes_sent", 0),
        "net.bytes_recv": counts.get("net.bytes_recv", 0),
        "net.send_s": total_s.get("net.send", 0.0),
        "net.recv_wait_s": total_s.get("net.recv", 0.0),
        "exp.table1_s": total_s.get("exp.table1", 0.0),
        "exp.figure2_s": total_s.get("exp.figure2", 0.0),
        "exp.figure3_s": total_s.get("exp.figure3", 0.0),
        "exp.code_size_s": total_s.get("exp.code_size", 0.0),
    }
