"""Deterministic per-device population derivation.

Every device in a fleet is a pure function of ``(fleet_seed,
device_id)``: the same pair always yields the same app subset, the
same per-source arrival jitter, the same battery capacity, and the
same sensor-environment seed — on any platform, in any process.  That
property is what makes the sharded executor's checkpoints portable
(a resuming worker rebuilds the device from its spec and loads state)
and the fleet aggregate independent of how devices were partitioned.

Derivation uses a SHA-256 counter stream rather than Python's
``random`` module: the stdlib generator's stream is stable in
practice, but hashing makes the independence of the per-device,
per-field draws explicit and keeps every draw in integer space.

Variation axes:

* **App subset** — 2..5 of the nine catalog apps (the paper's wearable
  carries a personal selection, not always all nine).
* **Rogue app** — with probability ``rogue_fraction``, the device also
  sideloads the wild-pointer rogue app from the wearable-week example.
  Under Feature-Limited the rogue needs pointers and is rejected at
  build time instead (see :func:`repro.fleet.device.build_device_apps`).
* **Arrival jitter** — each event source gets a per-device period
  scale in [0.90x, 1.30x] (manifests quote rate *ranges*: accelerometer
  apps sample "at 10-32 Hz") and a random phase within one period, so
  devices never tick in lockstep.
* **History compaction** — every device periodically compacts its
  sensor history with the paper's section-4.2 quicksort workload ("a
  high number of memory accesses and no context switches"), on a
  jittered ~45 s cadence.  This is the access-heavy half of the
  workload mix: the wearable handlers are call-dense (where context
  switches dominate), compaction is access-dense (where the per-access
  check cost dominates) — the two regimes whose trade-off Table 1
  measures.
* **Battery capacity** — 90..130 mAh around the platform's 110 mAh.
* **Sensor seed** — an independent LCG seed per device.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.apps.manifests import MANIFESTS
from repro.kernel.events import EventType, PeriodicSource

#: catalog order is the derivation order — append-only by contract
SUITE_NAMES: Tuple[str, ...] = tuple(sorted(MANIFESTS))

#: the wearable-week example's misbehaving third-party app: after a
#: few calls it dereferences a pointer into the OS region
ROGUE_SOURCE = """
int calls = 0;
int on_sample(int x) {
    calls++;
    if (calls > 5) {
        int *p = (int *)0x4400;   /* wanders into the OS after a bit */
        return *p;
    }
    return calls;
}
"""

ROGUE_APP = "rogue"
ROGUE_HANDLER = "on_sample"
ROGUE_PERIOD_MS = 500

#: the periodic sensor-history compaction duty (section-4.2 quicksort)
ANALYTICS_APP = "quicksort"
ANALYTICS_HANDLER = "quicksort_run"
ANALYTICS_PERIOD_MS = 45_000


class HashStream:
    """Deterministic integer draws from a SHA-256 counter stream."""

    def __init__(self, fleet_seed: int, device_id: int):
        self._key = f"amulet-fleet:{fleet_seed}:{device_id}".encode()
        self._counter = 0

    def draw(self, n: int) -> int:
        """Uniform-enough integer in ``[0, n)`` (64 bits of hash per
        draw, so modulo bias is negligible for fleet-sized ranges)."""
        if n <= 0:
            raise ValueError("draw() needs a positive range")
        digest = hashlib.sha256(
            self._key + b":" + str(self._counter).encode()).digest()
        self._counter += 1
        return int.from_bytes(digest[:8], "big") % n


@dataclass(frozen=True)
class SourceSpec:
    """One jittered periodic event source, JSON/pickle-plain."""

    app: str
    handler: str
    event_type: str        # EventType value
    period_ms: int
    phase_ms: int
    args: Tuple[int, ...] = ()

    def to_source(self) -> PeriodicSource:
        return PeriodicSource(app=self.app, handler=self.handler,
                              event_type=EventType(self.event_type),
                              period_ms=self.period_ms,
                              phase_ms=self.phase_ms,
                              args=self.args)


@dataclass(frozen=True)
class DeviceSpec:
    """Everything needed to rebuild one fleet device from scratch."""

    device_id: int
    fleet_seed: int
    apps: Tuple[str, ...]
    rogue: bool
    env_seed: int
    battery_mah: int
    sources: Tuple[SourceSpec, ...]
    restart_cooldown_ms: int = 2000


def _jittered(stream: HashStream, app: str, handler: str,
              event_type: str, period_ms: int,
              args: Tuple[int, ...] = ()) -> SourceSpec:
    scale = 90 + stream.draw(41)              # 0.90x .. 1.30x
    period = max(1, period_ms * scale // 100)
    phase = stream.draw(period)
    return SourceSpec(app=app, handler=handler, event_type=event_type,
                      period_ms=period, phase_ms=phase, args=args)


def device_spec(fleet_seed: int, device_id: int,
                rogue_fraction: float = 0.125,
                homogeneous: bool = False) -> DeviceSpec:
    """Derive device ``device_id`` of fleet ``fleet_seed``.

    With ``homogeneous`` every device is a clone of device 0 — same
    app subset, rogue draw, environment seed, battery, and jitter
    phases, differing only in ``device_id`` — a fleet shipping one
    firmware build to everyone.  It is campaign identity, not an
    execution detail: a homogeneous fleet produces different results,
    so the flag is hashed into the campaign key and recorded in
    ``summary.json``.
    """
    if homogeneous and device_id != 0:
        return replace(device_spec(fleet_seed, 0, rogue_fraction),
                       device_id=device_id)
    stream = HashStream(fleet_seed, device_id)

    size = 2 + stream.draw(4)                 # 2..5 apps
    pool = list(SUITE_NAMES)
    chosen = []
    for _ in range(size):
        chosen.append(pool.pop(stream.draw(len(pool))))
    apps = tuple(sorted(chosen))

    rogue = stream.draw(1_000_000) < int(round(rogue_fraction
                                               * 1_000_000))
    env_seed = 1 + stream.draw(0x7FFFFFFE)
    battery_mah = 90 + stream.draw(41)        # 90..130 mAh

    sources: List[SourceSpec] = []
    for app in apps:
        for rate in MANIFESTS[app].rates:
            sources.append(_jittered(stream, app, rate.handler,
                                     rate.event_type.value,
                                     rate.period_ms))
    sources.append(_jittered(stream, ANALYTICS_APP, ANALYTICS_HANDLER,
                             EventType.TIMER.value,
                             ANALYTICS_PERIOD_MS,
                             args=(stream.draw(10_000),)))
    if rogue:
        sources.append(_jittered(stream, ROGUE_APP, ROGUE_HANDLER,
                                 EventType.TIMER.value,
                                 ROGUE_PERIOD_MS))

    return DeviceSpec(device_id=device_id, fleet_seed=fleet_seed,
                      apps=apps, rogue=rogue, env_seed=env_seed,
                      battery_mah=battery_mah, sources=tuple(sources))


def generate_population(fleet_seed: int, devices: int,
                        rogue_fraction: float = 0.125,
                        homogeneous: bool = False
                        ) -> List[DeviceSpec]:
    return [device_spec(fleet_seed, device_id, rogue_fraction,
                        homogeneous)
            for device_id in range(devices)]


def reference_device_spec(rogue: bool = True,
                          env_seed: int = 0xC0FFEE) -> DeviceSpec:
    """The paper's wearable as a fleet device: all nine apps at their
    manifest rates, no jitter, stock 110 mAh battery — plus (by
    default) the sideloaded rogue.  Used by the wearable-week example
    so the demo and the fleet layer share one code path."""
    sources: List[SourceSpec] = []
    for app in SUITE_NAMES:
        for index, rate in enumerate(MANIFESTS[app].rates):
            sources.append(SourceSpec(
                app=app, handler=rate.handler,
                event_type=rate.event_type.value,
                period_ms=rate.period_ms, phase_ms=index + 1))
    sources.append(SourceSpec(
        app=ANALYTICS_APP, handler=ANALYTICS_HANDLER,
        event_type=EventType.TIMER.value,
        period_ms=ANALYTICS_PERIOD_MS, phase_ms=0, args=(7,)))
    if rogue:
        sources.append(SourceSpec(
            app=ROGUE_APP, handler=ROGUE_HANDLER,
            event_type=EventType.TIMER.value,
            period_ms=ROGUE_PERIOD_MS, phase_ms=0))
    return DeviceSpec(device_id=0, fleet_seed=-1,
                      apps=SUITE_NAMES, rogue=rogue,
                      env_seed=env_seed, battery_mah=110,
                      sources=tuple(sources))
