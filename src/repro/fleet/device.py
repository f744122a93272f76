"""Simulate one fleet device, checkpoint segment by segment.

The driver advances simulated time in fixed segments: seed the
periodic sources over ``[t, t+K)``, drain every event before the
boundary, snapshot, repeat.  Because windowed seeding and boundary-
bounded stepping deliver exactly the event sequence a single
full-horizon run would (see ``PeriodicSource.events_until`` and
``Scheduler.step``), a run resumed from any checkpoint is
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.aft.cache import build_firmware
from repro.aft.models import IsolationModel
from repro.aft.phases import AppSource
from repro.apps.catalog import load_app, load_suite
from repro.errors import ReproError
from repro.fleet.population import ANALYTICS_APP, DeviceSpec, \
    ROGUE_APP, ROGUE_HANDLER, ROGUE_SOURCE
from repro.fleet.snapshot import restore_device, snapshot_device
from repro.kernel.machine import AmuletMachine
from repro.kernel.scheduler import AppSchedule, RestartPolicy, Scheduler
from repro.kernel.services import SensorEnvironment

DEFAULT_CHECKPOINT_MS = 10 * 60 * 1000      # 10 simulated minutes

#: execution-cache strategies a fleet device can run under.  Both
#: produce byte-identical device state (the property tests pin this) —
#: the choice only affects wall-clock speed:
#:
#: ``shared``   translated blocks are published to the process-wide
#:              content-addressed store, so sibling devices running the
#:              same firmware skip translation entirely (default)
#: ``step``     no block translation at all — the one-instruction-at-a-
#:              time reference interpreter (differential-testing oracle)
CACHE_MODES = ("shared", "step")


def _step_only(cache_mode: str) -> bool:
    """Map a fleet-level cache mode onto AmuletMachine's ``step_only``."""
    if cache_mode not in CACHE_MODES:
        raise ReproError(
            f"unknown cache mode {cache_mode!r} "
            f"(choose from {', '.join(CACHE_MODES)})")
    return cache_mode == "step"


@dataclass
class DeviceRun:
    """A finished (or resumed-and-finished) device simulation."""

    spec: DeviceSpec
    machine: AmuletMachine
    scheduler: Scheduler
    sim_ms: int
    #: False when the spec asked for a rogue but the model rejected it
    #: at build time (Feature-Limited refuses pointer-using apps)
    rogue_built: bool


def build_device_apps(spec: DeviceSpec, model: IsolationModel
                      ) -> tuple:
    """``(apps, rogue_built)`` for this spec under this model.

    Every device carries its catalog subset plus the history-compaction
    workload (iterative quicksort, so it builds under every model).
    The rogue app dereferences raw pointers, which the Feature-Limited
    language subset forbids — AmuletC would reject it at build time, so
    the device ships without it (and the telemetry records the
    rejection instead of a runtime fault)."""
    apps: List[AppSource] = load_suite(spec.apps)
    apps.append(load_app(ANALYTICS_APP))
    rogue_built = (spec.rogue
                   and model is not IsolationModel.FEATURE_LIMITED)
    if rogue_built:
        apps.append(AppSource(ROGUE_APP, ROGUE_SOURCE,
                              handlers=[ROGUE_HANDLER]))
    return apps, rogue_built


def make_device(spec: DeviceSpec, model: IsolationModel,
                cache_mode: str = "shared") -> tuple:
    """Build ``(machine, scheduler, rogue_built)`` from a spec —
    deterministic, so any worker can reconstruct any device."""
    apps, rogue_built = build_device_apps(spec, model)
    firmware = build_firmware(model, apps)
    machine = AmuletMachine(firmware,
                            env=SensorEnvironment(spec.env_seed),
                            step_only=_step_only(cache_mode))
    scheduler = Scheduler(machine, policy=RestartPolicy.RESTART_AFTER,
                          restart_cooldown_ms=spec.restart_cooldown_ms)
    schedules: Dict[str, AppSchedule] = {}
    for source_spec in spec.sources:
        if source_spec.app == ROGUE_APP and not rogue_built:
            continue
        schedule = schedules.get(source_spec.app)
        if schedule is None:
            schedule = AppSchedule(source_spec.app)
            schedules[source_spec.app] = schedule
            scheduler.add_app(schedule)
        schedule.sources.append(source_spec.to_source())
    return machine, scheduler, rogue_built


def simulate_device(spec: DeviceSpec, model: IsolationModel,
                    sim_ms: int,
                    checkpoint_every_ms: int = DEFAULT_CHECKPOINT_MS,
                    on_checkpoint: Optional[Callable[[int, dict],
                                                     None]] = None,
                    resume: Optional[dict] = None,
                    cache_mode: str = "shared") -> DeviceRun:
    """Run (or resume) one device for ``sim_ms`` of simulated time.

    ``on_checkpoint(sim_ms, snapshot)`` fires at every interior segment
    boundary; ``resume`` takes a snapshot produced by such a callback
    (or by :func:`repro.fleet.snapshot.snapshot_device`).
    ``cache_mode`` (see :data:`CACHE_MODES`) trades wall-clock speed
    only — results are identical across modes."""
    machine, scheduler, rogue_built = make_device(
        spec, model, cache_mode=cache_mode)
    start_ms = 0
    if resume is not None:
        start_ms = restore_device(machine, scheduler, resume)

    t = start_ms
    while t < sim_ms:
        end = min(t + checkpoint_every_ms, sim_ms)
        scheduler.seed_events(end, t)
        while scheduler.step(before_ms=end) is not None:
            pass
        t = end
        if on_checkpoint is not None and t < sim_ms:
            on_checkpoint(t, snapshot_device(machine, scheduler, t))

    return DeviceRun(spec=spec, machine=machine, scheduler=scheduler,
                     sim_ms=sim_ms, rogue_built=rogue_built)
