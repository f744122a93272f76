"""The benchmark's three workloads.

Each workload is a closed loop over a fixed batch of work: one caller
(the benchmark process) starts the next piece only when the previous
one has finished.  The batch is sized from ``--seconds`` by a nominal
rate measured on a 2-CPU container, so the work done in a run depends
only on ``(workload, seed, seconds, size)``, never on how fast the
host happens to be.  Counts therefore repeat exactly and outputs can
be compared with stored references.

Why each workload exists is written down in ``NOTES.md``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: the MSP430FR5969 clock the repo's energy model assumes
CPU_HZ = 16_000_000

#: models that isolate apps: a rogue app must stay contained under them
ISOLATING = ("feature-limited", "software-only", "mpu")

#: a fleet population is accepted when its expected simulated cycles
#: are within this share of the workload's target
WORK_TOLERANCE = 0.01


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Context:
    """Everything one run of one workload shares between its phases."""

    seed: int
    seconds: int
    size: str                       # "full" or "tiny"
    work: Path                      # this run's scratch directory
    trace: bool = False
    fleet_seed: Optional[int] = None    # memo of population_seed()
    workers: List[subprocess.Popen] = field(default_factory=list)
    worker_reports: List[Path] = field(default_factory=list)
    #: host-speed probes taken between set-up steps
    setup_probes: List[float] = field(default_factory=list)

    @property
    def out(self) -> Path:
        return self.work / "out"

    def probe_host(self) -> None:
        self.setup_probes.append(hostspeed.probe())


@dataclass
class Outcome:
    """What the timed phase produced."""

    attempted: int
    sim_hours: float = 0.0          # device-sim-hours; 0 = use cycles
    error: Optional[str] = None
    #: paper_quick: per pass, section name -> (text, shape holds)
    sections: List[Dict[str, tuple]] = field(default_factory=list)
    report_text: str = ""
    table1: object = None


@dataclass
class Verdict:
    failed: int
    reference: bool                 # compared against a stored reference
    problems: List[str]
    digests: Dict[str, str]


def table1_error_cycles(table1) -> float:
    """Mean absolute difference, in simulated cycles, between the
    measured Table 1 overheads versus No Isolation (memory access and
    context switch, three isolating models) and the paper's hardware
    overheads."""
    from repro.aft.models import IsolationModel
    from repro.experiments.table1 import PAPER_TABLE1
    base_access, base_switch = PAPER_TABLE1[IsolationModel.NO_ISOLATION]
    errors = []
    for model, measured in table1.overheads().items():
        access, switch = PAPER_TABLE1[model]
        errors.append(abs(measured.memory_access
                          - (access - base_access)))
        errors.append(abs(measured.context_switch
                          - (switch - base_switch)))
    return sum(errors) / len(errors)


def expected_cycles(spec, cycles_per_event: Dict[str, float],
                    sim_ms: int) -> float:
    """Simulated cycles a device should spend in ``sim_ms``: each
    source's event count over the horizon times its app's mean cycles
    per event."""
    total = 0.0
    for source in spec.sources:
        if source.phase_ms < sim_ms:
            events = (sim_ms - 1 - source.phase_ms) // source.period_ms + 1
            total += events * cycles_per_event.get(source.app, 0.0)
    return total


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


class Workload:
    """Defaults shared by every workload."""

    name = ""

    def teardown(self, ctx: Context) -> None:
        pass

    def worker_totals(self, ctx: Context) -> List[dict]:
        """Reports of the worker processes this workload started."""
        return []

    def reference_table1_err(self, ctx: Context) -> Optional[float]:
        return None


# -- fleet workloads ----------------------------------------------------------

class FleetWorkload(Workload):
    """A heterogeneous fleet campaign driven through ``run_campaign``."""

    name = ""
    model = ""
    hours = 0.0
    checkpoint_minutes = 0.0
    #: devices per second of ``--seconds`` on the reference host
    devices_per_second = 0.0
    min_devices = 2
    tiny = {}                       # overrides for --size tiny
    rogue_fraction = 0.25

    def params(self, ctx: Context) -> dict:
        params = {"devices": max(self.min_devices,
                                 round(ctx.seconds
                                       * self.devices_per_second)),
                  "hours": self.hours,
                  "checkpoint_minutes": self.checkpoint_minutes}
        if ctx.size == "tiny":
            params.update(self.tiny)
        return params

    def config(self, ctx: Context):
        from repro.fleet.executor import FleetConfig
        return FleetConfig(models=(self.model,),
                           seed=self.population_seed(ctx),
                           rogue_fraction=self.rogue_fraction,
                           **self.params(ctx))

    def population_seed(self, ctx: Context) -> int:
        """The fleet seed this run simulates, drawn from ``--seed``.

        Devices differ up to 16-fold in simulated work (2 to 5 apps,
        each at its own event rate), so eight devices from one seed
        can carry twice the work of eight from another, and a rate
        per device-hour would measure the draw, not the simulator.
        Candidates ``seed * 100003 + k`` are therefore tried in order
        and the first whose expected simulated cycles — event counts
        from the device specs, priced by the stored per-app cost
        table — lie within :data:`WORK_TOLERANCE` of the workload's
        target is kept.  Every seed thus yields a different
        heterogeneous fleet carrying the same amount of work."""
        if ctx.fleet_seed is not None:
            return ctx.fleet_seed
        from repro.fleet.population import device_spec
        costs = load_reference("app_costs")[self.model]
        params = self.params(ctx)
        sim_ms = int(round(params["hours"] * 3_600_000))
        target = (params["devices"] * params["hours"]
                  * costs["device_cycles_per_hour"])
        for k in range(1_000_000):
            candidate = ctx.seed * 100_003 + k
            work = sum(expected_cycles(
                device_spec(candidate, device_id, self.rogue_fraction),
                costs["cycles_per_event"], sim_ms)
                for device_id in range(params["devices"]))
            if abs(work / target - 1.0) <= WORK_TOLERANCE:
                ctx.fleet_seed = candidate
                return candidate
        raise RuntimeError("no fleet seed carries the target work")

    def reference_key(self, ctx: Context) -> str:
        params = self.params(ctx)
        return (f"fleet_seed={self.population_seed(ctx)} "
                f"devices={params['devices']} hours={params['hours']} "
                f"ckpt_min={params['checkpoint_minutes']}")

    def setup(self, ctx: Context) -> None:
        """Cold-build every firmware image the population needs."""
        from repro.aft.cache import build_firmware
        from repro.fleet.device import build_device_apps
        from repro.fleet.population import device_spec
        from repro.fleet.telemetry import MODELS_BY_KEY
        config = self.config(ctx)
        model = MODELS_BY_KEY[self.model]
        for device_id in range(config.devices):
            spec = device_spec(config.seed, device_id,
                               config.rogue_fraction)
            apps, _rogue_built = build_device_apps(spec, model)
            build_firmware(model, apps)
            ctx.probe_host()

    def run(self, ctx: Context) -> Outcome:
        config = self.config(ctx)
        outcome = Outcome(attempted=config.devices,
                          sim_hours=config.devices * config.hours)
        try:
            self.campaign(ctx, config)
        except Exception as error:          # reported as failures
            outcome.error = f"{type(error).__name__}: {error}"
        return outcome

    def campaign(self, ctx: Context, config) -> None:
        raise NotImplementedError

    def check(self, ctx: Context, outcome: Outcome) -> Verdict:
        config = self.config(ctx)
        total = outcome.attempted
        problems: List[str] = []
        digests: Dict[str, str] = {}
        if outcome.error is not None:
            return Verdict(total, False, [outcome.error], digests)
        summary_path = ctx.out / "summary.json"
        records_path = ctx.out / f"devices-{self.model}.jsonl"
        if not summary_path.exists() or not records_path.exists():
            return Verdict(total, False, ["campaign wrote no output"],
                           digests)
        summary_bytes = summary_path.read_bytes()
        records_bytes = records_path.read_bytes()
        digests = {"summary.json": sha256(summary_bytes),
                   records_path.name: sha256(records_bytes)}
        lines = records_bytes.decode().splitlines()
        reference = load_reference(self.name).get(
            self.reference_key(ctx))
        if reference is not None:
            return self._against_reference(reference, lines, digests,
                                           total)
        failed = set()
        by_device = {}
        for line in lines:
            record = json.loads(line)
            by_device[record.get("device")] = record
        for device_id in range(config.devices):
            record = by_device.get(device_id)
            if record is None:
                failed.add(device_id)
                problems.append(f"device {device_id}: no record")
            elif record.get("sim_ms") != config.sim_ms:
                failed.add(device_id)
                problems.append(f"device {device_id}: simulated "
                                f"{record.get('sim_ms')} ms, "
                                f"not {config.sim_ms}")
        model = json.loads(summary_bytes)["models"].get(self.model, {})
        if model.get("devices") != config.devices:
            problems.append("summary counts "
                            f"{model.get('devices')} devices")
            failed = set(range(config.devices))
        if self.model in ISOLATING and not model.get("rogue_contained"):
            problems.append("a rogue app escaped its sandbox")
            failed = set(range(config.devices))
        return Verdict(len(failed), False, problems, digests)

    def _against_reference(self, reference: dict, lines: List[str],
                           digests: Dict[str, str],
                           total: int) -> Verdict:
        problems = []
        expected = reference["device_lines"]
        got = [sha256(line.encode()) for line in lines]
        failed = sum(1 for index, digest in enumerate(expected)
                     if index >= len(got) or got[index] != digest)
        if failed:
            problems.append(f"{failed} device record(s) differ from "
                            "the reference")
        if len(got) > len(expected):
            problems.append("more device records than the reference")
            failed = total
        for name, digest in reference["files"].items():
            if digests.get(name) != digest:
                problems.append(f"{name} differs from the reference")
                failed = total if name == "summary.json" else \
                    max(failed, 1)
        return Verdict(failed, True, problems, digests)


class FleetMpu(FleetWorkload):
    name = "fleet_mpu"
    model = "mpu"
    #: covers the 5-minute battery and ~45-s compaction duty periods
    hours = 0.1
    #: two interior checkpoint boundaries per device
    checkpoint_minutes = 2.0
    devices_per_second = 0.4
    tiny = {"devices": 2, "hours": 0.02, "checkpoint_minutes": 0.25}

    def campaign(self, ctx: Context, config) -> None:
        from repro.fleet.executor import run_campaign
        run_campaign(config, ctx.out, jobs=1)


class FleetSocket(FleetWorkload):
    name = "fleet_socket"
    model = "software-only"
    hours = 0.02
    checkpoint_minutes = 0.25
    devices_per_second = 3.2
    min_devices = 4
    tiny = {"devices": 4, "hours": 0.01, "checkpoint_minutes": 0.25}
    #: worker processes; the reference host has 2 CPUs
    workers = 2

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        for index in range(self.workers):
            report = ctx.work / f"worker{index}.json"
            ctx.worker_reports.append(report)
            ctx.workers.append(subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"),
                 "--worker-id", f"w{index}", "--report", str(report),
                 "--trace", "1" if ctx.trace else "0"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True))
        for worker in ctx.workers:
            line = worker.stdout.readline().strip()
            if line != "ready":
                raise RuntimeError(
                    f"fleet worker did not start (said {line!r})")

    def teardown(self, ctx: Context) -> None:
        for worker in ctx.workers:
            if worker.poll() is None:
                try:
                    worker.stdin.close()    # EOF: exit without work
                except OSError:
                    pass
        for worker in ctx.workers:
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
            worker.stdout.close()
        ctx.workers.clear()

    def campaign(self, ctx: Context, config) -> None:
        from repro.fleet.executor import run_campaign
        from repro.fleet.net.coordinator import SocketTransport
        # the same lease, heartbeat and idle-retry settings as
        # ``repro fleet run --listen 127.0.0.1:0`` with its defaults
        transport = SocketTransport()
        failure: List[BaseException] = []

        def coordinate() -> None:
            try:
                # jobs sizes the work units: one device per lease
                run_campaign(config, ctx.out,
                             jobs=max(1, config.devices // 4),
                             transport=transport)
            except Exception as error:      # re-raised below
                failure.append(error)

        thread = threading.Thread(target=coordinate, daemon=True)
        thread.start()
        address_path = ctx.out / "coordinator.addr"
        while not address_path.exists() and thread.is_alive():
            time.sleep(0.002)
        if address_path.exists():
            address = address_path.read_text().strip()
            for worker in ctx.workers:
                worker.stdin.write(address + "\n")
                worker.stdin.flush()
        while thread.is_alive():
            thread.join(timeout=0.5)
            if thread.is_alive() and all(
                    worker.poll() is not None for worker in ctx.workers):
                thread.join(timeout=5.0)
                if thread.is_alive():
                    # nobody is left to lease the remaining units; the
                    # coordinator thread is a daemon and dies with us
                    failure.append(RuntimeError(
                        "every fleet worker exited before the "
                        "campaign finished"))
                    break
        if failure:
            raise failure[0]

    def worker_totals(self, ctx: Context) -> List[dict]:
        return [json.loads(path.read_text())
                for path in ctx.worker_reports if path.exists()]

    def check(self, ctx: Context, outcome: Outcome) -> Verdict:
        verdict = super().check(ctx, outcome)
        reports = self.worker_totals(ctx)
        exits = [report["exit"] for report in reports]
        if len(reports) != self.workers or any(exits):
            verdict.problems.append(
                f"fleet workers ended badly (exit codes {exits}, "
                f"{self.workers - len(reports)} without a report)")
            verdict.failed = max(verdict.failed, 1)
        return verdict


# -- the paper report -------------------------------------------------------

class PaperQuick(Workload):
    """The paper report at the ``repro experiments --quick`` protocol:
    Table 1, Figure 2, Figure 3 and code size, all four models, run
    serially.  Its inputs are fixed by the paper protocol, so the seed
    does not change them."""

    name = "paper_quick"
    #: report passes per second of ``--seconds`` on the reference host
    passes_per_second = 1 / 7.5
    protocol = {"table1_runs": 30, "figure3_runs": 30, "arp_samples": 16}
    tiny_protocol = {"table1_runs": 2, "figure3_runs": 2,
                     "arp_samples": 2}
    sections = ("table1", "figure2", "figure3", "code_size")

    def passes(self, ctx: Context) -> int:
        if ctx.size == "tiny":
            return 1
        return max(1, round(ctx.seconds * self.passes_per_second))

    def setup(self, ctx: Context) -> None:
        """Cold-build the twelve cached firmware images the report
        uses (the ARP profiler's counting build is not cacheable and
        stays in the timed phase)."""
        from repro.aft.cache import build_firmware
        from repro.apps.catalog import load_benchmarks, load_suite
        from repro.experiments.code_size import SIZE_MODELS
        from repro.experiments.table1 import DEFAULT_MODELS
        for model in DEFAULT_MODELS:
            build_firmware(model, load_benchmarks(["synthetic"]))
            ctx.probe_host()
            build_firmware(model,
                           load_benchmarks(["activity", "quicksort"]))
            ctx.probe_host()
        for model in SIZE_MODELS:
            build_firmware(model, load_suite())
            ctx.probe_host()

    def reference_table1_err(self, ctx: Context) -> Optional[float]:
        if ctx.size != "full":
            return None
        return load_reference(self.name).get("table1_err_cycles")

    def run(self, ctx: Context) -> Outcome:
        from repro.experiments import run_code_size, run_figure2, \
            run_figure3, run_table1
        from repro.experiments.report import FullReport
        protocol = self.tiny_protocol if ctx.size == "tiny" \
            else self.protocol
        outcome = Outcome(attempted=len(self.sections)
                          * self.passes(ctx))
        for _ in range(self.passes(ctx)):
            results = {}
            try:
                results["table1"] = run_table1(
                    runs=protocol["table1_runs"])
                results["figure2"] = run_figure2(
                    table1=results["table1"],
                    arp_samples=protocol["arp_samples"])
                results["figure3"] = run_figure3(
                    runs=protocol["figure3_runs"])
                results["code_size"] = run_code_size()
            except Exception as error:      # reported as failures
                outcome.error = f"{type(error).__name__}: {error}"
            outcome.sections.append({
                name: (self.section_text(name, result),
                       result.shape_holds())
                for name, result in results.items()})
            if outcome.error is not None:
                break
            outcome.table1 = results["table1"]
            outcome.report_text = FullReport(
                results["table1"], results["figure2"],
                results["figure3"], results["code_size"]).render()
        return outcome

    @staticmethod
    def section_text(name: str, result) -> str:
        if name in ("figure2", "figure3"):
            return result.render() + "\n" + result.render_chart()
        return result.render()

    def check(self, ctx: Context, outcome: Outcome) -> Verdict:
        problems: List[str] = []
        reference = load_reference(self.name) if ctx.size == "full" \
            else {}
        failed = 0
        for index in range(self.passes(ctx)):
            sections = outcome.sections[index] \
                if index < len(outcome.sections) else {}
            for name in self.sections:
                if name not in sections:
                    failed += 1
                    problems.append(f"pass {index}: {name} missing")
                    continue
                text, holds = sections[name]
                if not holds:
                    failed += 1
                    problems.append(f"pass {index}: {name} shape "
                                    "does not hold")
                elif reference and sha256(text.encode()) \
                        != reference["sections"][name]:
                    failed += 1
                    problems.append(f"pass {index}: {name} differs "
                                    "from the reference")
        if outcome.error is not None:
            problems.append(outcome.error)
        digests = {"report": sha256(outcome.report_text.encode())}
        if reference and digests["report"] != reference["report"]:
            problems.append("rendered report differs from the reference")
            failed = max(failed, 1)
        return Verdict(failed, bool(reference), problems, digests)


WORKLOADS = {workload.name: workload
             for workload in (FleetMpu(), FleetSocket(), PaperQuick())}
