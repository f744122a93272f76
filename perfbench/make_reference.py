"""Regenerate the benchmark's stored references under ``reference/``.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py costs     # app_costs.json
    python3 perfbench/make_reference.py outputs   # per-workload digests

``costs`` simulates the paper's nine-app wearable (plus the rogue app
and the compaction duty) for 0.1 simulated hours under each fleet
model and stores every app's mean simulated cycles per event, and the
median device's expected cycles per simulated hour over 1000 drawn
devices.  The fleet workloads use the table to pick populations of
equal work (see ``FleetWorkload.population_seed``).  Changing the
table changes the populations, so regenerate ``outputs`` after it.

``outputs`` runs, for each fleet workload and each shipped seed at
``BENCHMARK.json``'s ``run_seconds``, the campaign twice: with the
default execution cache and with ``cache_mode="step"``, the
one-instruction-at-a-time reference interpreter.  Both must write
byte-identical ``summary.json`` and ``devices-<model>.jsonl``; their
digests (and one per device record) are stored.  For ``paper_quick``
it renders the quick report, requires every ``shape_holds()``, and
stores the report text, per-section digests and ``table1_err_cycles``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads                                        # noqa: E402

WORK = HERE / ".work"

#: the default seed and one seed held out from tuning
SHIPPED_SEEDS = (0, 1)


def write_json(name: str, data: dict) -> None:
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def make_costs() -> None:
    from repro.fleet.device import simulate_device
    from repro.fleet.population import device_spec, \
        reference_device_spec
    from repro.fleet.telemetry import MODELS_BY_KEY
    hours = 0.1
    sim_ms = int(hours * 3_600_000)
    costs = {}
    for key in sorted({w.model for w in workloads.WORKLOADS.values()
                       if isinstance(w, workloads.FleetWorkload)}):
        run = simulate_device(reference_device_spec(rogue=True),
                              MODELS_BY_KEY[key], sim_ms=sim_ms,
                              checkpoint_every_ms=sim_ms)
        stats = run.scheduler.stats
        per_event = {app: stats.per_app_cycles[app] / events
                     for app, events in sorted(
                         stats.per_app_events.items()) if events}
        devices = [workloads.expected_cycles(
            device_spec(0, device_id, 0.25), per_event, sim_ms) / hours
            for device_id in range(1000)]
        costs[key] = {"cycles_per_event": per_event,
                      "device_cycles_per_hour":
                      statistics.median(devices)}
    write_json("app_costs", costs)


def campaign_files(workload, ctx, cache_mode: str) -> dict:
    from repro.fleet.executor import run_campaign
    out = Path(tempfile.mkdtemp(prefix=f"ref-{cache_mode}-",
                                dir=WORK))
    try:
        run_campaign(workload.config(ctx), out, jobs=1,
                     cache_mode=cache_mode)
        return {path.name: path.read_bytes()
                for path in (out / "summary.json",
                             out / f"devices-{workload.model}.jsonl")}
    finally:
        shutil.rmtree(out, ignore_errors=True)


def make_outputs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    for name, workload in workloads.WORKLOADS.items():
        if not isinstance(workload, workloads.FleetWorkload):
            continue
        entries = {}
        for seed in SHIPPED_SEEDS:
            ctx = workloads.Context(seed=seed, seconds=seconds,
                                    size="full", work=Path("."))
            fast = campaign_files(workload, ctx, "shared")
            step = campaign_files(workload, ctx, "step")
            if fast != step:
                raise SystemExit(f"{name} seed {seed}: the default "
                                 "execution cache and the step "
                                 "interpreter disagree")
            records = fast[f"devices-{workload.model}.jsonl"]
            entries[workload.reference_key(ctx)] = {
                "files": {file: workloads.sha256(data)
                          for file, data in fast.items()},
                "device_lines": [workloads.sha256(line.encode())
                                 for line in records.decode()
                                 .splitlines()],
            }
            print(f"{name} seed {seed}: {workload.reference_key(ctx)}")
        write_json(name, entries)

    paper = workloads.WORKLOADS["paper_quick"]
    ctx = workloads.Context(seed=0, seconds=seconds, size="full",
                            work=Path("."))
    ctx.seconds = 1                # one pass is the whole report
    outcome = paper.run(ctx)
    if outcome.error is not None:
        raise SystemExit(f"paper_quick failed: {outcome.error}")
    sections = outcome.sections[0]
    broken = [name for name, (_text, holds) in sections.items()
              if not holds]
    if broken:
        raise SystemExit(f"paper_quick: shape does not hold for {broken}")
    (workloads.REFERENCE_DIR / "paper_quick.txt").write_text(
        outcome.report_text + "\n")
    write_json("paper_quick", {
        "report": workloads.sha256(outcome.report_text.encode()),
        "sections": {name: workloads.sha256(text.encode())
                     for name, (text, _holds) in sections.items()},
        "table1_err_cycles":
        workloads.table1_error_cycles(outcome.table1),
    })


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in ("costs", "outputs"):
        print(__doc__)
        return 2
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="ref-cache-", dir=WORK)
    os.environ["REPRO_CACHE_DIR"] = cache
    try:
        make_costs() if sys.argv[1] == "costs" else make_outputs()
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
