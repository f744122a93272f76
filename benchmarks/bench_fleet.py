"""Fleet campaign throughput microbenchmark.

Tracks how much simulated fleet time one wall-clock second buys:
``devices * sim-hours / s`` for a small campaign (jittered
populations, rogues present, the default 10-minute checkpoint
cadence).  Its 0.01-hour (36 s) horizon is shorter than that cadence,
so no checkpoint is ever written, and process start-up weighs heavily
in the short run: it is a smoke-scale number, not a representative
campaign (``perfbench/`` is the representative benchmark).

Every recorded row is self-describing: the label carries the worker
count, the fleet size, the transport and the host CPU count, because
each changes what the number means (``jobs=4`` on a 1-core container
measures scheduling overhead, not parallelism).  Older rows in
``BENCH_fleet.json`` also carry a ``cache=`` state from when
translations could persist on disk between processes; that tier is
gone, so new rows no longer record one.

Run standalone (``PYTHONPATH=src python benchmarks/bench_fleet.py``)
to append a record to ``BENCH_fleet.json`` at the repo root, or via
pytest for a quick smoke.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_fleet.json"

#: enough devices for population variety (app subsets, rogues) while
#: keeping the standalone run under a minute on one core
DEVICES = 8
SIM_HOURS = 0.01            # 36 simulated seconds per device
MODEL = "mpu"


def _one_campaign(config, jobs: int,
                  transport: str = "local") -> float:
    """Wall seconds for one campaign into a throwaway directory."""
    from repro.fleet.executor import run_campaign

    out = Path(tempfile.mkdtemp(prefix="bench_fleet_"))
    try:
        if transport == "socket":
            return _one_socket_campaign(config, jobs, out)
        start = time.perf_counter()
        run_campaign(config, out, jobs=jobs)
        return time.perf_counter() - start
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _one_socket_campaign(config, jobs: int, out: Path) -> float:
    """Wall seconds for the same campaign dispatched over loopback
    TCP to ``jobs`` worker subprocesses — the measured time includes
    worker spawn and handshake, because a real socket campaign pays
    them too."""
    import subprocess
    import sys
    import threading

    from repro.fleet.executor import run_campaign
    from repro.fleet.net.coordinator import SocketTransport

    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    start = time.perf_counter()
    transport = SocketTransport(lease_timeout_s=60.0,
                                heartbeat_s=1.0, idle_retry_s=0.1)
    failure = []

    def _campaign():
        try:
            run_campaign(config, out, jobs=jobs, transport=transport)
        except BaseException as error:
            failure.append(error)

    thread = threading.Thread(target=_campaign, daemon=True)
    thread.start()
    addr_path = out / "coordinator.addr"
    while not addr_path.exists():
        if failure:
            raise failure[0]
        time.sleep(0.01)
    address = addr_path.read_text().strip()
    workers = [subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "fleet", "worker",
         "--connect", address, "--worker-id", f"bench-w{index}"],
        env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL) for index in range(jobs)]
    thread.join()
    for worker in workers:
        worker.wait(timeout=120)
    if failure:
        raise failure[0]
    return time.perf_counter() - start


def bench_campaign(devices: int = DEVICES, hours: float = SIM_HOURS,
                   jobs: int = 1, seed: int = 0,
                   transport: str = "local") -> float:
    """Device-sim-hours per wall second for one full campaign."""
    from repro.fleet.executor import FleetConfig

    config = FleetConfig(devices=devices, hours=hours,
                         models=(MODEL,), seed=seed,
                         rogue_fraction=0.25)
    return devices * hours / _one_campaign(config, jobs, transport)


def run_benchmarks(repeats: int = 3, jobs: int = 1,
                   devices: int = DEVICES,
                   transport: str = "local") -> dict:
    # Best-of-N: interference only ever lowers a rate, so the max over
    # repeats is the least-noisy estimate (same rule as BENCH_sim).
    # A different seed per repeat keeps the firmware build cache from
    # turning later repeats into pure-simulation measurements only.
    return {
        "device_sim_hours_per_sec": round(max(
            bench_campaign(devices=devices, jobs=jobs, seed=n,
                           transport=transport)
            for n in range(repeats)), 4),
        "devices": devices,
        "sim_hours_per_device": SIM_HOURS,
        "model": MODEL,
        "jobs": jobs,
        "transport": transport,
        "host_cpus": os.cpu_count(),
    }


def record(label: str, repeats: int = 3, jobs: int = 1,
           devices: int = DEVICES,
           transport: str = "local") -> dict:
    """Append one measurement record to BENCH_fleet.json.  The stored
    label is annotated with everything that disambiguates the row —
    two rows are only comparable when jobs, fleet size, transport,
    and host CPU count all match."""
    entry = {
        "label": f"{label} [jobs={jobs} devices={devices} "
                 f"transport={transport} cpus={os.cpu_count()}]",
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "repeats": repeats,
        "results": run_benchmarks(repeats, jobs, devices, transport),
    }
    history = []
    if BENCH_JSON.exists():
        history = json.loads(BENCH_JSON.read_text()).get("runs", [])
    history.append(entry)
    BENCH_JSON.write_text(json.dumps({"runs": history}, indent=2)
                          + "\n")
    return entry


def _parse_jobs(text: str) -> list:
    """``"1,2,4"`` -> ``[1, 2, 4]`` (a single value stays a 1-list)."""
    jobs = [int(part) for part in text.split(",") if part.strip()]
    if not jobs or any(j < 1 for j in jobs):
        raise argparse.ArgumentTypeError(
            f"--jobs wants positive integers, got {text!r}")
    return jobs


# -- pytest smoke (fast; asserts a campaign actually completes) --------
def test_fleet_throughput_smoke():
    rate = bench_campaign(devices=2, hours=0.001)
    assert rate > 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fleet campaign throughput microbenchmark")
    parser.add_argument("--label", default="run",
                        help="label stored with the record (jobs, "
                             "fleet size, transport and CPU count are "
                             "appended automatically)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="campaigns run; best is kept")
    parser.add_argument("--jobs", type=_parse_jobs, default=[1],
                        metavar="J[,J...]",
                        help="worker-process counts; a comma list "
                             "(e.g. 1,2,4) records one scaling row "
                             "per value")
    parser.add_argument("--devices", type=int, default=DEVICES,
                        metavar="N", help="fleet size")
    parser.add_argument(
        "--transport", default="local", choices=("local", "socket"),
        help="dispatch units to an in-process pool, or over loopback "
             "TCP to --jobs worker subprocesses (spawn and handshake "
             "included in the measured time)")
    parser.add_argument(
        "--check-floor", type=float, default=None, metavar="RATE",
        help="CI mode: run without recording, exit 1 unless "
             "device-sim-hours/s >= RATE (uses the first --jobs value)")
    args = parser.parse_args()
    if args.check_floor is not None:
        results = run_benchmarks(args.repeats, args.jobs[0],
                                 args.devices, args.transport)
        rate = results["device_sim_hours_per_sec"]
        ok = rate >= args.check_floor
        print(f"fleet throughput {rate} device-sim-hours/s "
              f"(floor {args.check_floor}): "
              + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    for jobs in args.jobs:
        entry = record(args.label, args.repeats, jobs,
                       args.devices, args.transport)
        print(json.dumps(entry, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
