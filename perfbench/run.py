"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_mpu --seed 0 \
        --seconds 15 --trace 0

``--workload`` is ``fleet_mpu``, ``fleet_socket``, ``paper_quick`` or
``all``.  With ``--trace 0`` the run measures the end-to-end metrics
with only a dispatch-count hook installed; with ``--trace 1`` it first
runs the same workload untraced in a child process (the overhead
baseline), then traced, and prints the per-layer metrics.  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A run record with host context is written to
``perfbench/results/``.  The exit code is 0 only when every operation
succeeded and every output matched.

Each run is a fresh process with a fresh, empty cache root
(``REPRO_CACHE_DIR``) under ``perfbench/.work/``, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import layers
from workloads import CPU_HZ, WORKLOADS, Context, table1_error_cycles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the end-to-end metrics: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("dev_sim_h_per_s", "dev-h/s", "higher"),
    ("sim_insns_per_s", "insn/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("table1_err_cycles", "cycles", "lower"),
)

#: set-up is repeated this many times in fresh processes; the median
#: is reported
SETUP_SAMPLES = 3


class BenchError(Exception):
    """The benchmark itself could not run (not a program failure)."""


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"            # a plain checkout, not a clone
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 \
        else "unknown"


def child_command(args, **overrides) -> list:
    options = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "size": args.size}
    options.update(overrides)
    command = [sys.executable, str(Path(__file__).resolve())]
    for key, value in options.items():
        if value is True:
            command.append(f"--{key.replace('_', '-')}")
        elif value is not None and value is not False:
            command += [f"--{key.replace('_', '-')}", str(value)]
    return command


def measure_setup(args) -> list:
    """Host-normalized seconds from spawning a fresh benchmark process
    until it is ready for its first timed operation, ``SETUP_SAMPLES``
    times."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(
            child_command(args, trace=0, setup_only=True),
            stdout=subprocess.PIPE, text=True)
        try:
            words = child.stdout.readline().split()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=170)
        finally:
            child.stdout.close()
            if child.poll() is None:
                child.kill()
                child.wait()
        if words[:1] != ["ready"] or code != 0:
            raise BenchError(f"set-up probe failed (exit {code})")
        # the child probed the host between its set-up steps
        probes = [float(word) for word in words[1:]]
        samples.append(hostspeed.normalized_seconds(
            elapsed - sum(probes), probes))
    return samples


def untraced_baseline(args, work: Path) -> dict:
    """Run the same workload untraced in a child process; its timed
    phase is the base of the tracing overhead."""
    record_path = work / "baseline.json"
    result = subprocess.run(
        child_command(args, trace=0, baseline=True,
                      record=str(record_path)),
        stdout=subprocess.DEVNULL, timeout=170)
    if result.returncode != 0 or not record_path.exists():
        raise BenchError("untraced baseline run failed")
    return json.loads(record_path.read_text())


def probe_stats(probes: list) -> dict:
    """Host probes in milliseconds: the context beside every rate."""
    return {"n": len(probes),
            "mean": 1000 * sum(probes) / max(1, len(probes)),
            "min": 1000 * min(probes, default=0.0),
            "max": 1000 * max(probes, default=0.0)}


def run_one(args) -> dict:
    workload = WORKLOADS[args.workload]
    run_id = (f"{args.workload}-s{args.seed}-{time.strftime('%Y%m%d-%H%M%S')}"
              f"-{os.getpid()}")
    work = HERE / ".work" / run_id
    (work / "cache").mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    ctx = Context(seed=args.seed, seconds=args.seconds, size=args.size,
                  work=work, trace=bool(args.trace))
    record = {"run_id": run_id, "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds,
              "size": args.size, "trace": args.trace}
    tracer = None
    try:
        if args.setup_only:
            ctx.probe_host()
            workload.setup(ctx)
            ctx.probe_host()
            print("ready " + " ".join(map(str, ctx.setup_probes)),
                  flush=True)
            return {}
        baseline = untraced_baseline(args, work) if args.trace else None
        # the tracer goes in first, so the totals hook (and its probe)
        # wraps it and stays outside the dispatch spans
        if args.trace:
            tracer = layers.Tracer(run_id).install()
        totals = layers.Totals().install()
        workload.setup(ctx)
        ctx.probe_host()

        start = time.perf_counter()
        outcome = workload.run(ctx)
        wall_s = time.perf_counter() - start
        totals.remove()
        if tracer is not None:
            tracer.enabled = False
        after = [hostspeed.probe()]
        # the campaign is over once run_campaign returns; fleet
        # workers exit (and write their reports) after the timed phase
        workload.teardown(ctx)

        # fold in the fleet workers: their work, memory, probes and
        # spans (probe time spent inside a worker delayed the campaign
        # by about its share)
        insns, cycles = totals.insns, totals.cycles
        probes = list(totals.probes)
        probe_s = sum(totals.probes)
        worker_rss_kb = 0
        dumps = []
        reports = workload.worker_totals(ctx)
        for report in reports:
            insns += report["totals"]["insns"]
            cycles += report["totals"]["cycles"]
            probes += report["totals"]["probes"]
            probe_s += sum(report["totals"]["probes"]) / len(reports)
            worker_rss_kb += report["peak_rss_kb"]
            if "spans" in report:
                dumps.append(work / report["spans"])
        timed_s = hostspeed.normalized_seconds(wall_s - probe_s, probes)
        verdict = workload.check(ctx, outcome)
        record.update({
            "wall_s": wall_s, "timed_s": timed_s,
            "host_probe_ms": {
                "nominal": 1000 * hostspeed.PROBE_NOMINAL_S,
                "before": probe_stats(ctx.setup_probes[-1:]),
                "during": probe_stats(probes),
                "after": probe_stats(after)},
            "fleet_seed": ctx.fleet_seed,
            "insns": insns, "cycles": cycles,
            "attempted": outcome.attempted, "failed": verdict.failed,
            "reference": verdict.reference,
            "problems": verdict.problems, "digests": verdict.digests,
        })
        sim_hours = outcome.sim_hours or cycles / CPU_HZ / 3600
        if args.trace:
            tracer.dump(work / "main.spans.json.gz", "main")
            dumps.append(work / "main.spans.json.gz")
            metrics = layers.layer_metrics(layers.load_dumps(dumps))
            metrics["trace.overhead_frac"] = \
                timed_s / baseline["timed_s"] - 1.0
            record["untraced_timed_s"] = baseline["timed_s"]
        elif args.baseline:
            metrics = {}        # the traced parent reads only timed_s
        else:
            rss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss + worker_rss_kb
            table1 = outcome.table1
            if table1 is None:
                from repro.experiments import run_table1
                table1 = run_table1(runs=30 if args.size == "full"
                                    else 2)
            setup_samples = measure_setup(args)
            record["setup_samples_s"] = setup_samples
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "dev_sim_h_per_s": sim_hours / timed_s,
                "sim_insns_per_s": insns / timed_s,
                "peak_rss_mb": rss_kb / 1024.0,
                "table1_err_cycles": table1_error_cycles(table1),
            }
            expected = workload.reference_table1_err(ctx)
            if expected is not None and \
                    metrics["table1_err_cycles"] != expected:
                record["problems"].append(
                    f"table1_err_cycles {metrics['table1_err_cycles']} "
                    f"differs from the reference's {expected}")
                record["failed"] = max(record["failed"], 1)
        record["failed_frac"] = record["failed"] / outcome.attempted
        record["metrics"] = metrics
        return record
    finally:
        workload.teardown(ctx)
        if tracer is not None:
            tracer.remove()
        keep = HERE / "results" / run_id
        if not args.setup_only:
            keep.mkdir(parents=True, exist_ok=True)
            for path in work.glob("*.spans.json.gz"):
                shutil.move(str(path), keep / path.name)
        shutil.rmtree(work, ignore_errors=True)


def print_result(record: dict, units: dict) -> None:
    for name, value in record["metrics"].items():
        print(f"{name:<30} {value:>16.6g} {units.get(name, '')}")
    print(f"{'failed_frac':<30} {record['failed_frac']:>16.6g} "
          f"({record['failed']}/{record['attempted']})")
    probe = record["host_probe_ms"]
    during = probe["during"]
    print(f"{'host_probe_ms':<30} {during['mean']:>16.3f} mean of "
          f"{during['n']} in the timed phase (min {during['min']:.3f}, "
          f"max {during['max']:.3f}; just before "
          f"{probe['before']['mean']:.3f}, just after "
          f"{probe['after']['mean']:.3f}; nominal "
          f"{probe['nominal']:.3f})")
    if not record["reference"]:
        print("no stored reference for this seed and size: "
              "checked structural invariants only")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")


def metric_units() -> dict:
    units = {name: unit for name, unit, _better in END_TO_END}
    units.update((name, unit) for name, unit, _better in layers.PER_LAYER)
    return units


def result_line(record: dict, units: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in record["metrics"].items()},
    })


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0,
              "metrics": {}}
    for name in WORKLOADS:
        result = subprocess.run(child_command(args, workload=name),
                                stdout=subprocess.PIPE, text=True)
        lines = result.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if result.returncode not in (0, 1) or not lines:
            print(f"{name}: benchmark error (exit {result.returncode})")
            return 2
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"),
                        default="full",
                        help="tiny: a few seconds of work, for the "
                             "benchmark's own repeatability test")
    parser.add_argument("--baseline", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        record = run_one(args)
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    record["host"] = {"cpus": os.cpu_count(),
                      "python": platform.python_version(),
                      "platform": platform.platform(),
                      "git_sha": git_sha()}
    results = HERE / "results" / record["run_id"]
    results.mkdir(parents=True, exist_ok=True)
    text = json.dumps(record, indent=2, sort_keys=True)
    (results / "record.json").write_text(text)
    if args.record:
        Path(args.record).write_text(text)
    units = metric_units()
    print_result(record, units)
    print(result_line(record, units))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"benchmark error: the program's sources ({SRC}) are "
              "missing", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC) + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")
    sys.exit(main())
