"""Fleet worker process for the ``fleet_socket`` workload.

Started by ``run.py`` during set-up, before the campaign exists::

    python3 perfbench/worker.py --worker-id W --report PATH --trace 0|1

It imports the program, prints ``ready`` and waits for one line on
stdin: the coordinator's ``host:port``.  It then runs the unmodified
``repro fleet worker --connect host:port`` command in this process,
with the same hooks as the benchmark process (dispatch totals, or the
full tracer under ``--trace 1``).  At exit it writes its totals, peak
resident memory and, when traced, its spans to ``PATH``.  An empty
stdin (the benchmark gave up) exits without connecting.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

import layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--worker-id", required=True)
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from repro import cli
    import repro.fleet.net.worker  # noqa: F401  (import cost is set-up)

    # the tracer goes in first, so the totals hook wraps it and stays
    # outside the dispatch spans
    tracer = layers.Tracer(args.worker_id).install() if args.trace \
        else None
    totals = layers.Totals().install()
    print("ready", flush=True)
    address = sys.stdin.readline().strip()
    if not address:
        return 3
    # the worker command reports progress on stdout; keep it in a log
    log_path = args.report.with_suffix(".log")
    with open(log_path, "w") as log:
        sys.stdout = log
        try:
            code = cli.main(["fleet", "worker", "--connect", address,
                             "--worker-id", args.worker_id])
        finally:
            sys.stdout = sys.__stdout__
    report = {"exit": code, "totals": totals.as_dict(),
              "peak_rss_kb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.enabled = False
        spans_path = args.report.with_suffix(".spans.json.gz")
        tracer.dump(spans_path, args.worker_id)
        report["spans"] = spans_path.name
    tmp = args.report.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(report))
    os.replace(tmp, args.report)
    return code


if __name__ == "__main__":
    sys.exit(main())
