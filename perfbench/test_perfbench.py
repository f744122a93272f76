"""The benchmark's own checks.

Run from the root of a checkout (takes about a minute)::

    python3 -m pytest perfbench/test_perfbench.py -q

* ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints.
* Each workload, run traced at ``--size tiny`` twice, repeats every
  count metric and every output digest exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers                                           # noqa: E402
import run                                              # noqa: E402
from workloads import WORKLOADS                         # noqa: E402

#: counts that are a pure function of the workload's inputs.  Left
#: out, because how many happen depends on wall time or on which of
#: two concurrent workers translated a block first: spans and their
#: times, probe counts, wire bytes (heartbeats, batching, compression),
#: and the execution-cache counters
EXACT = ("cpu.insns", "cpu.step_per_kinsn", "kernel.dispatches",
         "kernel.insns_per_dispatch", "kernel.cycles_per_dispatch",
         "bus.reads_per_kinsn", "bus.writes_per_kinsn",
         "mpu.invalidations_per_kinsn", "mpu.configures",
         "fleet.snapshots", "fleet.ckpt_bytes", "net.leases",
         "net.frames_sent", "net.frames_recv")

#: on fleet_socket the two workers publish translations into one shared
#: store while both run; which variant of a block a device adopts
#: depends on timing, and variants differ in how many reads go through
#: ``Memory.read_*``.  Simulated results and every other count repeat
#: exactly; the bus read count is held to a tolerance instead.
TIMING_DEPENDENT = {"fleet_socket": {"bus.reads_per_kinsn": 0.005}}


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def traced_tiny_run(workload: str, record: Path) -> dict:
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "15", "--trace", "1",
         "--size", "tiny", "--record", str(record)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {name for name, _u, _b
                                    in layers.PER_LAYER}
    return json.loads(record.read_text())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_and_outputs_repeat_exactly(workload, tmp_path):
    first = traced_tiny_run(workload, tmp_path / "first.json")
    second = traced_tiny_run(workload, tmp_path / "second.json")
    assert first["metrics"]["cpu.insns"] > 0
    loose = TIMING_DEPENDENT.get(workload, {})
    for name in EXACT:
        a, b = first["metrics"][name], second["metrics"][name]
        if name in loose:
            assert abs(a - b) <= loose[name] * max(a, b), name
        else:
            assert a == b, name
    assert first["digests"] == second["digests"]
    assert first["insns"] == second["insns"]
    assert first["cycles"] == second["cycles"]
