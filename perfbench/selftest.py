"""Fast self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at its tiny size, traced and untraced, and checks that
every metric named in BENCHMARK.json appears with its unit; that one seed
gives identical inputs; and that the checker fails a CSV whose config-hash
trailer is wrong.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
import tracing
import workloads

WORK = run.ROOT / ".perfbench_work" / "selftest"


def benchmark_spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_catalogue() -> None:
    spec = benchmark_spec()
    assert [m["name"] for m in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.LAYER_METRICS
    ]


def test_every_metric_reported() -> None:
    spec = benchmark_spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=run.ROOT)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected[trace], (workload, trace)
            assert all(isinstance(m["value"], float) for m in result["metrics"].values())
            print(f"ok {workload} trace={trace}: {result['attempted']} items")


def _inputs(workload: str, seed: int, where: Path) -> list:
    wl = workloads.WORKLOADS[workload](seed, where, tiny=True)
    rows = []
    for item in wl.next_round(0) + wl.next_round(100):
        row = {k: v for k, v in item.items() if k != "dir"}
        if "state" in row:
            row["state"] = row["state"].coeffs.tolist()
        rows.append(repr(row))
    return rows


def test_seed_fixes_inputs() -> None:
    for workload in run.WORKLOADS:
        first = _inputs(workload, 11, WORK / "a")
        assert first == _inputs(workload, 11, WORK / "b"), workload
        assert first != _inputs(workload, 12, WORK / "c"), workload


def test_wrong_hash_trailer_fails() -> None:
    wl = workloads.CliReadout(3, WORK / "hash", tiny=True)
    item = wl.next_round(0)[0]
    assert item["kind"] == "pm-dist"
    wl.check(item, wl.run(item))
    csv = item["dir"] / "out" / "pm_dist.csv"
    lines = csv.read_text().splitlines()
    lines[-1] = "# config_sha256=" + "0" * 64
    csv.write_text("\n".join(lines) + "\n")
    try:
        wl.check(item, (0, ""))
    except workloads.CheckFailed as exc:
        assert exc.module == "cli"
    else:
        raise AssertionError("a wrong hash trailer passed the check")


def test_tail_percentile() -> None:
    value, pct = run.tail(list(np.arange(40.0)))
    assert value == 29.0 and pct == 75.0


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    sys.path.insert(0, str(workloads.SRC))
    try:
        for name, fn in list(globals().items()):
            if name.startswith("test_") and callable(fn):
                fn()
                print(f"passed {name}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
