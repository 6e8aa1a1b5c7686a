"""photoent benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: cli-readout (one fresh CLI
process per item), entangle-large (dense conditional density next to the
pure projective path) and oracle-check (quadrature and Monte Carlo oracles).
Every item's output is checked.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-readout", "entangle-large", "oracle-check")

END_TO_END = (
    ("setup_s", "s"),
    ("item_p50_s", "s"),
    ("item_tail_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
SETUP_RUNS = 3
DEADLINE_S = 170.0
# one BLAS/OpenMP thread: a single client on a machine of nproc cores
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with ten items beyond it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def worker_cmd(args, workdir: Path, *extra: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), *extra]
    return cmd + (["--tiny"] if args.tiny else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    args = parser.parse_args(argv)
    started = perf_counter()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up below

    if not (SRC / "photoent" / "__init__.py").is_file():
        print(f"error: no photoent sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(workdir))
    for var in THREAD_VARS:
        env[var] = "1"
    try:
        report = run(args, workdir, env, started)
    finally:
        shutil.rmtree(workdir / "items", ignore_errors=True)
    if report is None:
        return 1
    (workdir / "report.json").write_text(json.dumps(report, indent=1))
    return 0


def run(args, workdir: Path, env: dict, started: float) -> dict | None:
    setup_times = []
    if not args.trace:
        for _ in range(1 if args.tiny else SETUP_RUNS):
            t0 = perf_counter()
            done = subprocess.run(worker_cmd(args, workdir, "--setup-only"), env=env, timeout=60)
            setup_times.append(perf_counter() - t0)
            if done.returncode != 0:
                print(f"error: setup exited with {done.returncode}", file=sys.stderr)
                return None

    result_file = workdir / "result.json"
    cmd = worker_cmd(args, workdir, "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--result", str(result_file))
    # own session, so a timeout also stops the CLI process the worker may be waiting on
    worker = subprocess.Popen(cmd, env=env, start_new_session=True)
    code = None
    try:
        code = worker.wait(timeout=max(DEADLINE_S - (perf_counter() - started), 1.0))
    except subprocess.TimeoutExpired:
        print("error: benchmark worker did not finish in time", file=sys.stderr)
    finally:
        if worker.poll() is None:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
    if code != 0 or not result_file.exists():
        print(f"error: benchmark worker exited with {code}", file=sys.stderr)
        return None
    result = json.loads(result_file.read_text())

    env_info = {"nproc": os.cpu_count(), "python": platform.python_version(), **result["versions"],
                "blas_threads": 1}
    records = result["records"]
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    print(f"# photoent benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"# items: attempted={attempted} failed={failed} rounds={result['rounds']} "
          f"per_round={result['items_per_round']} (one client, closed loop)")
    for r in records:
        if not r["ok"]:
            print(f"# FAILED item {r['id']} ({r['kind']}, {r['module']}): {r['reason']}")

    if args.trace:
        from tracing import LAYER_METRICS, MODULES

        layers = result["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _, _ in LAYER_METRICS}
        modules = sum(layers[f"{m}.self_s"] for m in ("unattributed", *MODULES))
        print(f"# traced items: {sum(r['traced'] for r in records)}; module self times + unattributed "
              f"= {modules:.6f} s, traced item time = {layers['item.traced_s']:.6f} s")
        for name, unit, _, target in LAYER_METRICS:
            print(f"{name:48s} {layers[name]:14.6g} {unit:6s} -> {target}")
    else:
        times = [r["seconds"] for r in records]
        tail_value, tail_pct = tail(times)
        values = {
            "setup_s": statistics.median(setup_times),
            "item_p50_s": statistics.median(times),
            "item_tail_s": tail_value,
            "items_per_s": attempted / sum(times),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        notes = {
            "setup_s": f"median of {len(setup_times)} fresh interpreters",
            "item_p50_s": f"median of {attempted} items",
            "item_tail_s": f"p{tail_pct:.1f} of {attempted} items, 10 beyond it",
            "items_per_s": f"{attempted} items in {sum(times):.3f} s timed",
            "peak_rss_mb": "largest CLI child" if args.workload == "cli-readout" else "worker process",
        }
        for name, unit in END_TO_END:
            print(f"{name:14s} {values[name]:14.6g} {unit:4s} ({notes[name]})")
        print(f"{'failed_frac':14s} {failed / attempted:14.6g} {'1':4s} ({failed} of {attempted} items)")
    report = {"args": vars(args), "environment": env_info, "setup_times": setup_times,
              "result": result, "metrics": metrics}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return report


if __name__ == "__main__":
    sys.exit(main())
