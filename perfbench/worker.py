"""One benchmark process: imports photoent, builds the workload's inputs and,
unless ``--setup-only``, runs the timed closed loop and checks every item.

Started by run.py in a fresh interpreter; writes its result as JSON to
``--result``.  In a traced run, odd rounds are traced and even rounds are
not, so tracing overhead is measured on the same input mix.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import workloads
from tracing import MODULES, Tracer, install, layer_metrics

MIN_ITEMS = 11  # the tail percentile needs ten items beyond it


def blame(exc: BaseException) -> str:
    """The photoent module of the innermost frame the exception passed."""
    module = "unattributed"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent == workloads.SRC / "photoent" and path.stem in MODULES:
            module = path.stem
    return module


def rate(records: list[dict]) -> float:
    busy = sum(r["seconds"] for r in records)
    return len(records) / busy if busy else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(workloads.SRC))
    import photoent  # noqa: F401  (setup covers the import of both)
    import photoent.cli  # noqa: F401

    args.workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.tiny)
    if args.setup_only:
        wl.next_round(0)
        return 0

    cli = isinstance(wl, workloads.CliReadout)
    tracer = Tracer()
    if args.trace and not cli:
        install(tracer)
    if not cli:  # imports, BLAS and lazy set-up finish before timing
        warm = workloads.WORKLOADS[args.workload](args.seed + 1_000_003, args.workdir, tiny=True)
        for item in warm.next_round(0)[:2]:
            warm.run(item)

    records: list[dict] = []
    first_round: list[dict] = []
    busy = 0.0
    rounds = 0
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        items = wl.next_round(len(records))
        for item in items:
            tracer.item = item["id"]
            spans_file = args.workdir / f"spans-{item['id']}.json" if traced and cli else None
            tracer.enabled = traced and not cli
            root = tracer.open("bench.item") if tracer.enabled else None
            error = result = None
            t0 = perf_counter()
            try:
                result = wl.run(item, spans_file)
            except Exception as exc:  # an item that raises is a failed item
                error = exc
            t1 = perf_counter()
            tracer.enabled = False
            if spans_file is not None:
                root = tracer.open("bench.item", t0)
            if root is not None:
                tracer.close(root, t1)
            if spans_file is not None and spans_file.exists():
                child = json.loads(spans_file.read_text())
                tracer.adopt(child["spans"], child["counts"], root)
                spans_file.unlink()
            record = {"id": item["id"], "kind": item["kind"], "traced": traced, "seconds": t1 - t0,
                      "ok": True, "module": None, "reason": ""}
            try:
                if error is not None:
                    raise error
                wl.check(item, result)
            except workloads.CheckFailed as exc:
                record.update(ok=False, module=exc.module, reason=str(exc))
            except Exception as exc:
                record.update(ok=False, module=blame(exc), reason=f"{type(exc).__name__}: {exc}")
            del result
            records.append(record)
            busy += t1 - t0
            if cli and rounds > 0:
                shutil.rmtree(item["dir"])
        if rounds == 0:
            first_round = items
        rounds += 1
        if busy >= args.seconds and len(records) >= MIN_ITEMS and (not args.trace or rounds >= 2):
            break

    if cli:  # one seeded item per subcommand variant, rerun outside the timed phase
        for item in first_round:
            record = records[item["id"]]
            if record["ok"] and item["kind"] in workloads.RERUN:
                code, err = wl.run(item, out_name="rerun")
                same = code == 0 and workloads.same_outputs(item["dir"] / "out", item["dir"] / "rerun")
                if not same:
                    record.update(ok=False, module="cli", reason="rerun output differs")
            shutil.rmtree(item["dir"])

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    failed_by_module: dict[str, int] = {}
    for r in records:
        if not r["ok"]:
            failed_by_module[r["module"]] = failed_by_module.get(r["module"], 0) + 1
    out = {
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "records": records,
        "rounds": rounds,
        "items_per_round": len(records) // rounds,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "failed_by_module": failed_by_module,
    }
    if args.trace:
        traced = [r for r in records if r["traced"]]
        out["layers"] = layer_metrics(
            tracer,
            [r["id"] for r in traced],
            failed_by_module,
            rate([r for r in records if not r["traced"]]),
            rate(traced),
        )
        tracer.dump(args.workdir / "spans.json")
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
