"""The benchmark harness under perfbench/ traces photoent by name: every
function it wraps must exist, the work counters read fields of the returned
objects, and each workload checks its items' outputs.  These tests keep the
library to that contract."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import photoent

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = _tracing()
    missing = [
        f"{module}.{name}"
        for module, names in tracing.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"photoent.{module}"), name, None))
    ]
    assert missing == []
    commands = importlib.import_module("photoent.cli")._COMMANDS
    assert set(tracing.CLI_SUBCOMMANDS) <= set(commands)


def test_install_traces_postselect_density():
    # install() patches module globals, so it runs in a fresh interpreter; the
    # element count is read from the returned density's .rho
    script = f"""
import importlib.util
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
tracer.enabled = True
from photoent import ModelParams, make_superposition, postselect_density
state = make_superposition([(0, 0, 1.0), (1, 1, 1.0)])
postselect_density(state, ModelParams(lam=0.3, chi=0.5, gamma=1.0), 0.8, 1)
names = [span[0] for span in tracer.spans]
assert "photocount.postselect_density" in names, names
assert tracer.counts["photocount.postselect_density.elements"] == 16, dict(tracer.counts)
"""
    src = str(Path(photoent.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports reference
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_entangle_large_round_passes_its_checks(tmp_path, monkeypatch):
    # one tiny round of the entangle-large workload through its own run and
    # check: the checks read the dense .rho of every conditional state
    workload = _workloads(monkeypatch).EntangleLarge(3, tmp_path, tiny=True)
    items = workload.next_round(0)
    assert len(items) == 3
    for item in items:
        workload.check(item, workload.run(item))


def test_oracle_check_rounds_pass_their_checks(tmp_path, monkeypatch):
    # two tiny rounds of the oracle-check workload through its own run and
    # check, which call the oracles as the harness does (k = 0 and k = 1 of
    # nt_oracle_point, k = 2 of p_k_quadrature, one MC histogram per round)
    workload = _workloads(monkeypatch).OracleCheck(3, tmp_path, tiny=True)
    for first_id in (0, 3):
        items = workload.next_round(first_id)
        assert [item["kind"] for item in items] == list(workload.kinds)
        for item in items:
            workload.check(item, workload.run(item))
