"""The three workloads: seeded inputs, the timed call of one item, and the
check of its output.

Each workload is a closed loop with one client: items run one after another
in rounds, and a round holds one item of every kind the workload mixes, so
every run sees the same mix.  Inputs come only from the seed, and no item
repeats a (state, t) pair within a run, so the program's caches (the oracle's
``_monitor_propagator`` lru_cache cut a repeated quadrature item from 1.28 s
to 0.009 s) help only where a single item reuses its own work.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An item's output disagrees with the reference; ``module`` produced it."""

    def __init__(self, module: str, reason: str):
        super().__init__(f"{module}: {reason}")
        self.module = module


def expect(cond, module: str, reason: str) -> None:
    if not cond:
        raise CheckFailed(module, reason)


def _coherent(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(math.sqrt(rng.uniform(lo, hi)), rng.uniform(0.0, 2.0 * math.pi))


# ---------------------------------------------------------------------------
# cli-readout: one fresh `python -m photoent.cli` process per item


# Seven variants: three fast ones (mostly import), two medium ones (pinned
# count-dist with five peak-time searches, oracle-check) and two slow ones, so
# the median of whole rounds lies inside the medium group, not in a gap.
CLI_VARIANTS = (
    "pm-dist",
    "count-dist-pinned",
    "count-dist-adaptive",
    "scan",
    "probe",
    "sample",
    "oracle-check",
)
CLI_ARGS = {
    "pm-dist": ["pm-dist"],
    "count-dist-pinned": ["count-dist"],
    "count-dist-adaptive": ["count-dist"],
    "scan": ["scan"],
    "probe": ["probe", "--analytic"],
    "sample": ["sample"],
    "oracle-check": ["oracle-check"],
}
# rerun once outside the timed phase to prove byte-identical output
RERUN = ("pm-dist", "count-dist-pinned", "scan", "probe", "sample", "oracle-check")
# the README time grid (pinned count-dist stops at k = 4); the adaptive-k grid
# stops early so its k cutoff (one peak-time search per k) stays near 12
FULL_GRID = {"gamma_t": {"start": 0.0, "stop": 2.0, "num": 81}, "k": {"max": 10}}
PINNED_GRID = {"gamma_t": {"start": 0.0, "stop": 2.0, "num": 81}, "k": {"max": 4}}
ADAPTIVE_GRID = {"gamma_t": {"start": 0.0, "stop": 0.08, "num": 81}}


class CliReadout:
    name = "cli-readout"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.tiny = tiny
        # a narrow band of |alpha|^2, |beta|^2 (d ~ 31) keeps the work per seed alike
        self.intensity = (1.0, 2.0) if tiny else (5.5, 6.5)
        self.n_samples = 2000 if tiny else 20000
        self.env = child_env(workdir)

    def make_config(self, variant: str) -> dict:
        rng = self.rng
        if variant == "oracle-check":
            entries = [[m, n, z.real, z.imag] for m, n, z in superposition_entries(rng, 2 if self.tiny else 3)]
            return {
                "state": {"kind": "superposition", "entries": entries},
                "params": {"lambda": rng.uniform(0.0, 0.3), "chi": rng.uniform(0.32, 0.33), "gamma": 1.0},
                "oracle": {"gamma_t": rng.uniform(0.5, 1.5), "k_quadrature": [0, 1, 2], "k_density": [0, 1]},
            }
        a, b = (_coherent(rng, *self.intensity) for _ in range(2))
        cfg = {
            "state": {"kind": "coherent", "alpha": [a.real, a.imag], "beta": [b.real, b.imag]},
            "params": {"lambda": rng.uniform(0.0, 0.3), "chi": rng.uniform(0.9, 1.0), "gamma": 1.0},
            "tolerances": {"eps_trunc": 1e-11},
            "seed": rng.randrange(2**31),
        }
        if variant == "pm-dist":
            cfg["grids"] = FULL_GRID
        elif variant == "count-dist-pinned":
            cfg["grids"] = PINNED_GRID
        elif variant == "count-dist-adaptive":
            cfg["grids"] = ADAPTIVE_GRID
        elif variant == "scan":
            cfg["grids"] = {"k": {"max": 10}}
        elif variant == "probe":
            cfg["probe"] = {"gamma_t": rng.uniform(5.0, 15.0)}
        else:
            cfg["sample"] = {"gamma_t": rng.uniform(0.5, 2.0), "n_samples": self.n_samples}
        return cfg

    def next_round(self, first_id: int) -> list[dict]:
        items = []
        for i, variant in enumerate(CLI_VARIANTS):
            item_dir = self.workdir / "items" / str(first_id + i)
            item_dir.mkdir(parents=True, exist_ok=True)
            cfg = self.make_config(variant)
            (item_dir / "config.json").write_text(json.dumps(cfg))
            items.append({"id": first_id + i, "kind": variant, "cfg": cfg, "dir": item_dir})
        return items

    def command(self, item: dict, out: Path, spans: Path | None = None) -> list[str]:
        cli = ["--config", str(item["dir"] / "config.json"), "--out", str(out)]
        if spans is None:
            return [sys.executable, "-m", "photoent.cli", *CLI_ARGS[item["kind"]], *cli]
        driver = str(HERE / "cli_driver.py")
        return [sys.executable, driver, str(spans), str(item["id"]), *CLI_ARGS[item["kind"]], *cli]

    def run(self, item: dict, spans: Path | None = None, out_name: str = "out"):
        return run_child(self.command(item, item["dir"] / out_name, spans), self.env)

    def check(self, item: dict, result) -> None:
        returncode, stderr = result
        expect(returncode == 0, "cli", f"exit code {returncode}: {stderr[-200:]}")
        check_cli_outputs(item, item["dir"] / "out")


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(workdir)
    return env


def run_child(cmd: list[str], env: dict) -> tuple[int, str]:
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        return -9, f"timed out after {CLI_TIMEOUT_S} s"
    return proc.returncode, err


def read_csv(path: Path, cfg_hash: str, module: str) -> np.ndarray:
    """Data rows of a CLI CSV whose last line must be the config-hash trailer."""
    lines = path.read_text().splitlines()
    expect(len(lines) > 2 and lines[-1] == f"# config_sha256={cfg_hash}", "cli",
           f"{path.name}: hash trailer mismatch")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    expect(np.all(np.isfinite(rows)), module, f"{path.name}: non-finite value")
    return rows


def read_json(path: Path, cfg_hash: str) -> dict:
    doc = json.loads(path.read_text())
    expect(doc.get("config_sha256") == cfg_hash, "cli", f"{path.name}: config hash mismatch")
    return doc


def superposition_entries(rng: random.Random, n_max: int) -> list[tuple[int, int, complex]]:
    """One Fock entry per total photon number N = 1..n_max, with a seed-drawn
    split m + n = N and phase.  Equal weights keep the oracles' work per item
    alike (the Monte Carlo jump rate grows as N^2), and every split fits the
    box of the N = n_max entry, so the state's largest representable N (which
    sets the monitor cutoff d_c) is n_max for every seed."""
    top = rng.randint(0, n_max)
    entries = []
    for total in range(1, n_max + 1):
        m = rng.randint(max(0, total - n_max + top), min(total, top))
        entries.append((m, total - m, cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi))))
    return entries


def _weights(cfg: dict) -> np.ndarray:
    st = cfg["state"]
    if st["kind"] == "superposition":
        weights = np.zeros(max(m + n for m, n, _, _ in st["entries"]) + 1)
        for m, n, re, im in st["entries"]:
            weights[m + n] += re * re + im * im
        return weights / np.sum(weights)
    from photoent.fock import make_coherent_product

    state = make_coherent_product(
        complex(*st["alpha"]), complex(*st["beta"]), eps_trunc=cfg["tolerances"]["eps_trunc"]
    )
    return ref.number_weights(state.coeffs)


def _check_peak(weights, chi, gamma, k: int, gamma_t_m: float, module: str) -> None:
    """t_m must be a local maximum of the reference P(k, t)."""
    if k == 0:
        expect(gamma_t_m == 0.0, module, "k=0 peak time is not 0")
        return
    t_m = gamma_t_m / gamma
    here = ref.count_probability(weights, chi, gamma, t_m, k)[0]
    for side in (1.0 - 1e-3, 1.0 + 1e-3):
        there = ref.count_probability(weights, chi, gamma, t_m * side, k)[0]
        expect(here >= there - 1e-12, module, f"gamma t_m={gamma_t_m} is not a peak of P(k={k}, t)")


def _check_cells(rows: np.ndarray, prob_of_t, module: str) -> np.ndarray:
    """Column 2 of (gamma_t, k, p, ...) rows against the reference; returns
    the per-time row sums of the reference-checked cells."""
    sums = []
    for gt in np.unique(rows[:, 0]):
        block = rows[rows[:, 0] == gt]
        expected = prob_of_t(gt, block[:, 1].astype(int))
        worst = float(np.max(np.abs(block[:, 2] - expected)))
        expect(worst <= 1e-12, module, f"P(k, gamma_t={gt}) off the reference by {worst:.3g}")
        sums.append(math.fsum(block[:, 2]))
    return np.array(sums)


def check_cli_outputs(item: dict, out: Path) -> None:
    cfg, kind = item["cfg"], item["kind"]
    cfg_hash = ref.config_sha256(cfg)
    params = cfg["params"]
    chi, gamma = params["chi"], params["gamma"]
    weights = _weights(cfg)
    if kind == "pm-dist":
        rows = read_csv(out / "pm_dist.csv", cfg_hash, "projective")
        _check_cells(rows, lambda gt, ks: ref.projective_probability(weights, chi, gt / gamma, ks), "projective")
        expect(len(rows) == 81 * 11, "cli", "pm-dist row count")
    elif kind.startswith("count-dist"):
        rows = read_csv(out / "count_dist.csv", cfg_hash, "photocount")
        sums = _check_cells(
            rows, lambda gt, ks: ref.count_probability(weights, chi, gamma, gt / gamma, ks), "photocount"
        )
        if kind == "count-dist-adaptive":
            worst = float(np.max(np.abs(sums - 1.0)))
            expect(worst <= 1e-9, "photocount", f"adaptive row sums off 1 by {worst:.3g}")
        peaks = read_json(out / "count_dist_peak_times.json", cfg_hash)["gamma_t_m"]
        expect(len(peaks) == len(np.unique(rows[:, 1])), "photocount", "peak-time count")
        for k, gt_m in peaks.items():
            _check_peak(weights, chi, gamma, int(k), gt_m, "photocount")
    elif kind == "scan":
        rows = read_csv(out / "scan.csv", cfg_hash, "photocount")
        expect(rows.shape == (11, 5) and list(rows[:, 0]) == list(range(11)), "photocount", "scan rows")
        expect(np.all(rows[:, 2:4] >= -1e-10) and np.all(rows[:, 2:4] <= 2.0), "fock", "excess out of [0, 2]")
        expect(np.all((rows[:, 4] >= -1e-10) & (rows[:, 4] <= 1.0)), "fock", "S_AB out of [0, 1]")
        for k, gt_m in zip(rows[:, 0].astype(int), rows[:, 1]):
            _check_peak(weights, chi, gamma, int(k), float(gt_m), "photocount")
    elif kind == "oracle-check":
        doc = read_json(out / "oracle_check.json", cfg_hash)
        expect(doc["pass"] is True, "oracle", "oracle-check reports a failed comparison")
        t = cfg["oracle"]["gamma_t"] / gamma
        for entry in doc["quadrature"]:
            p_ref = ref.count_probability(weights, chi, gamma, t, entry["k"])[0]
            expect(abs(entry["p_oracle"] - p_ref) <= 1e-6, "oracle", f"P(k={entry['k']}) off the reference")
    elif kind == "probe":
        read_csv(out / "h_function.csv", cfg_hash, "probe")
        coeffs = read_csv(out / "fourier.csv", cfg_hash, "probe")
        expected = weights / np.sum(weights)
        expect(len(coeffs) == len(expected), "probe", "fourier length")
        worst = float(np.max(np.abs(coeffs[:, 1] - expected)))
        expect(worst <= 1e-9, "probe", f"C(j) off the anti-diagonal weights by {worst:.3g}")
        read_json(out / "probe_report.json", cfg_hash)
    else:
        rows = read_csv(out / "sample.csv", cfg_hash, "photocount")
        ks = rows[:, 0]
        n = cfg["sample"]["n_samples"]
        expect(len(ks) == n and np.all(ks >= 0) and np.all(ks == np.round(ks)), "photocount", "sample counts")
        mean, var = ref.count_moments(weights, chi, gamma, cfg["sample"]["gamma_t"] / gamma)
        z = abs(float(np.mean(ks)) - mean) / math.sqrt(var / n)
        expect(z <= 5.0, "photocount", f"sample mean {z:.2f} sigma off")


def same_outputs(first: Path, second: Path) -> bool:
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in second.iterdir()):
        return False
    return all((first / n).read_bytes() == (second / n).read_bytes() for n in names)


# ---------------------------------------------------------------------------
# entangle-large: dense conditional density next to the pure projective path


class EntangleLarge:
    name = "entangle-large"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        from photoent import fock

        self.fock = fock
        self.rng = random.Random(seed)
        # seven intensity bands, one item each per round: the round's median
        # item sits in the middle band, and d runs from ~20 to ~51
        centres = np.linspace(1.5, 2.5, 3) if tiny else np.linspace(3.5, 19.5, 7)
        self.bands = [(c - 0.2, c + 0.2) for c in centres]

    def next_round(self, first_id: int) -> list[dict]:
        rng = self.rng
        items = []
        for i, band in enumerate(self.bands):
            state = self.fock.make_coherent_product(_coherent(rng, *band), _coherent(rng, *band))
            params = self.fock.ModelParams(lam=rng.uniform(0.05, 0.5), chi=rng.uniform(0.8, 1.0), gamma=1.0)
            items.append(
                {
                    "id": first_id + i,
                    "kind": "dense+pure",
                    "state": state,
                    "params": params,
                    "t": rng.uniform(0.15, 0.5),
                    "k": rng.randint(1, 10),
                }
            )
        return items

    def run(self, item: dict, spans=None):
        from photoent import fock, photocount, projective

        state, params, t, k = item["state"], item["params"], item["t"], item["k"]
        rho = photocount.postselect_density(state, params, t, k)
        report = fock.entanglement_report(rho)
        pure = projective.pm_postselect(state, params.lam, params.chi, t, k)
        c = pure.post_state.coeffs
        s_a = fock.linear_entropy(c @ c.conj().T)
        s_b = fock.linear_entropy(c.T @ c.conj())
        return rho, report, pure, s_a, s_b

    def check(self, item: dict, result) -> None:
        rho, report, pure, s_a, s_b = result
        state, params, t, k = item["state"], item["params"], item["t"], item["k"]
        mat = rho.rho
        expect(abs(np.trace(mat).real - 1.0) <= 1e-9, "photocount", "trace is not 1")
        step = 256
        for i in range(0, mat.shape[0], step):
            defect = np.max(np.abs(mat[i : i + step] - mat[:, i : i + step].conj().T))
            expect(defect <= 1e-12, "photocount", f"density not Hermitian ({defect:.3g})")
        expect(report.araki_lieb_ok, "fock", "Araki-Lieb bound violated")
        weights = ref.number_weights(state.coeffs)
        n = np.arange(len(weights), dtype=float)
        expected = weights * ref.component_pmf(ref.count_u(params.chi, params.gamma, t) * n**2, [k])[0]
        expected /= np.sum(expected)
        diag = ref.anti_diagonal_sums(np.diagonal(mat).real.reshape(rho.d_a, rho.d_b))
        worst = float(np.max(np.abs(diag - expected)))
        expect(worst <= 1e-9, "photocount", f"diagonal in N off the count weights by {worst:.3g}")
        p_ref = ref.projective_probability(weights, params.chi, t, k)[0]
        expect(abs(pure.probability - p_ref) <= 1e-12, "projective", "projective P(k) off the reference")
        norm = float(np.sum(np.abs(pure.post_state.coeffs) ** 2))
        expect(abs(norm - 1.0) <= 1e-12, "projective", "post-measurement state not normalized")
        expect(abs(s_a - s_b) <= 1e-10 and 0.0 <= s_a <= 1.0, "fock", "pure-state entropies disagree")


# ---------------------------------------------------------------------------
# oracle-check: brute-force oracles on small superpositions


class OracleCheck:
    name = "oracle-check"
    kinds = ("nt_oracle_point", "p_k_quadrature", "mc_count_histogram")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        from photoent import fock

        self.fock = fock
        self.rng = random.Random(seed)
        self.n_max = 2 if tiny else 4
        self.trajectories = 1000 if tiny else 2000
        self.round = 0
        self.times: set[float] = set()

    def _t(self) -> float:
        while True:  # a new t for every item: no propagator is reused across items
            t = self.rng.uniform(0.5, 1.5)
            if t not in self.times:
                self.times.add(t)
                return t

    def next_round(self, first_id: int) -> list[dict]:
        rng = self.rng
        items = []
        for i, kind in enumerate(self.kinds):
            # chi/gamma ~ 1/3 keeps the monitor cutoff d_c at 39 for N <= 4
            params = self.fock.ModelParams(lam=rng.uniform(0.0, 0.3), chi=rng.uniform(0.32, 0.33), gamma=1.0)
            state = self.fock.make_superposition(superposition_entries(rng, self.n_max))
            item = {"id": first_id + i, "kind": kind, "state": state, "params": params, "t": self._t()}
            if kind == "nt_oracle_point":
                item["k"] = self.round % 2
            elif kind == "p_k_quadrature":
                item["k"] = 2
            else:
                item["n"] = self.trajectories
                item["seed"] = rng.randrange(2**31)
            items.append(item)
        self.round += 1
        return items

    def run(self, item: dict, spans=None):
        from photoent import oracle

        state, params, t = item["state"], item["params"], item["t"]
        if item["kind"] == "nt_oracle_point":
            return oracle.nt_oracle_point(state, params, t, item["k"])
        if item["kind"] == "p_k_quadrature":
            return oracle.p_k_quadrature(state, params, t, item["k"])
        return oracle.mc_count_histogram(state, params, t, item["n"], item["seed"])

    def check(self, item: dict, result) -> None:
        from photoent.photocount import postselect_density

        state, params, t = item["state"], item["params"], item["t"]
        weights = ref.number_weights(state.coeffs)
        if item["kind"] == "mc_count_histogram":
            hist = np.asarray(result)
            n = item["n"]
            expect(int(hist.sum()) == n, "oracle", "histogram does not count every trajectory")
            p = ref.count_probability(weights, params.chi, params.gamma, t, np.arange(len(hist) - 1))
            p = np.append(p, max(0.0, 1.0 - math.fsum(p)))
            sigma = np.sqrt(np.maximum(p * (1.0 - p), 1.0 / n) / n)
            z = float(np.max(np.abs(hist / n - p) / sigma))
            expect(z <= 5.0, "oracle", f"MC histogram {z:.2f} sigma off the closed form")
            return
        p_ref = ref.count_probability(weights, params.chi, params.gamma, t, item["k"])[0]
        prob = result[0] if item["kind"] == "nt_oracle_point" else result
        expect(abs(prob - p_ref) <= 1e-6, "oracle", f"quadrature P(k) off by {abs(prob - p_ref):.3g}")
        if item["kind"] == "nt_oracle_point":
            closed = postselect_density(state, params, t, item["k"]).rho
            worst = float(np.max(np.abs(result[1].rho - closed)))
            expect(worst <= 1e-6, "oracle", f"quadrature density off the closed form by {worst:.3g}")


WORKLOADS = {w.name: w for w in (CliReadout, EntangleLarge, OracleCheck)}
