"""Command-line front end.

One experiment per JSON config file; subcommands emit CSV/JSON data files
(no plotting).  All primary outputs are deterministic given config + seed and
are written atomically; CSV numbers use 17 significant digits so files
round-trip bit-exactly, and every file ends with a comment line carrying the
sha256 of the canonical config.

Exit codes: 0 success, 2 config/input error, 3 resource/convergence error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .fock import (
    ConvergenceError,
    DephasedState,
    ImpossibleOutcomeError,
    ModelParams,
    ResourceLimitError,
    TwoModeState,
    _check_int,
    _check_size,
    make_coherent_product,
    make_number_state,
    make_superposition,
    make_two_mode_squeezed,
)
from .photocount import (
    count_distribution,
    count_probability,
    entanglement_scan,
    most_probable_times,
    postselect_density,
    sample_counts,
)
from .projective import _pm_u, mixture_table, pm_count_cutoff


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def config_sha256(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)  # only a run that writes makes --out
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates 0600; give the file the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header: list[str], rows: list[list | str], cfg_hash: str) -> None:
    """Floats are written by `_fmt`, other cells by str().  A row is a list
    of cells or the whole line as a str, so a caller formats the cells it
    repeats on many rows once."""
    lines = [",".join(header)]
    for row in rows:
        if not isinstance(row, str):
            row = ",".join([_fmt(v) if isinstance(v, float) else str(v) for v in row])
        lines.append(row)
    lines.append(f"# config_sha256={cfg_hash}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: Path, obj: dict) -> None:
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _require(cfg: dict, where: str, allowed: set[str], required: set[str]) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _as_int(value, where: str) -> int:
    """A nonnegative integer config value; never truncates a float."""
    try:
        _check_int(where, value, 0)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return value


def _as_float(value, where: str) -> float:
    """A real config value: an int or a float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} is out of range, got {value!r}")


def _as_complex(value, where: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_float(value[0], where), _as_float(value[1], where))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number or an [re, im] pair")
    return complex(_as_float(value, where))


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _require(
        cfg,
        "config",
        {"state", "params", "grids", "seed", "probe", "sample", "oracle", "tolerances"},
        {"state", "params"},
    )
    return cfg


def build_params(cfg: dict) -> ModelParams:
    section = cfg["params"]
    _require(section, "params", {"lambda", "chi", "gamma"}, {"chi", "gamma"})
    try:
        return ModelParams(
            lam=_as_float(section.get("lambda", 0.0), "params.lambda"),
            chi=_as_float(section["chi"], "params.chi"),
            gamma=_as_float(section["gamma"], "params.gamma"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_state(cfg: dict) -> TwoModeState:
    section = cfg["state"]
    tolerances = cfg.get("tolerances", {})
    _require(tolerances, "tolerances", {"eps_trunc"}, set())
    eps = _as_float(tolerances.get("eps_trunc", 1e-8), "tolerances.eps_trunc")
    kind = section.get("kind")
    try:
        if kind == "number":
            _require(section, "state", {"kind", "m", "n", "d_a", "d_b"}, {"m", "n", "d_a", "d_b"})
            return make_number_state(*(_as_int(section[k], f"state.{k}") for k in ("m", "n", "d_a", "d_b")))
        if kind == "coherent":
            _require(section, "state", {"kind", "alpha", "beta"}, {"alpha", "beta"})
            return make_coherent_product(
                _as_complex(section["alpha"], "state.alpha"),
                _as_complex(section["beta"], "state.beta"),
                eps_trunc=eps,
            )
        if kind == "superposition":
            _require(section, "state", {"kind", "entries"}, {"entries"})
            entries = []
            for row in section["entries"]:
                if len(row) != 4:
                    raise ConfigError("superposition entries are [m, n, re, im] rows")
                m, n = (_as_int(v, "state.entries m, n") for v in row[:2])
                entries.append((m, n, _as_complex(row[2:], "state.entries re, im")))
            return make_superposition(entries)
        if kind == "two-mode-squeezed":
            _require(section, "state", {"kind", "r", "n_max"}, {"r", "n_max"})
            r = _as_float(section["r"], "state.r")
            return make_two_mode_squeezed(r, _as_int(section["n_max"], "state.n_max"))
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid state config: {exc}")
    raise ConfigError(f"unknown state kind {kind!r}")


def gamma_t_grid(cfg: dict) -> np.ndarray:
    grids = cfg.get("grids", {})
    _require(grids, "grids", {"gamma_t", "k", "x_points"}, set())
    entry = grids.get("gamma_t")
    if entry is None:
        return np.linspace(0.0, 5.0, 51)
    if isinstance(entry, list):
        return np.array([_as_float(v, "grids.gamma_t") for v in entry])
    if isinstance(entry, dict):
        _require(entry, "grids.gamma_t", {"start", "stop", "num"}, {"start", "stop", "num"})
        num = _as_int(entry["num"], "grids.gamma_t.num")
        start, stop = (_as_float(entry[key], f"grids.gamma_t.{key}") for key in ("start", "stop"))
        return np.linspace(start, stop, num)
    raise ConfigError("grids.gamma_t must be a list or {start, stop, num}")


def k_list(cfg: dict, default_max: int) -> list[int]:
    entry = cfg.get("grids", {}).get("k")
    if entry is None:
        _check_size(f"the count range k = 0..{default_max}", default_max + 1)
        return list(range(default_max + 1))
    if isinstance(entry, dict):
        _require(entry, "grids.k", {"max"}, {"max"})
        k_max = _as_int(entry["max"], "grids.k.max")
        _check_size(f"grids.k.max = {k_max}", k_max + 1)
        entry = list(range(k_max + 1))
    if not isinstance(entry, list):
        raise ConfigError("grids.k must be a list or {max}")
    ks = [_as_int(k, "grids.k") for k in entry]
    if not ks:
        raise ConfigError("grids.k must name at least one count")
    return ks


def _seed(cfg: dict, args) -> int | None:
    if args.seed is not None:
        return args.seed
    seed = cfg.get("seed")
    return None if seed is None else _as_int(seed, "seed")


def density_to_json(rho: DephasedState) -> dict:
    """Row-major (m, n)-lexicographic [re, im] pairs; exact round trip."""
    flat = rho.rho.reshape(-1)
    return {
        "d_a": rho.d_a,
        "d_b": rho.d_b,
        "elements": [[float(z.real), float(z.imag)] for z in flat],
    }


def cmd_pm_dist(cfg: dict, out: Path, args) -> int:
    state = build_state(cfg)
    params = build_params(cfg)
    grid = gamma_t_grid(cfg)
    explicit = cfg.get("grids", {}).get("k") is not None
    ks = k_list(cfg, 0 if explicit else pm_count_cutoff(state, params.chi, float(np.max(grid)) / params.gamma))
    table = mixture_table(state, [_pm_u(params.chi, gt / params.gamma) for gt in grid], max(ks))
    rows = []
    for gt, row in zip(grid, table):
        gt_cell, checksum = _fmt(float(gt)), _fmt(math.fsum(row))
        probs = row.tolist()
        for k in ks:
            rows.append([gt_cell, k, probs[k], checksum])
    write_csv(out / "pm_dist.csv", ["gamma_t", "k", "probability", "row_checksum"], rows, config_sha256(cfg))
    return 0


def cmd_count_dist(cfg: dict, out: Path, args) -> int:
    state = build_state(cfg)
    params = build_params(cfg)
    grid = gamma_t_grid(cfg)
    times = grid / params.gamma
    explicit = cfg.get("grids", {}).get("k")
    k_max = max(k_list(cfg, 0)) if explicit is not None else None
    dist = count_distribution(state, params, times, k_max=k_max)
    ks = dist.k_range.tolist()
    peaks = {str(k): params.gamma * t_m for k, t_m in zip(ks, most_probable_times(state, params, ks).tolist())}
    rows = []
    for gt, probs in zip(grid.tolist(), dist.values.tolist()):
        gt_cell = _fmt(gt)
        rows.extend([gt_cell, k, p] for k, p in zip(ks, probs))
    cfg_hash = config_sha256(cfg)
    write_csv(out / "count_dist.csv", ["gamma_t", "k", "probability"], rows, cfg_hash)
    write_json(out / "count_dist_peak_times.json", {"gamma_t_m": peaks, "config_sha256": cfg_hash})
    return 0


def cmd_scan(cfg: dict, out: Path, args) -> int:
    state = build_state(cfg)
    params = build_params(cfg)
    ks = k_list(cfg, 10)
    rows = entanglement_scan(state, params, ks)
    table = [
        [r.k, params.gamma * r.t_m, r.excess_short_time, r.excess_at_tm, r.s_ab_at_tm]
        for r in rows
    ]
    write_csv(
        out / "scan.csv",
        ["k", "gamma_t_m", "excess_short_time", "excess_at_tm", "s_ab_at_tm"],
        table,
        config_sha256(cfg),
    )
    return 0


def cmd_oracle_check(cfg: dict, out: Path, args) -> int:
    from .oracle import mc_estimates, nt_oracle_point, p_k_quadrature  # only this subcommand loads it

    state = build_state(cfg)
    params = build_params(cfg)
    section = cfg.get("oracle", {})
    _require(
        section,
        "oracle",
        {"gamma_t", "k_quadrature", "k_montecarlo", "k_density", "n_samples"},
        set(),
    )
    if state.n_max > 6:
        raise ConfigError(f"oracle checks need total photon number <= 6, state has {state.n_max}")
    gt = _as_float(section.get("gamma_t", 1.0), "oracle.gamma_t")
    t = gt / params.gamma
    k_quad = [_as_int(k, "oracle.k_quadrature") for k in section.get("k_quadrature", [0, 1, 2])]
    k_dens = [_as_int(k, "oracle.k_density") for k in section.get("k_density", [0, 1])]
    k_mc = [_as_int(k, "oracle.k_montecarlo") for k in section.get("k_montecarlo", [])]
    n_samples = _as_int(section.get("n_samples", 100_000), "oracle.n_samples")
    seed = _seed(cfg, args)
    report: dict = {"gamma_t": gt, "quadrature": [], "density": [], "montecarlo": []}
    ok = True
    for k in k_quad:
        p_cf = count_probability(state, params, t, k)
        p_or = p_k_quadrature(state, params, t, k)
        delta = abs(p_cf - p_or)
        ok &= delta <= 1e-6
        report["quadrature"].append(
            {"k": k, "p_closed": p_cf, "p_oracle": p_or, "abs_delta": delta}
        )
    for k in k_dens:
        rho_cf = postselect_density(state, params, t, k)
        rho_or = nt_oracle_point(state, params, t, k)[1]
        delta = float(np.max(np.abs(rho_cf.rho - rho_or.rho)))
        ok &= delta <= 1e-6
        report["density"].append(
            {"k": k, "max_element_delta": delta, "closed_form": density_to_json(rho_cf)}
        )
    if k_mc:
        if seed is None:
            raise ConfigError("a seed is required for Monte Carlo checks")
        for k, (est, err) in zip(k_mc, mc_estimates(state, params, t, k_mc, n_samples, seed)):
            p_cf = count_probability(state, params, t, k)
            n_sigma = abs(est - p_cf) / err if err > 0 else float("inf")
            ok &= n_sigma <= 3.0
            report["montecarlo"].append(
                {"k": k, "estimate": est, "std_error": err, "p_closed": p_cf, "n_sigma": n_sigma}
            )
    report["max_quadrature_delta"] = max(
        (e["abs_delta"] for e in report["quadrature"]), default=0.0
    )
    report["pass"] = bool(ok)
    report["config_sha256"] = config_sha256(cfg)
    write_json(out / "oracle_check.json", report)
    return 0


def _parse_records(path: str) -> np.ndarray:
    rows = []
    bad_lines = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ConfigError(f"records file {path} is empty")
    start = 1 if lines[0].lstrip().startswith("k") else 0
    for lineno, line in enumerate(lines[start:], start=start + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(",")
        if len(parts) not in (2, 3):
            bad_lines.append(lineno)
            continue
        try:
            row = [float(p) for p in parts]
            if row[0] < 0 or row[0] != int(row[0]):
                raise ValueError
        except (ValueError, OverflowError):  # int(inf) overflows
            bad_lines.append(lineno)
            continue
        rows.append(row + [1.0] * (3 - len(row)))
    if bad_lines:
        raise ConfigError(f"malformed record rows in {path} at lines: {bad_lines}")
    if not rows:
        raise ConfigError(f"no data rows in {path}")
    return np.asarray(rows, dtype=float)


def cmd_probe(cfg: dict, out: Path, args) -> int:
    from . import probe as probe_mod  # only this subcommand loads it

    params = build_params(cfg)
    section = cfg.get("probe", {})
    _require(
        section,
        "probe",
        {"gamma_t", "r_max", "j_max", "marginal_n_other", "records"},
        set(),
    )
    r_max = _as_int(section.get("r_max", probe_mod.DEFAULT_R_MAX), "probe.r_max")
    j_max = section.get("j_max")
    n_other = section.get("marginal_n_other")
    if args.analytic:
        state = build_state(cfg)
        gt = _as_float(section.get("gamma_t", 10.0), "probe.gamma_t")
        moments = probe_mod.analytic_moments(state, params, gt / params.gamma, r_max=r_max)
    else:
        records_path = args.records or section.get("records")
        if not records_path:
            raise ConfigError("probe needs --analytic or a records CSV (probe.records / --records)")
        records = _parse_records(records_path)
        moments = probe_mod.empirical_moments(records, params, r_max=r_max)
        if j_max is None:
            raise ConfigError("probe.j_max is required for empirical records")
    x_points = _as_int(cfg.get("grids", {}).get("x_points", 512), "grids.x_points")
    report = probe_mod.probe_report(
        moments,
        x_points=x_points,
        j_max=None if j_max is None else _as_int(j_max, "probe.j_max"),
        marginal_n_other=None if n_other is None else _as_int(n_other, "probe.marginal_n_other"),
    )
    cfg_hash = config_sha256(cfg)
    h = report.h_samples
    exact = h.exact if h.exact is not None else np.full(len(h.x), np.nan)
    samples = zip(h.x, h.series, exact, h.trusted)
    h_rows = [[float(x), float(s), float(e), int(bool(ok))] for x, s, e, ok in samples]
    write_csv(out / "h_function.csv", ["x", "h_series", "h_exact", "trusted"], h_rows, cfg_hash)
    c_rows = [[j, float(v)] for j, v in enumerate(report.fourier.values)]
    write_csv(out / "fourier.csv", ["j", "c_j"], c_rows, cfg_hash)
    doc = {
        "mode": moments.mode,
        "gamma_t": params.gamma * moments.t,
        "u": moments.u,
        "degenerate": moments.degenerate,
        "raw_moments": list(map(float, moments.raw_moments)),
        "factorial_moments": list(map(float, moments.factorial_moments)),
        "kappa_moments": list(map(float, moments.kappa_moments)),
        "std_errors": None if moments.std_errors is None else list(map(float, moments.std_errors)),
        "fourier": {"c_j": list(map(float, report.fourier.values)),
                    "flagged_inconsistent": report.fourier.flagged_inconsistent,
                    "total": report.fourier.total},
        "classification": asdict(report.classification),
        "aliased": report.aliased,
        "reconstruction": None
        if report.reconstruction is None
        else {
            "moduli_sq": list(map(float, report.reconstruction.moduli_sq)),
            "total": report.reconstruction.total,
            "flagged": report.reconstruction.flagged,
        },
        "config_sha256": cfg_hash,
    }
    write_json(out / "probe_report.json", doc)
    return 0


def cmd_sample(cfg: dict, out: Path, args) -> int:
    state = build_state(cfg)
    params = build_params(cfg)
    section = cfg.get("sample", {})
    _require(section, "sample", {"gamma_t", "n_samples"}, {"gamma_t", "n_samples"})
    seed = _seed(cfg, args)
    if seed is None:
        raise ConfigError("sample requires a seed (config 'seed' or --seed)")
    gt = _as_float(section["gamma_t"], "sample.gamma_t")
    t = gt / params.gamma
    n = _as_int(section["n_samples"], "sample.n_samples")
    tail = f",{_fmt(t)},{_fmt(1.0)}"  # t and the weight 1 on every row
    rows = [f"{k}{tail}" for k in sample_counts(state, params, t, n, seed).tolist()]
    write_csv(out / "sample.csv", ["k", "t", "weight"], rows, config_sha256(cfg))
    return 0


_COMMANDS = {
    "pm-dist": cmd_pm_dist,
    "count-dist": cmd_count_dist,
    "scan": cmd_scan,
    "oracle-check": cmd_oracle_check,
    "probe": cmd_probe,
    "sample": cmd_sample,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photoent",
        description="Monitor-mode photocounting experiments: distributions, "
        "entanglement scans, oracle cross-checks and state probing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "probe":
            p.add_argument("--analytic", action="store_true", help="use the configured state")
            p.add_argument("--records", default=None, help="count-record CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, Path(args.out), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ImpossibleOutcomeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
