import json
import math
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import photoent
from photoent import cli, oracle
from photoent.cli import build_params, build_state, load_config, main


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "state": {"kind": "superposition", "entries": [[1, 0, 1.0, 0.0], [0, 2, 1.0, 0.0]]},
        "params": {"lambda": 0.0, "chi": 0.5, "gamma": 1.0},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[-1].startswith("# config_sha256=")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


class TestPmDist:
    def test_vacuum_all_mass_at_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            state={"kind": "number", "m": 0, "n": 0, "d_a": 1, "d_b": 1},
            grids={"gamma_t": [0.0, 1.0]},
        )
        assert main(["pm-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "pm_dist.csv")
        assert header == ["gamma_t", "k", "probability", "row_checksum"]
        by_k0 = [r for r in rows if r[1] == "0"]
        assert all(abs(float(r[2]) - 1.0) < 1e-12 for r in by_k0)

    def test_row_checksums_are_normalized(self, tmp_path):
        cfg = write_config(
            tmp_path,
            state={"kind": "coherent", "alpha": math.sqrt(5), "beta": math.sqrt(5)},
            grids={"gamma_t": {"start": 0.0, "stop": 1.0, "num": 5}},
        )
        assert main(["pm-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "pm_dist.csv")
        for r in rows:
            assert abs(float(r[3]) - 1.0) < 1e-8

    def test_row_checksum_covers_unlisted_counts(self, tmp_path):
        # the checksum sums the whole row 0..max(k), not only the listed k
        checksums = []
        for name, ks in (("sparse", [0, 3]), ("dense", [0, 1, 2, 3])):
            out = tmp_path / name
            out.mkdir()
            cfg = write_config(tmp_path, name=f"{name}.json", grids={"gamma_t": [0.5], "k": ks})
            assert main(["pm-dist", "--config", str(cfg), "--out", str(out)]) == 0
            _, rows = read_csv(out / "pm_dist.csv")
            assert [int(r[1]) for r in rows] == ks
            checksums.append({r[3] for r in rows})
        assert checksums[0] == checksums[1] and len(checksums[0]) == 1

    def test_listed_counts_need_no_count_cutoff(self, tmp_path, monkeypatch):
        def no_cutoff(*args, **kwargs):
            raise AssertionError("pm_count_cutoff called although grids.k is given")

        monkeypatch.setattr(cli, "pm_count_cutoff", no_cutoff)
        cfg = write_config(tmp_path, grids={"gamma_t": [0.5, 1.0], "k": [0, 2]})
        assert main(["pm-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "pm_dist.csv")
        assert [int(r[1]) for r in rows] == [0, 2, 0, 2]

    def test_number_state_column_is_poisson(self, tmp_path):
        cfg = write_config(
            tmp_path,
            state={"kind": "number", "m": 1, "n": 1, "d_a": 3, "d_b": 3},
            grids={"gamma_t": [0.5], "k": [0, 1, 2, 3]},
        )
        assert main(["pm-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "pm_dist.csv")
        mu = (0.5 * 0.5 * 2.0) ** 2  # (chi t N)^2 at chi=0.5, gamma t = 0.5
        for r in rows:
            k = int(r[1])
            expected = mu**k * math.exp(-mu) / math.factorial(k)
            assert abs(float(r[2]) - expected) < 1e-12


class TestCountDist:
    def test_outputs_and_sidecar(self, tmp_path):
        cfg = write_config(tmp_path, grids={"gamma_t": [0.1, 0.5, 1.0], "k": {"max": 4}})
        assert main(["count-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "count_dist.csv")
        assert header == ["gamma_t", "k", "probability"]
        sidecar = json.loads((tmp_path / "count_dist_peak_times.json").read_text())
        assert sidecar["gamma_t_m"]["0"] == 0.0
        assert sidecar["gamma_t_m"]["1"] > 0.0
        assert "config_sha256" in sidecar

    def test_zero_count_column_decreases(self, tmp_path):
        cfg = write_config(tmp_path, grids={"gamma_t": list(np.linspace(0.05, 2.0, 10)), "k": {"max": 2}})
        assert main(["count-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "count_dist.csv")
        p0 = [float(r[2]) for r in rows if r[1] == "0"]
        assert all(b < a for a, b in zip(p0, p0[1:]))


class TestScan:
    def test_scan_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            state={"kind": "coherent", "alpha": 1.0, "beta": 1.0},
            grids={"k": [0, 1, 2]},
        )
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "scan.csv")
        assert header == ["k", "gamma_t_m", "excess_short_time", "excess_at_tm", "s_ab_at_tm"]
        assert float(rows[0][1]) == 0.0
        excess = [float(r[3]) for r in rows]
        assert excess[2] > excess[1] > excess[0]

    def test_beam_splitter_beyond_its_budget_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            state={"kind": "coherent", "alpha": 1.0, "beta": 1.0},
            params={"lambda": 1e12, "chi": 0.5, "gamma": 1.0},
            grids={"k": [1, 2]},
        )
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "beyond the budget" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOracleCheck:
    def test_small_space_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            oracle={"gamma_t": 0.8, "k_quadrature": [0, 1], "k_density": [0], "k_montecarlo": []},
        )
        assert main(["oracle-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "oracle_check.json").read_text())
        assert report["pass"] is True
        assert report["max_quadrature_delta"] < 1e-6
        dens = report["density"][0]["closed_form"]
        assert len(dens["elements"]) == (dens["d_a"] * dens["d_b"]) ** 2

    def test_big_state_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            state={"kind": "coherent", "alpha": math.sqrt(5), "beta": math.sqrt(5)},
        )
        assert main(["oracle-check", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_monte_carlo_branch(self, tmp_path):
        cfg = write_config(
            tmp_path,
            oracle={
                "gamma_t": 1.5,
                "k_quadrature": [0],
                "k_density": [],
                "k_montecarlo": [1],
                "n_samples": 2000,
            },
            seed=13,
        )
        assert main(["oracle-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "oracle_check.json").read_text())
        assert report["montecarlo"][0]["k"] == 1
        assert report["montecarlo"][0]["n_sigma"] <= 3.0
        assert report["pass"] is True

    def test_monte_carlo_runs_one_histogram_for_every_k(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path,
            oracle={
                "gamma_t": 1.5,
                "k_quadrature": [],
                "k_density": [],
                "k_montecarlo": [0, 1, 2],
                "n_samples": 2000,
            },
            seed=13,
        )
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return histogram(*args, **kwargs)

        histogram = oracle.mc_count_histogram
        monkeypatch.setattr(oracle, "mc_count_histogram", counting)
        assert main(["oracle-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        report = json.loads((tmp_path / "oracle_check.json").read_text())
        loaded = load_config(str(cfg))
        state, params = build_state(loaded), build_params(loaded)
        for entry in report["montecarlo"]:
            expected = oracle.mc_estimates(state, params, 1.5, [entry["k"]], 2000, 13)[0]
            assert (entry["estimate"], entry["std_error"]) == expected

    def test_monte_carlo_requires_seed(self, tmp_path):
        cfg = write_config(tmp_path, oracle={"k_montecarlo": [1], "n_samples": 2000})
        assert main(["oracle-check", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestProbeCommand:
    def test_analytic_pipeline(self, tmp_path):
        cfg = write_config(
            tmp_path,
            state={"kind": "two-mode-squeezed", "r": 0.5, "n_max": 8},
            probe={"gamma_t": 2.0},
        )
        assert main(["probe", "--config", str(cfg), "--out", str(tmp_path), "--analytic"]) == 0
        report = json.loads((tmp_path / "probe_report.json").read_text())
        assert report["classification"]["kind"] == "correlated-support"
        assert abs(report["classification"]["squeeze_r"] - 0.5) < 1e-6
        assert (tmp_path / "h_function.csv").exists()
        assert (tmp_path / "fourier.csv").exists()

    def test_anti_correlated_verdict(self, tmp_path):
        cfg = write_config(
            tmp_path,
            state={
                "kind": "superposition",
                "entries": [[4, 0, 0.5, 0.0], [3, 1, 1.0, 0.0], [2, 2, 0.25, 0.5]],
            },
            probe={"gamma_t": 2.0},
        )
        assert main(["probe", "--config", str(cfg), "--out", str(tmp_path), "--analytic"]) == 0
        report = json.loads((tmp_path / "probe_report.json").read_text())
        assert report["classification"]["kind"] == "anti-correlated"
        assert report["classification"]["coefficients_recoverable"] is False

    def test_empirical_round_trip_via_sample(self, tmp_path):
        cfg = write_config(
            tmp_path,
            state={"kind": "number", "m": 1, "n": 1, "d_a": 3, "d_b": 3},
            sample={"gamma_t": 1.0, "n_samples": 20000},
            probe={"j_max": 4, "records": str(tmp_path / "sample.csv"), "r_max": 4},
            seed=99,
        )
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["probe", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "probe_report.json").read_text())
        assert report["mode"] == "empirical"
        assert abs(report["kappa_moments"][1] - 4.0) < 0.2

    def test_malformed_records_listed_by_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,t,weight\n0,1.0,1\nnot,a,row\n1,1.0\n2,oops,1\n")
        cfg = write_config(tmp_path, probe={"j_max": 3, "records": str(bad)})
        assert main(["probe", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "lines" in err and "3" in err and "5" in err

    def test_infinite_count_listed_by_line(self, tmp_path, capsys):
        # int(inf) raises OverflowError, not ValueError
        bad = tmp_path / "bad.csv"
        bad.write_text("k,weight\n0,1.0\ninf,2.0\n-inf,1.0\n")
        cfg = write_config(tmp_path, probe={"j_max": 3, "records": str(bad)})
        assert main(["probe", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "lines: [3, 4]" in capsys.readouterr().err

    def test_probe_needs_some_input(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["probe", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_aliased_flag_written(self, tmp_path):
        # the default state has N up to 2; j_max = 1 folds N = 2 into C(0..1)
        for j_max, expected in ((1, True), (None, False)):
            probe = {"gamma_t": 2.0} if j_max is None else {"gamma_t": 2.0, "j_max": j_max}
            cfg = write_config(tmp_path, probe=probe)
            assert main(["probe", "--config", str(cfg), "--out", str(tmp_path), "--analytic"]) == 0
            report = json.loads((tmp_path / "probe_report.json").read_text())
            assert report["aliased"] is expected

    @pytest.mark.parametrize("command", ["pm-dist", "count-dist", "scan", "oracle-check", "sample", "probe"])
    def test_probe_flags_rejected_elsewhere(self, tmp_path, capsys, command):
        # --analytic and --records belong to probe; --compat-asymptotic to no command
        cfg = write_config(tmp_path)
        flags = [] if command == "probe" else [["--analytic"], ["--records", "counts.csv"]]
        for flag in flags + [["--compat-asymptotic"]]:
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg), "--out", str(tmp_path), *flag])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestSample:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, sample={"gamma_t": 1.0, "n_samples": 500}, seed=7)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["sample", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sample", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "sample.csv").read_bytes() == (out2 / "sample.csv").read_bytes()

    def test_rows_are_the_seeded_counts_with_t_and_unit_weight(self, tmp_path):
        cfg = write_config(
            tmp_path, params={"lambda": 0.0, "chi": 0.5, "gamma": 3.0}, sample={"gamma_t": 1.0, "n_samples": 300}, seed=7
        )
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "sample.csv")
        ks = photoent.sample_counts(build_state(load_config(cfg)), build_params(load_config(cfg)), 1.0 / 3.0, 300, 7)
        assert header == ["k", "t", "weight"]
        assert rows == [[str(k), f"{1.0 / 3.0:.17g}", "1"] for k in ks.tolist()]

    def test_zero_time_all_zero_counts(self, tmp_path):
        cfg = write_config(tmp_path, sample={"gamma_t": 0.0, "n_samples": 50}, seed=7)
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "sample.csv")
        assert all(r[0] == "0" for r in rows)

    def test_seed_required(self, tmp_path):
        cfg = write_config(tmp_path, sample={"gamma_t": 1.0, "n_samples": 10})
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, sample={"gamma_t": 1.0, "n_samples": 200}, seed=7)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["sample", "--config", str(cfg), "--out", str(out1)])
        main(["sample", "--config", str(cfg), "--out", str(out2), "--seed", "8"])
        assert (out1 / "sample.csv").read_bytes() != (out2 / "sample.csv").read_bytes()


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bogus={"x": 1})
        assert main(["pm-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_unknown_state_key(self, tmp_path):
        cfg = write_config(tmp_path, state={"kind": "coherent", "alpha": 1.0, "beta": 0.0, "junk": 2})
        assert main(["pm-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["pm-dist", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2

    def test_bad_physical_parameters(self, tmp_path):
        cfg = write_config(tmp_path, params={"lambda": 0.0, "chi": -1.0, "gamma": 1.0})
        assert main(["pm-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["count-dist", "scan"])
    @pytest.mark.parametrize(
        ("chi", "gamma", "field"), [(0.5, 1e-200, "gamma^2"), (1e200, 1.0, "chi^2"), (1e-300, 1.0, "chi^2")]
    )
    def test_rates_whose_squares_leave_the_normal_floats_exit_2(self, tmp_path, capsys, command, chi, gamma, field):
        # these exited 1 with ZeroDivisionError or OverflowError, or 0 with peak times of 0.0
        cfg = write_config(
            tmp_path, params={"lambda": 0.0, "chi": chi, "gamma": gamma}, grids={"gamma_t": [0.5], "k": [0, 1, 3]}
        )
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"{field} must be a positive normal float" in capsys.readouterr().err
        assert not any(path.is_file() for path in (tmp_path / "out").rglob("*"))

    @pytest.mark.parametrize("command", ["count-dist", "scan"])
    def test_accepted_rates_without_a_float_peak_time_exit_2(self, tmp_path, capsys, command):
        # the inversion of g overflowed here, and both wrote t_m = 0
        cfg = write_config(
            tmp_path,
            state={"kind": "superposition", "entries": [[1, 0, 1.0, 0.0], [0, 2, 1.0, 0.0], [2, 2, 1.0, 0.0]]},
            params={"lambda": 0.0, "chi": 1.0, "gamma": 6e153},
            grids={"gamma_t": [0.5], "k": [0, 100]},
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "is not a positive float at chi=1.0, gamma=6e+153" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "state,field",
        [
            ({"kind": "superposition", "entries": [[1, 0, math.nan, 0.0], [0, 2, 1.0, 0.0]]}, "entries"),
            ({"kind": "superposition", "entries": [[1, 0, 1.0, -math.inf]]}, "entries"),
            ({"kind": "coherent", "alpha": math.nan, "beta": 1.0}, "alpha"),
            ({"kind": "coherent", "alpha": 1.0, "beta": [0.0, math.inf]}, "beta"),
        ],
    )
    def test_non_finite_state_rejected(self, tmp_path, capsys, state, field):
        cfg = write_config(tmp_path, state=state, grids={"gamma_t": [0.5], "k": [0, 1]})
        assert main(["pm-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "pm_dist.csv").exists()

    @pytest.mark.parametrize(
        "command,overrides,field",
        [
            ("sample", {"sample": {"gamma_t": 1.0, "n_samples": 10}, "seed": 2.5}, "seed"),
            ("sample", {"sample": {"gamma_t": 1.0, "n_samples": 10}, "seed": "7"}, "seed"),
            ("sample", {"sample": {"gamma_t": 1.0, "n_samples": 3.99}, "seed": 7}, "sample.n_samples"),
            ("pm-dist", {"grids": {"gamma_t": [0.5], "k": [0.9, 2.5]}}, "grids.k"),
            ("pm-dist", {"grids": {"gamma_t": [0.5], "k": [True]}}, "grids.k"),
            ("pm-dist", {"grids": {"gamma_t": [0.5], "k": {"max": 2.5}}}, "grids.k.max"),
            ("pm-dist", {"grids": {"gamma_t": {"start": 0, "stop": 1, "num": 4.5}}}, "grids.gamma_t.num"),
            ("pm-dist", {"state": {"kind": "superposition", "entries": [[1.7, 0, 1.0, 0.0]]}}, "state.entries"),
            ("pm-dist", {"state": {"kind": "superposition", "entries": [[1, "0", 1.0, 0.0]]}}, "state.entries"),
            ("pm-dist", {"state": {"kind": "number", "m": 1.0, "n": 0, "d_a": 2, "d_b": 1}}, "state.m"),
            ("pm-dist", {"state": {"kind": "two-mode-squeezed", "r": 0.5, "n_max": 2.5}}, "state.n_max"),
            ("oracle-check", {"oracle": {"k_quadrature": [1.5]}}, "oracle.k_quadrature"),
            ("oracle-check", {"oracle": {"k_density": [True]}}, "oracle.k_density"),
            ("oracle-check", {"oracle": {"k_montecarlo": ["2"]}, "seed": 1}, "oracle.k_montecarlo"),
            ("oracle-check", {"oracle": {"k_montecarlo": [2], "n_samples": 2000.5}, "seed": 1}, "oracle.n_samples"),
            ("probe", {"probe": {"r_max": 2.5}}, "probe.r_max"),
            ("probe", {"probe": {"j_max": 3.5}}, "probe.j_max"),
            ("probe", {"probe": {"marginal_n_other": 1.5}}, "probe.marginal_n_other"),
            ("probe", {"grids": {"x_points": 100.5}}, "grids.x_points"),
            # the quadrature tolerance is fixed at 1e-6, the pass bound
            ("oracle-check", {"oracle": {"rel_tol": 1e-6}}, "rel_tol"),
        ],
    )
    def test_non_integer_field_rejected(self, tmp_path, capsys, command, overrides, field):
        cfg = write_config(tmp_path, **overrides)
        flags = ["--analytic"] if command == "probe" else []
        assert main([command, "--config", str(cfg), "--out", str(tmp_path), *flags]) == 2
        assert field in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("bad", [True, "0.5", pytest.param(10**400, id="1e400")])
    @pytest.mark.parametrize(
        "command,field,overrides",
        [
            ("pm-dist", "params.lambda", lambda v: {"params": {"lambda": v, "chi": 0.5, "gamma": 1.0}}),
            ("pm-dist", "params.chi", lambda v: {"params": {"chi": v, "gamma": 1.0}}),
            ("pm-dist", "params.gamma", lambda v: {"params": {"chi": 0.5, "gamma": v}}),
            (
                "pm-dist",
                "tolerances.eps_trunc",
                lambda v: {"state": {"kind": "coherent", "alpha": 1.0, "beta": 0.5}, "tolerances": {"eps_trunc": v}},
            ),
            ("pm-dist", "state.alpha", lambda v: {"state": {"kind": "coherent", "alpha": v, "beta": 0.5}}),
            ("pm-dist", "state.beta", lambda v: {"state": {"kind": "coherent", "alpha": 1.0, "beta": [0.5, v]}}),
            ("pm-dist", "state.r", lambda v: {"state": {"kind": "two-mode-squeezed", "r": v, "n_max": 2}}),
            ("pm-dist", "state.entries", lambda v: {"state": {"kind": "superposition", "entries": [[1, 0, v, 0.0]]}}),
            ("pm-dist", "grids.gamma_t", lambda v: {"grids": {"gamma_t": [0.5, v]}}),
            ("pm-dist", "grids.gamma_t.start", lambda v: {"grids": {"gamma_t": {"start": v, "stop": 1.0, "num": 3}}}),
            ("pm-dist", "grids.gamma_t.stop", lambda v: {"grids": {"gamma_t": {"start": 0.0, "stop": v, "num": 3}}}),
            ("oracle-check", "oracle.gamma_t", lambda v: {"oracle": {"gamma_t": v, "k_density": []}}),
            ("probe", "probe.gamma_t", lambda v: {"probe": {"gamma_t": v}}),
            ("sample", "sample.gamma_t", lambda v: {"sample": {"gamma_t": v, "n_samples": 10}, "seed": 3}),
        ],
    )
    def test_non_real_field_rejected(self, tmp_path, capsys, command, field, overrides, bad):
        # a bool or a string is never read as a number, and an integer
        # beyond the float range fails with the field's name
        cfg = write_config(tmp_path, **{"grids": {"gamma_t": [0.5], "k": [0, 1]}, **overrides(bad)})
        flags = ["--analytic"] if command == "probe" else []
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_time_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grids={"gamma_t": [0.5, math.nan]})
        assert main(["count-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "t must be finite" in capsys.readouterr().err
        assert not (tmp_path / "count_dist.csv").exists()

    def test_negative_count_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grids={"gamma_t": [0.5], "k": [0, -1]})
        assert main(["pm-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "grids.k" in capsys.readouterr().err

    def test_determinism_of_primary_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            state={"kind": "coherent", "alpha": 1.0, "beta": 1.0},
            grids={"gamma_t": [0.2, 0.7], "k": {"max": 3}},
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["count-dist", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out1 / "count_dist.csv").read_bytes() == (out2 / "count_dist.csv").read_bytes()
        assert (out1 / "count_dist_peak_times.json").read_bytes() == (
            out2 / "count_dist_peak_times.json"
        ).read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_output_file_mode_follows_umask(tmp_path, umask):
    cfg = write_config(tmp_path, grids={"gamma_t": [0.5], "k": [0, 1]})
    old = os.umask(umask)
    try:
        assert main(["pm-dist", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "pm_dist.csv").stat().st_mode) == 0o666 & ~umask


def _package_env():
    package_root = str(Path(photoent.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


README_STATE = {"kind": "coherent", "alpha": 2.2360679774997896, "beta": 2.2360679774997896}
README_PARAMS = {"lambda": 0.0, "chi": 0.967, "gamma": 1.0}
UP_TO_1000 = {"gamma_t": {"start": 0.0, "stop": 1000.0, "num": 81}}


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        ("pm-dist", {"grids": UP_TO_1000}, "the count range k = 0..1422278919"),
        ("count-dist", {"grids": UP_TO_1000}, "the count table of k = 0..5672554 over 45 sectors"),
        ("scan", {"grids": {"k": {"max": 10**12}}}, "grids.k.max = 1000000000000"),
        ("sample", {"sample": {"gamma_t": 1.0, "n_samples": 10**12}, "seed": 1}, "n_samples"),
    ],
)
def test_oversized_requests_exit_3_within_a_second(tmp_path, command, overrides, field):
    # each size is checked before it is allocated, so under a 3 GB address
    # space (set in the child only) the run exits 3 with a message, not a
    # MemoryError traceback
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    cfg = write_config(tmp_path, state=README_STATE, params=README_PARAMS, **overrides)
    code = (
        "import sys, time\n"
        "from photoent.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, command, "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=_package_env(),
        preexec_fn=cap_address_space,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"error: {field} asks for ")
    assert proc.stderr.rstrip().endswith("beyond the budget of 10,000,000")
    assert float(proc.stdout) < 1.0


def test_cli_and_oracles_run_without_scipy():
    # no scipy module at all after importing the package and the CLI, nor
    # after every oracle has run (their matrix exponential is numpy)
    code = (
        "import sys\n"
        "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import photoent; print(scipy())\n"
        "import photoent.cli; print(scipy())\n"
        "from photoent.oracle import mc_count_histogram, nt_oracle_point, p_k_quadrature\n"
        "s, params = photoent.make_superposition([(1, 0, 1.0), (0, 2, 1.0)]), photoent.ModelParams(0.1, 0.5, 1.0)\n"
        "p = p_k_quadrature(s, params, 1.0, 2)\n"
        "q, rho = nt_oracle_point(s, params, 1.0, 1)\n"
        "hist = mc_count_histogram(s, params, 1.0, 100, 3)\n"
        "print(0.0 < p < 1.0, 0.0 < q < 1.0, int(hist.sum()), scipy())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_package_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "True True 100 []"]


def test_cli_import_loads_neither_oracle_nor_probe():
    # each subcommand imports what only it needs: oracle-check the oracles,
    # probe the probe pipeline
    code = (
        "import sys\n"
        "import photoent.cli\n"
        "print(sorted(m for m in sys.modules if m in ('photoent.oracle', 'photoent.probe')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_package_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


def _run_entry_point(command, env):
    args = ["pm-dist", "--config", "/nonexistent.json"]
    proc = subprocess.run(
        command + args, capture_output=True, text=True, cwd=tempfile.gettempdir(), env=env
    )
    assert proc.returncode == 2, proc.stderr
    # argparse usage errors exit 2 as well; only the config check says this.
    assert "config file not found" in proc.stderr


def test_console_entry_point():
    """The script declared in pyproject.toml starts the CLI, which exits 2
    on a missing config.

    Runs what the pip-generated wrapper runs, so no install is needed; where
    an installed ``photoent`` executable is on PATH it is run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["photoent"]
    assert target == "photoent.cli:main"
    module, func = target.split(":")

    env = _package_env()
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    _run_entry_point([sys.executable, "-c", code], env=env)

    installed = shutil.which("photoent")
    if installed:
        _run_entry_point([installed], env=env)
