import argparse
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pagecusum
from pagecusum import MonitoringParams, ValidationError, run_monitor
from pagecusum.cli import build_parser, dispatch
from pagecusum.wiener import CriticalValueEstimate, save_estimate


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_series(path, values, header=True):
    lines = (["x"] if header else []) + [repr(float(v)) for v in values]
    path.write_text("\n".join(lines) + "\n")


def imported_by_pagecusum(module):
    """Whether importing every pagecusum module in a fresh interpreter loads
    `module`."""
    # every command pays for what the modules it loads pull in at import
    code = ("import sys, pagecusum.asymptotics, pagecusum.cli, "
            "pagecusum.datagen, pagecusum.detectors, pagecusum.experiments, "
            "pagecusum.model, pagecusum.rng, pagecusum.wiener; "
            f"print({module!r} in sys.modules)")
    src = os.path.dirname(os.path.dirname(pagecusum.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    return out.strip() == "True"


def test_import_leaves_out_scipy_integrate():
    assert not imported_by_pagecusum("scipy.integrate")


def test_import_leaves_out_scipy_special():
    assert not imported_by_pagecusum("scipy.special")


# what a start-up must not load: the process pool, numpy.random, and the
# modules that monitor and critvals never use (generate and simulate import
# experiments when they run)
NOT_AT_STARTUP = ("concurrent.futures", "multiprocessing", "numpy.random",
                  "pagecusum.experiments", "pagecusum.asymptotics")


def test_startup_loads_only_what_is_used(tmp_path):
    code = f"""
import sys
import numpy
# numpy 1.x loads numpy.random in `import numpy`: only what pagecusum adds counts
watched = [m for m in {NOT_AT_STARTUP!r} if m not in sys.modules]
import pagecusum
print([m for m in watched if m in sys.modules])
import pagecusum.cli
print([m for m in watched if m in sys.modules])
from pagecusum import rng
print(rng.rng_stream(0, 0).random() < 1.0)
print(all(getattr(pagecusum, name) is not None
          for name in pagecusum.__all__))
sys.exit(pagecusum.cli.dispatch(["critvals", "--gamma", "0", "--alpha", "0.1",
                                 "--reps", "100", "--grid", "10",
                                 "--threads", "2"]))
"""
    src = os.path.dirname(os.path.dirname(pagecusum.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    lines = out.splitlines()
    assert lines[:4] == ["[]", "[]", "True", "True"]
    assert json.loads(lines[4])["reps"] == 100  # the two-process study ran


class TestLimitCdfCommand:
    def test_case_three_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "limit-cdf", "--case", "III", "--x", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["psi_upper"] == 0.0
        assert payload["psi"] == pytest.approx(1.0)

    def test_case_two_needs_d1(self, capsys):
        code, _, err = run_cli(capsys, "limit-cdf", "--case", "II", "--x", "1")
        assert code == 2 and "d1" in err
        code, _, err = run_cli(capsys, "limit-cdf", "--case", "I", "--d1",
                               "0.3", "--x", "1")
        assert code == 2 and "d1" in err


class TestAsymptoticsCommand:
    def test_published_normalization(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "--m", "100", "--gamma",
                               "0", "--kstar", "1", "--delta", "1", "--sigma",
                               "1", "--c", "1.645")
        assert code == 0
        payload = json.loads(out)
        assert payload["a_m"] == pytest.approx(17.45, abs=0.01)
        assert payload["b_m"] == pytest.approx(4.18, abs=0.01)
        assert payload["case"] == "I"
        assert "d1" not in payload

    def test_knife_edge_reports_d1_and_N(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "--m", "1000", "--gamma",
                               "0.25", "--theta", "1", "--beta",
                               str(1.0 / 3.0), "--delta", "1", "--c", "1.899",
                               "--x", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "II"
        assert payload["d1"] == pytest.approx(0.2763, abs=1e-3)
        assert payload["N"] < payload["a_m"]

    def test_kstar_and_theta_are_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "asymptotics", "--m", "100", "--gamma",
                               "0", "--kstar", "1", "--theta", "1", "--beta",
                               "0.5", "--delta", "1", "--c", "1.6")
        assert code == 2 and "either" in err

    def test_simulate_kstar_and_theta_are_exclusive(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG + "theta = 7.0\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--out", str(tmp_path / "out"))
        assert code == 2 and "either" in err
        assert not (tmp_path / "out").exists()


class TestCritvalsCommand:
    def test_gamma_domain_message(self, capsys):
        code, _, err = run_cli(capsys, "critvals", "--gamma", "0.7",
                               "--alpha", "0.1")
        assert code == 2
        assert "[0, 0.5)" in err

    def test_small_run_writes_exact_json(self, capsys, tmp_path):
        out_file = tmp_path / "cv.json"
        code, out, _ = run_cli(capsys, "critvals", "--gamma", "0", "--alpha",
                               "0.1", "--detector", "ordinary", "--reps",
                               "1000", "--grid", "64", "--seed", "5", "--out",
                               str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert set(payload) == {"gamma", "alpha", "side", "detector", "reps",
                                "grid", "seed", "c", "std_err"}
        assert json.loads(out) == payload
        first = out_file.read_bytes()
        code, _, _ = run_cli(capsys, "critvals", "--gamma", "0", "--alpha",
                             "0.1", "--detector", "ordinary", "--reps",
                             "1000", "--grid", "64", "--seed", "5", "--out",
                             str(out_file))
        assert code == 0 and out_file.read_bytes() == first

    def test_persisting_needs_reps(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "critvals", "--gamma", "0", "--alpha",
                               "0.1", "--reps", "500", "--grid", "32",
                               "--out", str(tmp_path / "cv.json"))
        assert code == 2 and "1000" in err

    def test_persisting_too_few_reps_exits_before_simulating(
            self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(pagecusum.wiener, "estimate_critical_value",
                            lambda **kw: calls.append(kw))
        out_file = tmp_path / "cv.json"
        code, out, err = run_cli(capsys, "critvals", "--gamma", "0",
                                 "--alpha", "0.1", "--reps", "999", "--out",
                                 str(out_file))
        assert code == 2 and "--reps >= 1000" in err and out == ""
        assert calls == [] and not out_file.exists()


class TestMonitorCommand:
    def test_immediate_detection(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        train = tmp_path / "train.csv"
        stream = tmp_path / "stream.csv"
        write_series(train, rng.standard_normal(50))
        write_series(stream, rng.standard_normal(20) + 100.0, header=False)
        code, out, _ = run_cli(capsys, "monitor", "--train", str(train),
                               "--stream", str(stream), "--gamma", "0",
                               "--alpha", "0.1", "--detector", "page")
        assert code == 0
        payload = json.loads(out)
        assert payload["stopped"] is True and payload["tau"] == 1
        assert payload["stat_at_tau"] >= payload["threshold_at_tau"]

    def test_explicit_critical_value_and_no_stop(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        train = tmp_path / "train.csv"
        stream = tmp_path / "stream.csv"
        write_series(train, rng.standard_normal(50))
        write_series(stream, rng.standard_normal(30))
        code, out, _ = run_cli(capsys, "monitor", "--train", str(train),
                               "--stream", str(stream), "--critical-value",
                               "50.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["stopped"] is False and payload["tau"] is None

    @pytest.mark.parametrize("c, stream, msg", [
        ("1e308", [1.0], "threshold"),
        ("1.0", [-1.7e308, -1.7e308, 1.0], "non-finite at k = 3")])
    def test_overflow_exits_2(self, capsys, tmp_path, c, stream, msg):
        train = tmp_path / "train.csv"
        write_series(train, np.random.default_rng(2).standard_normal(50))
        write_series(tmp_path / "stream.csv", stream)
        code, out, err = run_cli(capsys, "monitor", "--train", str(train),
                                 "--stream", str(tmp_path / "stream.csv"),
                                 "--critical-value", c, "--detector", "page")
        assert code == 2 and out == "" and msg in err

    def test_unknown_combination_fails_cleanly(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        train = tmp_path / "train.csv"
        stream = tmp_path / "stream.csv"
        write_series(train, rng.standard_normal(20))
        write_series(stream, rng.standard_normal(5))
        code, _, err = run_cli(capsys, "monitor", "--train", str(train),
                               "--stream", str(stream), "--gamma", "0.1")
        assert code == 2 and "critvals" in err

    def test_missing_cache_directory_exits_2(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        train = tmp_path / "train.csv"
        stream = tmp_path / "stream.csv"
        write_series(train, rng.standard_normal(20))
        write_series(stream, rng.standard_normal(5))
        code, out, err = run_cli(capsys, "monitor", "--train", str(train),
                                 "--stream", str(stream), "--cache",
                                 str(tmp_path / "no_such_dir"))
        assert code == 2 and out == ""
        assert "no_such_dir" in err and "not a directory" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["train", "stream"])
    def test_non_finite_value_exits_2(self, capsys, tmp_path, bad, where):
        rng = np.random.default_rng(4)
        files = {"train": tmp_path / "train.csv",
                 "stream": tmp_path / "stream.csv"}
        write_series(files["train"], rng.standard_normal(50))
        write_series(files["stream"], rng.standard_normal(30))
        lines = files[where].read_text().splitlines()
        lines[10] = bad
        files[where].write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "monitor", "--train",
                                 str(files["train"]), "--stream",
                                 str(files["stream"]), "--critical-value",
                                 "1.7")
        assert code == 2 and out == ""
        assert "non-finite" in err and bad in err

    @pytest.mark.parametrize("shift, stops", [(1.5, True), (0.0, False)])
    def test_trace_ends_at_the_printed_result(self, capsys, tmp_path, shift,
                                              stops):
        rng = np.random.default_rng(5)
        train = tmp_path / "train.csv"
        stream = tmp_path / "stream.csv"
        trace = tmp_path / "trace.csv"
        values = rng.standard_normal(130)
        values[40:] += shift
        write_series(train, rng.standard_normal(50))
        write_series(stream, values)
        argv = ["monitor", "--train", str(train), "--stream", str(stream),
                "--gamma", "0.25", "--horizon-factor", "2"]
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out, _ = run_cli(capsys, *argv, "--trace", str(trace))
        assert code == 0 and out == plain
        payload = json.loads(out)
        assert payload["stopped"] is stops
        lines = trace.read_text().splitlines()
        assert lines[0] == "k,stat,threshold"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(k) for k, _, _ in rows] == list(range(1, len(rows) + 1))
        k, stat, thresh = rows[-1]
        if stops:
            assert int(k) == payload["tau"]
            assert float(stat) == payload["stat_at_tau"]
            assert float(thresh) == payload["threshold_at_tau"]
            assert float(stat) >= float(thresh)
        else:
            # the horizon is 100 of the 130 values
            assert int(k) == 100
            assert all(float(s) < float(t) for _, s, t in rows)

    def test_failed_traced_run_leaves_no_trace_file(self, capsys, tmp_path):
        # Q(m, k) overflows at k = 7, after six rows would have been written
        train = tmp_path / "train.csv"
        stream = tmp_path / "stream.csv"
        write_series(train, np.random.default_rng(6).standard_normal(50))
        write_series(stream, [0.1] * 5 + [-1.7e308, -1.7e308, 1.0])
        trace = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "monitor", "--train", str(train),
                                 "--stream", str(stream), "--critical-value",
                                 "1.0", "--trace", str(trace))
        assert code == 2 and out == ""
        assert "non-finite at k = 7" in err
        assert sorted(os.listdir(tmp_path)) == ["stream.csv", "train.csv"]


class TestGenerateCommand:
    CONFIG = ("omega = 0.5\nalpha = 0.2\nbeta = 0.3\nburn_in = 50\n"
              "mu = 0.0\ndelta = 1.0\ntheta = 1.0\nbeta_exp = 0.0\n"
              "m = 40\nlength = 60\n")

    def test_writes_series(self, capsys, tmp_path):
        spec = tmp_path / "gen.cfg"
        spec.write_text(self.CONFIG)
        out = tmp_path / "series.csv"
        code, _, _ = run_cli(capsys, "generate", "--spec", str(spec),
                             "--seed", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x"
        assert len(lines) == 1 + 40 + 60
        first = out.read_bytes()
        run_cli(capsys, "generate", "--spec", str(spec), "--seed", "3",
                "--out", str(out))
        assert out.read_bytes() == first

    def test_n_overrides_length(self, capsys, tmp_path):
        spec = tmp_path / "gen.cfg"
        spec.write_text(self.CONFIG)
        out = tmp_path / "series.csv"
        code, _, _ = run_cli(capsys, "generate", "--spec", str(spec), "--n",
                             "10", "--seed", "3", "--out", str(out))
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 40 + 10

    def test_n_stands_in_for_a_missing_length(self, capsys, tmp_path):
        spec = tmp_path / "gen.cfg"
        spec.write_text(self.CONFIG.replace("length = 60\n", ""))
        out = tmp_path / "series.csv"
        code, _, _ = run_cli(capsys, "generate", "--spec", str(spec), "--n",
                             "10", "--seed", "3", "--out", str(out))
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 40 + 10

    def test_missing_length_without_n_rejected(self, capsys, tmp_path):
        spec = tmp_path / "gen.cfg"
        spec.write_text(self.CONFIG.replace("length = 60\n", ""))
        code, _, err = run_cli(capsys, "generate", "--spec", str(spec),
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2 and "length" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        spec = tmp_path / "gen.cfg"
        spec.write_text(self.CONFIG + "bogus = 1\n")
        code, _, err = run_cli(capsys, "generate", "--spec", str(spec),
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2 and "bogus" in err

    @pytest.mark.parametrize("line, argv, name", [
        ("m = 1", [], "m"), ("m = 0", [], "m"),
        ("length = 0", [], "length"), ("length = 60", ["--n", "0"], "length"),
        ("length = 60", ["--n", "-3"], "length"),
    ])
    def test_short_series_rejected(self, capsys, tmp_path, line, argv, name):
        # the training sample needs two values, the stream one
        spec = tmp_path / "gen.cfg"
        key = line.split()[0]
        spec.write_text(self.CONFIG.replace(
            "m = 40" if key == "m" else "length = 60", line))
        code, out, err = run_cli(capsys, "generate", "--spec", str(spec),
                                 *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 2 and out == "" and f"{name} must be" in err
        assert os.listdir(tmp_path) == ["gen.cfg"]

    def test_overflow_exits_2_and_writes_no_file(self, capsys, tmp_path):
        # the GARCH variance overflows to -inf at value 53 with seed 2; the
        # suite turns a RuntimeWarning into an error, which would exit 1
        spec = tmp_path / "gen.cfg"
        spec.write_text(self.CONFIG.replace("omega = 0.5", "omega = 1e306")
                        .replace("alpha = 0.2", "alpha = 0.5")
                        .replace("beta = 0.3", "beta = 0.45"))
        code, out, err = run_cli(capsys, "generate", "--spec", str(spec),
                                 "--seed", "2", "--out",
                                 str(tmp_path / "x.csv"))
        assert code == 2 and out == ""
        assert "value 53 of the series overflows" in err
        assert os.listdir(tmp_path) == ["gen.cfg"]

SIM_CONFIG = ("m = 60\ngamma = 0.0\nalpha = 0.1\nside = one_sided\n"
              "delta = 1.5\nkstar = 2\nhorizon_factor = 4\nreps = 40\n"
              "seed = 9\nomega = 0.5\nalpha_garch = 0.2\nbeta_garch = 0.3\n"
              "burn_in = 100\n")


class TestSimulateCommand:
    def test_outputs_and_determinism(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                             "--out", str(out_dir))
        assert code == 0
        names = ("records.csv", "density_page.csv", "density_q.csv",
                 "density_tilde.csv", "meta.json")
        blobs = {n: (out_dir / n).read_bytes() for n in names}
        meta = json.loads(blobs["meta.json"])
        assert meta["reps"] == 40 and meta["seed"] == 9
        assert meta["c_page"] == pytest.approx(1.69236)
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                             "--out", str(out_dir))
        assert code == 0
        for n in names:
            assert (out_dir / n).read_bytes() == blobs[n]

    def test_threads_flag_keeps_outputs_identical(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(a))
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(b),
                "--threads", "2")
        for name in ("records.csv", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        out_dir = tmp_path / "out"
        run_cli(capsys, "simulate", "--config", str(cfg), "--out",
                str(out_dir), "--seed", "77")
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["seed"] == 77

    def test_cache_is_consulted(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        est = CriticalValueEstimate(c=2.5, std_err=0.01, gamma=0.0, alpha=0.1,
                                    side="one_sided", detector="page",
                                    reps=5000, grid_size=256, seed=1)
        save_estimate(est, cache / "page.json")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                             "--out", str(out_dir), "--cache", str(cache))
        assert code == 0
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["c_page"] == 2.5
        assert meta["c_q"] == pytest.approx(1.64485)  # falls back to reference

    @pytest.mark.parametrize("line", ["grid = 500", "detector = page"])
    def test_unused_keys_rejected(self, capsys, tmp_path, line):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG + line + "\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--out", str(tmp_path / "out"))
        assert code == 2 and "unknown key" in err

    def test_delta_zero_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG.replace("delta = 1.5", "delta = 0"))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--out", str(tmp_path / "out"))
        assert code == 2 and "delta" in err


class TestDensityCommand:
    def test_rerun_kde_from_records(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        out_dir = tmp_path / "out"
        run_cli(capsys, "simulate", "--config", str(cfg), "--out",
                str(out_dir))
        dens_dir = tmp_path / "dens"
        code, _, _ = run_cli(capsys, "density", "--records",
                             str(out_dir / "records.csv"), "--out",
                             str(dens_dir))
        assert code == 0
        assert (dens_dir / "density_page.csv").read_bytes() == \
            (out_dir / "density_page.csv").read_bytes()

    @pytest.mark.parametrize("column, value, kind", [
        ("tau_q", "x", "an integer"), ("tau_page", "2.5", "an integer"),
        ("nu_tilde", "abc", "a number")])
    def test_malformed_field_exits_2_naming_row_and_column(
            self, capsys, tmp_path, column, value, kind):
        fields = {"rep": "0", "tau_page": "5", "tau_q": "7",
                  "nu_page": "0.5", "nu_q": "-0.25", "nu_tilde": "1.5"}
        rows = [",".join(fields), ",".join(fields.values())]
        fields.update({"rep": "1", column: value})
        rows.append(",".join(fields.values()))
        path = tmp_path / "records.csv"
        path.write_text("\r\n".join(rows) + "\r\n")
        code, out, err = run_cli(capsys, "density", "--records", str(path),
                                 "--out", str(tmp_path / "dens"))
        assert code == 2 and out == ""
        assert f"records row 2, column {column}: {value!r} is not {kind}" \
            in err
        assert not (tmp_path / "dens").exists()


class TestTable1Command:
    def test_writes_full_table(self, capsys, tmp_path):
        out = tmp_path / "table1.csv"
        code, _, _ = run_cli(capsys, "table1", "--alpha", "0.1", "--out",
                             str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 46
        assert lines[0] == "rule,gamma,m,kstar,a_page,b_page,a_q,b_q"

    def test_wrong_typed_cache_file_is_skipped(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        est = CriticalValueEstimate(c=2.5, std_err=0.01, gamma=0.25,
                                    alpha=0.1, side="one_sided",
                                    detector="page", reps=5000,
                                    grid_size=256, seed=1)
        bad = dict(est.to_json_dict(), gamma="0.25")
        (cache / "bad.json").write_text(json.dumps(bad))
        plain, cached = tmp_path / "plain.csv", tmp_path / "cached.csv"
        run_cli(capsys, "table1", "--out", str(plain))
        code, _, err = run_cli(capsys, "table1", "--cache", str(cache),
                               "--out", str(cached))
        assert code == 0 and err == ""
        assert cached.read_bytes() == plain.read_bytes()

    def test_unsupported_alpha_fails(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "table1", "--alpha", "0.2", "--out",
                               str(tmp_path / "t.csv"))
        assert code == 2 and "critvals" in err


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "table1")
        assert code == 2


ASYM = ["asymptotics", "--m", "100", "--kstar", "1", "--c", "1.9"]


@pytest.mark.parametrize("argv", [
    ["limit-cdf", "--case", "I", "--x", "nan"],
    ASYM + ["--gamma", "0", "--delta", "1", "--x", "nan"],
    ASYM + ["--gamma", "0", "--delta", "inf"],
    ASYM + ["--gamma", "0.25", "--delta", "nan"],
    ["monitor", "--train", "{train}", "--stream", "{stream}",
     "--horizon-factor", "inf"],
    ["simulate", "--config", "{sim}", "--out", "{out}"],
    ["generate", "--spec", "{gen}", "--out", "{out}"],
])
def test_non_finite_flag_or_config_value_exits_2(capsys, tmp_path, argv):
    rng = np.random.default_rng(5)
    paths = {name: str(tmp_path / name)
             for name in ("train", "stream", "sim", "gen", "out")}
    write_series(tmp_path / "train", rng.standard_normal(50))
    write_series(tmp_path / "stream", rng.standard_normal(30))
    (tmp_path / "sim").write_text(SIM_CONFIG.replace(
        "horizon_factor = 4", "horizon_factor = inf"))
    (tmp_path / "gen").write_text(TestGenerateCommand.CONFIG.replace(
        "delta = 1.0", "delta = nan"))
    code, out, _ = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == ""


class TestStreamReadAsMonitored:
    """monitor reads its stream one line at a time and stops at tau or the
    horizon, so nothing after either is parsed."""

    GARBAGE = ["not a number", "nan", "1.0,2.0", "inf"]

    @pytest.mark.parametrize("trace", [False, True])
    def test_lines_after_tau_are_never_read(self, capsys, tmp_path, trace):
        rng = np.random.default_rng(1)
        train = tmp_path / "train.csv"
        stream = tmp_path / "stream.csv"
        write_series(train, rng.standard_normal(50))
        stream.write_text("x\n0.0\n100.0\n" + "\n".join(self.GARBAGE) + "\n")
        argv = ["monitor", "--train", str(train), "--stream", str(stream),
                "--critical-value", "1.5"]
        if trace:
            argv += ["--trace", str(tmp_path / "trace.csv")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert json.loads(out)["tau"] == 2

    @pytest.mark.parametrize("trace", [False, True])
    def test_lines_past_the_horizon_are_never_read(self, capsys, tmp_path,
                                                   trace):
        rng = np.random.default_rng(2)
        train = tmp_path / "train.csv"
        stream = tmp_path / "stream.csv"
        write_series(train, rng.standard_normal(20))
        # horizon 20: twenty values, then lines that would fail the run
        stream.write_text("\n".join([repr(v) for v in
                                     rng.standard_normal(20).tolist()]
                                    + self.GARBAGE) + "\n")
        argv = ["monitor", "--train", str(train), "--stream", str(stream),
                "--critical-value", "50", "--horizon-factor", "1"]
        if trace:
            argv += ["--trace", str(tmp_path / "trace.csv")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert json.loads(out) == {"stopped": False, "tau": None,
                                   "stat_at_tau": None,
                                   "threshold_at_tau": None}

    @pytest.mark.parametrize("trace", [False, True])
    def test_empty_stream_exits_2(self, capsys, tmp_path, trace):
        train = tmp_path / "train.csv"
        stream = tmp_path / "stream.csv"
        write_series(train, np.random.default_rng(3).standard_normal(20))
        stream.write_text("x\n\n")
        argv = ["monitor", "--train", str(train), "--stream", str(stream),
                "--critical-value", "1.5"]
        if trace:
            argv += ["--trace", str(tmp_path / "trace.csv")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"{stream}: no data values" in err
        assert not (tmp_path / "trace.csv").exists()

    def test_open_pipe_is_read_only_up_to_tau(self, tmp_path):
        train = tmp_path / "train.csv"
        write_series(train, np.random.default_rng(4).standard_normal(50))
        src = os.path.dirname(os.path.dirname(pagecusum.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "pagecusum", "monitor", "--train",
             str(train), "--stream", "/dev/stdin", "--critical-value", "1.5"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src})
        try:
            # tau = 3; the writer keeps the pipe open after it
            proc.stdin.write("x\n0.0\n0.0\n100.0\n")
            proc.stdin.flush()
            code = proc.wait(timeout=30)
            out, err = proc.stdout.read(), proc.stderr.read()
        finally:
            proc.kill()
            proc.stdin.close()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        assert code == 0 and err == ""
        assert json.loads(out)["tau"] == 3


class TestSingleColumnAndSingleKey:
    @pytest.mark.parametrize("where", ["train", "stream"])
    @pytest.mark.parametrize("text, lineno", [
        ("x\n0.1\n0.2,garbage\n", 3),
        ("x,y\n0.1,garbage\n", 1),
        ("0.1\n0.2\n0.3,,4\n", 3)], ids=["row", "header", "third"])
    def test_row_with_a_second_field_exits_2(self, capsys, tmp_path, where,
                                              text, lineno):
        rng = np.random.default_rng(5)
        files = {"train": tmp_path / "train.csv",
                 "stream": tmp_path / "stream.csv"}
        write_series(files["train"], rng.standard_normal(50))
        write_series(files["stream"], rng.standard_normal(30))
        files[where].write_text(text)
        code, out, err = run_cli(capsys, "monitor", "--train",
                                 str(files["train"]), "--stream",
                                 str(files["stream"]), "--critical-value",
                                 "50")
        assert code == 2 and out == ""
        assert f"{files[where]}:{lineno}: more than one column" in err

    def test_empty_trailing_field_is_one_column(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        train = tmp_path / "train.csv"
        stream = tmp_path / "stream.csv"
        write_series(train, rng.standard_normal(50))
        write_series(stream, rng.standard_normal(30))
        code, plain, _ = run_cli(capsys, "monitor", "--train", str(train),
                                 "--stream", str(stream),
                                 "--critical-value", "1.5")
        stream.write_text("".join(line + ", \n" for line in
                                  stream.read_text().splitlines()))
        code2, out, _ = run_cli(capsys, "monitor", "--train", str(train),
                                "--stream", str(stream),
                                "--critical-value", "1.5")
        assert code == code2 == 0 and out == plain

    @pytest.mark.parametrize("command, flag, config, lineno", [
        ("generate", "--spec", TestGenerateCommand.CONFIG + "m = 5\n", 11),
        ("simulate", "--config", SIM_CONFIG + "reps = 4\n", 14)],
        ids=["generate", "simulate"])
    def test_repeated_config_key_exits_2(self, capsys, tmp_path, command,
                                         flag, config, lineno):
        cfg = tmp_path / "cfg"
        cfg.write_text(config)
        out_path = tmp_path / "out"
        code, out, err = run_cli(capsys, command, flag, str(cfg), "--out",
                                 str(out_path))
        key = config.splitlines()[-1].split()[0]
        assert code == 2 and out == ""
        assert f"{cfg}:{lineno}: repeated key '{key}'" in err
        assert not out_path.exists()


class TestBadPathsAndValues:
    @pytest.mark.parametrize("bad, message", [
        ("abc", "non-numeric value 'abc'"), ("nan", "non-finite value 'nan'"),
        ("-inf", "non-finite value '-inf'")], ids=["text", "nan", "inf"])
    @pytest.mark.parametrize("where", ["train", "stream"])
    def test_bad_value_is_named_by_its_line(self, capsys, tmp_path, where,
                                            bad, message):
        rng = np.random.default_rng(7)
        files = {"train": tmp_path / "train.csv",
                 "stream": tmp_path / "stream.csv"}
        write_series(files["train"], rng.standard_normal(50))
        write_series(files["stream"], rng.standard_normal(30))
        lines = files[where].read_text().splitlines()
        lines[6] = bad  # line 7, the header being line 1
        files[where].write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "monitor", "--train",
                                 str(files["train"]), "--stream",
                                 str(files["stream"]), "--critical-value",
                                 "50")
        assert code == 2 and out == ""
        assert err == f"error: {files[where]}:7: {message}\n"

    @pytest.mark.parametrize("argv, missing", [
        (["monitor", "--train", "{none}", "--stream", "{stream}"], "none"),
        (["monitor", "--train", "{train}", "--stream", "{none}"], "none"),
        (["monitor", "--train", "{train}", "--stream", "{none}", "--trace",
          "{out}"], "none"),
        (["generate", "--spec", "{none}", "--out", "{out}"], "none"),
        (["generate", "--spec", "{gen}", "--out", "{none}/x.csv"],
         "none/x.csv"),
        (["simulate", "--config", "{none}", "--out", "{out}"], "none"),
        (["density", "--records", "{none}", "--out", "{out}"], "none")],
        ids=["train", "stream", "traced-stream", "spec", "generate-out",
             "config", "records"])
    def test_a_path_that_does_not_exist_exits_2(self, capsys, tmp_path, argv,
                                                missing):
        rng = np.random.default_rng(8)
        paths = {name: str(tmp_path / name)
                 for name in ("train", "stream", "gen", "out", "none")}
        write_series(tmp_path / "train", rng.standard_normal(50))
        write_series(tmp_path / "stream", rng.standard_normal(30))
        (tmp_path / "gen").write_text(TestGenerateCommand.CONFIG)
        code, out, err = run_cli(capsys, *(arg.format(**paths)
                                           for arg in argv))
        assert code == 2 and out == ""
        assert err == (f"error: {tmp_path / missing}: "
                       "No such file or directory\n")
        assert not (tmp_path / "out").exists()


def _monitor_json(result):
    return json.dumps({"stopped": result.stopped, "tau": result.tau,
                       "stat_at_tau": result.stat,
                       "threshold_at_tau": result.threshold}) + "\n"


def _dispatch_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


values = st.floats(-10.0, 10.0, allow_subnormal=False)


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.45])
@pytest.mark.parametrize("side", ["one", "two"])
@pytest.mark.parametrize("detector", ["page", "ordinary"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(train=st.lists(values, min_size=2, max_size=30),
       stream=st.lists(values, min_size=1, max_size=80),
       c=st.floats(0.05, 3.0),
       horizon_factor=st.sampled_from([0.5, 1.0, 2.5]))
def test_monitor_command_matches_run_monitor(detector, side, gamma, train,
                                             stream, c, horizon_factor):
    """The command prints run_monitor's result on the floats of its files,
    bit for bit, and its trace ends at that result."""
    params = MonitoringParams(
        m=len(train), gamma=gamma,
        side={"one": "one_sided", "two": "two_sided"}[side],
        detector=detector, horizon_factor=horizon_factor)
    try:
        want_code, want = 0, _monitor_json(
            run_monitor(train, stream, params, c))
    except ValidationError:  # constant training data
        want_code, want = 2, ""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name)
                 for name in ("train.csv", "stream.csv", "trace.csv")}
        for name, series in (("train.csv", train), ("stream.csv", stream)):
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write("x\n" + "".join(f"{v!r}\n" for v in series))
        argv = ["monitor", "--train", paths["train.csv"], "--stream",
                paths["stream.csv"], "--gamma", repr(gamma), "--side", side,
                "--detector", detector, "--critical-value", repr(c),
                "--horizon-factor", repr(horizon_factor)]
        code, out, _ = _dispatch_quietly(argv)
        assert (code, out) == (want_code, want)
        code, traced, _ = _dispatch_quietly(argv + ["--trace",
                                                    paths["trace.csv"]])
        assert (code, traced) == (want_code, want)
        if code:
            assert not os.path.exists(paths["trace.csv"])
            return
        with open(paths["trace.csv"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()
    payload = json.loads(out)
    if payload["stopped"]:
        assert rows[-1] == (f"{payload['tau']},{payload['stat_at_tau']!r},"
                            f"{payload['threshold_at_tau']!r}")
    else:
        assert len(rows) - 1 == min(len(stream), params.horizon)
    assert rows[-1].startswith(f"{len(rows) - 1},")


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def readme_commands():
    """Each `pagecusum ...` line of README's "Command line" block, with its
    continuation lines joined."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("\n## Command line\n", 1)[1].split("```")[1]
    return [" ".join(line.split()[1:])
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("pagecusum ")]


def expansions(line):
    """argv lists for every choice of one alternative in each [a | b]."""
    parts = re.split(r"\[([^\]]*)\]", line)
    choices = [[part] if i % 2 == 0 else part.split("|")
               for i, part in enumerate(parts)]
    return [" ".join(combo).split() for combo in itertools.product(*choices)]


def test_readme_names_every_subcommand():
    names = {line.split()[0] for line in readme_commands()}
    assert names == {"critvals", "monitor", "asymptotics", "limit-cdf",
                     "generate", "simulate", "density", "table1"}


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    parser = build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    # argparse takes an unambiguous prefix of a flag, so the docs must name
    # each flag in full
    flags = {flag for action in commands[line.split()[0]]._actions
             for flag in action.option_strings}
    for argv in expansions(line):
        assert {a for a in argv if a.startswith("--")} <= flags, argv
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: pagecusum "
                        f"{' '.join(argv)}")
