"""Golden outputs: pinned bytes of the demo-04 late-change study and of
critvals cache files.

tests/golden/late_change_study/ holds the five files demos/04_replication_study.py
writes. Rerunning its configuration must reproduce them byte for byte, for
any worker count: any change to data generation, the detector scan or the
output format that moves a single bit shows here.

tests/golden/critvals/ holds `pagecusum critvals --out` files for gamma in
{0, 0.45} x {ordinary, page} x {one, two}-sided, at 1000 reps on a grid of
600 (not a power of two) with seed 17; each names its own configuration.

tests/golden/table1/table1.csv is `pagecusum table1 --alpha 0.1 --out`, which
pins the asymptotics solvers (a_m and b_m) over the canonical scenarios.

tests/golden/null_taus/taus.csv holds each path's stopping time (0 = no stop)
from experiments._block_taus on change-free GARCH streams, for both detectors
and both sides: m=200, a horizon of 708 steps (not a multiple of
datagen.CHUNK), 300 replications, mu=1.5 and c=1.5, so some paths stop in
either chunk and most do not. It pins the per-path scan for any block width
and worker count.

tests/golden/regime2_study/ holds the five files simulate_to_dir writes for a
knife-edge (regime II) scenario: m=200, gamma=0.25, kstar=floor(200**(1/3)),
a horizon of 60 steps and 60 replications. meta.json thus carries non-null
d1 and c1, and records.csv has rows where neither, one or both detectors
stopped, so empty fields are pinned next to filled ones.

tests/golden/generate/ holds `pagecusum generate` files next to the configs
that made them: change.cfg has GARCH(1,1) errors, a burn-in, mu != 0 and a
change at kstar = 616, in the second CHUNK of the stream; null.cfg has no
change. They pin the location model, the burn-in and the CSV bytes.
"""

import csv
import functools
import json
import os

import numpy as np
import pytest

from pagecusum import (ChangeScenario, Garch11Spec, MonitoringParams,
                       experiments, resolve_critical_value, rng,
                       simulate_to_dir)
from pagecusum.cli import dispatch

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden",
                          "late_change_study")
CRITVALS_DIR = os.path.join(os.path.dirname(__file__), "golden", "critvals")
TABLE1_DIR = os.path.join(os.path.dirname(__file__), "golden", "table1")
NULL_TAUS_CSV = os.path.join(os.path.dirname(__file__), "golden", "null_taus",
                             "taus.csv")
NULL_TAUS_COLUMNS = ("rep", "page_one", "ordinary_one", "page_two",
                     "ordinary_two")
CRITVALS_FILES = sorted(os.listdir(CRITVALS_DIR))
GENERATE_DIR = os.path.join(os.path.dirname(__file__), "golden", "generate")
REGIME2_DIR = os.path.join(os.path.dirname(__file__), "golden",
                           "regime2_study")
GOLDEN_FILES = ("density_page.csv", "density_q.csv", "density_tilde.csv",
                "meta.json", "records.csv")


def _read(directory, name):
    with open(os.path.join(directory, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("threads", [1, 2])
def test_demo04_late_change_study_matches_golden(tmp_path, threads):
    m, gamma = 1000, 0.25
    params = MonitoringParams(m=m, gamma=gamma, alpha=0.1, horizon_factor=5.0)
    scenario = ChangeScenario.from_exponent(1.0, 1.0, 0.75, m)
    garch = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3)
    c_page = resolve_critical_value(gamma, 0.1, "one_sided", "page")
    c_q = resolve_critical_value(gamma, 0.1, "one_sided", "ordinary")
    simulate_to_dir(params, scenario, garch, 1000, c_page, c_q, seed=11,
                    out_dir=str(tmp_path), threads=threads)
    assert sorted(os.listdir(tmp_path)) == sorted(GOLDEN_FILES)
    for name in GOLDEN_FILES:
        assert _read(tmp_path, name) == _read(GOLDEN_DIR, name), name


def _regime2_config():
    """(params, scenario, garch, reps, c_page, c_q) of the regime-II golden."""
    params = MonitoringParams(m=200, gamma=0.25, horizon_factor=0.3)
    scenario = ChangeScenario.from_exponent(0.4, 1.0, 1.0 / 3.0, 200)
    garch = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3, burn_in=20)
    return params, scenario, garch, 60, 1.89922, 1.81023


@pytest.mark.parametrize("threads", [1, 2])
def test_regime2_study_matches_golden(tmp_path, threads):
    meta = simulate_to_dir(*_regime2_config(), seed=3, out_dir=str(tmp_path),
                           threads=threads)
    assert meta["case"]["variant"] == "II"
    assert meta["case"]["d1"] is not None and meta["case"]["c1"] is not None
    assert 0 < meta["n_nostop_page"] < 60 and 0 < meta["n_nostop_q"] < 60
    assert sorted(os.listdir(tmp_path)) == sorted(GOLDEN_FILES)
    for name in GOLDEN_FILES:
        assert _read(tmp_path, name) == _read(REGIME2_DIR, name), name


def test_regime2_records_round_trip(tmp_path):
    golden = os.path.join(REGIME2_DIR, "records.csv")
    records = experiments.read_records_csv(golden)
    assert {(r.tau_page is None, r.tau_q is None) for r in records} == {
        (False, False), (False, True), (True, False), (True, True)}
    experiments.write_records_csv(records, tmp_path / "records.csv")
    assert _read(tmp_path, "records.csv") == _read(REGIME2_DIR, "records.csv")
    assert records == experiments.run_replications(*_regime2_config(), seed=3)


def test_critvals_golden_covers_both_detectors_sides_and_gammas():
    configs = set()
    for name in CRITVALS_FILES:
        d = json.loads(_read(CRITVALS_DIR, name))
        configs.add((d["gamma"], d["detector"], d["side"]))
    assert configs == {(g, det, side) for g in (0.0, 0.45)
                       for det in ("ordinary", "page")
                       for side in ("one_sided", "two_sided")}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", CRITVALS_FILES)
def test_critvals_matches_golden(tmp_path, capsys, name, threads):
    d = json.loads(_read(CRITVALS_DIR, name))
    out = tmp_path / name
    code = dispatch(["critvals", "--gamma", repr(d["gamma"]),
                     "--alpha", repr(d["alpha"]),
                     "--side", d["side"].split("_")[0],
                     "--detector", d["detector"], "--reps", str(d["reps"]),
                     "--grid", str(d["grid"]), "--seed", str(d["seed"]),
                     "--threads", str(threads), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _read(tmp_path, name) == _read(CRITVALS_DIR, name)


def test_table1_matches_golden(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    code = dispatch(["table1", "--alpha", "0.1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _read(tmp_path, "table1.csv") == _read(TABLE1_DIR, "table1.csv")


def null_taus(threads):
    """Columns of NULL_TAUS_COLUMNS, computed at experiments._BLOCK."""
    garch = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3)
    columns = [list(range(300))]
    for side in ("one_sided", "two_sided"):
        params = MonitoringParams(m=200, gamma=0.25, side=side,
                                  horizon_factor=3.54)
        assert params.horizon == 708
        fn = functools.partial(experiments._block_taus, params, garch, 1.5, 7,
                               rules=(("page", 1.5), ("ordinary", 1.5)))
        parts = rng._map_blocks(fn, 300, experiments._BLOCK, threads)
        for i in range(2):
            columns.append(np.concatenate([p[i] for p in parts]).tolist())
    return columns


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("block", [125, None])
def test_null_taus_match_golden(monkeypatch, block, threads):
    if block is not None:
        monkeypatch.setattr(experiments, "_BLOCK", block)
    with open(NULL_TAUS_CSV, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == NULL_TAUS_COLUMNS
    want = [[int(v) for v in col] for col in zip(*rows[1:])]
    got = null_taus(threads)
    assert got == want
    for col in got[1:]:  # some paths stop, in both chunks, and some do not
        assert 0 < sum(t > 0 for t in col) < 300
        assert max(col) > 512


@pytest.mark.parametrize("name, seed", [("change", 13), ("null", 4)])
def test_generate_matches_golden(tmp_path, capsys, name, seed):
    out = tmp_path / f"{name}.csv"
    code = dispatch(["generate", "--spec",
                     os.path.join(GENERATE_DIR, f"{name}.cfg"),
                     "--seed", str(seed), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _read(tmp_path, f"{name}.csv") == _read(GENERATE_DIR, f"{name}.csv")
