"""Golden outputs: pinned bytes of the demo-04 late-change study.

tests/golden/late_change_study/ holds the five files demos/04_replication_study.py
writes. Rerunning its configuration must reproduce them byte for byte, for
any worker count: any change to data generation, the detector scan or the
output format that moves a single bit shows here.
"""

import os

import pytest

from pagecusum import (ChangeScenario, Garch11Spec, MonitoringParams,
                       resolve_critical_value, simulate_to_dir)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden",
                          "late_change_study")
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
