"""scripts/bench_point.py: the parsing of perfbench's output into a
BENCH_<pr>.json record and the refusal to run over a bytecode cache, on
canned output; no benchmark is run."""

import importlib.util
import json
import os
from unittest import mock

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts",
                      "bench_point.py")
_spec = importlib.util.spec_from_file_location("bench_point", SCRIPT)
bench_point = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_point)

MACHINE = {"cores": 2, "python": "3.11.7", "numpy": "2.4.6",
           "scipy": "1.17.1"}
RESULT = {"correct": True, "attempted": 1681, "failed": 0,
          "metrics": {"null_size:wall_s": {"value": 0.87, "unit": "s"}}}
STDOUT = "\n".join([
    "# machine " + json.dumps(MACHINE),
    "critvals           setup_s                              0.19 s",
    "null_size          wall_s                               0.87 s",
    json.dumps(RESULT), ""])


def test_parses_the_machine_record_and_the_last_line():
    assert bench_point.parse_output(STDOUT) == (MACHINE, RESULT)


def test_record_holds_the_commit_machine_and_result():
    record = bench_point.bench_record(26, "abc123", False, STDOUT)
    assert record == {"pr": 26, "commit": "abc123", "dirty": False,
                      "command": ["python3", "perfbench/run.py",
                                  "--workload", "all", "--seed", "1",
                                  "--seconds", "18"],
                      "machine": MACHINE, "result": RESULT}
    assert json.loads(json.dumps(record)) == record


@pytest.mark.parametrize("stdout", [
    "",
    json.dumps(RESULT),
    STDOUT + "# machine " + json.dumps(MACHINE) + "\n" + json.dumps(RESULT),
    STDOUT.replace(json.dumps(RESULT), "error: run failed"),
    STDOUT.replace('"correct": true, ', ""),
    STDOUT.replace(json.dumps(RESULT), "[1, 2]"),
], ids=["empty", "no-machine", "two-machines", "no-result", "no-correct",
        "not-an-object"])
def test_refuses_malformed_output(stdout):
    with pytest.raises(ValueError):
        bench_point.parse_output(stdout)


def test_refuses_to_run_over_a_bytecode_cache(tmp_path, monkeypatch, capsys):
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "src" / "__pycache__").mkdir()
    monkeypatch.setattr(bench_point, "ROOT", str(tmp_path))
    assert bench_point.bytecode_dirs(str(tmp_path)) == [
        str(tmp_path / "src" / "__pycache__"),
        str(tmp_path / "src" / "pkg" / "__pycache__")]
    with mock.patch.object(bench_point.subprocess, "run") as run:
        assert bench_point.main(["--pr", "26"]) == 2
    run.assert_not_called()
    assert "src/pkg/__pycache__" in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*.json"))
