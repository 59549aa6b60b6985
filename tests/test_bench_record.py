"""tools/bench_record.py against a stub checkout whose perfbench/run.py
prints a fixed result and leaves a mark for every run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"

STUB_RUN = """import json, pathlib
with open(pathlib.Path(__file__).parent / "runs", "a") as fh:
    fh.write("run\\n")
print(json.dumps({"correct": True, "metrics": {"run_s": {"value": 0.5}}}))
"""


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def stub(tmp_path):
    (tmp_path / "stub" / "perfbench").mkdir(parents=True)
    (tmp_path / "stub" / "perfbench" / "run.py").write_text(STUB_RUN)
    return tmp_path / "stub"


def _args(stub, out):
    return ["--checkout", f"new={stub}", "--workload", "w", "--seeds", "1-2", "--seconds", "1", "--out", str(out)]


def test_records_each_run(stub, tmp_path):
    assert _load_tool().main(_args(stub, tmp_path / "out")) == 0
    record = json.loads((tmp_path / "out" / "BENCH_new.json").read_text())
    assert [r["seed"] for r in record["runs"]] == [1, 2]
    assert record["summary"]["w"]["run_s"]["median"] == 0.5
    assert (stub / "perfbench" / "runs").read_text() == "run\nrun\n"


def test_refuses_to_overwrite_a_record_before_any_run(stub, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "BENCH_new.json").write_text("kept\n")
    with pytest.raises(SystemExit) as e:
        _load_tool().main(_args(stub, out))
    assert e.value.code == 2
    assert f"{out / 'BENCH_new.json'} exists" in capsys.readouterr().err
    assert (out / "BENCH_new.json").read_text() == "kept\n"
    assert not (stub / "perfbench" / "runs").exists()


def _record(values):
    """A recorded file of workload ``w`` with one run_s value per seed."""
    tool = _load_tool()
    runs = [{"workload": "w", "seed": seed, "position": 0,
             "result": {"correct": True, "metrics": {"run_s": {"value": v}}}}
            for seed, v in enumerate(values, 1)]
    return {"runs": runs, "summary": tool.summary(runs)}


def test_compares_two_recorded_files_without_running(tmp_path, capsys):
    base, change = tmp_path / "BENCH_base.json", tmp_path / "BENCH_change.json"
    base.write_text(json.dumps(_record([1.0, 2.0, 3.0, 4.0, 5.0])))
    change.write_text(json.dumps(_record([0.5, 2.5, 2.0, 3.0, 4.0])))
    assert _load_tool().main(["--compare", str(base), str(change)]) == 0
    assert capsys.readouterr().out == (
        "w run_s: 3 -> 2.5 (baseline IQR 2, medians 0.5 apart; better in 4/5 pairs)\n")


def test_runs_need_checkouts_unless_comparing(capsys):
    with pytest.raises(SystemExit) as e:
        _load_tool().main(["--workload", "w", "--seeds", "1"])
    assert e.value.code == 2
    assert "required unless --compare" in capsys.readouterr().err
