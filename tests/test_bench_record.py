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
