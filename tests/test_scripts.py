"""The runnable experiments under scripts/ run end to end at small sizes, so
a renamed public name cannot break them unnoticed."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, rows", [
    ("classification_overview", ["--eps", "2", "--n-llm", "20", "--n-sample", "2000",
                                 "--workers", "1"], 2),
    ("generation_distance_sweep", ["--eps", "8", "--distances", "0.7476", "--n-llm", "20",
                                   "--n-sample", "2000", "--workers", "1"], 1),
])
def test_script_main_writes_its_table(tmp_path, capsys, name, argv, rows):
    out = tmp_path / f"{name}.csv"
    load(name).main(argv + ["--out", str(out)])
    with open(out, newline="") as handle:
        assert len(list(csv.DictReader(handle))) == rows
    assert f"wrote {rows} rows to {out}" in capsys.readouterr().out
