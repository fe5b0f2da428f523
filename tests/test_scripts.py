"""Runs of the study scripts, so an API change cannot break them silently.

A RuntimeWarning fails a run, as it fails the suite (`pyproject.toml`).
Each run's whole stdout must match `tests/golden/scripts/<script>.txt` byte
for byte. To re-record after an intended output change, run the script with
the arguments below from the repo root and say in the change log why the
output moved. The bundled milk series must also regenerate byte for byte
from `scripts/make_milk_dataset.py`.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("run_simulation_study.py", ["--seeds", "1"],
         "n=3, confidence=0.95, seeds per scenario=1, weighting=inverse-distance"),
        ("run_milk_study.py", ["--horizons", "1"],
         "series: 634 monthly observations from milk_uk_monthly.csv"),
    ],
)
def test_script_runs(script, args, header):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
    golden = ROOT / "tests" / "golden" / "scripts" / script.replace(".py", ".txt")
    assert proc.stdout == golden.read_text(encoding="utf-8")


def test_milk_dataset_regenerates_byte_for_byte(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_milk_dataset", ROOT / "scripts" / "make_milk_dataset.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "milk_uk_monthly.csv"
    monkeypatch.setattr(module, "OUT", out)  # never write under data/
    module.main()
    assert out.read_bytes() == (ROOT / "data" / "milk_uk_monthly.csv").read_bytes()
