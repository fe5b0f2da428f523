"""The benchmark's workloads run against this cpwnn and reproduce their goldens.

`perfbench/workloads.py` reaches cpwnn only through its public functions and
its CLI, and checks each op against `perfbench/goldens.json` (rtol 1e-9) and
the sha256 of each CLI command's stdout. One round of every workload at the
seed the goldens were recorded with makes a renamed function or a moved
output fail this suite, not only the benchmark's share of correct ops.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", ["sim_study", "scoring_long", "cli_milk"])
def test_one_round_passes_the_workload_checks(name):
    workload = workloads.make(name, workloads.DEFAULT_SEED)
    assert workload.goldens, "no goldens recorded at the default seed"
    run = workload.run_in_process if name == "cli_milk" else workload.run
    for i in range(workload.round_size):
        op = workload.op(i)
        assert workload.check(op, run(op)) == [], f"{name} op {i} ({op.kind})"
