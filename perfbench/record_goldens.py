#!/usr/bin/env python3
"""Record the outputs the benchmark checks ops against, from the current code.

Run from the root of a checkout, only when a change to cpwnn's outputs is
intended:

    python3 perfbench/record_goldens.py

It writes perfbench/goldens.json: for the default seed, the library results
of the first ops of sim_study and scoring_long, and the SHA-256 of every CLI
call's standard output.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SIM_STUDY_OPS = 16
SCORING_LONG_OPS = 12


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if workloads.GOLDENS.exists():
        workloads.GOLDENS.unlink()  # the workloads below must not check old goldens
    seed = workloads.DEFAULT_SEED
    goldens: dict = {"seed": seed}
    for name, count in (("sim_study", SIM_STUDY_OPS), ("scoring_long", SCORING_LONG_OPS)):
        workload = workloads.make(name, seed)
        records = []
        for i in range(count):
            op = workload.op(i)
            out = workload.run(op)
            problems = workload.check(op, out)
            if problems:
                raise SystemExit(f"{name} op {i} fails its checks: {problems}")
            records.append(workload.record(out))
        goldens[name] = records
    cli = workloads.make("cli_milk", seed)
    goldens["cli_milk"] = {}
    for i in range(cli.round_size):
        op = cli.op(i)
        out = cli.run(op)
        problems = cli.check(op, out)
        if problems:
            raise SystemExit(f"cli_milk {op.kind} fails its checks: {problems}")
        goldens["cli_milk"][op.kind] = cli.digest(out)
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
