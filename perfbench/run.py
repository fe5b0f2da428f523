#!/usr/bin/env python3
"""Benchmark cpwnn end to end (--trace 0) or layer by layer (--trace 1).

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim_study --seed 1 --seconds 20 --trace 0

One client drives cpwnn in a closed loop: each op starts when the previous
one has finished, and there are no other threads. The loop runs for at least
--seconds and stops on a round boundary (see workloads.py). The last line of
standard output is one JSON object: {correct, attempted, failed, metrics}.
A fuller record (environment, per-op times, self times) is written to
perfbench/out/, and the traced run also writes its spans there.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, and inherited by every child process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORT_PROBES = 3
# A run that is far slower than at the commit that defined the benchmark
# stops at the first round boundary after this, so it still ends in time.
HARD_STOP_S = 110.0
CHILD_TIMEOUT_S = 120

# Calibration kernel time after each op, as a share of that op's time (at
# least one kernel run), and around each set-up probe.
CALIBRATION_SHARE = 0.01
SETUP_CALIBRATION_S = 0.05

SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.make(sys.argv[2], int(sys.argv[3]), sys.argv[4] == '1').setup()"
)


def environment() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting a repository that merely
        # encloses a checkout which is not one itself.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "cpwnn").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Median time of fresh interpreters that import cpwnn and make the inputs.

    Returns (scaled seconds, wall seconds); see calibrate.py.
    """
    times, scaled = [], []
    before = calibrate.kernel_time(SETUP_CALIBRATION_S)
    for _ in range(1 if tiny else SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), workload, str(seed), str(int(tiny))],
            cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        after = calibrate.kernel_time(SETUP_CALIBRATION_S)
        scaled.append(calibrate.scaled(times[-1], before, after))
        before = after
    return statistics.median(scaled), statistics.median(times)


def measure_imports(tiny: bool) -> dict:
    """Import cost from `python -X importtime -c "import cpwnn"`, median of a few probes.

    cpwnn is its cumulative time (numpy and scipy included); numpy and scipy
    are the summed self times of their modules.
    """
    probes = []
    for _ in range(1 if tiny else IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cpwnn"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        numbers = {"cpwnn": 0, "scipy": 0, "numpy": 0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, module = line[len("import time:"):].split("|")
            if not own.strip().isdigit():
                continue  # the header line
            module = module.strip()
            top = module.split(".")[0]
            if module == "cpwnn":
                numbers["cpwnn"] = int(cumulative)
            elif top in ("scipy", "numpy"):
                numbers[top] += int(own)
        probes.append(numbers)
    return {
        f"import.{name}_s": statistics.median(p[name] for p in probes) / 1e6
        for name in ("cpwnn", "scipy", "numpy")
    }


def time_op(runner, op) -> tuple[float, object, list[str]]:
    """Time one op; return (seconds, output, problems raised)."""
    start = time.perf_counter()
    try:
        out = runner(op)
    except Exception:  # a failed op is counted, and the loop goes on
        return time.perf_counter() - start, None, [traceback.format_exc(limit=3)]
    return time.perf_counter() - start, out, []


def timed_loop(workload, seconds: float) -> dict:
    import workloads

    ops, quality = [], []
    started = time.perf_counter()
    before = calibrate.kernel_time()
    i = 0
    while True:
        op = workload.op(i)
        elapsed, out, problems = time_op(workload.run, op)
        after = calibrate.kernel_time(CALIBRATION_SHARE * elapsed)
        problems = problems or workload.check(op, out)
        ops.append({"index": i, "kind": op.kind, "seconds": elapsed,
                    "scaled_s": calibrate.scaled(elapsed, before, after), "problems": problems})
        before = after
        if not problems and i < workload.quality_ops:
            quality.append(workload.quality(op, out))
        for problem in problems:
            print(f"op {i} ({op.kind}) failed: {problem}", file=sys.stderr)
        i += 1
        wall = time.perf_counter() - started
        if i % workload.round_size == 0 and (
            (wall >= seconds and i >= workload.quality_ops) or wall >= HARD_STOP_S
        ):
            break
    return {"ops": ops, "wall_s": wall, "quality": workloads.quality_summary(quality)}


def end_to_end(args, workload) -> tuple[dict, dict]:
    """End-to-end metrics; times are scaled to the reference speed (calibrate.py)."""
    setup_s, setup_wall_s = measure_setup(args.workload, args.seed, args.tiny)
    workload.setup()
    loop = timed_loop(workload, args.seconds)
    ops = loop["ops"]
    times = [op["seconds"] for op in ops]
    scaled = [op["scaled_s"] for op in ops]
    failed = sum(1 for op in ops if op["problems"])
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_milk" else resource.RUSAGE_SELF
    quality = loop["quality"]
    wall = {
        "setup_s": setup_wall_s,
        "ops_per_s": len(ops) / sum(times),
        "op_s_p50": statistics.median(times),
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / sum(scaled), "1/s"),
        "op_s_p50": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "ok_ops_frac": ((len(ops) - failed) / len(ops), "1"),
        "coverage_pct": (quality.get("coverage_pct", 0.0), "%"),
        "width_ratio": (quality.get("width_ratio", 0.0), "1"),
        "test_mape": (quality.get("test_mape", 0.0), "%"),
    }
    detail = {"wall_clock": wall, "loop_wall_s": loop["wall_s"], "ops": ops}
    return metrics, detail


def run_pass(workload, ops, traced: bool, in_process: bool, failed_ops: dict):
    """One pass over the ops; returns (summed op seconds, tracer).

    An untraced pass runs the same code without installing the wrappers or
    opening spans, so the two passes differ only by the tracing.
    """
    import spans

    tracer = spans.Tracer()
    span = tracer.span if traced else (lambda name: contextlib.nullcontext())
    runner = workload.run
    if in_process:
        def runner(op):
            with span("cli.main"):
                return workload.run_in_process(op)
    if traced:
        tracer.install()
    op_total = 0.0
    try:
        for op in ops:
            tracer.op, tracer.scope = op.index, op.scope
            with span("op"):
                elapsed, out, problems = time_op(runner, op)
            problems = problems or workload.check(op, out)
            op_total += elapsed
            if problems:
                # one failure per op, however many passes repeat it
                failed_ops.setdefault((op.index, op.kind), problems)
    finally:
        tracer.uninstall()
    return op_total, tracer


def traced(args, workload) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over the same ops.

    Layer times are medians over the traced passes; counts come from the
    first traced pass and must repeat exactly in the others. Tracing
    overhead is the median traced pass minus the median untraced pass.
    """
    imports = measure_imports(args.tiny)
    workload.setup()
    ops = [workload.op(i) for i in range(workload.trace_ops)]
    in_process = args.workload == "cli_milk"
    failed_ops, passes = {}, {"untraced": [], "traced": []}
    span_file = OUT / f"{stem(args)}-spans.jsonl"
    started = time.perf_counter()
    run_pass(workload, ops, False, in_process, failed_ops)  # warm-up, not timed
    with open(span_file, "w", encoding="utf-8") as span_out:
        while True:
            for mode in ("untraced", "traced"):
                op_total, tracer = run_pass(workload, ops, mode == "traced", in_process, failed_ops)
                passes[mode].append((op_total, tracer))
                if mode == "traced":
                    tracer.write(span_out, len(passes["traced"]) - 1)
            wall = time.perf_counter() - started
            done = wall >= args.seconds and len(passes["traced"]) >= 2
            if done or wall >= HARD_STOP_S or args.tiny:
                break
    for (index, kind), problems in failed_ops.items():
        for problem in problems:
            print(f"op {index} ({kind}) failed: {problem}", file=sys.stderr)

    first = passes["traced"][0][1]
    for _, other in passes["traced"][1:]:
        if other.counts != first.counts:
            print(f"warning: counts differ between traced passes: {dict(first.counts)} "
                  f"vs {dict(other.counts)}", file=sys.stderr)

    busies = [tracer.busy() for _, tracer in passes["traced"]]

    def busy(name: str, kind: str = "total_s") -> float:
        return statistics.median(b.get(name, {}).get(kind, 0.0) for b in busies)

    untraced_s = statistics.median(total for total, _ in passes["untraced"])
    traced_s = statistics.median(total for total, _ in passes["traced"])
    counts = first.counts
    refits = counts["wnn.refits"]
    metrics = {name: (value, "s") for name, value in imports.items()}
    metrics.update({
        "cli.main_s": (busy("cli.main"), "s"),
        "cli.load_csv_s": (busy("cli.load_csv"), "s"),
        "cli.self_s": (busy("cli.main", "self_s"), "s"),
        "wnn.fpto_tune_s": (busy("wnn.fpto_tune"), "s"),
        "wnn.fpto_tune_calls": (counts["wnn.fpto_tune_calls"], "count"),
        "wnn.grid_cells": (counts["wnn.grid_cells"], "count"),
        "wnn.skipped_cells": (counts["wnn.skipped_cells"], "count"),
        "wnn.fold_evals": (counts["wnn.fold_evals"], "count"),
        "wnn.refits": (refits, "count"),
        "wnn.refits_distinct": (len(first.refit_keys), "count"),
        "wnn.refit_useful_ratio": (len(first.refit_keys) / refits if refits else 0.0, "1"),
        "conformal.conformal_region_s": (busy("conformal.conformal_region"), "s"),
        "conformal.score_matrix_s": (busy("conformal.score_matrix"), "s"),
        "conformal.refits": (counts["conformal.refits"], "count"),
        "backtest.check_cp_s": (busy("backtest.check_cp"), "s"),
        "backtest.run_backtest_s": (busy("backtest.run_backtest"), "s"),
        "backtest.backtest_matrices_s": (busy("backtest.backtest_matrices"), "s"),
        "backtest.compare_forecasters_s": (busy("backtest.compare_forecasters"), "s"),
        "backtest.refits": (counts["backtest.refits"], "count"),
        "backtest.pool_rows_sorted": (counts["backtest.pool_rows_sorted"], "count"),
        "etssim.simulate_s": (busy("etssim.simulate"), "s"),
        "etssim.theoretical_width_s": (busy("etssim.theoretical_width"), "s"),
        "series.validate_series_s": (busy("series.validate_series"), "s"),
        "series.mape_calls": (counts["series.mape_calls"], "count"),
        "trace.op_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
    })
    names = sorted({name for b in busies for name in b})
    detail = {
        "passes": {mode: [total for total, _ in runs] for mode, runs in passes.items()},
        "busy": {name: {"total_s": busy(name), "self_s": busy(name, "self_s")} for name in names},
        "not_traced": first.missing,
        "failed_ops": [f"{index} ({kind}): {problems}" for (index, kind), problems in failed_ops.items()],
        "spans": str(span_file.relative_to(ROOT)),
    }
    attempted = len(ops) * sum(len(runs) for runs in passes.values())
    return metrics, detail | {"attempted": attempted, "failed": len(failed_ops)}


def stem(args) -> str:
    return f"{args.workload}-s{args.seed}-t{args.trace}" + ("-tiny" if args.tiny else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sim_study", "scoring_long", "cli_milk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cpwnn" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        print(f"error: no cpwnn sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path[:0] = [str(SRC), str(HERE)]
    env = environment()
    OUT.mkdir(exist_ok=True)
    import workloads

    workload = workloads.make(args.workload, args.seed, args.tiny)
    if args.trace:
        metrics, detail = traced(args, workload)
        attempted, failed = detail.pop("attempted"), detail.pop("failed")
    else:
        metrics, detail = end_to_end(args, workload)
        attempted = len(detail["ops"])
        failed = sum(1 for op in detail["ops"] if op["problems"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": env, "result": result,
              "detail": detail}
    (OUT / f"{stem(args)}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(env))
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    if "wall_clock" in detail:
        print("wall clock, unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in detail["wall_clock"].items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
