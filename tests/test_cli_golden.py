"""Golden CLI outputs: `--no-timestamp` stdout of every subcommand and format.

Each case runs `cpwnn.cli.main` on the committed milk series and compares its
stdout byte for byte with `tests/golden/<case>.txt`. The `--help` of `cpwnn`
and of each subcommand, at a fixed 80-column width, is pinned the same way in
`tests/golden/help/<name>.txt`. To re-record after an intended output change,
run `python tests/test_cli_golden.py` from the repo root and say in the change
log why the outputs moved.
"""

import contextlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
HELP_DIR = GOLDEN_DIR / "help"
MILK = "data/milk_uk_monthly.csv"

# Tuned path with a small grid; fixed (p, k) at n=1 and n=6 with both
# weightings; the n=6 set uses a period longer than the history any scored
# prefix has, so seasonal-naive fails inside `compare`. `tune` takes no
# --p/--k, so it gets each set without its FIXED part.
ARGUMENT_SETS = {
    "tuned_n3": ["--n", "3", "--p-grid", "1:6", "--k-grid", "1:4",
                 "--confidence", "0.9", "--confidence", "0.95"],
    "fixed_n1_uniform": ["--n", "1", "--weighting", "uniform",
                         "--p-grid", "1:3", "--k-grid", "1,2", "--folds", "4",
                         "--confidence", "0.8", "--confidence", "0.95"],
    "fixed_n6_period500": ["--n", "6", "--period", "500",
                           "--p-grid", "1,2", "--k-grid", "2:3", "--folds", "3"],
}
FIXED = {
    "fixed_n1_uniform": ["--p", "12", "--k", "3"],
    "fixed_n6_period500": ["--p", "2", "--k", "4"],
}
COMMANDS = ("tune", "forecast", "check", "compare")
FORMATS = ("text", "json", "csv")

CASES = {
    f"{command}_{fmt}_{name}": [command, "--input", MILK, "--no-timestamp", "--format", fmt,
                                *args, *(FIXED.get(name, []) if command != "tune" else [])]
    for name, args in ARGUMENT_SETS.items()
    for command in COMMANDS
    for fmt in FORMATS
}
CASES["simulate_aada"] = ["simulate", "--model", "aada", "--length", "60", "--seed", "3"]
CASES["simulate_ana"] = ["simulate", "--model", "ana", "--length", "40", "--seed", "5",
                         "--period", "4", "--alpha", "0.3", "--gamma", "0.1"]
HELP_CASES = {"cpwnn": [], **{name: [name] for name in (*COMMANDS, "simulate")}}


def run_cli(argv: list[str]) -> tuple[int, str]:
    from cpwnn.cli import main

    buffer = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # the reports name the input by the path given
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, buffer.getvalue()


def run_help(argv: list[str]) -> str:
    """`--help` as printed at 80 columns; argparse sizes it from $COLUMNS."""
    from cpwnn.cli import main

    buffer = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(buffer):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
    assert exc.value.code == 0
    return buffer.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case):
    code, out = run_cli(CASES[case])
    assert code == 0
    assert out == (GOLDEN_DIR / f"{case}.txt").read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    assert {path.stem for path in GOLDEN_DIR.glob("*.txt")} == set(CASES)
    assert {path.stem for path in HELP_DIR.glob("*.txt")} == set(HELP_CASES)


@pytest.mark.parametrize("case", sorted(HELP_CASES))
def test_help_matches_golden(case):
    assert run_help(HELP_CASES[case]) == (HELP_DIR / f"{case}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        code, out = run_cli(argv)
        if code != 0:
            sys.exit(f"{case}: exit code {code}")
        (GOLDEN_DIR / f"{case}.txt").write_text(out, encoding="utf-8")
        print(f"recorded {case}")
    HELP_DIR.mkdir(exist_ok=True)
    for case, argv in sorted(HELP_CASES.items()):
        (HELP_DIR / f"{case}.txt").write_text(run_help(argv), encoding="utf-8")
        print(f"recorded help/{case}")
