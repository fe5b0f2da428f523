import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpwnn.cli import build_parser, load_csv, main, series_to_csv
from cpwnn.errors import ColumnNotFoundError, CsvParseError
from cpwnn.wnn import DEFAULT_GRID, SeasonalNaiveSpec, WnnSpec, fpto_tune

MILK = Path(__file__).resolve().parent.parent / "data" / "milk_uk_monthly.csv"


@pytest.fixture
def milk_like_csv(tmp_path):
    rng = np.random.default_rng(0)
    months = np.arange(120)
    values = 100.0 + 8.0 * np.sin(2 * np.pi * months / 12) + rng.normal(0, 0.5, 120)
    path = tmp_path / "series.csv"
    lines = ["date,value"]
    lines.extend(f"2000-{m % 12 + 1:02d},{float(v)!r}" for m, v in zip(months, values))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("date,value\n1968-01,10.5\n1968-02,11.0\n")
        series = load_csv(path, "value", 12)
        assert series.values == pytest.approx([10.5, 11.0])
        assert series.period == 12

    def test_missing_column_lists_headers(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("date,amount\n1968-01,10.5\n")
        # "²" is a digit to str.isdigit but not a decimal that int() reads.
        for column in ("value", "²"):
            with pytest.raises(ColumnNotFoundError) as exc:
                load_csv(path, column, 12)
            assert str(exc.value) == (
                f"column {column!r} not found; available columns: date, amount"
            )

    def test_numeric_column_index(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("date,amount\n1968-01,10.5\n")
        assert load_csv(path, "1", 12).values == pytest.approx([10.5])

    def test_parse_error_reports_row(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("date,value\n1968-01,10.5\n1968-02,n/a\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(path, "value", 12)
        assert str(exc.value) == "row 3, column 'value': cannot parse 'n/a' as a number"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvParseError) as exc:
            load_csv(path, "value", 12)
        assert str(exc.value) == "empty file (expected a header row)"

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("date,value\n1968-01,10.5\n\n , \n1968-02,11.0\n")
        assert load_csv(path, "value", 12).values.tolist() == [10.5, 11.0]

    def test_row_without_the_cell(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("date,value\n1968-01,10.5\n1968-02\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(path, "value", 12)
        assert str(exc.value) == "row 3, column 'value': missing cell"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_leading_byte_order_mark_is_ignored(
        self, milk_like_csv, tmp_path, monkeypatch, capsys, source
    ):
        # the BOM glues onto the first header cell, so that cell is "value"
        text = "value\n" + "".join(f"{v!r}\n" for v in load_csv(milk_like_csv).values.tolist())
        (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
        args = ["tune", "--n", "1", "--folds", "5", "--p-grid", "1:3", "--k-grid", "1,2"]
        assert main([*args, "--input", str(tmp_path / "plain.csv")]) == 0
        plain = capsys.readouterr().out
        text = "\ufeff" + text
        if source == "file":
            path = tmp_path / "bom.csv"
            path.write_text(text, encoding="utf-8")
        else:
            path = "-"
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main([*args, "--input", str(path)]) == 0
        assert capsys.readouterr().out == plain

    def test_byte_order_mark_before_a_quoted_header(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('\ufeff"value","date"\r\n10.5,1968-01\r\n', encoding="utf-8")
        assert load_csv(path, "value", 12).values == pytest.approx([10.5])

    def test_round_trip_preserves_float64(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(12.0, 3.0, size=50)
        path = tmp_path / "rt.csv"
        path.write_text(series_to_csv(values))
        back = load_csv(path, "value", 12)
        assert np.array_equal(back.values, values)


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        # A missing file, a directory read or written as a file, and a byte
        # that is not UTF-8: each one error line, no traceback.
        undecodable = tmp_path / "bytes.csv"
        undecodable.write_bytes(b"t,value\n1,\xff\n")
        for argv in (
            ["check", "--input", "/nonexistent.csv", "--p", "2", "--k", "2"],
            ["tune", "--input", str(tmp_path)],
            ["simulate", "--model", "ana", "--length", "5", "--output", str(tmp_path)],
            ["tune", "--input", str(undecodable)],
        ):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--input", "x.csv", "--bogus-flag"])
        assert exc.value.code == 2

    def test_p_without_k_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("t,value\n1,1.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["check", "--input", str(path), "--p", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cpwnn check ")
        assert "cpwnn check: error: --p and --k must be given together" in err

    @pytest.mark.parametrize("fixed", [["--p", "3", "--k", "2"], ["--p", "3"], ["--k", "2"]])
    def test_tune_rejects_fixed_p_and_k(self, fixed):
        # tune always searches the grid; --k must not pass as an abbreviated --k-grid
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--input", str(MILK), "--p-grid", "1:2", "--k-grid", "1:2", *fixed])
        assert exc.value.code == 2

    def test_infeasible_configuration_is_4(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text(series_to_csv(np.arange(1.0, 41.0)))
        code = main(
            ["check", "--input", str(path), "--p", "2", "--k", "2", "--confidence", "0.99"]
        )
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_bad_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n1,1.0\n2,oops\n")
        assert main(["tune", "--input", str(path), "--folds", "2"]) == 3

    @pytest.mark.parametrize("command", [
        ["tune", "--format", "json"],
        ["forecast"],
        ["forecast", "--weighting", "uniform", "--p", "2", "--k", "3"],
        ["check", "--weighting", "uniform", "--p", "2", "--k", "3"],
        ["tune", "--weighting", "uniform", "--format", "json"],
    ])
    def test_overflowing_distances_are_data_error(self, tmp_path, capsys, command):
        # At 1e160 and at 1e307 the squared windows about the queries' level
        # overflow, so the series has no nearest neighbors to rank.
        path = tmp_path / "huge.csv"
        rng = np.random.default_rng(3)
        if "uniform" in command:
            values = np.round(rng.normal(10.0, 0.5, 120), 1) * 1e307
        else:
            values = np.round(rng.normal(10.0, 1.0, 120)) * 1e160
        path.write_text(series_to_csv(values))
        assert main([*command, "--input", str(path), "--folds", "6"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "rescale the series" in captured.err

    def test_overflowing_mape_is_data_error(self, tmp_path, capsys):
        # 10 / 1e-310 overflows, so the fold MAPE of every cell is not finite.
        values = np.random.default_rng(1).normal(10.0, 1.0, 120)
        values[::5] = 1e-310
        path = tmp_path / "tiny.csv"
        path.write_text(series_to_csv(values))
        assert main(["tune", "--input", str(path), "--format", "json", "--no-timestamp"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "rescale the series" in captured.err

    def test_overflowing_width_is_recorded_per_spec(self, tmp_path, capsys):
        # Finite scores near the largest float: the seasonal-naive half-widths
        # are finite, but their column sum is not, so that row names the
        # overflow and the JSON stays valid (no Infinity token).
        path = tmp_path / "huge.csv"
        path.write_text(series_to_csv(np.random.default_rng(5).random(120) * 1e308 + 1e300))
        code = main(["compare", "--input", str(path), "--weighting", "uniform",
                     "--p", "2", "--k", "1", "--format", "json", "--no-timestamp"])
        assert code == 0
        captured = capsys.readouterr()

        def reject(token):
            raise ValueError(f"invalid JSON token {token}")

        (level,) = json.loads(captured.out, parse_constant=reject)["results"]["levels"]
        errors = {m["method"]: m["error"] for m in level["methods"]}
        assert errors["seasonal-naive(m=12)"] == "a width overflows; rescale the series"
        assert captured.err == ""

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_overflowing_overall_width_is_recorded_per_spec(self, tmp_path, capsys, fmt):
        # One test step (i2 = 1) and n = 12 columns: each column's mean width
        # is finite, but the overall mean over the columns overflows. The
        # report raises it, so compare records it in the seasonal-naive row
        # in every format, as it does a per-column overflow.
        path = tmp_path / "huge.csv"
        path.write_text(series_to_csv(np.random.default_rng(5).random(60) * 0.8e308 + 1e300))
        code = main(["compare", "--input", str(path), "--n", "12", "--confidence", "0.5",
                     "--weighting", "uniform", "--p", "1", "--k", "1", "--format", fmt])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        message = "a width overflows; rescale the series"
        if fmt == "json":
            def reject(token):
                raise ValueError(f"invalid JSON token {token}")

            (level,) = json.loads(captured.out, parse_constant=reject)["results"]["levels"]
            errors = {m["method"]: m["error"] for m in level["methods"]}
            assert errors["seasonal-naive(m=12)"] == message
        else:
            (row,) = [line for line in captured.out.splitlines() if "seasonal-naive" in line]
            assert row.endswith(f"error: {message}")

    @pytest.mark.parametrize("command", ["tune", "forecast", "check", "compare"])
    def test_analyses_take_no_seed(self, capsys, command):
        # The analyses draw no random numbers; only simulate takes --seed.
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(MILK), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", [
        ("3:1", "'3:1' is an empty range (use lo <= hi)"),
        ("0:2", "grid entries must be positive integers"),
    ])
    def test_bad_grid_is_usage_error(self, capsys, grid, message):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--input", str(MILK), "--p-grid", grid])
        assert exc.value.code == 2
        assert f"argument --p-grid: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--confidence", "x", "'x' is not a number"),
        ("--confidence", "1.5", "confidence must lie strictly between 0 and 1"),
        ("--confidence", "0", "confidence must lie strictly between 0 and 1"),
        ("--n", "0", "value must be a positive integer"),
        ("--n", "x", "'x' is not an integer"),
        ("--p-grid", "a", "'a' is not a grid (use 'lo:hi' or 'a,b,c')"),
    ])
    def test_bad_argument_is_usage_error(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--input", str(MILK), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--model", "ana", "--length", "120", "--seed", "4",
             "--output", str(out)]
        )
        assert code == 0
        series = load_csv(out, "value", 12)
        assert len(series) == 120

    def test_simulate_then_check_round_trip(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--model", "ana", "--length", "300", "--seed", "9",
                     "--output", str(out)]) == 0
        report_path = tmp_path / "report.json"
        code = main(
            ["check", "--input", str(out), "--n", "3", "--p", "4", "--k", "4",
             "--confidence", "0.95", "--format", "json", "--no-timestamp",
             "--output", str(report_path)]
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        level = doc["results"]["levels"][0]
        assert level["i2"] == 20
        half = np.asarray(level["report"]["half_widths"])
        assert half.shape == (20, 3)
        assert 0.0 <= level["report"]["overall_coverage"] <= 100.0

    @pytest.mark.parametrize("model", ["ana", "aada"])
    @pytest.mark.parametrize("flag", ["--init-level", "--init-trend"])
    def test_non_finite_start_value_is_4(self, capsys, model, flag):
        assert main(["simulate", "--model", model, "--length", "10", flag, "nan"]) == 4
        assert f"{flag[2:].replace('-', '_')} must be a finite number" in capsys.readouterr().err

    def test_negative_seed_is_4(self, capsys):
        assert main(["simulate", "--model", "ana", "--length", "10", "--seed", "-1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"

    def test_overflowing_path_is_4(self, capsys):
        code = main(["simulate", "--model", "aada", "--length", "3",
                     "--init-level", "1e308", "--init-trend", "1e308"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the parameters make the path overflow" in captured.err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400", "-1"])
    def test_sigma2_must_be_finite_and_non_negative(self, capsys, value):
        assert main(["simulate", "--model", "ana", "--length", "5", f"--sigma2={value}"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sigma2 must be a finite number >= 0" in captured.err

    @pytest.mark.parametrize("flags", [["--beta", "nan", "--phi", "7"], ["--beta", "0.3"],
                                       ["--phi", "0.9"], ["--beta", "0", "--phi", "0"]])
    def test_ana_rejects_beta_and_phi(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "ana", "--length", "3", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: cpwnn simulate ")
        assert "--beta and --phi only apply to --model aada" in captured.err

    def test_aada_takes_beta_and_phi_over_its_preset(self, capsys):
        aada = ["simulate", "--model", "aada", "--length", "5"]
        assert main(aada) == 0
        preset = capsys.readouterr().out
        assert main([*aada, "--beta", "0.3", "--phi", "0.82"]) == 0
        assert capsys.readouterr().out == preset
        assert main([*aada, "--phi", "0.5"]) == 0
        assert capsys.readouterr().out != preset
        assert main([*aada, "--phi", "1"]) == 4
        assert "phi must lie in (0, 1)" in capsys.readouterr().err

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["simulate", "--model", "aada", "--length", "80", "--seed", "3",
                  "--output", str(out)])
        assert a.read_text() == b.read_text()


class TestForecastCommand:
    def test_nested_confidence_levels(self, milk_like_csv, tmp_path):
        out = tmp_path / "forecast.json"
        code = main(
            ["forecast", "--input", str(milk_like_csv), "--n", "2", "--p", "6", "--k", "3",
             "--confidence", "0.90", "--confidence", "0.95",
             "--format", "json", "--no-timestamp", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        regions = {r["confidence"]: r for r in doc["results"]["regions"]}
        low = np.asarray(regions[0.90]["half_widths"])
        high = np.asarray(regions[0.95]["half_widths"])
        assert np.all(high >= low - 1e-12)  # wider interval at higher confidence

    def test_json_reports_are_byte_identical(self, milk_like_csv, tmp_path):
        outs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            main(["forecast", "--input", str(milk_like_csv), "--n", "1", "--p", "4",
                  "--k", "2", "--format", "json", "--no-timestamp", "--output", str(out)])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_text_output_runs(self, milk_like_csv, capsys):
        code = main(["forecast", "--input", str(milk_like_csv), "--n", "1",
                     "--p", "4", "--k", "2"])
        assert code == 0
        assert "point forecast" in capsys.readouterr().out


class TestCheckAndCompare:
    def test_check_csv_table(self, milk_like_csv, capsys):
        code = main(
            ["check", "--input", str(milk_like_csv), "--n", "1", "--p", "4", "--k", "3",
             "--confidence", "0.9", "--format", "csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header == "confidence,method,component,mean_width,median_width,coverage"

    def test_compare_includes_both_methods(self, milk_like_csv, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", "--input", str(milk_like_csv), "--n", "1", "--p", "4", "--k", "3",
             "--format", "json", "--no-timestamp", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        methods = [m["method"] for m in doc["results"]["levels"][0]["methods"]]
        assert any(m.startswith("wnn") for m in methods)
        assert any(m.startswith("seasonal-naive") for m in methods)

    def test_default_grid_is_the_tuners(self):
        defaults = inspect.signature(fpto_tune).parameters
        assert defaults["p_grid"].default is defaults["k_grid"].default is DEFAULT_GRID
        args = build_parser().parse_args(["check", "--input", "series.csv"])
        assert args.p_grid is args.k_grid is DEFAULT_GRID

    def test_tune_text_output(self, milk_like_csv, capsys):
        code = main(["tune", "--input", str(milk_like_csv), "--n", "1", "--folds", "5",
                     "--p-grid", "1:4", "--k-grid", "1,2"])
        assert code == 0
        assert "p* =" in capsys.readouterr().out

    def test_tune_text_counts_skipped_cells(self, milk_like_csv, capsys):
        # 120 values cannot seed a window of 200 lags, at either k
        code = main(["tune", "--input", str(milk_like_csv), "--n", "1", "--folds", "5",
                     "--p-grid", "1,200", "--k-grid", "1,2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("tuned over 2 grid cells, 5 folds\n")
        assert out.endswith("\nskipped 2 infeasible cells\n")


def test_check_does_not_import_numpy_ma():
    # np.median imports numpy.ma on a process's first call; the reports take
    # their medians by sorting, so a check run never loads it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\nfrom cpwnn.cli import main\n"
        f"code = main(['check', '--input', {str(MILK)!r}, '--n', '3', '--format', 'json'])\n"
        "sys.exit(code or 'numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout.startswith(b"{")


class TestScoringWork:
    """Every level, the backtest and the region center share one set of forecasts."""

    @pytest.mark.parametrize(
        "command, confidences, calls",
        [
            ("check", ("0.8", "0.9", "0.95"), 1),
            ("forecast", ("0.8", "0.95"), 1),
            ("compare", ("0.8", "0.95"), 2),  # one per forecaster
        ],
    )
    def test_one_forecaster_call_per_spec(self, monkeypatch, capsys, command, confidences, calls):
        made = []

        def counting(forecast_at):
            def counted(spec, values, ends, n):
                made.append(spec)
                return forecast_at(spec, values, ends, n)

            return counted

        for spec_type in (WnnSpec, SeasonalNaiveSpec):
            monkeypatch.setattr(spec_type, "forecast_at", counting(spec_type.forecast_at))
        levels = [arg for conf in confidences for arg in ("--confidence", conf)]
        argv = [command, "--input", str(MILK), "--n", "1", "--p", "12", "--k", "3", *levels]
        assert main(argv) == 0
        assert len(made) == calls
        assert capsys.readouterr().out
