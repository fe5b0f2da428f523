import io
import json
from pathlib import Path

import numpy as np
import pytest

from cpwnn.cli import load_csv, main, series_to_csv
from cpwnn.errors import ColumnNotFoundError, CsvParseError
from cpwnn.wnn import SeasonalNaiveSpec, WnnSpec

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
        with pytest.raises(ColumnNotFoundError) as exc:
            load_csv(path, "value", 12)
        assert exc.value.available == ["date", "amount"]

    def test_numeric_column_index(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("date,amount\n1968-01,10.5\n")
        assert load_csv(path, "1", 12).values == pytest.approx([10.5])

    def test_parse_error_reports_row(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("date,value\n1968-01,10.5\n1968-02,n/a\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(path, "value", 12)
        assert exc.value.row == 3
        assert exc.value.text == "n/a"

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
    def test_missing_file_is_data_error(self, capsys):
        assert main(["check", "--input", "/nonexistent.csv", "--p", "2", "--k", "2"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--input", "x.csv", "--bogus-flag"])
        assert exc.value.code == 2

    def test_p_without_k_is_usage_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,value\n1,1.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["check", "--input", str(path), "--p", "2"])
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

    @pytest.mark.parametrize("command", [["tune", "--format", "json"], ["forecast"]])
    def test_overflowing_distances_are_data_error(self, tmp_path, capsys, command):
        # Squared distances of a series at 1e160 overflow to +inf, which leaves
        # an inverse-distance forecast without a finite weight.
        path = tmp_path / "huge.csv"
        values = np.round(np.random.default_rng(3).normal(10.0, 1.0, 120)) * 1e160
        path.write_text(series_to_csv(values))
        assert main([*command, "--input", str(path), "--folds", "6"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "rescale the series" in captured.err


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

    def test_tune_text_output(self, milk_like_csv, capsys):
        code = main(["tune", "--input", str(milk_like_csv), "--n", "1", "--folds", "5",
                     "--p-grid", "1:4", "--k-grid", "1,2"])
        assert code == 0
        assert "p* =" in capsys.readouterr().out


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
