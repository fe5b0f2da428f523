"""In-memory spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's own files: `Tracer.install` replaces
each public cpwnn function at the module attribute its caller looks it up by
(for example `cpwnn.cli.fpto_tune` for the CLI and `cpwnn.wnn.fpto_tune` for
the benchmark's own library calls), and `Tracer.uninstall` puts the originals
back. Nothing inside cpwnn changes.

A span is (id, name, start, end, parent id, op id). Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import cpwnn.backtest
import cpwnn.cli
import cpwnn.conformal
import cpwnn.etssim
import cpwnn.wnn


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.counts: Counter = Counter()
        self.refit_keys: set = set()
        self.op: int | None = None
        # Refits count as duplicates only within one scope: the series an op
        # works on (library workloads) or the op itself (one CLI process).
        self.scope = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children sort after parents
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self.op)

    def _spanned(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _counted(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, *args, **kwargs)
            return result

        return wrapper

    def _patch(self, module, attr: str, make_wrapper) -> None:
        # A name a later version of cpwnn no longer has is reported, and the
        # spans and counters behind it read 0.
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    # -- counters --------------------------------------------------------

    def refit(self, layer: str, forecaster, prefix_length: int) -> None:
        self.counts[f"{layer}.refits"] += 1
        self.counts["wnn.refits"] += 1
        self.refit_keys.add((self.scope, forecaster, int(prefix_length)))

    def _after_tune(self, result, *args, **kwargs) -> None:
        self.counts["wnn.fpto_tune_calls"] += 1
        self.counts["wnn.grid_cells"] += len(result.trace)
        self.counts["wnn.skipped_cells"] += len(result.skipped)

    def _after_fold_mape(self, result, *args, **kwargs) -> None:
        self.counts["wnn.fold_evals"] += 1
        self.counts["series.mape_calls"] += 1

    def _after_backtest_mape(self, result, *args, **kwargs) -> None:
        self.counts["series.mape_calls"] += 1

    def _after_matrices(self, result, calibration_rows, test_rows, delta) -> None:
        i1, n = np.atleast_2d(calibration_rows).shape
        i2 = np.atleast_2d(test_rows).shape[0]
        # step i sorts a pool of i1 + i rows of n scores
        self.counts["backtest.pool_rows_sorted"] += n * (i2 * i1 + i2 * (i2 - 1) // 2)

    def _after_score(self, result, series, t, config, weighting="inverse-distance"):
        self.refit("conformal", _wnn_key(config, weighting), t)

    def _after_center(self, result, history, config, weighting="inverse-distance"):
        self.refit("conformal", _wnn_key(config, weighting), len(history))

    def _wrap_forecaster_fn(self, fn):
        @functools.wraps(fn)
        def forecaster_fn(spec, n):
            forecast = fn(spec, n)
            if spec.kind is cpwnn.wnn.ForecasterKind.WNN:
                key = _wnn_key(spec.config, spec.weighting)
            else:
                key = ("seasonal-naive", spec.period, n)

            def counted(values):
                self.refit("backtest", key, values.size)
                return forecast(values)

            return counted

        return forecaster_fn

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at the names its callers use."""
        spanned = [
            ("wnn.fpto_tune", [cpwnn.cli, cpwnn.wnn], "fpto_tune", self._after_tune),
            ("backtest.check_cp", [cpwnn.cli, cpwnn.backtest], "check_cp", None),
            ("backtest.compare_forecasters", [cpwnn.cli], "compare_forecasters", None),
            ("backtest.run_backtest", [cpwnn.backtest], "run_backtest", None),
            ("backtest.backtest_matrices", [cpwnn.backtest], "backtest_matrices",
             self._after_matrices),
            ("conformal.conformal_region", [cpwnn.cli, cpwnn.conformal], "conformal_region", None),
            ("conformal.score_matrix", [cpwnn.conformal], "score_matrix", None),
            ("etssim.simulate", [cpwnn.cli, cpwnn.etssim], "simulate_ets", None),
            ("etssim.theoretical_width", [cpwnn.etssim], "theoretical_width", None),
            ("cli.load_csv", [cpwnn.cli], "load_csv", None),
            ("series.validate_series", [cpwnn.cli], "validate_series", None),
        ]
        for name, modules, attr, after in spanned:
            for module in modules:
                self._patch(module, attr, lambda fn: self._spanned(fn, name, after))
        counted = [
            (cpwnn.wnn, "mape", self._after_fold_mape),
            (cpwnn.backtest, "mape", self._after_backtest_mape),
            (cpwnn.conformal, "nonconformity_scores", self._after_score),
            (cpwnn.conformal, "wnn_forecast", self._after_center),
        ]
        for module, attr, after in counted:
            self._patch(module, attr, lambda fn: self._counted(fn, after))
        self._patch(cpwnn.backtest, "forecaster_fn", self._wrap_forecaster_fn)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- summaries -------------------------------------------------------

    def busy(self) -> dict[str, dict[str, float]]:
        """Total and self seconds per span name.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because the run has one thread.
        """
        total: Counter = Counter()
        child: Counter = Counter()
        for span_id, name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own: Counter = Counter()
        for span_id, name, start, end, parent, _ in self.spans:
            own[name] += (end - start) - child[span_id]
        return {name: {"total_s": total[name], "self_s": own[name]} for name in total}

    def write(self, out, pass_index: int) -> None:
        """Append this pass's spans, one JSON object a line, to an open file."""
        for span_id, name, start, end, parent, op in self.spans:
            out.write(json.dumps(
                {"pass": pass_index, "id": span_id, "name": name, "start": start,
                 "end": end, "parent": parent, "op": op}
            ) + "\n")


def _wnn_key(config, weighting) -> tuple:
    return ("wnn", config.n, config.p, config.k, cpwnn.wnn.Weighting(weighting).value)
