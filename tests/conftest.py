"""Shared test helpers plus the acceptance-criteria summary hook."""

from __future__ import annotations

import numpy as np

_acceptance_lines: list[str] = []


def record_acceptance(name: str, passed: bool, detail: str) -> None:
    _acceptance_lines.append(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def replay_states(params, values):
    """Replay the ETS state recursion over a simulated path from its true start.

    Returns (level, trend, seasonal): level[t] and trend[t] are the states in
    force before values[t] is observed, and seasonal[t] is the whole m-slot
    seasonal array at that point. With beta = phi = 0 (the model without
    trend) the trend stays out of every mean.
    The one-step mean of values[t] is level[t] + phi*trend[t] + seasonal[t, t % m].
    """
    phi, beta, m = params.phi, params.beta, params.period
    level, trend = params.init_level, params.init_trend
    seasonal = params.init_seasonal.copy()
    T = len(values)
    levels, trends, seasonals = np.empty(T), np.empty(T), np.empty((T, m))
    for t, value in enumerate(values):
        levels[t], trends[t], seasonals[t] = level, trend, seasonal
        slot = t % m
        e = value - (level + phi * trend + seasonal[slot])
        level = level + phi * trend + params.alpha * e
        trend = phi * trend + beta * e
        seasonal[slot] = seasonal[slot] + params.gamma * e
    return levels, trends, seasonals
