"""Correctness checks on one instance's output file.

Each check takes the output path, the time grid, the path count and the
oracle values on the grid, and returns a list of problems; an empty list
means the output is correct.  Monte Carlo points are tested against the
exact oracles in ``gmfbm.process`` with a z bound that holds family-wise
over the grid (Bonferroni), so a correct sampler that draws different
numbers fails a whole table with probability at most ``FAMILY_ALPHA``.
"""

from __future__ import annotations

import json
import math
from statistics import NormalDist

import numpy as np

from gmfbm.mclab import corr_curve_oracle
from gmfbm.process import exact_cov_oracle, exact_var_oracle

FAMILY_ALPHA = 1e-4

# acceptance criterion 7, unchanged
PREDICTED_DOMINANT = -0.2
ORACLE_SLOPE_TOLERANCE = 0.05
MC_SLOPE_FLOOR = 0.15
MC_SLOPE_STDERRS = 3.0

# the output's oracle column must match the oracle recomputed here
ORACLE_REL_TOL = 1e-9


def z_bound(points: int) -> float:
    """Two-sided |z| bound with family-wise error FAMILY_ALPHA over ``points``."""
    return NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * points))


def _z_problems(label, grid, estimates, stderrs, oracle) -> list[str]:
    bound = z_bound(len(grid))
    problems = []
    for t, est, se, ref in zip(grid, estimates, stderrs, oracle):
        if not (math.isfinite(est) and math.isfinite(se) and se > 0.0):
            problems.append(f"{label} at t={t:g}: estimate {est} stderr {se}")
        elif abs(est - ref) / se > bound:
            problems.append(f"{label} at t={t:g}: |z| = {abs(est - ref) / se:.2f} "
                            f"> {bound:.2f} (mc {est:.6g}, oracle {ref:.6g})")
    return problems


def _table(path, columns, grid) -> tuple[dict, np.ndarray, list[str]]:
    with open(path) as fh:
        payload = json.load(fh)
    rows = np.array(payload["rows"], dtype=float)
    problems = []
    if payload["columns"] != columns:
        problems.append(f"columns {payload['columns']} != {columns}")
    elif rows.shape != (len(grid), len(columns)):
        problems.append(f"table shape {rows.shape} != {(len(grid), len(columns))}")
    elif not np.allclose(rows[:, 0], grid, rtol=1e-12, atol=0.0):
        problems.append("t column differs from the requested grid")
    return payload, rows, problems


def _oracle_problems(label, reported, oracle) -> list[str]:
    if np.allclose(reported, oracle, rtol=ORACLE_REL_TOL, atol=0.0):
        return []
    return [f"{label} column differs from the recomputed oracle"]


def check_lrd(path, grid, n_paths, oracle) -> list[str]:
    """``gmfbm lrd --format json``: criterion 7's slope gates and a z test of
    every MC correlation against ``corr_curve_oracle``."""
    payload, rows, problems = _table(path, ["t", "oracle_corr", "mc_corr", "mc_stderr"], grid)
    if problems:
        return problems
    summary = payload["summary"]
    dominant = summary["predicted"]["dominant"]
    oracle_slope = summary["oracle_fit"]["slope"]
    mc_fit = summary["mc_fit"]
    if not math.isclose(dominant, PREDICTED_DOMINANT, rel_tol=1e-6):
        problems.append(f"predicted dominant exponent {dominant} != {PREDICTED_DOMINANT}")
    if not abs(oracle_slope - dominant) < ORACLE_SLOPE_TOLERANCE:
        problems.append(f"|oracle slope - predicted| = {abs(oracle_slope - dominant):.4f}")
    mc_limit = max(MC_SLOPE_FLOOR, MC_SLOPE_STDERRS * mc_fit["slope_stderr"])
    if not abs(mc_fit["slope"] - oracle_slope) < mc_limit:
        problems.append(f"|mc slope - oracle slope| = "
                        f"{abs(mc_fit['slope'] - oracle_slope):.4f} >= {mc_limit:.4f}")
    if summary["is_lrd"] is not True:
        problems.append("process not reported long-range dependent")
    problems += _oracle_problems("oracle_corr", rows[:, 1], oracle)
    problems += _z_problems("corr", grid, rows[:, 2], rows[:, 3], oracle)
    return problems


def check_cov_table(path, grid, n_paths, oracle) -> list[str]:
    """``gmfbm cov-table --format json``: z test of every MC covariance
    against ``exact_cov_oracle``."""
    _, rows, problems = _table(
        path, ["t", "oracle_cov", "asymptotic_cov", "ratio", "mc_cov", "mc_stderr"], grid)
    if problems:
        return problems
    problems += _oracle_problems("oracle_cov", rows[:, 1], oracle)
    problems += _z_problems("cov", grid, rows[:, 4], rows[:, 5], oracle)
    return problems


def check_simulate(path, grid, n_paths, oracle) -> list[str]:
    """``gmfbm simulate`` CSV: row layout, a nonnegative nondecreasing clock,
    finite values, and a z test of each per-t sample variance against
    ``exact_var_oracle``."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "path,t,subordinator,value":
            return [f"header {header!r}"]
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    m = len(grid)
    if data.shape != (n_paths * m, 4):
        return [f"{data.shape[0]} rows of {data.shape[1]} columns, "
                f"expected {n_paths * m} of 4"]
    problems = []
    if not np.all(np.isfinite(data)):
        problems.append("non-finite values")
    if not np.array_equal(data[:, 0], np.repeat(np.arange(n_paths), m)):
        problems.append("path column out of order")
    if not np.allclose(data[:, 1], np.tile(grid, n_paths), rtol=1e-12, atol=0.0):
        problems.append("t column differs from the requested grid")
    clock = data[:, 2].reshape(n_paths, m)
    if np.any(clock < 0.0) or np.any(np.diff(clock, axis=1) < 0.0):
        problems.append("clock negative or decreasing")
    if problems:
        return problems
    sq = data[:, 3].reshape(n_paths, m) ** 2
    # Y_t is centred, so E[Y_t**2] is its variance
    return _z_problems("var", grid, sq.mean(axis=0),
                       sq.std(axis=0, ddof=1) / math.sqrt(n_paths), oracle)


def lrd_oracle(spec, s, grid):
    return np.array([c for _, c in corr_curve_oracle(spec, s, grid)])


def cov_oracle(spec, s, grid):
    return np.array([exact_cov_oracle(spec, s, float(t)) for t in grid])


def var_oracle(spec, s, grid):
    return np.array([exact_var_oracle(spec, float(t)) for t in grid])
