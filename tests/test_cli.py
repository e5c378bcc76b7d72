"""Command-line contract: exit codes, output schemas, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gmfbm import cli, mclab, selftest, theory
from gmfbm.cli import (EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_STATISTICAL,
                       EXIT_USAGE, main)
from gmfbm.fbm import ConditioningError
from gmfbm.mclab import DecayFit
from gmfbm.process import (GmfbmParams, TimeChangedSpec,
                           sample_timechanged_path_with_clock)
from gmfbm.randkit import BLOCK_PATHS, path_blocks
from gmfbm.subordinators import (QuadratureError, SubordinatorSpec, subordinator_moment,
                                  subordinator_moment_asymptotic)
from gmfbm.theory import DecayPrediction

FAST_LRD = ["--subordinator", "gamma", "--paths", "300", "--seed", "5",
            "--t-min", "100", "--t-max", "10000", "--t-count", "6"]


def run(tmp_path, *args, fmt="csv", name="out"):
    out = tmp_path / f"{name}.{fmt}"
    code = main([*args, "--format", fmt, "--out", str(out)])
    return code, out.read_text() if out.exists() else None


# The command line's failure contract, one row per failing argv: the argv,
# its exit code, its one stderr line and the formats it runs in (CSV if
# none is named).  A line with "..." pins its text before and after the
# dots, one without pins the whole line.  TestExitCodes runs every row and
# also requires no warning, no traceback, nothing on stdout and no --out file
FAILURES = [
    # parameters outside their domain, non-finite ones and seeds outside [0, 2**64)
    ("simulate --alpha 1.5 --paths 1 --subordinator tss --t-min 1 --t-max 2 --t-count 2",
     EXIT_USAGE, "gmfbm: config error: alpha must lie in (0,1)..."),
    ("lrd --h1 1.5", EXIT_USAGE, "gmfbm: config error: Hurst index must lie in (0,1), got 1.5"),
    ("lrd --a nan --paths 300", EXIT_USAGE, "gmfbm: config error: a and b must be finite..."),
    ("simulate --a inf", EXIT_USAGE, "gmfbm: config error: a and b must be finite..."),
    ("simulate --lambda inf", EXIT_USAGE,
     "gmfbm: config error: lambda must be positive and finite..."),
    ("simulate --subordinator gamma --nu inf", EXIT_USAGE,
     "gmfbm: config error: nu must be positive and finite..."),
    ("moments --t-max inf", EXIT_USAGE,
     "gmfbm: config error: need 0 < t-min < t-max, with t-max finite"),
    ("moments --subordinator gamma --q inf --t-count 2", EXIT_USAGE,
     "gmfbm: invalid parameters: q must be positive and finite..."),
    ("moments --subordinator tss --q 5", EXIT_USAGE,
     "gmfbm: invalid parameters: q must lie in (0, 4], got 5.0"),
    ("simulate --paths 0", EXIT_USAGE, "gmfbm: config error: paths must be positive"),
    ("cov-table --paths 50", EXIT_USAGE,
     "gmfbm: invalid parameters: need at least 100 paths, got 50"),
    (f"simulate --paths 1 --t-min 1 --t-max 2 --t-count 2 --seed {2**64}", EXIT_USAGE,
     "gmfbm: config error: seed must be a nonnegative 64-bit integer"),
    (f"moments --paths 1 --t-min 1 --t-max 2 --t-count 2 --seed {2**64}", EXIT_USAGE,
     "gmfbm: config error: seed must be a nonnegative 64-bit integer"),
    # grids not above s: the library functions that need t > s raise, not a
    # copy of their rule; the last cov-table row is refused before the
    # oracle is formed
    ("lrd --t-min 1 --s 1", EXIT_USAGE, "gmfbm: invalid parameters: need ..."),
    ("lrd --s 0 --paths 200", EXIT_USAGE,
     "gmfbm: invalid parameters: need s > 0 and a nonempty 1-d grid of times above s..."),
    ("cov-table --t-min 0.5 --s 1", EXIT_USAGE, "gmfbm: invalid parameters: need ..."),
    ("cov-table --s 50 --t-min 10 --t-max 100 --t-count 5 --paths 200", EXIT_USAGE,
     "gmfbm: invalid parameters: need 0 < s < t..."),
    # every grid time rounds to t = 1 = s, so the rounding rule is never reached
    ("cov-table --t-min 1 --t-max 1.0000000000000002 --t-count 3 --paths 200", EXIT_USAGE,
     "gmfbm: invalid parameters: need 0 < s < t, got s=1.0, t=1.0"),
    ("cov-table --subordinator gamma --s 2e6 --t-min 1e6 --t-max 1e8", EXIT_USAGE,
     "gmfbm: invalid parameters: need ..."),
    # t-max so close to t-min that geomspace rounds grid times together: the
    # grid is not increasing, so no table of repeated rows and no fit over them
    ("cov-table --t-min 100 --t-max 100.00000000000003 --t-count 5 --paths 200", EXIT_USAGE,
     "gmfbm: invalid parameters: need 0 < s < t, t an increasing 1-d grid..."),
    ("lrd --t-min 100 --t-max 100.000000000001 --paths 200", EXIT_USAGE,
     "gmfbm: invalid parameters: need 0 < s < t, t an increasing 1-d grid..."),
    # lrd's log-log fits need five grid times
    ("lrd --t-count 4 --paths 200 --t-min 100 --t-max 1000", EXIT_USAGE,
     "gmfbm: invalid parameters: need at least 5 points, got 4"),
    ("lrd --t-count 4 --paths 200", EXIT_USAGE,
     "gmfbm: invalid parameters: need at least 5 points, got 4"),
    # every Gamma clock draw S_s underflows to 0 (at nu = 1e9, or at s =
    # 1e-8), so Y_s is 0 on every path: no correlation, and no covariance of
    # 0 with a stderr of 0 (on t in [2, 10] the oracle's rounding bound is
    # about 1e-7 of Cov, so it passes)
    ("lrd --subordinator gamma --nu 1e9 --paths 200", EXIT_USAGE,
     "gmfbm: invalid parameters: Y_s is constant over 200 paths, so the Monte Carlo "
     "correlation of Y_s and Y_t is undefined", "csv", "json"),
    ("cov-table --subordinator gamma --s 1e-8 --t-min 2 --t-max 10 --t-count 3 --paths 100",
     EXIT_USAGE, "gmfbm: invalid parameters: Y_s is constant over 100 paths, so the Monte "
     "Carlo correlation of Y_s and Y_t is undefined"),
    ("moments --t-min 1 --t-max 10 --t-count 2 --out /nonexistent-dir/x.csv", EXIT_IO,
     "gmfbm: i/o error: ...'/nonexistent-dir/x.csv'"),
    # t = 1e250: the cut-off of the quadrature is finite, the integrand
    # overflows, and the quadrature's own check reports it, with no numpy
    # warning before it (exit 4, never 1)
    ("moments --subordinator tss --t-min 1e249 --t-max 1e250 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: moment quadrature error ..."),
    # at alpha -> 0 the integrand spans 1e299 decades of u: refused by count
    ("moments --alpha 1e-300 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: moment integrand spans 6.84845e+299 panels (limit 4096) "
     "for alpha=1e-300, lambda=1.0, t=100.0, q=0.6"),
    # at t = 1e14 on a Gamma clock V(t) - V(t-s) keeps about two of V's
    # digits, so rounding the three V values can move the oracle by 1.4% of
    # itself (at 1e16 it cancels to <= 0): exit 4 at the first such grid
    # time, before any path is drawn, and never a printed oracle column
    ("lrd --subordinator gamma --t-min 1e14 --t-max 1e16 --paths 200", EXIT_NUMERICAL,
     "gmfbm: numerical failure: oracle correlation at t = 100000000000000 has a rounding "
     "error bound of 0.0139 of its value, above 0.001: V(t) + V(s) - V(t-s) cancels"),
    ("lrd --subordinator gamma --t-min 1e14 --t-max 1e16", EXIT_NUMERICAL,
     "gmfbm: numerical failure: oracle correlation at t = 100000000000000 has a rounding "
     "error bound of 0.0139 of its value, above 0.001: V(t) + V(s) - V(t-s) cancels"),
    ("cov-table --subordinator gamma --t-min 1e14 --t-max 1e16 --paths 100", EXIT_NUMERICAL,
     "gmfbm: numerical failure: oracle covariance at t = 100000000000000 has a rounding "
     "error bound of 0.0139 ..."),
    # at s = 1e-8, V(t) - V(t-s) loses about log10(t/s) of V's digits: the
    # oracle column was off by up to 3.8% against mpmath; flagged at t = 1e6
    ("cov-table --subordinator gamma --s 1e-8 --t-min 1e6 --t-max 1e8 --t-count 3 "
     "--paths 100", EXIT_NUMERICAL,
     "gmfbm: numerical failure: oracle covariance at t = 1000000 has a rounding error "
     "bound of ..."),
    # V(s) = 7.7e-301 is positive, and V(t) - V(t-s) cancels it away
    ("cov-table --s 1e-300 --paths 200 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: oracle covariance 0 at t = 100 ... lost its digits to "
     "cancellation"),
    # values beyond the float range, and positive values that underflow to
    # 0: these wrote inf or 0 cells after numpy warnings and exited 0, or
    # blamed a constant sample or cancellation for a V of 0.  The line names
    # the innermost gmfbm function and the command
    ("moments --subordinator gamma --nu 1e-300", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in subordinators.gamma_moment during "
     "'moments': ..."),
    # t/nu = 1e309 is beyond the float range, and so is x(x + 1) at 1e155 and 1e201
    ("moments --subordinator gamma --nu 1e-305 --q 1", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in subordinators.gamma_moment during "
     "'moments': ..."),
    ("moments --subordinator gamma --nu 1e-151 --q 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in subordinators.gamma_moment during "
     "'moments': ..."),
    ("moments --subordinator gamma --t-min 1e200 --t-max 1e201 --t-count 2 --q 2",
     EXIT_NUMERICAL, "gmfbm: numerical failure: float overflow in subordinators.gamma_moment "
     "during 'moments': the order-2.0 moment ..."),
    # Python gives a list comprehension its own frame; the line names the
    # function that holds it
    ("moments --subordinator gamma --q 1e300 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in subordinators.gamma_moment during "
     "'moments': the order-1e+300 moment is beyond the float range at t/nu = 10000.0"),
    # the TSS moments beyond the float range are the rows of TSS_OVERFLOWS;
    # lam**(alpha - 2) is beyond it at lambda = 1e-300, lam**(alpha - 1) at 1e-320
    ("cov-table --lambda 1e-300 --t-min 2 --t-max 3 --t-count 2 --paths 100", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in subordinators.tss_moment during "
     "'cov-table': the order-1.1 moment's set-up (the clock's mean, variance or t "
     "lam**alpha) is beyond the float range at t = 3.0"),
    ("moments --alpha 0.01 --lambda 1e-320 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in subordinators.tss_moment during "
     "'moments': the order-0.6 moment's set-up (the clock's mean, variance or t "
     "lam**alpha) is beyond the float range at t = 10000.0"),
    # a**2 is beyond the float range at a = 1e200, and a**2 m(t, 2H1) at 1e154
    ("lrd --a 1e200", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in process.exact_var_oracle during 'lrd': "
     "Var(Y_t) = a**2 m(t, 2H1) + b**2 m(t, 2H2) is beyond the float range at t = 1"),
    ("lrd --a 1e154 --paths 200", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in process.exact_var_oracle during 'lrd': "
     "Var(Y_t) = a**2 m(t, 2H1) + b**2 m(t, 2H2) is beyond the float range at t = 100"),
    ("cov-table --a 1e154 --paths 100 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in process.exact_var_oracle during "
     "'cov-table': Var(Y_t) = a**2 m(t, 2H1) + b**2 m(t, 2H2) is beyond the float range "
     "at t = 100"),
    ("simulate --a 1e200 --paths 3 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in process.increment_variance during "
     "'simulate': the increment variance a**2 lag**2H1 + b**2 lag**2H2 is beyond the "
     "float range at a lag the clock reached"),
    # b**2 and (1/nu)**2H1 leave the float range; at lambda = 1e-320 the TSS
    # rate is inf, and at a = 0 the a**2 term is 0 * inf
    ("cov-table --b 1e200 --paths 100 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in theory.cov_asymptotic during "
     "'cov-table': the asymptotic covariance is beyond the float range at t = 100.0"),
    ("cov-table --subordinator gamma --nu 1e-300 --paths 100 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in theory.cov_asymptotic during "
     "'cov-table': the asymptotic covariance is beyond the float range at t = 100.0"),
    ("cov-table --a 0 --alpha 0.01 --lambda 1e-320 --paths 100 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in theory.cov_asymptotic during "
     "'cov-table': the asymptotic covariance is beyond the float range at t = 100.0"),
    ("lrd --subordinator gamma --nu 1e-300 --paths 200", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in subordinators.gamma_moment during 'lrd': ..."),
    ("simulate --subordinator gamma --nu 1e-300 --paths 2 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float overflow in process.increment_variance during "
     "'simulate': ..."),
    # E[S_t] = 5e309: a clock draw beyond the float range
    ("simulate --alpha 0.5 --lambda 1e-300 --t-min 1e150 --t-max 1e160 --paths 3 "
     "--t-count 2", EXIT_NUMERICAL, "gmfbm: numerical failure: float overflow in "
     "randkit.sample_tempered_stable_increment during 'simulate': ..."),
    ("cov-table --subordinator gamma --nu 1e-190 --t-max 200 --paths 200 --t-count 2",
     EXIT_NUMERICAL, "gmfbm: numerical failure: float overflow in mclab._second_moments "
     "during 'cov-table': ..."),
    ("moments --subordinator gamma --t-min 1e-320 --t-max 1e-300 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float underflow in "
     "subordinators.subordinator_moment_asymptotic during 'moments': ..."),
    ("cov-table --subordinator gamma --nu 1e300 --paths 200 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float underflow in theory.cov_asymptotic during "
     "'cov-table': ..."),
    ("cov-table --a 1e-200 --b 1e-200 --paths 200 --t-count 2", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float underflow in theory.cov_asymptotic during "
     "'cov-table': ..."),
    ("lrd --a 1e-200 --b 1e-200 --paths 200", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float underflow in process.exact_var_oracle during 'lrd': ..."),
    # Var(Y | S) underflows to 0, so every step would collapse to 0
    ("simulate --a 1e-200 --b 1e-200 --paths 3 --t-count 3", EXIT_NUMERICAL,
     "gmfbm: numerical failure: float underflow in fbm.fbm_values_at_times during "
     "'simulate': ..."),
]


# Rows in the form of FAILURES, run in both formats by the two TestExitCodes
# tests named after them.  The TSS mean is beyond the float range at t =
# 1e308 with lambda = 1e-3, and its second moment at t = 1e200; at t = 1e300
# with lambda = 1e10 the mean is finite but t lam**alpha is not.  All are
# overflows (exit 4), not math domain errors (exit 1)
TSS_OVERFLOWS = {
    "integer": [
        ("moments --subordinator tss --lambda 1e-3 --t-min 1e307 --t-max 1e308 --t-count 2 "
         "--q 1", EXIT_NUMERICAL, "gmfbm: numerical failure: float overflow in "
         "subordinators.tss_moment during 'moments': the order-..."),
        ("moments --subordinator tss --lambda 1 --t-min 1e199 --t-max 1e200 --t-count 2 "
         "--q 2", EXIT_NUMERICAL, "gmfbm: numerical failure: float overflow in "
         "subordinators.tss_moment during 'moments': the order-..."),
    ],
    "fractional": [
        ("moments --subordinator tss --lambda 1e-3 --t-min 1e307 --t-max 1e308 --t-count 2 "
         "--q 0.6", EXIT_NUMERICAL, "gmfbm: numerical failure: float overflow in "
         "subordinators.tss_moment during 'moments': the order-0.6 ..."),
        ("moments --subordinator tss --alpha 0.9 --lambda 1e10 --t-min 1e299 --t-max 1e300 "
         "--t-count 2 --q 0.6", EXIT_NUMERICAL, "gmfbm: numerical failure: float "
         "overflow in subordinators.tss_moment during 'moments': the order-0.6 ..."),
    ],
}


def _check_failure(tmp_path, capsys, row, fmt):
    # one row in the form of FAILURES, in one format
    argv, code, line, *_ = row
    command, *rest = argv.split()
    head, dots, tail = line.partition("...")
    # a row's own --out comes after this one, and wins
    out = tmp_path / f"out.{fmt}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--format", fmt, "--out", str(out), *rest]) == code, fmt
    captured = capsys.readouterr()
    err = captured.err
    assert not caught, [str(w.message) for w in caught]
    assert not out.exists()
    assert captured.out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert "Warning" not in err and "Traceback" not in err
    if dots:
        assert err.startswith(head) and err.endswith(tail + "\n"), err
    else:
        assert err == line + "\n"


def _row_id(row):
    # "lrd_gamma_nu_1e9_paths_200": the argv without "--subordinator" and dashes
    return re.sub(r"[^\w.+-]+", "_", row[0].replace("--subordinator ", "").replace("--", ""))


class TestSimulate:
    def test_row_count_and_header(self, tmp_path):
        code, text = run(tmp_path, "simulate", "--paths", "3", "--t-count", "10",
                         "--t-min", "1", "--t-max", "50", "--seed", "4")
        assert code == EXIT_OK
        lines = text.strip().split("\n")
        assert lines[0] == "path,t,subordinator,value"
        assert len(lines) == 1 + 30

    def test_byte_identical_reruns(self, tmp_path):
        args = ("simulate", "--paths", "2", "--t-count", "6", "--t-min", "1",
                "--t-max", "20", "--seed", "11")
        _, one = run(tmp_path, *args, name="a")
        _, two = run(tmp_path, *args, name="b")
        assert one == two

    def test_subordinator_column_nondecreasing(self, tmp_path):
        code, text = run(tmp_path, "simulate", "--paths", "4", "--t-count", "12",
                         "--t-min", "0.5", "--t-max", "80", "--seed", "2",
                         "--subordinator", "tss")
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        by_path = {}
        for pid, _, sub, _ in rows:
            by_path.setdefault(pid, []).append(float(sub))
        for vals in by_path.values():
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("clock, n_paths, to_stdout", [
        ("tss", BLOCK_PATHS + 3, False), ("tss", BLOCK_PATHS + 3, True),
        ("gamma", BLOCK_PATHS + 3, False), ("gamma", BLOCK_PATHS + 3, True),
        ("tss", 1, True)])
    def test_csv_bytes_match_per_row_reference(self, tmp_path, capsys, clock,
                                               n_paths, to_stdout):
        # the block writer against one "%d,%.17g,%.17g,%.17g" per row, over
        # two blocks (the second partial) and over a single path
        grid = np.geomspace(1.0, 50.0, 5)
        sub = SubordinatorSpec.tss(0.7, 1.0) if clock == "tss" else SubordinatorSpec.gamma(1.0)
        spec = TimeChangedSpec(GmfbmParams(1.0, 1.0, 0.55, 0.8), sub)
        lines = ["path,t,subordinator,value"]
        for stream, lo, hi in path_blocks(21, n_paths):
            clock_values, values = sample_timechanged_path_with_clock(
                spec, grid, stream, size=hi - lo)
            for i in range(hi - lo):
                for j, t in enumerate(grid.tolist()):
                    lines.append("%d,%.17g,%.17g,%.17g"
                                 % (lo + i, t, clock_values[i, j], values[i, j]))
        out = tmp_path / "paths.csv"
        code = main(["simulate", "--subordinator", clock, "--paths", str(n_paths),
                     "--t-min", "1", "--t-max", "50", "--t-count", "5", "--seed", "21",
                     "--out", "-" if to_stdout else str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out if to_stdout else out.read_text()
        # compared as lines: pytest's diff of two long strings takes minutes
        assert text.endswith("\n")
        assert text[:-1].split("\n") == lines

    def test_trailing_newline(self, tmp_path):
        _, text = run(tmp_path, "simulate", "--paths", "1", "--t-count", "3",
                      "--t-min", "1", "--t-max", "4", "--seed", "1")
        assert text.endswith("\n")

    def test_spans_beyond_a_float_scale_draw(self, tmp_path, capsys):
        # at alpha = 0.002 the double-rejection scale dt**(1/alpha) leaves
        # the float range above dt = 4.1; at lam**alpha dt = 1e40 the clock
        # is concentrated at its mean 0.7 t.  Both draw, with no warning
        code, _ = run(tmp_path, "simulate", "--alpha", "0.002", "--paths", "5",
                      "--t-count", "3", "--t-min", "1", "--t-max", "100")
        assert code == EXIT_OK
        code, text = run(tmp_path, "simulate", "--alpha", "0.7", "--t-min", "1e38",
                         "--t-max", "1e40", "--paths", "5", "--t-count", "3")
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        clocks = [float(sub) for _, t, sub, _ in rows if float(t) == 1e40]
        assert len(clocks) == 5
        assert all(abs(c / 7e39 - 1.0) < 1e-12 for c in clocks), clocks


class TestCovTable:
    ARGS = ("cov-table", "--subordinator", "gamma", "--paths", "500",
            "--seed", "8", "--s", "1", "--t-min", "10", "--t-max", "1000",
            "--t-count", "5")

    def test_schema_and_row_count(self, tmp_path):
        code, text = run(tmp_path, *self.ARGS)
        assert code == EXIT_OK
        lines = text.strip().split("\n")
        assert lines[0] == "t,oracle_cov,asymptotic_cov,ratio,mc_cov,mc_stderr"
        assert len(lines) == 1 + 5

    def test_json_top_level_keys(self, tmp_path):
        _, text = run(tmp_path, *self.ARGS, fmt="json")
        payload = json.loads(text)
        assert set(payload) == {"config", "columns", "rows", "summary"}
        assert payload["config"]["subordinator"] == "gamma"


class TestOutputContract:
    ARGS = {
        "simulate": ("simulate", "--paths", "3", "--t-count", "4", "--t-min", "1",
                     "--t-max", "50", "--seed", "4"),
        "cov-table": TestCovTable.ARGS,
        "lrd": ("lrd", *FAST_LRD),
        "moments": ("moments", "--subordinator", "gamma", "--t-min", "10",
                    "--t-max", "1000", "--t-count", "4", "--q", "0.6,1.0"),
    }

    @pytest.mark.parametrize("command", list(ARGS))
    def test_csv_json_same_numbers(self, tmp_path, command):
        # one set of columns feeds both writers: each CSV cell is the %.17g
        # (or, for simulate's path, the %d) of its JSON number
        _, csv_text = run(tmp_path, *self.ARGS[command], name="c")
        code, json_text = run(tmp_path, *self.ARGS[command], fmt="json", name="j")
        assert code == EXIT_OK
        payload = json.loads(json_text)
        header, *lines = csv_text.strip().split("\n")
        assert payload["columns"] == header.split(",")
        assert len(lines) == len(payload["rows"])
        for line, row in zip(lines, payload["rows"]):
            cells = line.split(",")
            assert len(cells) == len(row)
            for name, cell, x in zip(payload["columns"], cells, row):
                if name == "path":
                    assert type(x) is int and cell == "%d" % x
                else:
                    assert type(x) is float and cell == "%.17g" % x

    @pytest.mark.parametrize("clock", ["tss", "gamma"])
    @pytest.mark.parametrize("command", [*ARGS, "simulate-2-blocks"])
    def test_json_is_the_indented_document(self, tmp_path, command, clock):
        # the block writer's bytes are those of one json.dumps(indent=2)
        args = (("simulate", "--paths", str(BLOCK_PATHS + 3), "--t-count", "3")
                if command == "simulate-2-blocks" else self.ARGS[command])
        code, text = run(tmp_path, *args, "--subordinator", clock, fmt="json")
        assert code in (EXIT_OK, EXIT_STATISTICAL)
        assert json.loads(text)["rows"]
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_out_path_cannot_move_the_rows_split(self, tmp_path):
        out = tmp_path / 'a "rows": [] b.json'
        code = main([*TestCovTable.ARGS, "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        payload = json.loads(text)
        assert payload["config"]["out"] == str(out)
        assert len(payload["rows"]) == 5
        assert text == json.dumps(payload, indent=2) + "\n"


class TestLrd:
    @pytest.mark.parametrize("nu", ["1e-6", "1e-13"])
    def test_gamma_oracle_slope_at_tiny_nu(self, tmp_path, capsys, nu):
        # t/nu reaches 1e17 at nu = 1e-13, where log-Gamma gave every moment
        # as 1 and an oracle slope of +6.82; the series gives the large-t slope
        code, _ = run(tmp_path, "lrd", "--subordinator", "gamma", "--nu", nu, "--paths", "300")
        err = capsys.readouterr().err
        assert code == EXIT_OK
        assert "fitted slopes: oracle -0.2067 " in err
        assert "PASS" in err

    def test_acceptance_parameters_pass(self, tmp_path, capsys):
        code, text = run(tmp_path, "lrd", *FAST_LRD)
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "long-range dependent: True" in err
        assert ", paired " in err
        assert "PASS" in err

    def test_forced_wrong_prediction_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(theory, "corr_decay_prediction",
                            lambda p: DecayPrediction(-0.9, -0.9, -0.9, -0.9, -0.9))
        code, _ = run(tmp_path, "lrd", *FAST_LRD)
        assert code == EXIT_STATISTICAL

    def test_nan_oracle_slope_fails(self, tmp_path, monkeypatch, capsys):
        # the slope gate fails closed: a NaN gap is not within tolerance
        monkeypatch.setattr(mclab, "fit_decay",
                            lambda t, values: DecayFit(math.nan, 0.0, 0.0, 1.0))
        code, _ = run(tmp_path, "lrd", *FAST_LRD)
        assert code == EXIT_STATISTICAL
        assert "FAIL" in capsys.readouterr().err

    def test_gap_at_the_tolerance_fails(self, tmp_path, monkeypatch, capsys):
        # the gate is strict, as criterion 7's is: a gap of exactly 0.05 fails
        monkeypatch.setattr(mclab, "fit_decay",
                            lambda t, values: DecayFit(-0.05, 0.0, 0.0, 1.0))
        monkeypatch.setattr(theory, "corr_decay_prediction",
                            lambda p: DecayPrediction(0.0, 0.0, 0.0, 0.0, 0.0))
        code, text = run(tmp_path, "lrd", *FAST_LRD, fmt="json")
        summary = json.loads(text)["summary"]
        assert code == EXIT_STATISTICAL
        assert summary["slope_gap"] == summary["slope_tolerance"] == 0.05
        assert summary["verdict"] is False
        assert "FAIL: |oracle slope - predicted| = 0.0500 >= 0.05 (" in capsys.readouterr().err

    @pytest.mark.parametrize("clock", ["tss", "gamma"])
    def test_fail_advice_follows_the_cause(self, tmp_path, capsys, clock):
        # for H2 < 1/2 the oracle slope tends to -H2, which the prediction
        # lacks, so a larger --t-max cannot help (B^0.3 alone reads H2 = 0.3);
        # with unequal weights the grid ends before the asymptote, and it can
        for extra, missing_term in ((["--h1", "0.2", "--h2", "0.3"], True),
                                    (["--b", "0", "--h1", "0.3"], True),
                                    (["--a", "2", "--b", "0.7"], False)):
            code, _ = run(tmp_path, "lrd", *FAST_LRD, "--subordinator", clock, *extra)
            fail = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("FAIL: ")]
            assert code == EXIT_STATISTICAL
            assert len(fail) == 1 and " >= 0.05 (" in fail[0]
            assert ("(the oracle slope tends to -H2 = -0.3000, a term the prediction "
                    "lacks; a larger --t-max will not close the gap)" in fail[0]) is missing_term
            assert ("try a larger --t-max)" in fail[0]) is not missing_term

    def test_prediction_reports_the_h2_term(self, tmp_path, capsys):
        # the -H2 exponent and the dominant of the three, beside the stated
        # prediction, on stderr and in JSON; the gate still reads dominant
        for extra, plateau, of_three, dominant in (([], -0.8, -0.2, -0.2),
                                                   (["--h1", "0.2", "--h2", "0.3"],
                                                    -0.3, -0.3, -0.7)):
            _, text = run(tmp_path, "lrd", *FAST_LRD, *extra, fmt="json")
            predicted = json.loads(text)["summary"]["predicted"]
            assert predicted["exponent_plateau"] == plateau
            assert predicted["dominant_of_three"] == pytest.approx(of_three)
            assert predicted["dominant"] == pytest.approx(dominant)
            line = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("predicted exponents: ")]
            assert len(line) == 1
            assert line[0].endswith(f", dominant {dominant:+.4f}; with the -H2 term "
                                    f"{plateau:+.4f}, dominant of the three {of_three:+.4f}")

    def test_swap_note(self, tmp_path, capsys):
        # GmfbmParams orders the motions by Hurst index; stderr says so once,
        # without the word CI rejects on stderr
        code, _ = run(tmp_path, "lrd", *FAST_LRD, "--h1", "0.9", "--h2", "0.5")
        err = capsys.readouterr().err
        notes = [line for line in err.splitlines() if line.startswith("note: ")]
        assert code == EXIT_OK
        assert len(notes) == 1
        assert "(a, h1) = (1, 0.5) and (b, h2) = (1, 0.9)" in notes[0]
        assert "Warning" not in err
        assert "PASS: |oracle slope - predicted| = " in err and " < 0.05" in err
        run(tmp_path, "lrd", *FAST_LRD, "--h1", "0.5", "--h2", "0.9")
        assert "note: " not in capsys.readouterr().err

    @pytest.mark.parametrize("clock", ["tss", "gamma"])
    def test_zero_weight_predicts_from_the_motion_left(self, tmp_path, capsys, clock):
        # with b = 0 the process is B^0.55 alone: the prediction reads 0.55 as
        # both indices (dominant -0.45, oracle slope about -0.482) instead of
        # H2 = 0.8 (dominant -0.2), which failed with the advice to extend
        # --t-max; the same for the swapped input and for a = 0
        for extra, index, dominant in ((["--a", "1", "--b", "0"], "0.55", -0.45),
                                       (["--a", "0", "--b", "1", "--h1", "0.8",
                                         "--h2", "0.55"], "0.55", -0.45),
                                       (["--a", "0", "--b", "1"], "0.8", -0.2)):
            code, text = run(tmp_path, "lrd", "--subordinator", clock, *extra,
                             "--paths", "200", fmt="json")
            err = capsys.readouterr().err
            notes = [line for line in err.splitlines() if line.startswith("note: a motion")]
            assert code == EXIT_OK
            assert json.loads(text)["summary"]["predicted"]["dominant"] == pytest.approx(dominant)
            assert len(notes) == 1 and f" index {index} as both H1 and H2" in notes[0]
            assert "PASS: |oracle slope - predicted| = " in err

    def test_nonpositive_mc_correlation_leaves_mc_fit_undefined(self, tmp_path, capsys):
        # at 100 paths one MC correlation of this run is <= 0: the MC slope
        # is undefined, and the verdict still follows the oracle slope
        code, text = run(tmp_path, "lrd", "--subordinator", "gamma", "--paths", "100",
                         "--seed", "1", fmt="json")
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["summary"]["mc_fit"] is None
        assert min(row[2] for row in payload["rows"]) <= 0.0
        err = capsys.readouterr().err
        assert ", mc undefined (" in err
        assert "PASS" in err

    def test_verdict_field_reports_the_gate(self, tmp_path):
        # verdict is the slope gate that sets the exit code; is_lrd is the
        # classifier, which holds for every valid parameter set.  The weights
        # a = 2, b = 0.7 put the oracle slope outside the tolerance
        for extra, passed, exit_code in (([], True, EXIT_OK),
                                         (["--a", "2", "--b", "0.7"], False, EXIT_STATISTICAL)):
            code, text = run(tmp_path, "lrd", *FAST_LRD, *extra, fmt="json")
            summary = json.loads(text)["summary"]
            assert code == exit_code
            assert summary["verdict"] is passed
            assert (summary["slope_gap"] < summary["slope_tolerance"]) is passed
            assert summary["is_lrd"] is True
            assert summary["predicted"]["dominant"] == pytest.approx(-0.2)

    def test_config_records_block_paths(self, tmp_path):
        code, text = run(tmp_path, "lrd", *FAST_LRD, fmt="json")
        assert code == EXIT_OK
        assert json.loads(text)["config"]["block_paths"] == 1024


class TestMoments:
    def test_rows_are_grid_times_q(self, tmp_path):
        code, text = run(tmp_path, "moments", "--subordinator", "gamma",
                         "--t-min", "10", "--t-max", "1000", "--t-count", "4",
                         "--q", "0.6,1.0")
        assert code == EXIT_OK
        lines = text.strip().split("\n")
        assert lines[0] == "t,q,exact_moment,asymptotic_moment,ratio"
        assert len(lines) == 1 + 4 * 2

    @pytest.mark.parametrize("clock", ["tss", "gamma"])
    def test_csv_bytes_match_per_row_reference(self, tmp_path, clock):
        # the table against one "%.17g" row per (t, q), each asymptotic value
        # one Python call and each ratio one float division
        sub = SubordinatorSpec.tss(0.7, 1.0) if clock == "tss" else SubordinatorSpec.gamma(1.0)
        grid = np.geomspace(10.0, 1e4, 7)
        qs = (0.6, 1.0, 1.6)
        exact = [subordinator_moment(sub, grid, q).tolist() for q in qs]
        lines = ["t,q,exact_moment,asymptotic_moment,ratio"]
        for i, t in enumerate(grid.tolist()):
            for j, q in enumerate(qs):
                asym = subordinator_moment_asymptotic(sub, t, q)
                lines.append("%.17g,%.17g,%.17g,%.17g,%.17g"
                             % (t, q, exact[j][i], asym, exact[j][i] / asym))
        code, text = run(tmp_path, "moments", "--subordinator", clock, "--t-min", "10",
                         "--t-max", "1e4", "--t-count", "7", "--q", "0.6,1.0,1.6")
        assert code == EXIT_OK
        assert text.split("\n") == [*lines, ""]

    def test_ratio_tends_to_one(self, tmp_path):
        _, text = run(tmp_path, "moments", "--subordinator", "tss",
                      "--t-min", "10", "--t-max", "10000", "--t-count", "4",
                      "--q", "1.6")
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        gaps = [abs(float(r[4]) - 1.0) for r in rows]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05

    def test_gamma_ratio_at_large_t_over_nu(self, tmp_path):
        # (exact / asymptotic) - 1 is q(q - 1)/(2t) + O(t**-2), below an ulp
        # here; log-Gamma gave an exact moment of 1 from t/nu = 1e17 on
        _, text = run(tmp_path, "moments", "--subordinator", "gamma", "--t-min", "1e13",
                      "--t-max", "1e19", "--t-count", "4", "--q", "0.6,1.6")
        ratios = [float(line.split(",")[4]) for line in text.strip().split("\n")[1:]]
        assert len(ratios) == 8
        assert max(abs(r - 1.0) for r in ratios) < 1e-12

    def test_tss_orders_above_two(self, tmp_path, capsys):
        # fractional and integer orders above 2 on the default grid
        code, text = run(tmp_path, "moments", "--subordinator", "tss", "--q", "2.5,3.2,4")
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        assert len(text.strip().split("\n")) == 1 + 12 * 3

    def test_deterministic(self, tmp_path):
        args = ("moments", "--t-min", "5", "--t-max", "50", "--t-count", "3")
        _, one = run(tmp_path, *args, name="m1")
        _, two = run(tmp_path, *args, name="m2")
        assert one == two


class TestArgumentFile:
    # an @FILE holds flags as typed on the command line, split at whitespace
    INLINE = {
        "simulate": ["--paths", "5", "--t-count", "4", "--seed", "9"],
        "cov-table": ["--paths", "200", "--t-min", "2", "--t-max", "20", "--t-count", "3"],
        "lrd": FAST_LRD,
        "moments": ["--subordinator", "gamma", "--nu", "2", "--t-min", "5", "--t-max", "50",
                    "--t-count", "3", "--q", "0.5,2"],
    }

    @staticmethod
    def check_usage_error(capsys, code, text, reason):
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert text is None
        assert err.startswith("usage: gmfbm")
        assert re.fullmatch(r"gmfbm( moments)?: error: .*", err.splitlines()[-1]), err
        assert reason in err.splitlines()[-1]

    def test_file_values_used_and_flags_override(self, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("--subordinator gamma --nu 2.0 --t-count 4\n"
                        "--t-min 5 --t-max 500 --paths 150 --seed 66\n")
        # the last occurrence of a flag wins, after the file or in it
        for flags, t_count in [((f"@{args}", "--t-count", "3"), 3),
                               (("--t-count", "3", f"@{args}"), 4)]:
            code, text = run(tmp_path, "moments", *flags, fmt="json")
            assert code == EXIT_OK
            payload = json.loads(text)
            config = payload["config"]
            assert (config["subordinator"], config["nu"], config["seed"]) == ("gamma", 2.0, 66)
            assert config["t_count"] == t_count
            assert len(payload["rows"]) == 3 * t_count

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(INLINE))
    def test_same_bytes_as_inline_flags(self, tmp_path, capsys, command, fmt):
        args = tmp_path / "run.args"
        args.write_text(" ".join(self.INLINE[command]).replace(" --", "\n--") + "\n")
        # the same --out path, which JSON records
        inline = [*run(tmp_path, command, *self.INLINE[command], fmt=fmt),
                  capsys.readouterr().err]
        from_file = [*run(tmp_path, command, f"@{args}", fmt=fmt), capsys.readouterr().err]
        assert inline[1] is not None
        assert from_file == inline

    def test_unknown_flag_or_bad_value_rejected(self, tmp_path, capsys):
        args = tmp_path / "run.args"
        # an unknown flag, a value the flag's type rejects and one outside its choices
        for text, reason in [("--mystery 1", "unrecognized arguments: --mystery 1"),
                             ("--paths many", "argument --paths: invalid int value: 'many'"),
                             ("--subordinator brownian", "invalid choice: 'brownian'")]:
            args.write_text(text + "\n")
            self.check_usage_error(capsys, *run(tmp_path, "moments", f"@{args}"), reason)

    def test_missing_file(self, tmp_path, capsys):
        self.check_usage_error(capsys, *run(tmp_path, "moments", f"@{tmp_path / 'none.args'}"),
                               "No such file or directory")


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert main(["simulate", "--bogus", "1"]) == EXIT_USAGE
        assert main(["simulate", "--q", "1"]) == EXIT_USAGE  # a moments flag only

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("row", FAILURES, ids=_row_id)
    def test_row(self, tmp_path, capsys, row):
        for fmt in row[3:] or ["csv"]:
            _check_failure(tmp_path, capsys, row, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tss_integer_moment_overflow_is_numerical_failure(self, tmp_path, capsys, fmt):
        for row in TSS_OVERFLOWS["integer"]:
            _check_failure(tmp_path, capsys, row, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tss_fractional_setup_overflow_is_numerical_failure(self, tmp_path, capsys, fmt):
        for row in TSS_OVERFLOWS["fractional"]:
            _check_failure(tmp_path, capsys, row, fmt)

    @pytest.mark.parametrize("command", ["simulate", "moments"])
    def test_seed_range(self, tmp_path, command):
        # the largest seed runs; the next one is a row of FAILURES
        code, _ = run(tmp_path, command, "--paths", "1", "--t-min", "1", "--t-max", "2",
                      "--t-count", "2", "--seed", str(2**64 - 1))
        assert code == EXIT_OK

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_moment_order_list(self, tmp_path, capsys, fmt):
        # and an unparsable one: inline or in an @FILE, the message names
        # no private function (argparse names the type function of a value
        # it cannot convert unless that raises ArgumentTypeError)
        args = tmp_path / "run.args"
        for value, reason in [(",,", "no moment order in ',,'"),
                              ("1,abc", "could not convert string to float: 'abc'")]:
            args.write_text(f"--q {value}\n")
            for flags in (("--q", value), (f"@{args}",)):
                code, text = run(tmp_path, "moments", *flags, fmt=fmt)
                err = capsys.readouterr().err
                assert code == EXIT_USAGE
                assert text is None
                assert "Traceback" not in err
                assert err.splitlines()[-1] == f"gmfbm moments: error: argument --q: {reason}"

    def test_help_exits_zero(self):
        # argparse formats each command's help texts only for its own --help
        for command in [[], *([name] for name in cli._COMMANDS), ["selftest"]]:
            assert main([*command, "--help"]) == EXIT_OK, command

    @pytest.mark.parametrize("error", [QuadratureError, ConditioningError])
    def test_numerical_failure(self, tmp_path, monkeypatch, capsys, error):
        def fail(*args):
            raise error("forced")

        monkeypatch.setattr(cli, "subordinator_moment", fail)
        code, text = run(tmp_path, "moments", "--t-min", "1", "--t-max", "10",
                         "--t-count", "2")
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert text is None
        assert err == "gmfbm: numerical failure: forced\n"

    def test_infinite_tss_tilt_fails_instead_of_hanging(self):
        # lam * dt**(1/alpha) is beyond the float range; double rejection
        # draws it in logs, so the clock is about 1e-297 and Var(Y | S)
        # about 1e-327 underflows to 0.  A subprocess, so that a hang fails
        # at the timeout
        argv = ["simulate", "--paths", "5", "--t-count", "3", "--alpha", "0.01",
                "--lambda", "1e300"]
        src = os.path.abspath(os.path.join(os.path.dirname(cli.__file__), os.pardir))
        proc = subprocess.run([sys.executable, "-m", "gmfbm.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stdout == ""
        assert proc.stderr.startswith("gmfbm: numerical failure: float underflow in "
                                      "fbm.fbm_values_at_times ")
        assert proc.stderr.count("\n") == 1


class TestRuntimeImports:
    @staticmethod
    def loaded_after(tmp_path, runs, modules):
        # the subset of ``modules`` a fresh interpreter holds after the runs
        script = (
            "import sys\n"
            "import gmfbm.cli\n"
            f"for argv in {runs!r}:\n"
            "    assert gmfbm.cli.main([*argv, '--out', sys.argv[1]]) == 0\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {modules!r}"
            f" or m in {modules!r}))\n"
        )
        src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "o.csv")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_tss_commands_do_not_load_scipy(self, tmp_path):
        # the TSS moment oracle is numpy-only; scipy is a test dependency
        common = ["--subordinator", "tss", "--t-min", "2", "--t-max", "20", "--t-count", "3"]
        runs = [["moments", *common], ["cov-table", "--paths", "200", *common]]
        assert self.loaded_after(tmp_path, runs, ["scipy"]) == "[]"

    def test_default_runs_do_not_load_unused_stdlib(self, tmp_path):
        # a default run needs no concurrency module (concurrent.futures
        # would also pull in logging), and argparse reads an @FILE without
        # configparser
        runs = [["lrd", "--paths", "100"], ["simulate", "--paths", "100"]]
        modules = ["logging", "configparser", "concurrent.futures"]
        assert self.loaded_after(tmp_path, runs, modules) == "[]"

    def test_only_csv_output_loads_the_cell_formatter(self, tmp_path):
        json_runs = [["lrd", "--paths", "100", "--format", "json"],
                     ["simulate", "--paths", "100", "--format", "json"]]
        modules = ["gmfbm.csvcells"]
        assert self.loaded_after(tmp_path, json_runs, modules) == "[]"
        csv_runs = [["simulate", "--paths", "100"]]
        assert self.loaded_after(tmp_path, csv_runs, modules) == "['gmfbm.csvcells']"


class TestBenchmarkTracer:
    # install() patches modules globally, so each test runs its own interpreter
    @staticmethod
    def traced(script, *args):
        root = os.path.join(os.path.dirname(cli.__file__), os.pardir, os.pardir)
        setup = "import gmfbm.cli\nfrom spans import Tracer\ntracer = Tracer()\ntracer.install()\n"
        paths = [os.path.abspath(os.path.join(root, d)) for d in ("perfbench", "src")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run([sys.executable, "-c", setup + script, *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_install_binds_every_traced_name(self):
        # the traced benchmark run wraps gmfbm functions by name; a renamed or
        # removed one must fail here, and the pair sampler every estimator
        # runs on must be bound where process defines it
        out = self.traced("print(' '.join(tracer.bindings))\n")
        assert "gmfbm.process.sample_timechanged_pair" in out.split()

    def test_process_samples_through_the_traced_fbm_samplers(self, tmp_path):
        # the per-layer fbm metrics read the public samplers' spans, so the
        # time-changed process must call them and not a private twin; and
        # cov-table's one estimator call on its grid is a traced estimator
        script = (
            "import json, sys\n"
            "for argv in (['cov-table', '--paths', '200'], ['simulate', '--paths', '100']):\n"
            "    assert gmfbm.cli.main([*argv, '--out', sys.argv[1]]) == 0\n"
            "spans = tracer.summary()['spans']\n"
            "print(json.dumps({k: spans[k]['calls'] for k in spans\n"
            "                  if k.startswith(('fbm.', 'mclab.'))}))\n"
        )
        calls = json.loads(self.traced(script, str(tmp_path / "out.csv")))
        assert calls.get("fbm.pair", 0) > 0
        assert calls.get("fbm.at_times", 0) > 0
        assert calls.get("mclab.estimate", 0) == 1


class TestSelftest:
    def test_failing_criterion_exits_statistical(self, monkeypatch, capsys):
        # the full run is criterion 9's gate in test_acceptance; here one
        # forced failure stands in for the real criteria
        monkeypatch.setattr(selftest, "CRITERIA",
                            [(1, "forced", lambda: (False, "forced"))])
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == EXIT_STATISTICAL
        assert "[1/1] FAIL forced (forced; " in out
