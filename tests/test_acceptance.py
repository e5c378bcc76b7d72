"""Acceptance suite: one test per verification criterion in
``gmfbm.selftest.CRITERIA``, each printing its PASS line with the headline
numbers (run with ``pytest -s`` to see them).

The criteria carry their own fixed seeds, tolerances and gates, so every
run is deterministic.  The whole suite runs once, end to end through
``gmfbm selftest``; each criterion's test then checks the result recorded
for it against its wall-clock bound, and criterion 9 also checks the
command's exit code, budget and status lines.
"""

import contextlib
import io
import time
from dataclasses import dataclass

import pytest

from gmfbm import selftest
from gmfbm.cli import main as cli_main
from gmfbm.selftest import CRITERIA, run_criterion

# wall-clock bound per criterion, in seconds
TIME_BOUNDS = {1: 30.0, 2: 60.0, 3: 10.0, 4: 60.0, 5: 10.0, 6: 60.0, 7: 180.0,
               8: 5.0, 9: 60.0}
SELFTEST_BOUND = 60.0


@dataclass
class SelftestRun:
    code: int
    elapsed: float
    out: str
    results: dict  # criterion number -> (ok, elapsed, status line)


@pytest.fixture(scope="module")
def selftest_run():
    # run `gmfbm selftest` once and record what run_criterion returned for
    # each criterion
    results = {}

    def recording(number, name, fn):
        results[number] = run_criterion(number, name, fn)
        return results[number]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selftest, "run_criterion", recording)
        t0 = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = cli_main(["selftest"])
        elapsed = time.monotonic() - t0
    return SelftestRun(code, elapsed, buf.getvalue(), results)


def check_criterion(run, number):
    ok, elapsed, line = run.results[number]
    assert ok, line
    assert elapsed < TIME_BOUNDS[number], line
    print(line)


def check_selftest_cli(run):
    # the whole suite through the command line: exit 0 within the budget,
    # one PASS line per criterion
    status = [ln for ln in run.out.splitlines() if ln.startswith("[")]
    assert run.code == 0, run.out
    assert run.elapsed < SELFTEST_BOUND
    assert len(status) == len(CRITERIA)
    assert all(" PASS " in ln for ln in status)
    print(f"gmfbm selftest exit 0 in {run.elapsed:.1f}s")


def _make_test(number, name):
    # one named test per criterion, e.g. test_criterion_7_decay_exponents
    def test(selftest_run):
        check_criterion(selftest_run, number)
        if number == 9:
            check_selftest_cli(selftest_run)
    test.__name__ = f"test_criterion_{number}_{name.replace(' ', '_')}"
    return test


for _number, _name, _ in CRITERIA:
    _test = _make_test(_number, _name)
    globals()[_test.__name__] = _test
