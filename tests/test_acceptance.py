"""Acceptance suite: one test per verification criterion in
``gmfbm.selftest.CRITERIA``, each printing its PASS line with the headline
numbers (run with ``pytest -s`` to see them).

The criteria carry their own fixed seeds, tolerances and gates, so every
run is deterministic; this module adds each criterion's wall-clock bound
and, for criterion 9, the end-to-end ``gmfbm selftest`` run.
"""

import contextlib
import io
import time

from gmfbm.cli import main as cli_main
from gmfbm.selftest import CRITERIA, run_criterion

# wall-clock bound per criterion, in seconds
TIME_BOUNDS = {1: 30.0, 2: 60.0, 3: 10.0, 4: 60.0, 5: 10.0, 6: 60.0, 7: 180.0,
               8: 5.0, 9: 60.0}
SELFTEST_BOUND = 60.0


def check_criterion(number, name, fn):
    ok, elapsed, line = run_criterion(number, name, fn)
    assert ok, line
    assert elapsed < TIME_BOUNDS[number], line
    print(line)


def check_selftest_cli():
    # the whole suite through the command line: exit 0 within the budget,
    # one PASS line per criterion
    t0 = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = cli_main(["selftest"])
    elapsed = time.monotonic() - t0
    out = buf.getvalue()
    status = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert code == 0, out
    assert elapsed < SELFTEST_BOUND
    assert len(status) == len(CRITERIA)
    assert all(" PASS " in ln for ln in status)
    print(f"gmfbm selftest exit 0 in {elapsed:.1f}s")


def _make_test(number, name, fn):
    # one named test per criterion, e.g. test_criterion_7_decay_exponents
    def test():
        check_criterion(number, name, fn)
        if number == 9:
            check_selftest_cli()
    test.__name__ = f"test_criterion_{number}_{name.replace(' ', '_')}"
    return test


for _criterion in CRITERIA:
    _test = _make_test(*_criterion)
    globals()[_test.__name__] = _test
