"""Acceptance gate: one test per criterion, each printing its pass line.

Every comparison is exact; wall-clock budgets are enforced inside the
checks that state them.
"""

import pytest

from skeinlab import selftest


@pytest.mark.parametrize(
    "check", selftest.ALL_CHECKS, ids=[c.__name__ for c in selftest.ALL_CHECKS]
)
def test_acceptance_criterion(check):
    result = check()
    line = ("PASS" if result["passed"] else "FAIL") + " - " + result["criterion"]
    if result["detail"]:
        line += " - " + result["detail"]
    print(line)
    assert result["passed"], result


TIMED_CHECKS = (
    selftest.check_pi_degree_table,
    selftest.check_eq_k0,
    selftest.check_azumaya_dimension,
)


def test_timed_checks_print_no_wall_time(monkeypatch):
    # each timed check reads the clock twice; two clocks that tick at
    # different rates must give the same detail bytes
    details = []
    for tick in (0.01, 0.37):
        clock = iter(range(10**6))
        monkeypatch.setattr(selftest.time, "time", lambda: tick * next(clock))
        details.append([check()["detail"] for check in TIMED_CHECKS])
    assert details[0] == details[1]
