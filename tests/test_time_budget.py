"""The tests' time budget fails a block that overran, even one whose alarm
was swallowed (as an exception raised inside a gc callback is), and a
high-precision sum that must finish within one."""

import time

import pytest
from conftest import time_budget

from tsr.cli import run


def test_a_swallowed_alarm_still_fails_the_block():
    with pytest.raises(TimeoutError, match="the block took"):
        with time_budget(0.05):
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                try:
                    time.sleep(0.01)
                except TimeoutError:
                    pass


def test_a_thousand_digit_pade_sum_prints_within_seconds(capsys):
    # the fit of #ei + #erfi has 11 poles, each refined by Newton steps in
    # about 30 evaluations where bisection made one per bit, about 3358
    with time_budget(6.0):
        code = run(["sum", "#ei+#erfi", "5", "--prec", "1000"])
    assert code == 0 and capsys.readouterr().out.startswith("0.38647134426124833286 ")
