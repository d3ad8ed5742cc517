"""The tests' time budget fails a block that overran, even one whose alarm
was swallowed (as an exception raised inside a gc callback is)."""

import time

import pytest
from conftest import time_budget


def test_a_swallowed_alarm_still_fails_the_block():
    with pytest.raises(TimeoutError, match="the block took"):
        with time_budget(0.05):
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                try:
                    time.sleep(0.01)
                except TimeoutError:
                    pass

