"""The memoized stream behind every lazy sequence."""

from itertools import count

import pytest

from tsr.stream import Stream


def test_items_are_computed_once_in_order():
    calls = []

    def squares():
        for n in count():
            calls.append(n)
            yield n * n

    s = Stream(squares)
    assert s[3] == 9 and s.head(2) == [0, 1]
    assert s.head(5) == [0, 1, 4, 9, 16]
    assert calls == [0, 1, 2, 3, 4]


def test_finite_stream_ends():
    s = Stream(lambda: iter("ab"))
    assert s.head(5) == ["a", "b"] and s.done
    with pytest.raises(IndexError):
        s[2]


def test_failed_pull_resumes_without_skipping():
    failures = {2: 1}  # item 2 fails on its first attempt only

    def items():
        for n in count():
            if failures.get(n):
                failures[n] -= 1
                raise ArithmeticError(n)
            yield n

    s = Stream(items)
    with pytest.raises(ArithmeticError):
        s.head(4)
    assert s.head(5) == [0, 1, 2, 3, 4]


def test_reentrant_pull_raises():
    s = Stream(lambda: (s[i + 1] for i in count()))
    with pytest.raises(RuntimeError):
        s[0]
