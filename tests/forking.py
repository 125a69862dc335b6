"""Helpers of the tests of the two-process factor and assembly
(:mod:`igarad._fork`)."""

import os

import pytest

from igarad._fork import openblas_threads


def can_split() -> bool:
    """Whether a child process can run here: numpy's OpenBLAS thread count
    is settable and there are two cores."""
    return openblas_threads() is not None and len(os.sched_getaffinity(0)) > 1


def count_forks(monkeypatch) -> list:
    """The pids ``os.fork`` returns in this process from now on."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def blas_threads():
    return openblas_threads()[0]()


@pytest.fixture
def blas_at_two_threads():
    """numpy's OpenBLAS at two threads for the test, whatever an earlier
    test left, and back at its count after it."""
    get, set_ = openblas_threads()
    threads = get()
    set_(2)
    yield
    set_(threads)
