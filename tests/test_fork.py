"""The two-process helper the factor and the assembly share (:mod:`igarad._fork`)."""

import errno
import logging
import math
import os

import numpy as np
import pytest

from dissection import full_tree, renumbered
from forking import blas_at_two_threads, blas_threads, can_split  # noqa: F401  a fixture
from igarad._fork import in_two_processes
from igarad.assembly import QuadratureRule, assemble, build_system, classify_dofs
from igarad.bspline import TensorProductSpace, make_uniform_open_knots
from igarad.geometry import DomainConfig, make_semicircle_patch
from igarad.solver import build_cslp

pytestmark = pytest.mark.skipif(not can_split(), reason="no settable BLAS thread count or one core: no child process")


def test_failed_fork_runs_in_one_process(monkeypatch, caplog, blas_at_two_threads):
    """A fork that fails (EAGAIN at the pids limit) leaves the work to this
    process: the assembly is the one-process assembly, the factor solves,
    and the BLAS thread count is what it was."""
    cfg = DomainConfig(a=0.05, r=0.2, theta=math.pi / 4)
    geometry = make_semicircle_patch(cfg)
    space = TensorProductSpace(
        make_uniform_open_knots(4, 60).with_breakpoints(cfg.aperture_preimage), make_uniform_open_knots(4, 45)
    )
    threads = blas_threads()
    with monkeypatch.context() as one_core:
        one_core.setattr(os, "sched_getaffinity", lambda pid: {0})
        one = assemble(space, geometry, QuadratureRule(space))

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    with caplog.at_level(logging.WARNING, logger="igarad._fork"):
        mats = assemble(space, geometry, QuadratureRule(space))
        assert mats.child_peak_rss_mib is None
        for a, b in ((one.stiffness, mats.stiffness), (one.mass, mats.mass)):
            assert np.array_equal(a.data, b.data)
        assert blas_threads() == threads

        k = 30.0
        partition = classify_dofs(space, cfg)
        tree, perm = full_tree(space, partition)
        A, b = build_system(mats, partition, k, 1.0)
        P = renumbered(A - 1j / (3 * k) * mats.mass[partition.free][:, partition.free], perm)
        b = b[perm]
        precond = build_cslp(P, 1 / (3 * k), tree=tree)
        assert precond.child_peak_rss_mib is None
        assert np.linalg.norm(P @ precond.solve(b) - b) <= 1e-10 * np.linalg.norm(b)
        assert blas_threads() == threads
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 2 and all("could not start" in w for w in warnings)


def test_child_errors_raised_as_raised_there():
    """The child's error is raised here with its type and message; one that
    does not pickle, as a ``RuntimeError`` naming its type."""

    class Unpicklable(Exception):  # a local class: pickle cannot find it
        pass

    for error, expected, message in (
        (ValueError("bad value"), ValueError, "^bad value$"),
        (Unpicklable("odd"), RuntimeError, "^Unpicklable in the test's child: odd$"),
    ):

        def fails(error=error):
            raise error

        with pytest.raises(expected, match=message):
            in_two_processes(fails, lambda: None, "the test's child")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
