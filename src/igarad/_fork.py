"""Two halves of one job at once: the first in a forked child process, the
second in this one, with numpy's OpenBLAS at one thread in both.

The block factor (:class:`igarad.solver.FrontalLdlt`) and the volume
assembly (:func:`igarad.assembly.assemble`) split their work this way; the
child writes its results into anonymous shared mappings the caller made
before the fork.  At two BLAS threads per process, four threads on two
cores thrash (the desk factor took a median 0.67 s against 0.08 s), so the
count is set to one through ctypes (:func:`openblas_threads`) and restored
after the join, whatever happens.  ``os.fork`` with live OpenBLAS threads is
what Python 3.12 and later warn of (``DeprecationWarning``); the child runs
numpy and nothing else, and ends in ``os._exit``.
"""

from __future__ import annotations

import functools
import logging
import mmap
import os
import pickle
import signal

import numpy as np

log = logging.getLogger(__name__)

_ERROR_BYTES = 1 << 16  # room for a failing child's pickled error


@functools.cache
def openblas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS that numpy's wheel
    bundles (``numpy.libs/libscipy_openblas64_*.so``), through ctypes, or
    ``None`` where it is not found.  Looked up on the first call, so that
    importing the package does not load ctypes or search for it."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so*")):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def in_two_processes(first, second, child: str) -> float | None:
    """Run ``first()`` in a forked child while this process runs
    ``second()``; returns the child's peak RSS in MiB.

    Returns ``None``, having run neither, where no child can run: the BLAS
    thread count cannot be set, one core is usable, or ``os.fork`` fails
    (logged as a warning); the caller then does the whole job here.  The
    child is reaped, and the BLAS thread count restored, whatever happens;
    if ``second()`` raises, the child is killed first.  An error the child
    raises is raised here as it was raised there, pickled through a shared
    mapping; a child killed by a signal raises ``RuntimeError`` naming the
    signal.  ``child`` names the child in those messages, e.g.
    ``"assembly: the child process assembling xi slabs 0 to 9"``.
    """
    blas = openblas_threads()
    if blas is None or len(os.sched_getaffinity(0)) < 2:
        return None
    get_threads, set_threads = blas
    error = mmap.mmap(-1, _ERROR_BYTES)
    threads = get_threads()
    set_threads(1)
    try:
        try:
            pid = os.fork()
        except OSError as exc:
            log.warning("%s could not start (%s); this process does its work", child, exc)
            return None
        if pid == 0:
            _child(first, error, child)
        try:
            second()
        except BaseException:
            os.kill(pid, signal.SIGKILL)  # its half is of no use now
            raise
        finally:
            _, status, usage = os.wait4(pid, 0)
    finally:
        set_threads(threads)
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise RuntimeError(f"{child} was killed by {signal.Signals(-code).name}")
    if code:
        if not error[0]:
            raise RuntimeError(f"{child} exited with {code}")
        raise pickle.loads(error)  # written by _child, in this program
    return usage.ru_maxrss / 1024


def _child(first, error, child: str):
    """The forked child of :func:`in_two_processes`, which never returns: it
    runs ``first()`` and exits 0; on any error it pickles the error into
    ``error`` and exits 1.  An error that does not survive a pickle round
    trip, or pickles too large, goes as a ``RuntimeError`` with its type and
    message."""
    code = 1
    try:
        first()
        code = 0
    except BaseException as exc:  # whatever it is, the child ends below
        try:
            data = pickle.dumps(exc)
            pickle.loads(data)
        except Exception:
            data = b""
        if not data or len(data) > _ERROR_BYTES:
            data = pickle.dumps(RuntimeError(f"{type(exc).__name__} in {child}: {str(exc)[:4096]}"))
        error[: len(data)] = data
    finally:
        os._exit(code)
