"""Fill, time and memory of the preconditioner's block LDL^T on the
nested-dissection tree, along a ladder of meshes.

Usage, from the root of a checkout::

    python3 tools/ordering_ladder.py                      # writes BENCH_ordering.json
    python3 tools/ordering_ladder.py --sizes 40x30 120x90 --repeat 3 --out ladder.json

Each point is the desk physics (``configs/desk_radiation_k300.json``) scaled
at fixed points per wavelength: ``n x m`` cubic elements with the half
aperture ``0.05 * sqrt(n / 120)``, so the radius (twice the near-field
length) grows like ``n``.  192 x 144 is the benchmark's radiation_28k mesh.
For each point a fresh interpreter assembles ``A`` and factors the
shifted-Laplacian matrix ``P = A - i beta M`` as a run does
(``solver.build_cslp`` with the partition's tree), loading what a run
loads.  Points are recorded with ``"ordering": "ldl"``, the key of the
committed LDL^T rows; the SuperLU rows of ``BENCH_ordering.json``
(``mmd``, ``nd``) were taken by an earlier version of this script and carry
their own ``git_commit``.

It reports the wall time of ``assemble`` (S, M and E), the factor's stored
entries (``lu_nnz``) and bytes (``factor_bytes``), its wall time, the
residual ``|P x - b| / |b|`` of a solve with the factor, the GMRES solve of
``A x = b`` it preconditions (restart cycles, inner iterations, true
residual), the process's peak resident set (``ru_maxrss_mib``), the peaks
of the child processes of the assembly, which sums the first half of the xi
slabs, and of the factor, which factors the first subtree under the root
(``assemble_child_peak_rss_mib``, ``factor_child_peak_rss_mib``, as those
objects report them; null where one process did the work), and its
resident set (``VmRSS`` of ``/proc/self/status``; null where there is no
``/proc``) just before the factor, just after it and after GMRES
(``rss_before_factor_mib``, ``rss_after_factor_mib``,
``rss_after_gmres_mib``).  One process per point keeps the peaks apart; with
``--repeat N`` each point runs in N fresh processes, and the times and
resident sets are their medians, with ``<name>_min`` and ``<name>_max``
beside them (the counts and residuals repeat exactly and come from the
first).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SIZES = ("192x144", "300x220", "400x290")
VARYING = (  # the rest repeats exactly
    "assemble_s", "factor_s", "ru_maxrss_mib", "assemble_child_peak_rss_mib", "factor_child_peak_rss_mib",
    "rss_before_factor_mib", "rss_after_factor_mib", "rss_after_gmres_mib",
)


def _vmrss_mib():
    """The process's resident set now, or ``None`` where there is no ``/proc``."""
    try:
        with open("/proc/self/status") as fh:
            kib = next(line.split()[1] for line in fh if line.startswith("VmRSS:"))
    except (OSError, StopIteration):
        return None
    return int(kib) / 1024


def _system(n: int, m: int):
    """Discretization, ``A``, ``b``, the free mass block on A's pattern and
    the shift ``beta`` of the scaled desk physics on ``n x m``, with the wall
    time of ``assemble`` and its child's peak."""
    from dataclasses import replace

    from igarad import pipeline
    from igarad.assembly import assemble, build_system, free_gather

    base = pipeline.RunConfig.from_json(ROOT / "configs" / "desk_radiation_k300.json")
    config = replace(base, n=n, m=m, half_aperture=0.05 * math.sqrt(n / 120))
    disc = pipeline.discretize(config)
    t0 = time.perf_counter()
    matrices = assemble(disc.space, disc.geometry, disc.quadrature)
    assemble_s = time.perf_counter() - t0
    k = config.wavenumber
    gather = free_gather(matrices, disc.partition)
    A, b = build_system(matrices, disc.partition, k, config.amplitude, gather=gather)
    return disc, A, b, gather.block(matrices.mass), config.beta_factor / k, assemble_s, matrices.child_peak_rss_mib


def _factor(n: int, m: int):
    """Discretization, ``A``, ``b``, ``M``, ``beta`` and the preconditioner on
    ``n x m``, with the wall times of ``assemble`` and the factor, the
    assembly's child's peak and the resident set just before and just after
    the factor."""
    from igarad.solver import build_cslp

    disc, A, b, mass, beta, assemble_s, assemble_child = _system(n, m)
    rss_before = _vmrss_mib()
    t0 = time.perf_counter()
    precond = build_cslp(A, mass, beta, tree=disc.partition.tree)
    factor_s = time.perf_counter() - t0
    return disc, A, b, mass, beta, precond, assemble_s, assemble_child, factor_s, rss_before, _vmrss_mib()


def measure(n: int, m: int) -> dict:
    """One point, in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from igarad.solver import gmres

    # the first factorization in a process carries a one-time cost (up to
    # 1 s) that is not the factor's: pay it on the smallest mesh
    _factor(40, 30)
    disc, A, b, mass, beta, precond, assemble_s, assemble_child, factor_s, rss_before, rss_after = _factor(n, m)
    x = precond.solve(b)
    residual = np.linalg.norm(A @ x - 1j * beta * (mass @ x) - b) / np.linalg.norm(b)
    _, report = gmres(A, b, precond)
    return {
        "n": n,
        "m": m,
        "dofs": disc.space.size,
        "n_free": disc.partition.n_free,
        "ordering": "ldl",
        "system_nnz": int(A.nnz),
        "lu_nnz": precond.lu_nnz,
        "factor_bytes": precond.factor_bytes,
        "assemble_s": assemble_s,
        "factor_s": factor_s,
        "direct_residual": float(residual),
        "gmres_cycles": report.outer_iterations,
        "gmres_inner": report.inner_iterations,
        "true_residual": report.true_residual,
        "ru_maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "assemble_child_peak_rss_mib": assemble_child,
        "factor_child_peak_rss_mib": precond.child_peak_rss_mib,
        "rss_before_factor_mib": rss_before,
        "rss_after_factor_mib": rss_after,
        "rss_after_gmres_mib": _vmrss_mib(),
    }


def point(n: int, m: int, repeat: int) -> dict:
    """One point, measured in ``repeat`` fresh processes."""
    runs = []
    for _ in range(repeat):
        cmd = [sys.executable, __file__, "--point", str(n), str(m)]
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    record = dict(runs[0], repeat=repeat)
    for key in VARYING:
        values = [r[key] for r in runs]
        if None in values:  # no /proc
            continue
        record[key] = statistics.median(values)
        record[f"{key}_min"], record[f"{key}_max"] = min(values), max(values)
    return record


def environment() -> dict:
    import numpy
    import scipy

    def git(*args):
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD") or "unknown"
    if commit != "unknown" and git("status", "--porcelain", "--", "src", "configs", "tools"):
        commit += "+dirty"
    return {
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", nargs="+", default=list(DEFAULT_SIZES), help="n x m meshes, e.g. 192x144")
    parser.add_argument("--out", default=str(ROOT / "BENCH_ordering.json"))
    parser.add_argument("--repeat", type=int, default=1, help="fresh processes per point (medians reported)")
    parser.add_argument("--point", nargs=2, type=int, metavar=("N", "M"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.point:
        print(json.dumps(measure(*args.point)))
        return 0

    points = []
    for size in args.sizes:
        p = point(*(int(v) for v in size.split("x")), args.repeat)
        points.append(p)
        print(
            f"{p['dofs']:8d} dofs: assemble {p['assemble_s']:5.2f} s, stored {p['lu_nnz']:>11,d} "
            f"({p['factor_bytes'] / 2**20:7.1f} MiB), factor {p['factor_s']:6.2f} s "
            f"({p['factor_s_min']:.2f}-{p['factor_s_max']:.2f}), "
            f"residual {p['direct_residual']:.1e}, GMRES {p['gmres_cycles']} cycles "
            f"(true {p['true_residual']:.1e}), peak RSS {p['ru_maxrss_mib']:7.1f} MiB "
            f"({p['ru_maxrss_mib_min']:.1f}-{p['ru_maxrss_mib_max']:.1f}) of {args.repeat}",
            flush=True,
        )
    record = {"environment": environment(), "points": points}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
