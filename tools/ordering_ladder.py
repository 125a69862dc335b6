"""Fill, time and memory of the preconditioner factor under both orderings,
and of the block LDL^T on the nested-dissection tree.

Usage, from the root of a checkout::

    python3 tools/ordering_ladder.py                      # writes BENCH_ordering.json
    python3 tools/ordering_ladder.py --sizes 40x30 120x90 --orderings nd ldl --out ladder.json
    python3 tools/ordering_ladder.py --orderings ldl --repeat 3 --out ladder.json

Each point is the desk physics (``configs/desk_radiation_k300.json``) scaled
at fixed points per wavelength: ``n x m`` cubic elements with the half
aperture ``0.05 * sqrt(n / 120)``, so the radius (twice the near-field
length) grows like ``n``.  192 x 144 is the benchmark's radiation_28k mesh.
For each point and factor a fresh interpreter assembles ``A`` and factors
the shifted-Laplacian matrix ``P = A - i beta M``:

* ``nd``: SuperLU in the grid's nested-dissection numbering of the free
  dofs, kept in that order (``permc_spec="NATURAL"``; the package factors
  such a matrix on its tree and has no ordered SuperLU of its own);
* ``mmd``: the preconditioner without a tree (``solver.build_cslp``, which
  then factors P by SuperLU), renumbered in the grid's natural order, under
  minimum degree on ``A^T + A``;
* ``ldl``: the preconditioner's block LDL^T on the nested-dissection tree
  (``solver.build_cslp`` with the partition's tree).

It reports the wall time of ``assemble`` (S, M and E), the stored entries
(``lu_nnz``: SuperLU's L and U, or the fronts' blocks) and their bytes
(``factor_bytes``: SuperLU at 16 B of value and 4 B of row index per
entry), the factor's wall time, the residual ``|P x - b| / |b|`` of a solve
with the factor, the GMRES solve of ``A x = b`` it preconditions (restart
cycles, inner iterations, true residual), and the process's peak resident
set (``ru_maxrss_mib``) and its resident set just before the factor
(``rss_before_factor_mib``, ``VmRSS`` of ``/proc/self/status``; null where
there is no ``/proc``).  One process per point keeps the peaks apart; with
``--repeat N`` each point runs in N fresh processes, and ``assemble_s``,
``factor_s``, ``ru_maxrss_mib`` and ``rss_before_factor_mib`` are their
medians, with ``<name>_min`` and ``<name>_max`` beside them (the counts and
residuals repeat exactly and come from the first).  Only the ``nd`` factor
imports ``scipy.sparse.linalg`` itself, so an ``ldl`` point loads what a run
loads.
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
FACTORS = ("mmd", "nd", "ldl")
VARYING = ("assemble_s", "factor_s", "ru_maxrss_mib", "rss_before_factor_mib")  # the rest repeats exactly


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
    time of ``assemble``."""
    from dataclasses import replace

    from igarad import pipeline
    from igarad.assembly import assemble, build_system, free_gather

    base = pipeline.RunConfig.from_json(ROOT / "configs" / "desk_radiation_k300.json")
    config = replace(base, n=n, m=m, half_aperture=0.05 * math.sqrt(n / 120))
    disc = pipeline.discretize(config)
    t0 = time.perf_counter()
    matrices = assemble(disc.space, disc.geometry, disc.quadrature)
    assemble_s = time.perf_counter() - t0
    k = disc.domain.wavenumber
    gather = free_gather(matrices, disc.partition)
    A, b = build_system(matrices, disc.partition, k, config.amplitude, gather=gather)
    return disc, A, b, gather.block(matrices.mass), config.beta_factor / k, assemble_s


class _SuperLU:
    """A SuperLU factor of ``P^T``, which solves with ``P``, as a preconditioner for
    :func:`igarad.solver.gmres`."""

    def __init__(self, lu, beta: float):
        self.beta, self.lu_nnz, self.factor_bytes = beta, int(lu.nnz), 20 * int(lu.nnz)
        self.solve = lambda v: lu.solve(v, trans="T")


def _factor(n: int, m: int, factor: str):
    """Discretization, ``A``, ``b``, ``M``, ``beta`` and the preconditioner of
    ``factor`` on ``n x m``, with the wall times of ``assemble`` and the factor
    and the resident set just before the factor."""
    import numpy as np

    from igarad.solver import build_cslp

    disc, A, b, mass, beta, assemble_s = _system(n, m)
    if factor == "mmd":
        # minimum degree depends on the numbering it starts from: start from
        # the grid's natural one (A's nnz does not depend on the numbering)
        natural = np.argsort(disc.partition.free)
        A, mass, b = A[natural][:, natural], mass[natural][:, natural], b[natural]
    rss_before = _vmrss_mib()
    t0 = time.perf_counter()
    if factor == "ldl":
        precond = build_cslp(A, mass, beta, tree=disc.partition.tree)
    elif factor == "nd":
        import scipy.sparse.linalg as spla

        # the package's SuperLU options but the ordering, on P^T's CSC: the CSR arrays of P
        natural = dict(permc_spec="NATURAL", diag_pivot_thresh=0.001, options=dict(SymmetricMode=True))
        precond = _SuperLU(spla.splu((A - 1j * beta * mass).T, **natural), beta)
    else:
        precond = build_cslp(A, mass, beta)
    return disc, A, b, mass, beta, precond, assemble_s, time.perf_counter() - t0, rss_before


def measure(n: int, m: int, factor: str) -> dict:
    """One point, in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from igarad.solver import GmresConfig, gmres

    # the first factorization in a process carries a one-time cost (up to
    # 1 s) that is not the factor's: pay it on the smallest mesh
    _factor(40, 30, factor)
    disc, A, b, mass, beta, precond, assemble_s, factor_s, rss_before = _factor(n, m, factor)
    x = precond.solve(b)
    residual = np.linalg.norm(A @ x - 1j * beta * (mass @ x) - b) / np.linalg.norm(b)
    _, report = gmres(A, b, precond, GmresConfig())
    return {
        "n": n,
        "m": m,
        "dofs": disc.space.size,
        "n_free": disc.partition.n_free,
        "ordering": factor,
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
        "rss_before_factor_mib": rss_before,
    }


def point(n: int, m: int, ordering: str, repeat: int) -> dict:
    """One point, measured in ``repeat`` fresh processes."""
    runs = []
    for _ in range(repeat):
        cmd = [sys.executable, __file__, "--point", str(n), str(m), ordering]
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
    parser.add_argument("--orderings", nargs="+", default=list(FACTORS), choices=FACTORS, help="factors to measure")
    parser.add_argument("--out", default=str(ROOT / "BENCH_ordering.json"))
    parser.add_argument("--repeat", type=int, default=1, help="fresh processes per point (medians reported)")
    parser.add_argument("--point", nargs=3, metavar=("N", "M", "ORDERING"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.point:
        n, m, ordering = args.point
        print(json.dumps(measure(int(n), int(m), ordering)))
        return 0

    points = []
    for size in args.sizes:
        n, m = (int(v) for v in size.split("x"))
        for ordering in args.orderings:
            p = point(n, m, ordering, args.repeat)
            points.append(p)
            print(
                f"{p['dofs']:8d} dofs {ordering:3s}: assemble {p['assemble_s']:5.2f} s, stored {p['lu_nnz']:>11,d} "
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
