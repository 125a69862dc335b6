"""Fill, time and memory of the preconditioner factor under both orderings.

Usage, from the root of a checkout::

    python3 tools/ordering_ladder.py                      # writes BENCH_ordering.json
    python3 tools/ordering_ladder.py --sizes 40x30 120x90 --orderings nd --out ladder.json

Each point is the desk physics (``configs/desk_radiation_k300.json``) scaled
at fixed points per wavelength: ``n x m`` cubic elements with the half
aperture ``0.05 * sqrt(n / 120)``, so the radius (twice the near-field
length) grows like ``n``.  192 x 144 is the benchmark's radiation_28k mesh.
For each point and ordering a fresh interpreter assembles ``A``, factors the
shifted-Laplacian matrix ``P = A - i beta M`` through ``solver._factorize``,
either in the grid's nested-dissection numbering of the free dofs (``nd``)
or, renumbered in the grid's natural order, under minimum degree on
``A^T + A`` (``mmd``), and reports the wall time of ``assemble`` (S, M and
E), SuperLU's fill, the factor's wall time, the residual ``|P x - b| / |b|``
of a solve with the factor, and the process's peak resident set.  One process per point keeps the peaks apart.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SIZES = ("192x144", "300x220", "400x290")


def _system(n: int, m: int):
    """Discretization, ``A``, ``b`` and ``P`` of the scaled desk physics on
    ``n x m``, with the wall time of ``assemble``."""
    from dataclasses import replace

    from igarad import pipeline
    from igarad.assembly import assemble, build_system, free_gather
    from igarad.solver import _shifted

    base = pipeline.RunConfig.from_json(ROOT / "configs" / "desk_radiation_k300.json")
    config = replace(base, n=n, m=m, half_aperture=0.05 * math.sqrt(n / 120))
    disc = pipeline.discretize(config)
    t0 = time.perf_counter()
    matrices = assemble(disc.space, disc.geometry, disc.quadrature)
    assemble_s = time.perf_counter() - t0
    k = disc.domain.wavenumber
    gather = free_gather(matrices, disc.partition)
    A, b = build_system(matrices, disc.partition, k, config.amplitude, gather=gather)
    mass = gather.block(matrices.mass)
    return disc, A, b, _shifted(A, mass, config.beta_factor / k), assemble_s


def _factor(n: int, m: int, ordering: str):
    """Discretization, ``A``, ``b``, ``P`` and the factor of ``P`` on ``n x m``
    under ``ordering``, with the wall times of ``assemble`` and the factor."""
    import numpy as np

    from igarad.solver import _factorize

    disc, A, b, P, assemble_s = _system(n, m)
    if ordering == "mmd":
        # minimum degree depends on the numbering it starts from: start from
        # the grid's natural one (A's nnz does not depend on the numbering)
        natural = np.argsort(disc.partition.free)
        P, b = P[natural][:, natural], b[natural]
    t0 = time.perf_counter()
    lu = _factorize(P, "P", ordered=ordering == "nd")
    return disc, A, b, P, lu, assemble_s, time.perf_counter() - t0


def measure(n: int, m: int, ordering: str) -> dict:
    """One point, in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from igarad.solver import _lu_solve

    # the first factorization in a process carries a one-time cost (up to
    # 1 s) that is not the ordering's: pay it on the smallest mesh
    _factor(40, 30, ordering)
    disc, A, b, P, lu, assemble_s, factor_s = _factor(n, m, ordering)
    x = _lu_solve(lu, b)
    return {
        "n": n,
        "m": m,
        "dofs": disc.space.size,
        "n_free": disc.partition.n_free,
        "ordering": ordering,
        "system_nnz": int(A.nnz),
        "lu_nnz": int(lu.nnz),
        "assemble_s": assemble_s,
        "factor_s": factor_s,
        "direct_residual": float(np.linalg.norm(P @ x - b) / np.linalg.norm(b)),
        "ru_maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


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
    parser.add_argument("--orderings", nargs="+", default=["mmd", "nd"], choices=["mmd", "nd"])
    parser.add_argument("--out", default=str(ROOT / "BENCH_ordering.json"))
    parser.add_argument("--point", nargs=3, metavar=("N", "M", "ORDERING"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        n, m, ordering = args.point
        print(json.dumps(measure(int(n), int(m), ordering)))
        return 0

    points = []
    for size in args.sizes:
        n, m = (int(v) for v in size.split("x"))
        for ordering in args.orderings:
            cmd = [sys.executable, __file__, "--point", str(n), str(m), ordering]
            out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
            points.append(json.loads(out.stdout.splitlines()[-1]))
            p = points[-1]
            print(
                f"{p['dofs']:8d} dofs {ordering:3s}: assemble {p['assemble_s']:5.2f} s, LU nnz {p['lu_nnz']:>11,d}, "
                f"factor {p['factor_s']:6.2f} s, residual {p['direct_residual']:.1e}, "
                f"peak RSS {p['ru_maxrss_mib']:7.1f} MiB",
                flush=True,
            )
    record = {"environment": environment(), "points": points}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
