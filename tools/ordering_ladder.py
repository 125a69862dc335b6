"""Fill, time and memory of the preconditioner's block LDL^T on the
nested-dissection tree, along a ladder of meshes.

Usage, from the root of a checkout::

    python3 tools/ordering_ladder.py --repeat 3           # re-takes BENCH_ordering.json's ldl rows
    python3 tools/ordering_ladder.py --sizes 40x30 120x90 --repeat 3 --out ladder.json

Each point is the desk physics (``configs/desk_radiation_k300.json``) scaled
at fixed points per wavelength: ``n x m`` cubic elements with the half
aperture ``0.05 * sqrt(n / 120)``, so the radius (twice the near-field
length) grows like ``n``.  192 x 144 is the benchmark's radiation_28k mesh.
A point is ``pipeline.run(config, write_outputs=False)`` with
``full_scale`` set, in a fresh interpreter.  Its record is the run's report
(``RunResult.report()``: the blocks of ``report.json``, among them the
factor's ``lu_nnz`` and ``factor_bytes``, the child processes' peaks, the
GMRES solve and each stage's time and peak resident set) plus ``n``, ``m``
and ``"ordering": "ldl"``, the key of the committed LDL^T rows, and the
``git_commit`` it was measured at.  An existing ``--out`` is merged into:
the ``ldl`` rows of the measured sizes are replaced (a new size is added
in ``n x m`` order) and every other row is kept as it was, among them the
SuperLU rows of ``BENCH_ordering.json`` (``mmd``, ``nd``), which an
earlier version of this script took.  With
``--repeat N`` each point runs in N fresh processes: the stage times and
peaks, the children's peaks and the solve's wall time are their medians,
with ``[min, max]`` in the record's ``range`` block; the rest repeats
exactly and comes from the first.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SIZES = [(192, 144), (300, 220), (400, 290)]


def mesh(text: str) -> tuple[int, int]:
    """``NxM`` as ``(N, M)``, the type of ``--sizes``."""
    try:
        n, m = (int(v) for v in text.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not NxM, e.g. 192x144") from None
    return n, m


def measure(n: int, m: int) -> dict:
    """One point's report, in this process; exits 1 with the message of a
    mesh the run rejects or of a failed stage."""
    sys.path.insert(0, str(ROOT / "src"))
    from dataclasses import replace

    from igarad import pipeline

    base = pipeline.RunConfig.from_json(ROOT / "configs" / "desk_radiation_k300.json", full_scale=True)

    def config(n, m):
        return replace(base, n=n, m=m, half_aperture=0.05 * math.sqrt(n / 120))

    try:
        measured = config(n, m)  # a bad mesh fails here, before any run
        # the first run in a process carries a one-time cost (up to 1 s)
        # that is not its stages': pay it on the smallest mesh
        pipeline.run(config(40, 30), write_outputs=False)
        return pipeline.run(measured, write_outputs=False).report()
    except (ValueError, pipeline.PipelineError) as exc:
        sys.exit(f"error: {exc}")


def point(n: int, m: int, repeat: int, commit: str) -> dict:
    """One point, measured in ``repeat`` fresh processes at ``commit``;
    exits with the process's error if one fails."""
    runs = []
    for _ in range(repeat):
        cmd = [sys.executable, __file__, "--point", str(n), str(m)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode:
            sys.exit(out.stderr.rstrip() or f"point {n}x{m} failed with exit code {out.returncode}")
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    record = {"n": n, "m": m, "ordering": "ldl", "repeat": repeat, "git_commit": commit,
              **runs[0], "range": {}}
    varying = {"timings": list(record["timings"]), "peak_rss_mib": list(record["peak_rss_mib"]),
               "derived": ("child_peak_rss_mib", "assemble_child_peak_rss_mib"), "solve": ("wall_time_s",)}
    for block, keys in varying.items():
        for key in keys:
            values = [r[block][key] for r in runs]
            if None not in values:  # a child's peak is null where no child ran
                record[block][key] = statistics.median(values)
                record["range"].setdefault(block, {})[key] = [min(values), max(values)]
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
    return {"git_commit": commit, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", nargs="+", type=mesh, default=DEFAULT_SIZES,
                        help="n x m meshes, e.g. 192x144")
    parser.add_argument("--out", default=str(ROOT / "BENCH_ordering.json"))
    parser.add_argument("--repeat", type=int, default=1, help="fresh processes per point (medians reported)")
    parser.add_argument("--point", nargs=2, type=int, metavar=("N", "M"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.point:
        print(json.dumps(measure(*args.point)))
        return 0
    old = []  # the rows to merge into, read before any point runs
    if os.path.exists(args.out):
        try:
            with open(args.out) as fh:
                old = json.load(fh)["points"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            sys.exit(f"error: cannot merge into {args.out}: {exc!r}")
    env = environment()

    points = []
    for n, m in args.sizes:
        p = point(n, m, args.repeat, env["git_commit"])
        points.append(p)
        derived, solve, timings = p["derived"], p["solve"], p["timings"]
        print(
            f"{derived['dofs']:8d} dofs: assemble {timings['assemble']:5.2f} s, system {timings['system']:5.2f} s, "
            f"stored {derived['lu_nnz']:>11,d} "
            f"({derived['factor_bytes'] / 2**20:7.1f} MiB), factor {timings['factor']:6.2f} s "
            f"({'-'.join(f'{t:.2f}' for t in p['range']['timings']['factor'])}), "
            f"GMRES {solve['outer_iterations']} cycles (true {solve['true_residual']:.1e}), "
            f"peak RSS {max(p['peak_rss_mib'].values()):7.1f} MiB of {args.repeat}",
            flush=True,
        )
    with open(args.out, "w") as fh:
        json.dump({"environment": env, "points": merge(old, points)}, fh, indent=2)
        fh.write("\n")
    return 0


def merge(old: list[dict], new: list[dict]) -> list[dict]:
    """``old`` with its ``ldl`` rows of ``new``'s sizes replaced in place and
    ``new``'s other rows added, in ``n x m`` order; no other row changes."""
    fresh = {(p["n"], p["m"]): p for p in new}
    points = [fresh.pop((p["n"], p["m"])) if p.get("ordering") == "ldl" and (p["n"], p["m"]) in fresh else p
              for p in old]
    return sorted(points + list(fresh.values()), key=lambda p: (p["n"], p["m"]))


if __name__ == "__main__":
    sys.exit(main())
