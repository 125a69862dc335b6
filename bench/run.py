"""igarad benchmark: time to solution, peak memory and set-up time per workload.

Usage, from the root of a checkout::

    python3 bench/run.py --workload desk_k300 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

One workload runs in this process, repeated until ``--seconds`` have passed
(at least once), and every repetition's outputs are checked (see
``workloads.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: ``wall_s`` (median time to solution over repetitions),
  ``peak_rss_mib`` (peak resident set of this process, which runs only this
  workload) and ``setup_s`` (median over fresh interpreters of start-up,
  ``import igarad`` and input generation).
* ``--trace 1``: repetitions alternate untraced and traced; the traced ones
  wrap every layer's public functions (``layers.py``) and give the per-layer
  metrics, medians over traced repetitions.  ``trace.overhead_s`` is the
  traced minus the untraced median wall time.  Peak RSS is not reported,
  since the tracing itself raises it.

``--workload all`` runs every workload in a fresh process and prints a
table of the end-to-end metrics with ``failed_frac``.  Result records,
stamped with the environment, and the recorded spans go to ``.bench_out/``.
BLAS threads are capped at the number of usable cores.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def cap_blas_threads() -> None:
    """Cap the BLAS thread variables at the usable core count.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)


def load_program() -> None:
    """Import igarad from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import igarad
    except ImportError as exc:
        raise SystemExit(f"error: cannot import igarad from {src}: {exc}")
    if Path(igarad.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: igarad was imported from {igarad.__file__}, not {src}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def git(*args):
        # the ceiling stops git from reporting a repository that encloses the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", *args], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        commit = git("rev-parse", "HEAD") or "unknown"
        if commit != "unknown" and git("status", "--porcelain", "--", "src", "configs"):
            commit += "+dirty"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "memory_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "seed": seed,
    }


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    p = (100 * (n - 10)) // n if n else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


@dataclass
class Sample:
    wall: float
    traced: bool
    failures: list[str] = field(default_factory=list)


def repeat(workload, inputs, seconds: float, recorder=None) -> tuple[list[Sample], list[dict]]:
    """Run ``workload`` until ``seconds`` have passed.

    With a recorder, repetitions alternate untraced and traced (at least two
    of each, so exact counts can be compared), and the per-layer metrics of
    each traced one are returned.
    """
    if recorder is not None:
        import layers
    OUT_DIR.mkdir(exist_ok=True)
    samples: list[Sample] = []
    traced_metrics: list[dict] = []
    start = time.perf_counter()
    while (
        not samples
        or time.perf_counter() - start < seconds
        or (recorder is not None and len(traced_metrics) < 2)
    ):
        sample = Sample(0.0, traced=recorder is not None and len(samples) % 2 == 1)
        if sample.traced:
            recorder.rep = len(samples)
        _repetition(workload, inputs, sample, recorder if sample.traced else None)
        gc.collect()  # reference cycles from this repetition must not inflate the next one's peak
        if sample.traced:
            traced_metrics.append(
                layers.rep_metrics(recorder.rep_spans(recorder.rep), recorder.counts)
            )
            recorder.counts.clear()
        samples.append(sample)
    return samples, traced_metrics


def _repetition(workload, inputs, sample: Sample, recorder) -> None:
    """One timed run and its checks; a failure is recorded in ``sample``."""
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        if recorder is not None:
            import layers

            layers.install(recorder)
            root = recorder.begin("rep")
        t0 = time.perf_counter()
        try:
            output = workload.run(inputs, rundir)
        finally:
            sample.wall = time.perf_counter() - t0
            if recorder is not None:
                recorder.end(root)
                recorder.restore()
        sample.failures += workload.check(inputs, output)
    except Exception as exc:  # a failing repetition is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        sample.failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(rundir)


def tally_samples(samples: list[Sample]) -> dict:
    """Attempted and failed repetitions, and the untraced wall times.

    A repetition that raised or failed a check counts as failed; the wall
    times are those of the passing untraced repetitions (all untraced ones
    if none passed).
    """
    failed = sum(1 for s in samples if s.failures)
    untraced = [s for s in samples if not s.traced]
    walls = [s.wall for s in untraced if not s.failures] or [s.wall for s in untraced]
    return {
        "attempted": len(samples),
        "failed": failed,
        "failed_frac": failed / len(samples),
        "failures": [f for s in samples for f in s.failures],
        "wall_s_samples": walls,
    }


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import igarad and make the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def run_one(args) -> int:
    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, ROOT)
    if args.setup_only:
        return 0

    setup = measure_setup(args.workload, args.seed)
    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
    samples, traced_metrics = repeat(workload, inputs, args.seconds, recorder)
    tally = tally_samples(samples)
    failed = tally["failed"]
    walls = tally["wall_s_samples"]
    end_to_end = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup)}
    if not args.trace:  # the traced run's observers copy the LU factors
        end_to_end["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "inputs": repr(inputs),
        **tally,
        "wall_s_tail": tail_percentile(walls),
        "setup_s_samples": setup,
        "end_to_end": end_to_end,
    }

    print(f"workload {args.workload}, seed {args.seed}: {len(samples)} repetitions, "
          f"{failed} failed")
    for f in tally["failures"]:
        print(f"  check failed: {f}")
    tail = record["wall_s_tail"]
    print(f"wall_s        {end_to_end['wall_s']:.4f} s   median of {len(walls)}"
          + (f", p{tail[0]} {tail[1]:.4f} s" if tail else ", no tail percentile (n < 21)"))
    if "peak_rss_mib" in end_to_end:
        print(f"peak_rss_mib  {end_to_end['peak_rss_mib']:.1f} MiB")
    print(f"setup_s       {end_to_end['setup_s']:.4f} s   median of {len(setup)}")
    print(f"failed_frac   {tally['failed_frac']:.4f}   ({failed}/{len(samples)})")

    mismatches = []
    if args.trace:
        import layers

        per_layer, mismatches = layers.summarize(traced_metrics, walls)
        record["per_layer"] = per_layer
        record["per_layer_repetitions"] = len(traced_metrics)
        record["count_mismatches"] = mismatches
        for name, value in per_layer.items():
            print(f"{name:34s} {value:.6g} {layers.unit(name)}")
        for m in mismatches:
            print(f"  count mismatch: {m}")
        metrics = {k: {"value": v, "unit": layers.unit(k)} for k, v in per_layer.items()}
        with open(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json", "w") as fh:
            json.dump({"columns": ["rep", "id", "parent", "name", "start", "end",
                                   "cpu_start", "cpu_end", "excluded", "cpu_excluded"],
                       "spans": [s.as_row() for s in recorder.spans]}, fh)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; prints the end-to-end table."""
    load_program()
    import workloads

    records = {}
    for name in workloads.WORKLOADS:
        for trace in sorted({0, args.trace}):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(child.stderr)
            if child.returncode != 0:
                raise SystemExit(f"error: {name} exited with {child.returncode}")
            with open(OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json") as fh:
                records[f"{name}/trace{trace}"] = json.load(fh)

    print(f"\n{'workload':15s} {'wall_s [s]':>11s} {'n':>3s} {'peak_rss_mib [MiB]':>19s} "
          f"{'setup_s [s]':>12s} {'failed_frac [1]':>16s}")
    for name in workloads.WORKLOADS:
        r = records[f"{name}/trace0"]
        e = r["end_to_end"]
        print(f"{name:15s} {e['wall_s']:11.4f} {len(r['wall_s_samples']):3d} "
              f"{e['peak_rss_mib']:19.1f} {e['setup_s']:12.4f} {r['failed_frac']:16.4f}")
    with open(OUT_DIR / f"all-seed{args.seed}.json", "w") as fh:
        json.dump(records, fh, indent=1)
    correct = all(r["failed"] == 0 and not r.get("count_mismatches") for r in records.values())
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_blas_threads()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
