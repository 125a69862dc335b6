"""The benchmark's workloads: seeded inputs, one run through the public API,
and the correctness checks applied to each run's outputs.

Every workload draws its inputs from ``random.Random(seed)``; the program
receives only the generated ``RunConfig`` or study arguments.  Dof counts do
not depend on the seed.

* ``desk_k300``: ``configs/desk_radiation_k300.json`` (k about 300, cubic,
  10,980 dofs, GMRES with the shifted-Laplacian preconditioner), written
  through ``pipeline.run(..., write_outputs=True)``.  The production path at
  desk scale and the only workload that runs the writers.
* ``mms_cubic``: the three-level cubic manufactured-solution study
  (840 / 3,280 / 12,960 dofs).  Dominated by per-point basis evaluation,
  boundary-data projection, error norms and small direct LUs; no GMRES and
  no writer.
* ``radiation_28k``: desk physics scaled toward the full-scale configs at
  fixed points per wavelength (27,936 dofs, GMRES, no writer).  The
  preconditioner factorization dominates time and peak memory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from igarad import pipeline

# A converged GMRES solve must also meet this explicit residual |b - A x| / |b|
# (the acceptance gate on the preconditioned solver).
TRUE_RESIDUAL_GATE = 1e-7
# The Dirichlet dofs reproduce the constant amplitude exactly (partition of
# unity on the aperture), so the deviation is roundoff.
DIRICHLET_DEVIATION_GATE = 1e-9
# Lower edge of the cubic convergence-order window.  The upper edge is not
# used: the three-level cut is pre-asymptotic and overshoots it.
MIN_CUBIC_L2_RATE = 3.7
FREQUENCY_JITTER = 0.02


@dataclass(frozen=True)
class Radiation:
    """A ``pipeline.run`` of a seeded ``RunConfig``."""

    name: str
    overrides: dict
    write_outputs: bool
    dofs: int

    def inputs(self, seed: int, root: Path) -> "pipeline.RunConfig":
        rng = random.Random(seed)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        jitter = rng.uniform(-FREQUENCY_JITTER, FREQUENCY_JITTER)
        base = pipeline.RunConfig.from_json(root / "configs" / "desk_radiation_k300.json")
        return replace(
            base,
            frequency=base.frequency * (1.0 + jitter),
            amplitude=complex(math.cos(phi), math.sin(phi)),
            **self.overrides,
        )

    def run(self, config, workdir: Path):
        """Returns the run result and the ``(A, b)`` system it solved."""
        systems = []
        build_system = pipeline.build_system

        def capture(*args, **kwargs):
            systems.append(build_system(*args, **kwargs))
            return systems[-1]

        pipeline.build_system = capture
        try:
            result = pipeline.run(
                replace(config, outdir=str(workdir)), write_outputs=self.write_outputs
            )
        finally:
            pipeline.build_system = build_system
        return result, systems[-1]

    def check(self, config, output) -> list[str]:
        result, (A, b) = output
        failures = []
        if result.discretization.space.size != self.dofs:
            failures.append(f"{result.discretization.space.size} dofs, expected {self.dofs}")
        report = result.solve_report
        if not report.converged:
            failures.append(f"GMRES did not converge: {report}")
        x = result.field.coefficients[result.discretization.partition.free]
        residual = float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))
        if not residual <= TRUE_RESIDUAL_GATE:
            failures.append(f"true residual {residual:.3e} > {TRUE_RESIDUAL_GATE:g}")
        if not result.dirichlet_deviation <= DIRICHLET_DEVIATION_GATE:
            failures.append(f"Dirichlet deviation {result.dirichlet_deviation:.3e}")
        if self.write_outputs:
            with open(result.outputs["field"]) as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != config.grid_res**2:
                failures.append(f"field.csv has {rows} rows, expected {config.grid_res**2}")
        return failures


@dataclass(frozen=True)
class MmsStudy:
    """``pipeline.convergence_study`` with a seeded plane-wave direction."""

    name: str
    study: dict
    dofs: tuple

    def inputs(self, seed: int, root: Path) -> dict:
        angle = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        return dict(self.study, direction=(math.cos(angle), math.sin(angle)))

    def run(self, inputs, workdir: Path):
        return pipeline.convergence_study(**inputs)

    def check(self, inputs, rows) -> list[str]:
        failures = []
        dofs = tuple(r.dofs for r in rows)
        if dofs != self.dofs:
            failures.append(f"dofs {dofs}, expected {self.dofs}")
        errors = [r.l2_error for r in rows]
        if not all(e1 < e0 for e0, e1 in zip(errors, errors[1:])):
            failures.append(f"L2 errors not strictly decreasing: {errors}")
        for r in rows[1:]:
            if r.l2_rate is None or not r.l2_rate >= MIN_CUBIC_L2_RATE:
                failures.append(f"L2 rate {r.l2_rate} < {MIN_CUBIC_L2_RATE} at n={r.n}")
        return failures


WORKLOADS = {
    w.name: w
    for w in (
        Radiation("desk_k300", {}, write_outputs=True, dofs=10_980),
        MmsStudy(
            "mms_cubic",
            dict(wavenumber=10.0, order=4, levels=3, base_n=40),
            dofs=(840, 3_280, 12_960),
        ),
        Radiation(
            "radiation_28k",
            dict(half_aperture=0.05 * math.sqrt(1.6), n=192, m=144),
            write_outputs=False,
            dofs=27_936,
        ),
    )
}
