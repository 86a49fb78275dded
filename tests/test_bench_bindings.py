"""The benchmark rebinds names of the package to timing wrappers; a change
to the package that drops one of them fails here, not in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# five 16^2, n = 4 steps with diagnostics, under both hooks, as a traced
# benchmark repetition installs them; the span counts of the traced layers
# show that each still runs where the per-layer metrics look for it
SCRIPT = """
import json, sys

import numpy as np
from hooks import StepClock, Tracer

tracer = Tracer().install()
clock = StepClock().install()

from mhdlab import solver
from mhdlab.grid import Grid, ScalarField, VectorField
from mhdlab.thermo import EosParams

g = Grid(16, 16)
rho = ScalarField(g, 1.0 + 0.05 * np.cos(np.pi * g.X) * np.cos(np.pi * g.Y))
init = solver.InitialData(
    rho, ScalarField(g, 2.0 * rho.values),
    ScalarField(g, 1.0 + 0.05 * np.cos(np.pi * g.Y)),
    VectorField(g, 0.05 * np.sin(np.pi * g.X) * np.sin(np.pi * g.Y),
                np.zeros(g.shape)),
)
traj = solver.run(
    init, solver.RegParams(epsilon=1e-2, delta=1e-2, n=4), EosParams(),
    solver.Schedule(t_final=1.25e-2, dt=2.5e-3), diagnostics_every=1,
)
summary = tracer.summary()
json.dump({"metrics": sorted(tracer.metrics()), "finals": len(clock.finals),
           "steps": len(traj.step_reports),
           "calls": {name: c[0] for name, c in summary.items()}}, sys.stdout)
"""


def test_benchmark_hooks_bind_and_report_every_layer():
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in declared} - {"trace.overhead_frac"}
    assert wanted <= set(out["metrics"])
    assert out["finals"] == 1
    assert out["steps"] == 5
    # every step advances the scalars, the temperature and the momentum once;
    # each of the six states (five stepped from, and the final one) is
    # reported on and evaluated once
    calls = out["calls"]
    for layer in ("solver.step", "solver.advance_scalar",
                  "solver.advance_temperature", "solver.advance_momentum"):
        assert calls.get(layer) == 5, layer
    for layer in ("diagnostics.report", "solver.tendencies",
                  "solver.VelocityWorkspace"):
        assert calls.get(layer) == 6, layer
