"""The benchmark rebinds names of the package to timing wrappers, checks
gates and compares final fields with recorded fingerprints; a change to the
package that drops one of those names, or moves the numbers of a workload,
fails here, not in a benchmark run."""

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


# one repetition of a workload's seed-0 input, as bench/worker.py runs it
WORKLOAD_SCRIPT = """
import contextlib, json, sys, tempfile

from hooks import StepClock

clock = StepClock().install()

from workloads import WORKLOADS, fingerprint, fingerprint_mismatch

name, reference = sys.argv[1], sys.argv[2]
workload = WORKLOADS[name]
variant = workload.variant(0)
# what the workload prints (`mhdlab run` reports) goes to stderr
with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(sys.stderr):
    outcome = workload.run(workload.prepare(variant, workdir), workdir)
    gates = workload.check(outcome, clock.finals)
with open(reference, encoding="utf-8") as fh:
    ref = json.load(fh)[name][str(variant)]
got = [fingerprint(s) for s in clock.finals]
json.dump({"gates": {k: bool(ok) for k, ok in gates.items()},
           "mismatch": fingerprint_mismatch(got, ref)}, sys.stdout)
"""


def run_with_bench(script, *args):
    """Run `script` with src/ and bench/ importable and one BLAS thread;
    returns its JSON output."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_benchmark_hooks_bind_and_report_every_layer():
    out = run_with_bench(SCRIPT)
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


def test_certified_run_passes_its_gates_and_reference():
    # `mhdlab run` with a report on every state, which reads the terms each
    # step hands on: the benchmark's certified path
    out = run_with_bench(WORKLOAD_SCRIPT, "certified_run_64",
                         str(ROOT / "bench" / "reference.json"))
    assert out["gates"] and all(out["gates"].values()), out["gates"]
    assert out["mismatch"] is None, out["mismatch"]


def test_n_ladder_passes_its_gates_and_reference():
    # the heaviest Galerkin solve the benchmark runs (n = 256 on 64^2)
    out = run_with_bench(WORKLOAD_SCRIPT, "n_ladder_64",
                         str(ROOT / "bench" / "reference.json"))
    assert out["gates"] and all(out["gates"].values()), out["gates"]
    assert out["mismatch"] is None, out["mismatch"]


def test_import_leaves_scipy_sparse_out_and_gmres_resolvable():
    # nothing in the package calls gmres, but the benchmark binds
    # solver.gmres; importing scipy.sparse for it cost 8.5 MB of RSS
    script = (
        "import sys, mhdlab\n"
        "assert not [m for m in sys.modules if m.startswith('scipy.sparse')]\n"
        "from scipy.sparse.linalg import gmres\n"
        "assert mhdlab.solver.gmres is gmres\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
