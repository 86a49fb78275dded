"""Measurement hooks installed from outside the program.

The benchmark changes nothing in ``mhdlab``: it rebinds public functions of
its modules to timing wrappers after import.  ``StepClock`` is always
installed and costs two clock reads per step; ``Tracer`` is installed only
in traced runs and records a span around every call into a layer.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np


def replace_everywhere(original, replacement):
    """Rebind every ``mhdlab`` module attribute that is ``original``.

    Modules bind imported functions under their own names (``from .grid
    import fwd2``), so each binding is replaced, not only the defining one.
    """
    for name, mod in list(sys.modules.items()):
        if name == "mhdlab" or name.startswith("mhdlab."):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)


class StepClock:
    """Step start/completion times per solver run, and each run's final state."""

    def __init__(self):
        self.first_step = None
        self.runs = []    # per solver.run: [first step start, completion, ...]
        self.finals = []  # final State of every completed solver.run

    def install(self):
        from mhdlab import solver

        orig_step, orig_run = solver.step, solver.run

        def step(*args, **kwargs):
            if not self.runs:
                self.runs.append([])
            times = self.runs[-1]
            if not times:
                t = perf_counter()
                times.append(t)
                if self.first_step is None:
                    self.first_step = t
            out = orig_step(*args, **kwargs)
            times.append(perf_counter())
            return out

        def run(*args, **kwargs):
            self.runs.append([])
            traj = orig_run(*args, **kwargs)
            self.finals.append(traj.final())
            return traj

        replace_everywhere(orig_step, step)
        replace_everywhere(orig_run, run)
        return self

    def intervals_ms(self, last_run_only=False):
        """Intervals between consecutive step completions within a run; the
        first step of a run counts from its own start."""
        runs = self.runs[-1:] if last_run_only else self.runs
        return [float(d) * 1e3 for times in runs for d in np.diff(times)]


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory, plus counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = -1
        self.run_n = {}   # run id -> Galerkin dimension of that run
        self.counts = Counter()

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1,
                          self.run_id])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def install(self):
        from scipy.sparse.linalg import LinearOperator, aslinearoperator

        from mhdlab import cli, config, diagnostics, grid, mms, snapshot, solver
        from mhdlab import sweeps, thermo

        counts = self.counts

        def new_run(args, kwargs):
            self.run_id += 1
            reg = args[1] if len(args) > 1 else kwargs["reg"]
            self.run_n[self.run_id] = reg.n

        def newton(out, args, kwargs):
            counts["newton_iterations"] += out[1].iterations

        def table_bytes(out, args, kwargs):
            basis = args[0]
            counts["basis_table_bytes"] += (
                basis.phi.nbytes + basis.phi_x.nbytes + basis.phi_y.nbytes
            )

        def snapshot_bytes(out, args, kwargs):
            path = args[1] if len(args) > 1 else kwargs["path"]
            counts["snapshot_bytes"] += os.path.getsize(path)

        orig_gmres = solver.gmres

        def gmres(A, b, *args, **kwargs):
            # count applications of the temperature Newton operator
            op = aslinearoperator(A)

            def matvec(v):
                counts["krylov_matvecs"] += 1
                return op.matvec(v)

            counted = LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            return orig_gmres(counted, b, *args, **kwargs)

        functions = [
            (grid, "fwd2", {}), (grid, "bwd2", {}),
            (config, "parse_config", {}),
            (solver, "regularize_initial_data", {}),
            (solver, "run", {"before": new_run}),
            (solver, "step", {}),
            (solver, "advance_scalar", {}),
            (solver, "advance_temperature", {"after": newton}),
            (solver, "advance_momentum", {}),
            (solver, "tendencies", {}),
            (diagnostics, "report", {}),
            (diagnostics, "sigma_nodal", {}),
            (diagnostics, "write_diagnostics_csv", {}),
            (sweeps, "sweep", {}),
            (mms, "temporal_order_study", {}),
            (snapshot, "write_snapshot", {"after": snapshot_bytes}),
            (cli, "cmd_run", {}),
        ]
        for mod, attr, hooks in functions:
            name = f"{mod.__name__.split('.')[-1]}.{attr}"
            orig = getattr(mod, attr)
            replace_everywhere(orig, self.wrap(name, orig, **hooks))
        solver.gmres = self.wrap("solver.gmres", gmres)

        methods = [
            (grid.GalerkinBasis, "__init__", "grid.GalerkinBasis", {"after": table_bytes}),
            (solver.VelocityWorkspace, "__init__", "solver.VelocityWorkspace", {}),
            (thermo.EosParams, "mu", "thermo.EosParams.mu", {}),
            (thermo.EosParams, "kappa", "thermo.EosParams.kappa", {}),
            (mms.MmsForcing, "at", "mms.MmsForcing.at", {}),
        ]
        for cls, attr, name, hooks in methods:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), **hooks))
        return self

    @staticmethod
    def span_cost_s(calls=20000, rounds=5):
        """Seconds a wrapper adds to one call: the least, over rounds, of the
        extra time a wrapped no-op takes over the bare one."""
        def noop():
            return None

        wrapped = Tracer().wrap("probe", noop)
        best = float("inf")
        for _ in range(rounds):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t1 = perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        return best

    # -- results ------------------------------------------------------------

    def _arrays(self):
        names = np.array([s[0] for s in self.spans], dtype=object)
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return names, start, end, parent, dur, dur - child

    def summary(self):
        """name -> (calls, total seconds, self seconds)."""
        names, _, _, _, dur, self_t = self._arrays()
        out = {}
        for name in sorted(set(names)):
            mask = names == name
            out[name] = (int(mask.sum()), float(dur[mask].sum()),
                         float(self_t[mask].sum()))
        return out

    def exact_counts(self):
        """Counts that must repeat exactly across runs of the same input."""
        calls = {f"calls.{k}": v[0] for k, v in self.summary().items()}
        return {**calls, **dict(self.counts)}

    def metrics(self):
        """Per-layer metrics; a layer the workload does not use reads 0."""
        names, _, end, parent, dur, _ = self._arrays()
        summ = self.summary()
        steps = summ.get("solver.step", (0, 0.0, 0.0))[0]

        def total(name):
            return summ.get(name, (0, 0.0, 0.0))[1]

        def self_time(name):
            return summ.get(name, (0, 0.0, 0.0))[2]

        def calls(name):
            return summ.get(name, (0, 0.0, 0.0))[0]

        def ms_per_step(seconds):
            return 1e3 * seconds / steps if steps else 0.0

        thermo_s = sum(v[1] for k, v in summ.items() if k.startswith("thermo."))
        m = {
            "grid.transform_calls_per_step":
                (calls("grid.fwd2") + calls("grid.bwd2")) / steps if steps else 0.0,
            "grid.transform_ms_per_step":
                ms_per_step(self_time("grid.fwd2") + self_time("grid.bwd2")),
            "grid.basis_build_ms": 1e3 * total("grid.GalerkinBasis"),
            "grid.basis_table_mb": self.counts["basis_table_bytes"] / 1e6,
            "solver.workspace_ms_per_step": ms_per_step(total("solver.VelocityWorkspace")),
            "solver.scalar_ms_per_step": ms_per_step(total("solver.advance_scalar")),
            "solver.step_self_ms": ms_per_step(self_time("solver.step")),
            "solver.temperature_ms_per_step":
                ms_per_step(total("solver.advance_temperature")),
            "solver.newton_iters_per_step":
                self.counts["newton_iterations"] / steps if steps else 0.0,
            "solver.krylov_iters_per_step":
                self.counts["krylov_matvecs"] / steps if steps else 0.0,
            "solver.momentum_ms_per_step": ms_per_step(total("solver.advance_momentum")),
            "solver.regularize_ms": 1e3 * total("solver.regularize_initial_data"),
            "config.parse_ms": 1e3 * total("config.parse_config"),
            "thermo.ms_per_step": ms_per_step(thermo_s),
            "diagnostics.report_ms_per_step": ms_per_step(total("diagnostics.report")),
            "diagnostics.tendencies_ms_per_step": ms_per_step(total("solver.tendencies")),
            "diagnostics.sigma_ms": 1e3 * total("diagnostics.sigma_nodal"),
            "diagnostics.csv_write_ms": 1e3 * total("diagnostics.write_diagnostics_csv"),
            "sweeps.compare_ms": 1e3 * self_time("sweeps.sweep"),
            "mms.forcing_ms_per_step": ms_per_step(total("mms.MmsForcing.at")),
            "mms.forcing_evals": float(calls("mms.MmsForcing.at")),
            "snapshot.write_ms": 1e3 * total("snapshot.write_snapshot"),
            "snapshot.bytes_written": float(self.counts["snapshot_bytes"]),
        }

        rung_s = {4: 0.0, 32: 0.0, 256: 0.0}
        post_run = 0.0
        for i in np.flatnonzero(names == "solver.run"):
            p = parent[i]
            if p >= 0 and names[p] == "sweeps.sweep":
                n = self.run_n[self.spans[i][4]]
                if n in rung_s:
                    rung_s[n] += dur[i]
            if p >= 0 and names[p] == "cli.cmd_run":
                post_run += end[p] - end[i]
        for n, seconds in rung_s.items():
            m[f"sweeps.rung_s.n{n}"] = seconds
        m["cli.post_run_ms"] = 1e3 * post_run
        return m

    def module_self_ms_per_step(self):
        """Self time per module, the step-by-step breakdown printed by run.py."""
        summ = self.summary()
        steps = summ.get("solver.step", (0, 0.0, 0.0))[0] or 1
        out = Counter()
        for name, (_, _, self_s) in summ.items():
            out[name.split(".")[0]] += 1e3 * self_s / steps
        return dict(out)

    def write(self, path):
        """Write every span as TSV: id, name, start, end, parent, run id, self."""
        self_t = self._arrays()[-1]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\trun_id\tself_ms\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[0]}\t{s[1]:.9f}\t{s[2]:.9f}\t{s[3]}\t{s[4]}\t"
                         f"{1e3 * self_t[i]:.6f}\n")
