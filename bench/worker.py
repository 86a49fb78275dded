"""One repetition of one workload, in a fresh process.

Started by run.py with ``src`` on PYTHONPATH and the thread counts set in
the environment; writes its measurements as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter


def environment():
    import numpy as np
    import scipy
    import scipy.fft

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "fft_workers": scipy.fft.get_workers(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import mhdlab
    from mhdlab.errors import MhdError

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(mhdlab.__file__), src]) != src:
        sys.exit(f"mhdlab imported from {mhdlab.__file__}, not from {src}")

    from hooks import StepClock, Tracer
    from workloads import WORKLOADS, fingerprint

    workload = WORKLOADS[args.workload]
    tracer = Tracer().install() if args.trace else None
    clock = StepClock().install()

    os.makedirs(args.workdir)  # run.py removes it after this process ends
    variant = workload.variant(args.seed)
    inputs = workload.prepare(variant, args.workdir)
    error = None
    t0 = perf_counter()
    try:
        outcome = workload.run(inputs, args.workdir)
    except MhdError as exc:
        error = f"{type(exc).__name__}: {exc}"
    t1 = perf_counter()
    gates = {} if error else {
        k: bool(ok) for k, ok in workload.check(outcome, clock.finals).items()}

    result = {
        "error": error,
        "gates": gates,
        "setup_s": None if clock.first_step is None else clock.first_step - t0,
        "run_s": None if clock.first_step is None else t1 - clock.first_step,
        "step_ms": clock.intervals_ms(workload.last_run_steps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "fingerprints": [fingerprint(s) for s in clock.finals],
        "env": environment(),
    }
    if tracer is not None:
        # the wrappers' own cost: one calibrated per-call cost for every span
        cost = len(tracer.spans) * tracer.span_cost_s()
        result["layers"] = {**tracer.metrics(),
                            "trace.overhead_frac": cost / (t1 - t0 - cost)}
        result["modules_ms_per_step"] = tracer.module_self_ms_per_step()
        result["counts"] = tracer.exact_counts()
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
