"""The mhdlab benchmark.

Run from the repository root:

    python3 bench/run.py --workload certified_run_64 --seed 0 --seconds 20 --trace 0

Each repetition of a workload runs in a fresh process (so peak RSS is per
workload) with one BLAS thread and one FFT worker; repetitions continue until
``--seconds`` have passed and at least three have run.  With ``--trace 0``
the result holds the end-to-end metrics; with ``--trace 1`` every repetition
is traced and the result holds the per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Per-repetition details,
the environment and (traced) every span go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, fingerprint_mismatch  # noqa: E402

MIN_REPS = 3
MIN_TRACED_REPS = 2
TIME_LIMIT_S = 170.0  # a whole run, every repetition included, ends within 3 minutes
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of the program)."""


def machine(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown"
    if os.path.exists(os.path.join(root, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "git": rev}


def spawn(root, workload, seed, traced, tag, deadline):
    """Run one repetition in a fresh process; returns its result dict."""
    out = os.path.join(root, ".bench_out")
    os.makedirs(out, exist_ok=True)
    name = f"{workload}-{os.getpid()}-{tag}"
    result_path = os.path.join(out, f"{name}.json")
    workdir = os.path.join(out, f"{name}.work")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
           "--workdir", workdir, "--result", result_path]
    if traced:
        cmd += ["--spans", os.path.join(out, f"spans-{workload}-{tag}.tsv")]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **THREAD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a repetition could start")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {tag} exceeded the time limit") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"repetition {tag} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    try:
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.remove(result_path)


def judge(rep, reference, workload, seed):
    """Why a repetition failed, or None: MhdError, a gate, or the reference."""
    if rep["error"]:
        return rep["error"]
    bad = [k for k, ok in rep["gates"].items() if not ok]
    if bad:
        return "gate failed: " + ", ".join(bad)
    ref = reference.get(workload, {}).get(str(WORKLOADS[workload].variant(seed)))
    if ref is None:
        return "no reference recorded for this input"
    return fingerprint_mismatch(rep["fingerprints"], ref)


def end_to_end(reps):
    """Medians over the repetitions that completed, and step percentiles.

    Each repetition is a fresh process, so setup_s is a median of cold set-ups.

    Every repetition runs the same steps, so each step's interval is first
    averaged over the repetitions and the percentiles are taken over steps.
    Other tenants of a shared machine can slow whole stretches of a run; a
    percentile of the pooled intervals jumps with the share of slowed steps,
    while this one moves with it smoothly.
    """
    good = [r for r in reps if not r["error"]]
    if not good:
        return None
    if len({len(r["step_ms"]) for r in good}) != 1:
        raise BenchError("repetitions ran different numbers of steps")
    steps = np.mean([r["step_ms"] for r in good], axis=0)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "run_s": statistics.median(r["run_s"] for r in good),
        "step_ms_p50": float(np.percentile(steps, 50)),
        "step_ms_p90": float(np.percentile(steps, 90)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }


def per_layer(reps):
    """Medians over the traced repetitions that completed."""
    good = [r for r in reps if not r["error"]]
    if not good:
        return None
    return {name: statistics.median(r["layers"][name] for r in good)
            for name in good[0]["layers"]}


def measure(root, workload, seed, seconds, trace, reference, units):
    """Run, check and print one workload; returns the exit status."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    need = MIN_TRACED_REPS if trace else MIN_REPS
    reps = []
    try:
        while len(reps) < need or time.monotonic() - start < seconds:
            reps.append(spawn(root, workload, seed, bool(trace), len(reps), deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [judge(r, reference, workload, seed) for r in reps]
    for i, why in enumerate(failures):
        if why:
            print(f"repetition {i} failed: {why}")
    failed = sum(1 for why in failures if why)
    correct = failed == 0

    if trace:
        first, *rest = [r["counts"] for r in reps]
        for i, counts in enumerate(rest, 1):
            diff = sorted(k for k in set(first) | set(counts)
                          if first.get(k) != counts.get(k))
            if diff:
                correct = False
                print(f"traced repetition {i} counts differ from the first: {diff}")
        metrics = per_layer(reps)
        modules = reps[0]["modules_ms_per_step"]
        print("self time by module (ms/step): " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(modules.items(), key=lambda kv: -kv[1])))
    else:
        try:
            metrics = end_to_end(reps)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if metrics is None:
        print("error: no repetition completed", file=sys.stderr)
        return 1

    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares "
              f"{sorted(units)}", file=sys.stderr)
        return 1

    env = {**machine(root), **reps[0]["env"]}
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    print(f"{workload} fail_rate = {failed / len(reps):.6g} "
          f"({failed} of {len(reps)} repetitions)")

    result = {
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=workload, seed=seed, trace=trace,
                  environment=env, repetitions=reps)
    out = os.path.join(root, ".bench_out",
                       f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit so that subprocess.run kills and reaps a running
    # repetition
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mhdlab", "__init__.py")):
        print("error: src/mhdlab not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(measure(root, name, args.seed, args.seconds, args.trace,
                       reference, units) for name in names)


if __name__ == "__main__":
    sys.exit(main())
