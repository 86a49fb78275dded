"""Record reference.json: the final-field fingerprints of every workload on
every input variant, at the current commit.

Run from the repository root:

    python3 bench/record.py

It first checks that variant 0 parses to exactly the fields of
configs/smooth.ini, and refuses to record if any correctness gate fails.
Re-record only when a change is meant to alter the numerical results, and
say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

from run import spawn  # noqa: E402
from workloads import VARIANTS, WORKLOADS, config_text  # noqa: E402


def check_variant_zero():
    from mhdlab.config import load_config, parse_config

    ours = parse_config(config_text(0))
    shipped = load_config(os.path.join("configs", "smooth.ini"))
    a, b = ours.build_initial_data(), shipped.build_initial_data()
    same = all(
        np.array_equal(x, y) for x, y in [
            (a.rho0.values, b.rho0.values), (a.b0.values, b.b0.values),
            (a.theta0.values, b.theta0.values), (a.u0.vx, b.u0.vx), (a.u0.vy, b.u0.vy),
        ]
    ) and (ours.reg, ours.eos, ours.schedule, ours.grid) == (
        shipped.reg, shipped.eos, shipped.schedule, shipped.grid)
    if not same:
        sys.exit("variant 0 does not reproduce configs/smooth.ini")


def main():
    check_variant_zero()
    reference = {}
    for workload, spec in WORKLOADS.items():
        variants = sorted({spec.variant(s) for s in range(VARIANTS)})
        reference[workload] = {}
        for v in variants:
            rep = spawn(os.getcwd(), workload, v, False, f"record{v}",
                        time.monotonic() + 600)
            bad = rep["error"] or [k for k, ok in rep["gates"].items() if not ok]
            print(f"{workload} variant {v}: run_s {rep['run_s']:.2f} "
                  f"{'FAIL ' + str(bad) if bad else 'ok'}", flush=True)
            if bad:
                sys.exit(f"{workload} variant {v} failed its gate; not recording")
            reference[workload][str(v)] = rep["fingerprints"]
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
