#!/usr/bin/env python3
"""Counter determinism check of the end-to-end benchmark.

    python3 e2ebench/check_counters.py [workload ...]

Runs each workload (all four by default) twice as a traced run at reduced
length (one set-up, two episodes) and requires:

  * the result check to pass in both runs (correct, no failed steps);
  * every counter below to be exactly equal between the two runs;
  * core.plan_builds == core.staging_allocs == 0 over the timed steps;
  * comm.msgs_per_step on mgcfd_wire below that on mgcfd_wire_op2
    (the wire workload really groups the chain's messages).

Exits 0 when everything holds and 1 otherwise, listing each violation.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build helper)

WORKLOADS = ["mgcfd_wire", "mgcfd_wire_op2", "hydra_rk", "hydra_rk_threads"]
EXACT = [
    "partition.edge_cut", "halo.import_elems",
    "comm.msgs_per_step", "comm.bytes_per_step", "comm.max_msg_bytes",
    "comm.max_neighbors", "core.core_iters", "core.halo_iters",
    "core.redundant_elems", "core.dispatch_regions", "core.max_colours",
    "core.plan_builds", "core.staging_allocs", "util.chunks",
] + [f"hydra.{c}.msgs" for c in ("gradl", "vflux", "iflux", "jacob",
                                 "period")]
ZERO_AT_STEADY_STATE = ["core.plan_builds", "core.staging_allocs"]


def traced_run(binary, workload):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1", "--episodes", "2", "--setups", "1"],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"{workload}: exit {out.returncode}: "
                           f"{out.stderr.strip()}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    binary = run.build()
    errors = []
    msgs = {}
    for wl in sys.argv[1:] or WORKLOADS:
        (r1, m1), (r2, m2) = traced_run(binary, wl), traced_run(binary, wl)
        for r in (r1, r2):
            if not r["correct"] or r["failed"]:
                errors.append(f"{wl}: result check failed ({r['failed']} "
                              f"of {r['attempted']} steps)")
        for k in EXACT:
            if m1[k] != m2[k]:
                errors.append(f"{wl}: {k} differs between runs: "
                              f"{m1[k]} vs {m2[k]}")
        for k in ZERO_AT_STEADY_STATE:
            if m1[k] != 0:
                errors.append(f"{wl}: {k} = {m1[k]} at steady state "
                              "(expected 0)")
        msgs[wl] = m1["comm.msgs_per_step"]
        print(f"{wl}: msgs/step {m1['comm.msgs_per_step']:g}, "
              f"bytes/step {m1['comm.bytes_per_step']:g}, redundant "
              f"{m1['core.redundant_elems']:g}, staging_allocs "
              f"{m1['core.staging_allocs']:g}")
    if {"mgcfd_wire", "mgcfd_wire_op2"} <= msgs.keys() and \
            not msgs["mgcfd_wire"] < msgs["mgcfd_wire_op2"]:
        errors.append("mgcfd_wire sends no fewer messages per step than "
                      "mgcfd_wire_op2")
    for e in errors:
        print("FAIL", e)
    print("counter check:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
