"""One benchmark child process: set up a workload, measure it, print JSON.

Started by ``run.py``; not meant to be run by hand.  The parent passes
its ``time.monotonic()`` reading taken just before the spawn, so the
reported ``setup_s`` covers interpreter start, imports and the
workload's own set-up.  Modes: ``measure`` (set up, then measure for
``--budget`` seconds) and ``setup`` (set up only).  The last stdout line
is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def kernel_config() -> dict:
    """The engine configuration this process resolved (pinned by run.py)."""
    from repro.bnn import autotune
    from repro.bnn.pipeline import pipeline_mode

    params = autotune.get_params()
    return {"dispatch_macs": params.dispatch_macs,
            "conv_block_bytes": params.conv_block_bytes,
            "autotune_source": params.source, "pipeline": pipeline_mode()}


def run_child(args: argparse.Namespace) -> dict:
    import probes
    import spec as bench_spec
    import tracing
    from checks import CheckFailed
    from workloads import WORKLOADS

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        probes.install(tracer)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.tracer = tracer
    try:
        workload.setup()
        out: dict = {"setup_s": time.monotonic() - args.spawned_at,
                     "engine": kernel_config()}
        if args.mode == "setup":
            return out
        estimates = workload.run(args.budget, traced=bool(args.trace))
        out.update(estimates=estimates, attempted=workload.attempted,
                   failed=workload.failed, rss_mb=workload.peak_rss_mb,
                   detail=workload.detail)
        if tracer is not None:
            names = bench_spec.metric_names(
                bench_spec.load(os.path.join(ROOT, "BENCHMARK.json")),
                trace=True)
            out["per_layer"] = probes.derive(tracer.spans, names,
                                             workload.supplied)
            out["layer_shares"] = probes.layer_shares(tracer.spans)
            out["spans"] = len(tracer.spans)
        return out
    except CheckFailed as exc:
        return {"error": f"check failed: {exc}"}
    finally:
        workload.close()
        if tracer is not None:
            tracer.restore()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("measure", "setup"),
                        default="measure")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    try:
        out = run_child(args)
    except Exception:  # noqa: BLE001 - reported to the parent, which fails
        out = {"error": traceback.format_exc()}
    print(json.dumps(out))
    return 0 if "error" not in out else 1


if __name__ == "__main__":
    sys.exit(main())
