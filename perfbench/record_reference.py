"""Record ``reference.json``: the seed-independent outputs every run checks.

Run from the root of a checkout after a change that is *meant* to alter
simulated results (a model fix, a new grid axis)::

    python3 perfbench/record_reference.py

A change that only makes the program faster must never need this.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from checks import REFERENCE_PATH, array_digest, records_digest  # noqa: E402
from workloads import (  # noqa: E402
    BATCH_CANARY_IMAGES,
    BATCH_CHUNK,
    BATCH_NETWORKS,
    FULL_GRID,
    MODEL_SEED,
    NOISE_SLICE,
    _flip_rate,
    _images,
)


def main() -> int:
    from repro.bnn.model import InferenceEngine
    from repro.bnn.networks import build_network
    from repro.eval.experiments import headline_numbers
    from repro.eval.sweep import SweepGrid, run_sweep

    full = [records_digest(run_sweep(SweepGrid(**FULL_GRID, seed=s)).records)
            for s in (0, 1)]
    if full[0] != full[1]:
        raise SystemExit("analytic records depend on the seed; cannot record")
    reference = {
        "sweep_analytic": {
            "full_grid_digest": full[0],
            "noise_canary_digest": records_digest(
                run_sweep(SweepGrid(**NOISE_SLICE, seed=0)).records),
            "headline": headline_numbers(),
        },
        "batch_infer": {},
    }
    for network, _ in BATCH_NETWORKS:
        model = build_network(network, seed=MODEL_SEED)
        model.eval()
        engine = InferenceEngine(model, flip_rate=_flip_rate(0), seed=0)
        preds = engine.forward_batch(_images(network, BATCH_CANARY_IMAGES, 0),
                                     batch_size=BATCH_CHUNK).argmax(1)
        reference["batch_infer"][f"noisy_{network}"] = array_digest(preds)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
