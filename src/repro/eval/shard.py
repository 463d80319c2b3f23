"""Sharded, resumable design-space sweeps over the work-queue fleet.

:func:`repro.eval.sweep.run_sweep` evaluates one grid through one queue
namespace and hands back one in-memory result — right at 10^4 points,
wrong at 10^7.  This module is the at-scale path:

* :func:`plan_shards` splits a :class:`~repro.eval.sweep.SweepGrid` into
  independently-queued **partitions**, each its own full queue layout
  (``part-NNNN/`` under one sweep root) that any worker pointed at the
  root discovers and drains like a ``run-*`` namespace.
* Every task carries its **content-addressed identity**
  (:func:`repro.eval.columnar.task_identity` — a stable hash of the
  design point, its seed and the record schema version), and every
  published row carries it too.  Planning therefore *resumes*: points
  whose identities are already published in the sweep root's columnar
  store are skipped, never recomputed — whether the previous run was
  killed, the grid was extended, or the same sweep was submitted twice.
* Drained partitions fold into the root's **append-only columnar store**
  (:mod:`repro.eval.columnar`) one segment per partition, and the final
  :class:`~repro.eval.sweep.SweepResult` is assembled in **one pass**
  over the segments, each row placed at its grid position — segments
  stream one at a time, so aggregation never needs the queue namespaces
  again (they are retired as they drain).

Crash safety follows one ordering rule: a partition's results are read
from the queue, durably appended to the columnar store, and only then is
the partition namespace removed.  A crash between append and removal
leaves a namespace whose results are already published — the next
:func:`prepare_sweep` *salvages* it (appending only rows whose identity
is still unpublished, i.e. nothing) and retires it.  A crash before the
append loses nothing: the identities stay unpublished and re-plan.

Resume assumes the previous submitter is gone and no worker holds a live
lease on the root (see ``docs/multihost-runbook.md``).

CLI: ``python -m repro.eval.shard <root> --networks MLP-S --partitions 8
--out sweep.json`` runs (or resumes) a sharded sweep inline;
``--status`` reports the columnar store and pending-point counts without
executing anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.eval.columnar import (
    RECORD_SCHEMA_VERSION,
    ColumnarStore,
    array_to_sweep_records,
    sweep_records_to_array,
    task_identity,
)
from repro.eval.sweep import (
    SweepGrid,
    SweepPointSpec,
    SweepRecord,
    SweepResult,
    evaluate_point,
    write_sweep_json,
)
from repro.runtime import janitor
from repro.runtime.queue import (
    PART_PREFIX,
    StoreLike,
    collect_results,
    enqueue_task,
    init_queue_dirs,
    partition_namespace,
    serve,
    write_shared_fn,
)
from repro.runtime.store import QueueStore, resolve_store
from repro.runtime.tasks import Task

#: environment variable setting the default partition count fleet-wide
SWEEP_PARTITIONS_ENV = "REPRO_SWEEP_PARTITIONS"

DEFAULT_PARTITIONS = 8

#: subdirectory of a sweep root holding the columnar result store
COLUMNAR_DIR = "columnar"

#: one identified task: ``(identity, spec)`` — the identity rides the
#: queue with the point and comes back attached to the published record
IdentifiedPoint = Tuple[str, SweepPointSpec]


def default_partitions() -> int:
    """Partition count from :data:`SWEEP_PARTITIONS_ENV` (default 8)."""
    value = os.environ.get(SWEEP_PARTITIONS_ENV, "").strip()
    if not value:
        return DEFAULT_PARTITIONS
    count = int(value)
    if count < 1:
        raise ValueError(
            f"{SWEEP_PARTITIONS_ENV}={value!r} must be >= 1"
        )
    return count


def identified_points(grid: SweepGrid, *,
                      schema_version: int = RECORD_SCHEMA_VERSION
                      ) -> List[IdentifiedPoint]:
    """Grid points in row-major order, each with its task identity."""
    return [(task_identity(spec, schema_version=schema_version), spec)
            for spec in grid.points()]


def evaluate_identified_point(pair: IdentifiedPoint
                              ) -> Tuple[str, SweepRecord]:
    """The shared task callable of every partition.

    Takes ``(identity, spec)``, returns ``(identity, record)`` — the
    identity travels with the payload so salvage and aggregation never
    have to re-derive it from the record.
    """
    identity, spec = pair
    return identity, evaluate_point(spec)


@dataclass(frozen=True)
class SweepPartition:
    """One independently-queued slice of a sharded sweep."""

    index: int
    name: str
    points: Tuple[IdentifiedPoint, ...]

    def root(self, sweep_root: str) -> str:
        return os.path.join(sweep_root, self.name)


@dataclass(frozen=True)
class ShardPlan:
    """What :func:`prepare_sweep` queued (and what it skipped).

    ``identified`` holds every grid point in grid order with its task
    identity, published or not, so aggregation reuses the identities the
    planner already computed.
    """

    grid: SweepGrid
    schema_version: int
    partitions: Tuple[SweepPartition, ...]
    identified: Tuple[IdentifiedPoint, ...]
    skipped: int

    @property
    def total_points(self) -> int:
        return len(self.identified)

    @property
    def pending(self) -> int:
        return sum(len(partition.points) for partition in self.partitions)


def plan_shards(grid: SweepGrid, *, partitions: Optional[int] = None,
                published: Optional[Set[str]] = None,
                schema_version: int = RECORD_SCHEMA_VERSION) -> ShardPlan:
    """Split a grid's *unpublished* points into balanced partitions.

    Points whose identity is in ``published`` are skipped — the resume
    semantics.  Pending points split into at most ``partitions``
    contiguous (grid-order) slices of near-equal size; empty slices are
    dropped, so a nearly-complete resume plans only the few partitions
    it still needs.
    """
    if partitions is None:
        partitions = default_partitions()
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    points = identified_points(grid, schema_version=schema_version)
    published = published or set()
    pending = [pair for pair in points if pair[0] not in published]
    shards: List[SweepPartition] = []
    count = min(partitions, len(pending))
    if count:
        base, extra = divmod(len(pending), count)
        start = 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            shards.append(SweepPartition(
                index=index,
                name=os.path.basename(partition_namespace("", index)),
                points=tuple(pending[start:start + size]),
            ))
            start += size
    return ShardPlan(
        grid=grid, schema_version=schema_version,
        partitions=tuple(shards), identified=tuple(points),
        skipped=len(points) - len(pending),
    )


def columnar_store(root: str, *,
                   schema_version: int = RECORD_SCHEMA_VERSION
                   ) -> ColumnarStore:
    """The sweep root's columnar result store (``<root>/columnar/``)."""
    return ColumnarStore(os.path.join(root, COLUMNAR_DIR),
                         schema_version=schema_version)


def _salvage_partitions(root: str, columnar: ColumnarStore,
                        published: Set[str], *,
                        backend: QueueStore) -> int:
    """Fold leftover partition namespaces into the columnar store.

    Every ``part-*`` layout under ``root`` is a remnant of an
    interrupted run: its *published, successful* results whose identity
    is not yet columnar are appended as one segment, then the namespace
    is removed.  Failed/unfinished members simply stay unpublished and
    re-plan.  Returns the number of rows salvaged.
    """
    salvaged = 0
    for layout in backend.list_layouts(root, run_prefix=PART_PREFIX):
        if os.path.normpath(layout) == os.path.normpath(root):
            continue
        rows: List[Tuple[str, SweepRecord]] = []
        for _, (ok, payload) in sorted(
                janitor.result_entries(layout, store=backend).items()):
            if not ok:
                continue
            identity, record = payload
            if identity not in published:
                rows.append((identity, record))
                published.add(identity)
        if rows:
            columnar.append(sweep_records_to_array(rows))
            salvaged += len(rows)
        backend.remove_tree(layout)
    return salvaged


def prepare_sweep(grid: SweepGrid, root: str, *,
                  partitions: Optional[int] = None,
                  schema_version: int = RECORD_SCHEMA_VERSION,
                  point_fn: Optional[Callable] = None,
                  store: StoreLike = None) -> ShardPlan:
    """Repair, salvage, plan and enqueue a sharded sweep under ``root``.

    Idempotent by identity: submitting the same grid into the same root
    twice enqueues nothing the second time.  Steps, in order:

    1. open the columnar store (archiving it wholesale on a schema
       bump) and ``scan(repair=True)``, which reads each segment once to
       verify it and take its identities — torn/orphan segments are
       quarantined and contribute none, so they cannot mask recompute;
    2. salvage leftover ``part-*`` namespaces of an interrupted run
       (durable append first, namespace removal second);
    3. plan: skip published identities, split the rest into at most
       ``partitions`` slices;
    4. enqueue each partition as its own queue layout with the shared
       callable ``point_fn`` (default
       :func:`evaluate_identified_point`; overrides must keep the
       ``(identity, spec) -> (identity, record)`` contract).

    Returns the :class:`ShardPlan`; pass it to
    :func:`drain_and_aggregate` (or let external workers pointed at
    ``root`` drain the partitions meanwhile).
    """
    backend = resolve_store(store)
    columnar = columnar_store(root, schema_version=schema_version)
    published: Set[str] = set()
    columnar.scan(repair=True, identities=published)
    _salvage_partitions(root, columnar, published, backend=backend)
    plan = plan_shards(grid, partitions=partitions, published=published,
                       schema_version=schema_version)
    fn = point_fn if point_fn is not None else evaluate_identified_point
    for partition in plan.partitions:
        part_root = partition.root(root)
        init_queue_dirs(part_root, store=backend)
        write_shared_fn(part_root, fn, store=backend)
        for index, pair in enumerate(partition.points):
            enqueue_task(part_root, Task(index=index, fn=fn, arg=pair),
                         shared_fn=True, store=backend)
    return plan


def drain_and_aggregate(root: str, plan: ShardPlan, *,
                        timeout_s: float = 3600.0,
                        poll_interval_s: float = 0.05,
                        max_retries: Optional[int] = None,
                        compact_threshold: Optional[int] = None,
                        inline: bool = True,
                        store: StoreLike = None) -> SweepResult:
    """Collect every partition, fold it columnar, and aggregate.

    Partitions are collected in order; each drained partition appends
    exactly one columnar segment and then retires its namespace.  With
    ``inline=True`` (the default) every poll cycle also serves a slice
    of the *whole root* in-process — the submitter cooperates with any
    external workers and completes alone when there are none.  The
    final :class:`SweepResult` comes from
    :func:`aggregate_sweep` — i.e. from the columnar store, not from
    queue payloads, so it is identical to what any later reader sees.
    """
    backend = resolve_store(store)
    columnar = columnar_store(root, schema_version=plan.schema_version)
    if inline:
        def inline_worker() -> int:
            return serve(root, max_tasks=32, store=backend,
                         compact_threshold=compact_threshold)
    else:
        inline_worker = None
    for partition in plan.partitions:
        part_root = partition.root(root)
        collect_results(
            part_root, len(partition.points), timeout_s=timeout_s,
            poll_interval_s=poll_interval_s, max_retries=max_retries,
            compact_threshold=compact_threshold,
            inline_worker=inline_worker, store=backend,
        )
        rows = []
        for _, (ok, payload) in sorted(
                janitor.result_entries(part_root, store=backend).items()):
            if ok:
                rows.append(payload)
        columnar.append(sweep_records_to_array(rows))
        backend.remove_tree(part_root)
    return aggregate_sweep(root, plan.grid,
                           schema_version=plan.schema_version,
                           identified=plan.identified)


def run_sharded_sweep(grid: SweepGrid, root: str, *,
                      partitions: Optional[int] = None,
                      schema_version: int = RECORD_SCHEMA_VERSION,
                      point_fn: Optional[Callable] = None,
                      timeout_s: float = 3600.0,
                      poll_interval_s: float = 0.05,
                      max_retries: Optional[int] = None,
                      compact_threshold: Optional[int] = None,
                      inline: bool = True,
                      store: StoreLike = None) -> SweepResult:
    """Run (or resume) a sharded sweep under ``root`` to completion.

    :func:`prepare_sweep` followed by :func:`drain_and_aggregate`; see
    both for the semantics.  Safe to call again after any interruption —
    published identities are never recomputed.
    """
    plan = prepare_sweep(grid, root, partitions=partitions,
                         schema_version=schema_version, point_fn=point_fn,
                         store=store)
    return drain_and_aggregate(root, plan, timeout_s=timeout_s,
                               poll_interval_s=poll_interval_s,
                               max_retries=max_retries,
                               compact_threshold=compact_threshold,
                               inline=inline, store=store)


# --------------------------------------------------------------------------- #
# Aggregation out of the columnar store
# --------------------------------------------------------------------------- #

def aggregate_sweep(root: str, grid: SweepGrid, *,
                    schema_version: int = RECORD_SCHEMA_VERSION,
                    identified: Optional[Sequence[IdentifiedPoint]] = None
                    ) -> SweepResult:
    """Assemble the final :class:`SweepResult` from the columnar store.

    Segments stream one at a time, in append order, and each row lands
    at its identity's grid position in one list sized to the grid; an
    identity published twice (across segments or within one) keeps its
    first row — byte-identical anyway by the determinism contract.  At
    no point is more than that list and one decoded segment in memory.
    Rows whose identity is not in the current grid (a superseded schema,
    a shrunk grid) are ignored; a grid point with *no* published row
    fails loudly with the resume instruction instead of returning a
    silently-partial result.

    ``identified`` is the grid's :func:`identified_points` when the
    caller already has them (a :class:`ShardPlan` does); they are
    computed here otherwise.  A list whose length differs from the
    grid's point count raises :class:`ValueError`.
    """
    if identified is None:
        identified = identified_points(grid, schema_version=schema_version)
    elif len(identified) != grid.num_points:
        raise ValueError(
            f"identified has {len(identified)} points but the grid has "
            f"{grid.num_points}; pass identified_points(grid) of this grid"
        )
    columnar = columnar_store(root, schema_version=schema_version)
    position: Dict[str, int] = {
        identity: index for index, (identity, _) in enumerate(identified)
    }
    records: List[Optional[SweepRecord]] = [None] * len(identified)
    filled = 0
    for arr in columnar.iter_segments():
        for identity, record in array_to_sweep_records(arr):
            index = position.get(identity)
            if index is not None and records[index] is None:
                records[index] = record
                filled += 1
    if filled != len(position):
        missing = len(position) - filled
        raise RuntimeError(
            f"sweep at {root!r} has {missing} of {len(position)} grid "
            f"points unpublished — the sweep is incomplete; resume it "
            f"with run_sharded_sweep(grid, {root!r})"
        )
    if len(position) < len(records):
        # a grid listing one point twice: every copy reads the one row
        records = [records[position[identity]] for identity, _ in identified]
    return SweepResult(grid=grid, records=records)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #

def _build_grid(args: argparse.Namespace) -> SweepGrid:
    kwargs: Dict[str, object] = {
        "networks": tuple(args.networks),
        "designs": tuple(args.designs),
        "crossbar_sizes": tuple(args.crossbar_sizes),
        "wdm_capacities": tuple(args.wdm_capacities),
        "seed": args.seed,
    }
    if args.noise_sigmas:
        kwargs["noise_sigmas"] = tuple(args.noise_sigmas)
    return SweepGrid(**kwargs)


def _status_payload(root: str, grid: SweepGrid,
                    schema_version: int) -> Dict[str, object]:
    """What ``--status`` prints: one read-only scan of the store.

    Torn or orphaned segments are listed under ``scan``, not repaired,
    and a torn segment's rows count as pending: they are the rows the
    next resume quarantines and recomputes.
    """
    columnar = columnar_store(root, schema_version=schema_version)
    published: Set[str] = set()
    scan = columnar.scan(identities=published)
    points = identified_points(grid, schema_version=schema_version)
    pending = sum(1 for identity, _ in points if identity not in published)
    return {
        "rows": columnar.rows,
        "segments": len(columnar.segments()),
        "grid_points": len(points),
        "pending_points": pending,
        "schema_version": schema_version,
        "scan": scan.to_dict(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.eval.shard`` — run/resume/inspect sharded sweeps."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.shard",
        description=(
            "Run (or resume) a sharded design-space sweep under a shared "
            "root: unpublished grid points are planned into part-* queue "
            "partitions, drained (inline and/or by external workers "
            "pointed at the root), folded into the append-only columnar "
            "store, and aggregated into one JSON artifact."
        ),
    )
    parser.add_argument("root", help="sweep root directory (shared mount)")
    parser.add_argument("--networks", nargs="+", default=["MLP-S"],
                        help="evaluation networks (default: MLP-S)")
    parser.add_argument("--designs", nargs="+",
                        default=["baseline_epcm", "einsteinbarrier"],
                        help="design keys to sweep")
    parser.add_argument("--crossbar-sizes", nargs="+", type=int,
                        default=[128, 256], help="crossbar sizes")
    parser.add_argument("--wdm-capacities", nargs="+", type=int,
                        default=[4, 16], help="WDM capacities")
    parser.add_argument("--noise-sigmas", nargs="*", type=float,
                        default=[], help="read-noise sigmas (optional)")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--partitions", type=int, default=None,
                        help=f"partition count (default: "
                             f"${SWEEP_PARTITIONS_ENV} or "
                             f"{DEFAULT_PARTITIONS})")
    parser.add_argument("--store", default=None,
                        help="queue-storage backend (dir|object)")
    parser.add_argument("--timeout", type=float, default=3600.0,
                        help="collection timeout in seconds")
    parser.add_argument("--out", default=None,
                        help="write the final sweep JSON artifact here")
    parser.add_argument("--status", action="store_true",
                        help="report store/pending state, run nothing")
    args = parser.parse_args(argv)

    grid = _build_grid(args)
    if args.status:
        payload = _status_payload(args.root, grid, RECORD_SCHEMA_VERSION)
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    result = run_sharded_sweep(
        grid, args.root, partitions=args.partitions,
        timeout_s=args.timeout, store=args.store,
    )
    if args.out:
        write_sweep_json(args.out, result)
    best = result.best()
    json.dump({
        "records": len(result.records),
        "best_design": best.design,
        "best_speedup_vs_baseline": best.speedup_vs_baseline,
        "out": args.out,
    }, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
