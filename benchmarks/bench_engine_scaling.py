"""Engine scaling benchmark: replica batching and sharded fleets (specs/s).

Standalone script (like ``bench_perf_kernel.py``).  Both sections run on
the same 3x3x2 mesh with elevator columns (0, 0) and (2, 2), time a
scheduling change of :class:`~repro.exec.batch.ExperimentBatch` against
its plain run, and require the two runs' caches to be **byte-identical**
(the bench fails hard if any byte differs):

* **Replicas** -- 16 seed replicas of one ``elevator_first`` spec at rate
  0.004 (per-spec seeds, ``vectorized`` backend) run once solo and once
  with ``replica_batch=16``, so all of them share one multi-replica kernel
  pass.
* **Fleet** -- ``elevator_first`` and ``cda`` at 16 rates each, run
  unsharded, then split ``1/4 .. 4/4`` into per-shard caches that
  ``merge_results`` folds together.  Shards run as concurrent processes
  when the host has at least 4 cores.  Otherwise they run one after
  another and the fleet wall time is *modelled* as slowest shard + merge
  (sharding exists to put each slice on its own host);
  ``fleet.concurrent`` and ``cpu_count`` in the JSON say which.

Everything lands in ``benchmarks/results/BENCH_engine_scaling.json``.

Run directly (the CI windows, then the defaults for a real number)::

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py \\
        --warmup 20 --measure 150 --drain 100 --require-speedup 2
    PYTHONPATH=src python benchmarks/bench_engine_scaling.py

``--require-speedup X`` exits 1 unless both the batched/solo and the
fleet/unsharded specs/s ratios reach X.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import platform
import shutil
import subprocess
import tempfile
import time
from typing import Dict, List, Optional

from repro.exec.aggregate import merge_results
from repro.exec.batch import ExperimentBatch, clear_setup_memo
from repro.exec.cache import ResultCache
from repro.exec.shard import ShardSpec
from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULT_FILE = os.path.join(RESULTS_DIR, "BENCH_engine_scaling.json")

MESH = (3, 3, 2)
ELEVATOR_COLUMNS = ((0, 0), (2, 2))
REPLICA_POLICY = "elevator_first"
REPLICA_RATE = 0.004
REPLICA_SEEDS = 16
FLEET_POLICIES = ("elevator_first", "cda")
FLEET_RATES = [0.001 + 0.0005 * index for index in range(16)]
FLEET_BASE_SEED = 11
FLEET_SHARDS = 4
FLEET_CHUNK_SIZE = 4


def _spec(
    args: argparse.Namespace, name: str, policy: str, rate: float, **sim
) -> ExperimentSpec:
    return ExperimentSpec(
        placement=PlacementSpec(name=name, mesh=MESH, columns=ELEVATOR_COLUMNS),
        policy=PolicySpec(name=policy),
        traffic=TrafficSpec(pattern="uniform", injection_rate=rate),
        sim=SimSpec(
            warmup_cycles=args.warmup,
            measurement_cycles=args.measure,
            drain_cycles=args.drain,
            **sim,
        ),
    )


def replica_grid(args: argparse.Namespace) -> List[ExperimentSpec]:
    # Per-spec seeds, deliberately NOT a base_seed: derived seeds collapse
    # seed-only grids into one deduplicated task, which is exactly the
    # workload replica batching does *not* target.
    return [
        _spec(args, "bench-replicas", REPLICA_POLICY, REPLICA_RATE,
              seed=100 + index, backend="vectorized")
        for index in range(REPLICA_SEEDS)
    ]


def fleet_grid(args: argparse.Namespace) -> List[ExperimentSpec]:
    return [
        _spec(args, "bench-sweep", policy, rate)
        for policy in FLEET_POLICIES
        for rate in FLEET_RATES
    ]


def _cache_bytes(directory: str) -> Dict[str, bytes]:
    contents = {}
    for name in sorted(os.listdir(directory)):
        if not name.startswith("manifest-"):
            with open(os.path.join(directory, name), "rb") as handle:
                contents[name] = handle.read()
    return contents


def _require_identical(expected_dir: str, actual_dir: str, what: str) -> bool:
    if _cache_bytes(actual_dir) != _cache_bytes(expected_dir):
        raise SystemExit(f"BENCH FAILURE: {what} is not byte-identical")
    return True


def _timed_run(batch: ExperimentBatch) -> float:
    start = time.perf_counter()
    batch.run()
    return time.perf_counter() - start


def bench_replicas(args: argparse.Namespace, workdir: str) -> Dict:
    grid = replica_grid(args)
    arms = {}
    for arm, width in (("sequential", 1), ("batched", REPLICA_SEEDS)):
        clear_setup_memo()
        batch = ExperimentBatch(
            grid,
            result_cache=ResultCache(os.path.join(workdir, arm)),
            replica_batch=width,
        )
        seconds = _timed_run(batch)
        arms[arm] = {
            "replica_batch": width,
            "executed": batch.last_executed,
            "replica_groups": batch.last_replica_groups,
            "setup_seconds": batch.last_setup_s,
            "kernel_seconds": batch.last_kernel_s,
            "memo_hits": batch.last_memo_hits,
            "memo_misses": batch.last_memo_misses,
            "seconds": seconds,
            "specs_per_second": len(grid) / seconds,
        }
    return {
        "grid_specs": len(grid),
        "policy": REPLICA_POLICY,
        "injection_rate": REPLICA_RATE,
        **arms,
        "speedup": (
            arms["batched"]["specs_per_second"]
            / arms["sequential"]["specs_per_second"]
        ),
        "bit_identical": _require_identical(
            os.path.join(workdir, "sequential"), os.path.join(workdir, "batched"),
            "grouped replica cache vs the solo cache",
        ),
    }


def _run_shard(
    args: argparse.Namespace, shard_index: int, shard_count: int, cache_dir: str
) -> Dict:
    """One shard's slice, cold, into its own cache (fleet worker)."""
    batch = ExperimentBatch(
        fleet_grid(args),
        base_seed=FLEET_BASE_SEED,
        shard=(
            ShardSpec(index=shard_index, count=shard_count)
            if shard_count > 1 else None
        ),
        chunk_size=FLEET_CHUNK_SIZE,
        result_cache=ResultCache(cache_dir),
    )
    return {
        "shard": f"{shard_index}/{shard_count}",
        "seconds": _timed_run(batch),
        "executed": batch.last_executed,
    }


def bench_fleet(args: argparse.Namespace, workdir: str, cpu_count: int) -> Dict:
    grid_specs = len(fleet_grid(args))
    clear_setup_memo()  # the unsharded baseline starts as cold as the replicas
    full_dir = os.path.join(workdir, "full")
    baseline = _run_shard(args, 1, 1, full_dir)
    baseline_specs_per_s = grid_specs / baseline["seconds"]

    shards = FLEET_SHARDS
    numbers = range(1, shards + 1)
    shard_dirs = [os.path.join(workdir, f"shard-{k}") for k in numbers]
    concurrent_mode = cpu_count >= shards
    fleet_start = time.perf_counter()
    if concurrent_mode:
        with concurrent.futures.ProcessPoolExecutor(shards) as pool:
            shard_rows = list(pool.map(
                _run_shard, [args] * shards, numbers, [shards] * shards,
                shard_dirs,
            ))
    else:
        shard_rows = [
            _run_shard(args, k, shards, shard_dirs[k - 1]) for k in numbers
        ]
    fleet_measured_wall = time.perf_counter() - fleet_start

    merged_dir = os.path.join(workdir, "merged")
    merge_start = time.perf_counter()
    report = merge_results(shard_dirs, merged_dir)
    merge_seconds = time.perf_counter() - merge_start

    # Independent-hosts model: each shard on its own machine, so the fleet
    # finishes when the slowest shard does, plus the merge.
    if concurrent_mode:
        fleet_wall = fleet_measured_wall + merge_seconds
    else:
        fleet_wall = max(row["seconds"] for row in shard_rows) + merge_seconds
    fleet_specs_per_s = grid_specs / fleet_wall
    return {
        "grid_specs": grid_specs,
        "policies": list(FLEET_POLICIES),
        "base_seed": FLEET_BASE_SEED,
        "baseline": {
            "seconds": baseline["seconds"],
            "specs_per_second": baseline_specs_per_s,
        },
        "shards": shards,
        "concurrent": concurrent_mode,
        "model": (
            "measured concurrent wall + merge" if concurrent_mode
            else "independent hosts: slowest shard + merge"
        ),
        "per_shard": shard_rows,
        "merge_seconds": merge_seconds,
        "merged_results": report.results,
        "wall_seconds": fleet_wall,
        "specs_per_second": fleet_specs_per_s,
        "speedup": fleet_specs_per_s / baseline_specs_per_s,
        "bit_identical": _require_identical(
            full_dir, merged_dir, "merged shard cache vs the unsharded cache"
        ),
    }


def _commit() -> Optional[str]:
    """The checkout's commit, suffixed ``-dirty`` when the tree has edits."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(__file__) or ".",
            text=True, capture_output=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def bench(args: argparse.Namespace) -> Dict:
    cpu_count = os.cpu_count() or 1
    workdir = tempfile.mkdtemp(prefix="bench-scaling-")
    try:
        return {
            "benchmark": "engine_scaling",
            "commit": _commit(),
            "python": platform.python_version(),
            "cpu_count": cpu_count,
            "mesh": list(MESH),
            "elevator_columns": [list(column) for column in ELEVATOR_COLUMNS],
            "cycles": {
                "warmup": args.warmup,
                "measure": args.measure,
                "drain": args.drain,
            },
            "replicas": bench_replicas(args, os.path.join(workdir, "replicas")),
            "fleet": bench_fleet(args, os.path.join(workdir, "fleet"), cpu_count),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warmup", type=int, default=100)
    parser.add_argument("--measure", type=int, default=400)
    parser.add_argument("--drain", type=int, default=300)
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X",
                        help="exit 1 unless both specs/s ratios are >= X")
    parser.add_argument("--output", default=RESULT_FILE)
    args = parser.parse_args()

    document = bench(args)
    os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    replicas, fleet = document["replicas"], document["fleet"]
    print(f"cpu_count={document['cpu_count']}  mesh {tuple(document['mesh'])}")
    print(f"replicas ({replicas['grid_specs']} seeds): "
          f"solo {replicas['sequential']['specs_per_second']:.2f} specs/s, "
          f"batched ({replicas['batched']['replica_groups']} group(s)) "
          f"{replicas['batched']['specs_per_second']:.2f} specs/s")
    print(f"fleet ({fleet['grid_specs']} specs, {fleet['shards']} shards, "
          f"{fleet['model']}): unsharded "
          f"{fleet['baseline']['specs_per_second']:.2f} specs/s, fleet "
          f"{fleet['specs_per_second']:.2f} specs/s "
          f"(incl. {fleet['merge_seconds']:.3f}s merge)")

    failed = False
    for name, section in (("replicas", replicas), ("fleet", fleet)):
        print(f"{name} speedup: {section['speedup']:.2f}x  "
              f"bit_identical: {section['bit_identical']}")
        if args.require_speedup is not None and section["speedup"] < args.require_speedup:
            print(f"FAIL: {name} speedup {section['speedup']:.2f}x < "
                  f"required {args.require_speedup}x")
            failed = True
    print(f"wrote {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
