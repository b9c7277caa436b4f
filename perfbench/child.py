"""One cold workload run in a fresh process; started by ``run.py``.

Modes:

* ``full`` runs the whole workload with one engine worker and a fresh
  cache directory, checks every row (``checks.py``) and writes one JSON
  result: wall time, the monotonic time of the first kernel call (first
  optimizer search for ``offline_design``), peak RSS, failures, model
  outputs and, with ``--trace 1``, the per-layer metrics.
* ``setup`` stops at that first call, so a run can sample set-up time more
  often than it runs the whole workload.
* ``hashprobe`` builds the traffic matrix of every registered application
  model and writes one digest per model; ``run.py`` compares two such
  processes started under different ``PYTHONHASHSEED`` values.

``time.monotonic`` is CLOCK_MONOTONIC on Linux, one clock for every
process, so set-up is measured from the moment ``run.py`` spawned this
process (``--spawned``), interpreter start and ``import repro`` included.
Host-speed calibration (``calibration.py``) starts before any other
import; both intervals are reported in wall and in reference seconds.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402

if __name__ == "__main__":
    calibration.start()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


#: Per-layer metrics read from the engine's MetricsRegistry.
ENGINE_COUNTERS = {
    "exec.replica_groups": "repro_replica_groups_total",
    "exec.memo_hits": "repro_memo_hits_total",
    "exec.memo_misses": "repro_memo_misses_total",
}
#: Per-layer metrics the child adds to ``layers.layer_metrics``.
CHILD_METRICS = ("exec.specs_executed", *ENGINE_COUNTERS, "traffic.packets_created")


class SetupDone(BaseException):
    """Raised at the first kernel call of a ``setup`` run to stop it."""


def _run_workload(workload, specs, cache_dir, registry):
    from repro import api

    if workload == "offline_design":
        return api.run_designs(specs, cache_dir=cache_dir)
    if workload == "large_mesh_seeds":
        return api.run_specs(
            specs, cache_dir=cache_dir, cache_backend="sqlite",
            replica_batch=workloads.REPLICA_BATCH, metrics=registry,
        )
    return api.run_specs(specs, cache_dir=cache_dir, metrics=registry)


def model_outputs(rows):
    """AdEle over Elevator-First: mean per-pair latency and energy ratios.

    Pairs are rows whose labels differ only in the policy; pairs where
    either side delivered nothing (infinite latency) are left out.
    """
    by_label = dict(rows)
    latency, energy = [], []
    for label, row in rows:
        parts = label.split("/")
        if len(parts) < 3 or parts[1] != "adele":
            continue
        base = by_label.get("/".join([parts[0], "elevator_first"] + parts[2:]))
        if base is None:
            continue
        if 0 < base["average_latency"] < float("inf") and row["average_latency"] < float("inf"):
            latency.append(row["average_latency"] / base["average_latency"])
        if base.get("energy_per_flit") and row.get("energy_per_flit") is not None:
            energy.append(row["energy_per_flit"] / base["energy_per_flit"])
    return {
        "routing.adele_vs_ef_latency": _mean(latency),
        "routing.adele_vs_ef_energy": _mean(energy),
        "pairs": len(latency),
    }


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def full_run(args, result):
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import chrome_trace_document, install_tracer

    import layers

    labelled = workloads.generate(args.workload, args.seed)
    labels = [label for label, _ in labelled]
    specs = [spec for _, spec in labelled]
    result["attempted"] = len(specs)
    registry = MetricsRegistry()
    tracer = None
    if args.trace:
        tracer = install_tracer(layers.SpanTracer())
        layers.install_layer_spans(tracer)

    def first_call():
        result["setup"] = calibration.reference_seconds(args.spawned, time.monotonic())
        if args.mode == "setup":
            raise SetupDone()

    layers.install_first_call_hook(args.workload, first_call)
    cache_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        start = time.monotonic()
        if tracer is not None:
            with tracer.span(layers.ROOT):
                outcomes = _run_workload(args.workload, specs, cache_dir, registry)
        else:
            outcomes = _run_workload(args.workload, specs, cache_dir, registry)
        result["run"] = calibration.reference_seconds(start, time.monotonic())
    except SetupDone:
        return
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    kind = "design" if args.workload == "offline_design" else "sim"
    if kind == "design":
        rows = [(label, checks.design_row(o.design)) for label, o in zip(labels, outcomes)]
    else:
        rows = [(label, dict(o.summary)) for label, o in zip(labels, outcomes)]
    expected = checks.expected_digests(
        args.workload, args.seed, os.environ.get("PYTHONHASHSEED", "")
    )
    failures = checks.check_rows(kind, rows, expected)
    result["digests_checked"] = expected is not None
    result["failures"] = [f"{label}: {reason}" for label, reason in failures]
    result["failed"] = len(failures)
    if args.record_digests:
        result["digests"] = {label: checks.digest(row) for label, row in rows}
    executed = sum(1 for o in outcomes if not o.from_cache)
    if kind == "sim":
        result["model"] = model_outputs(rows)
        result["packets_created"] = sum(row["packets_created"] for _, row in rows)
    if tracer is not None:
        root = tracer.names.index(layers.ROOT)
        root_ns = tracer.ends[root] - tracer.starts[root]
        metrics = layers.layer_metrics(tracer, root_ns / 1e9)
        counters = registry.to_dict()
        metrics["exec.specs_executed"] = executed
        for name, counter in ENGINE_COUNTERS.items():
            metrics[name] = _counter(counters, counter)
        metrics["traffic.packets_created"] = result.get("packets_created", 0)
        own = layers.self_times(tracer.names, tracer.starts, tracer.ends, tracer.parents)
        layer_ns = sum(own)
        result["self_time_ok"] = min(own) >= 0 and layer_ns == root_ns
        result["traced_wall_s"] = root_ns / 1e9
        result["layers"] = metrics
        with open(os.path.join(args.workdir, f"trace-{args.workload}.json"), "w") as handle:
            json.dump(chrome_trace_document(tracer.records()), handle)


def _counter(counters, name):
    return sum(series["value"] for series in counters.get(name, {}).get("series", []))


def hash_probe(result):
    from repro.topology.elevators import standard_placement
    from repro.traffic.applications import available_applications, make_application_traffic

    mesh = standard_placement("PS1").mesh
    result["apps"] = {
        name: hashlib.sha256(
            json.dumps(sorted(make_application_traffic(name, mesh, seed=1)
                              .traffic_matrix().items())).encode()
        ).hexdigest()
        for name in available_applications()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("full", "setup", "hashprobe"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="monotonic time at which run.py started this process")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    result = {"failed": 0, "attempted": 0}
    try:
        if args.mode == "hashprobe":
            hash_probe(result)
        else:
            full_run(args, result)
        import numpy

        result["numpy"] = numpy.__version__
    except Exception:  # the run's boundary: report, never hide
        result["error"] = traceback.format_exc()
        result["failed"] = result["attempted"]
    calibration.stop()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
