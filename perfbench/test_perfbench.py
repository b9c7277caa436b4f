"""Self-tests of the benchmark (no workload is run).

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tree(tracer, spans):
    """Fill a tracer with ``(name, start_ns, end_ns, parent)`` rows."""
    for name, start, end, parent in spans:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.args.append({})
    return tracer


# ---------------------------------------------------------------------- #
# Self-time arithmetic
# ---------------------------------------------------------------------- #
SYNTHETIC = [
    ("workload", 0, 1000, -1),          # 0: root, self 1000-300-500 = 200
    ("core.design", 10, 310, 0),        # 1: self 300-250 = 50
    ("core.precompute", 20, 220, 1),    # 2: self 200
    ("core.search", 230, 280, 1),       # 3: self 50
    ("kernel.run", 400, 900, 0),        # 4: self 500-400 = 100
    ("sim.kernel", 420, 820, 4),        # 5: self 400-100-50 = 250
    ("routing.select", 500, 600, 5),    # 6: self 100
    ("traffic.source_build", 700, 750, 5),  # 7: self 50
]


def test_self_times_of_a_synthetic_tree():
    names, starts, ends, parents = (list(column) for column in zip(*SYNTHETIC))
    own = layers.self_times(names, starts, ends, parents)
    assert own == [200, 50, 200, 50, 100, 250, 100, 50]
    assert sum(own) == ends[0] - starts[0]


def test_layer_self_times_partition_the_root():
    tracer = _tree(layers.SpanTracer(), SYNTHETIC)
    own = layers.layer_self_seconds(tracer)
    assert own == pytest.approx({
        "core": 300e-9, "traffic": 50e-9, "routing": 100e-9,
        "sim": 350e-9, "exec": 200e-9,
    })
    assert sum(own.values()) == pytest.approx(1000e-9)


def test_live_spans_nest_and_sum_to_the_root():
    tracer = layers.SpanTracer()
    with tracer.span("workload"):
        with tracer.span("sim.kernel"):
            with tracer.span("routing.select"):
                pass
        with tracer.span("cache.get") as record:
            record.args["hit"] = True
    assert tracer.parents == [-1, 0, 1, 0]
    own = layers.self_times(tracer.names, tracer.starts, tracer.ends, tracer.parents)
    assert min(own) >= 0
    assert sum(own) == tracer.ends[0] - tracer.starts[0]
    metrics = layers.layer_metrics(tracer, 1.0)
    assert metrics["exec.cache_gets"] == 1 and metrics["exec.cache_hit_ratio"] == 1.0
    assert [record.depth for record in tracer.records()] == [0, 1, 2, 1]


# ---------------------------------------------------------------------- #
# Correctness checks
# ---------------------------------------------------------------------- #
ROW = {
    "average_latency": 41.5, "throughput": 0.02, "packets_delivered": 90.0,
    "packets_created": 100.0, "delivery_ratio": 0.9, "average_hops": 4.2,
    "energy_per_flit": 1.5e-11, "total_energy": 2.0e-8,
}


def test_digest_check_flags_a_perturbed_row():
    expected = {"a": checks.digest(ROW)}
    assert checks.check_rows("sim", [("a", dict(ROW))], expected) == []
    perturbed = dict(ROW, average_hops=4.2000000001)
    failures = checks.check_rows("sim", [("a", perturbed)], expected)
    assert failures == [("a", "output digest differs from the committed one")]
    assert checks.check_rows("sim", [], expected) == [("a", "row expected but not produced")]
    # Other seeds have no digests: conservation only.
    assert checks.check_rows("sim", [("a", perturbed)], None) == []


@pytest.mark.parametrize("change", [
    {"packets_delivered": 101.0, "delivery_ratio": 1.01},
    {"delivery_ratio": 0.8},
    {"average_latency": math.inf},
])
def test_conservation_flags_impossible_rows(change):
    assert checks.check_sim_row(dict(ROW, **change))


def test_conservation_accepts_an_idle_row():
    idle = dict(ROW, packets_delivered=0.0, packets_created=0.0,
                delivery_ratio=1.0, average_latency=math.inf)
    assert checks.check_sim_row(idle) == []


def _design(points, selected=0):
    subsets = [{"0": [i]} for i in range(len(points))]
    return {
        "archive": points, "archive_subsets": subsets,
        "selected_objectives": points[selected], "selected_subsets": subsets[selected],
    }


def test_design_checks():
    assert checks.check_design_row(_design([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])) == []
    assert checks.check_design_row(_design([[1.0, 3.0], [2.0, 3.0]]))
    foreign = dict(_design([[1.0, 3.0], [3.0, 1.0]]), selected_subsets={"0": [7]})
    assert checks.check_design_row(foreign) == ["selected solution is not in the archive"]


def test_committed_digests_cover_every_row_at_the_default_seed():
    table = checks.load_digests()
    for workload in workloads.WORKLOADS:
        entry = table[workload]
        assert entry["seed"] == run.DEFAULT_SEED and entry["pythonhashseed"] == run.HASH_SEED
        labels = [label for label, _ in workloads.generate(workload, run.DEFAULT_SEED)]
        assert sorted(entry["rows"]) == sorted(labels)


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("workload,count", [
    ("paper_sweep", 81), ("large_mesh_seeds", 12), ("offline_design", 11),
])
def test_workloads_are_deterministic_per_seed(workload, count):
    first = workloads.generate(workload, 7)
    again = workloads.generate(workload, 7)
    other = workloads.generate(workload, 8)
    assert len(first) == count
    assert len({label for label, _ in first}) == count
    dump = lambda specs: [(label, spec.to_dict()) for label, spec in specs]  # noqa: E731
    assert dump(first) == dump(again)
    assert dump(first) != dump(other)
    assert [label for label, _ in first] == [label for label, _ in other]


def test_application_load_factors_match_the_registry():
    from repro.traffic.applications import APPLICATION_NAMES, application_spec

    assert dict(workloads.APP_LOAD_FACTORS) == {
        name: application_spec(name).load_factor for name in APPLICATION_NAMES
    }


# ---------------------------------------------------------------------- #
# Metric names
# ---------------------------------------------------------------------- #
def test_metric_names_are_well_formed_and_declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    emitted = set(layers.layer_metrics(layers.SpanTracer(), 1.0))
    emitted.update(child.CHILD_METRICS, run.RUN_METRICS)
    per_layer = [metric["name"] for metric in declared["per_layer"]]
    end_to_end = [metric["name"] for metric in declared["end_to_end"]]
    assert sorted(per_layer) == sorted(emitted)
    assert sorted(end_to_end) == sorted(run.END_TO_END_UNITS)
    for metric in declared["per_layer"] + declared["end_to_end"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert metric["unit"] == run.unit_of(metric["name"])
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
