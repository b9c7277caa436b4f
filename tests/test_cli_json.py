"""Tests for the CLI's machine-readable surfaces.

``--json`` must emit exactly one parseable JSON document on stdout for
``sweep`` / ``compare`` / ``run`` (no human tables mixed in), ``run`` must
print a scenario spec's phase rows and return probe series that match the
library's, ``optimize`` must fan multi-document spec files over the design
batch, and ``cache migrate`` must carry JSON entries into SQLite from the
command line.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.runner import run_experiment
from repro.exec.cli import main
from repro.obs.probes import ProbeSpec
from repro.service.store import SqliteStore
from repro.spec import ExperimentSpec, PlacementSpec, SimSpec, TrafficSpec

TINY = [
    "--mesh", "2", "2", "2", "--elevators", "0,0;1,1",
    "--warmup", "10", "--measure", "40", "--drain", "30",
]


def _capture_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def _spec_file(tmp_path, documents) -> str:
    path = tmp_path / "specs.json"
    path.write_text(json.dumps(documents))
    return str(path)


def _tiny_spec() -> ExperimentSpec:
    return ExperimentSpec(
        placement=PlacementSpec(
            name="cli-json", mesh=(2, 2, 2), columns=((0, 0), (1, 1))
        ),
        traffic=TrafficSpec(pattern="uniform", injection_rate=0.002),
        sim=SimSpec(warmup_cycles=10, measurement_cycles=40, drain_cycles=30),
    )


class TestJsonOutput:
    def test_sweep_json(self, capsys):
        assert main([
            "sweep", *TINY, "--policies", "elevator_first,adele",
            "--rates", "0.001,0.002", "--json",
        ]) == 0
        document = _capture_json(capsys)
        assert document["command"] == "sweep"
        assert document["engine"]["executed"] + document["engine"]["cached"] == 4
        policies = [curve["policy"] for curve in document["curves"]]
        assert policies == ["elevator_first", "adele"]
        for curve in document["curves"]:
            assert len(curve["points"]) == 2
            assert curve["saturation_rate"] > 0

    def test_compare_json(self, capsys):
        assert main([
            "compare", *TINY, "--policies", "elevator_first,cda",
            "--rate", "0.002", "--json",
        ]) == 0
        document = _capture_json(capsys)
        assert document["command"] == "compare"
        assert document["baseline"] == "elevator_first"
        row = document["policies"]["cda"]
        assert "average_latency" in row and "average_latency_norm" in row

    def test_run_json(self, tmp_path, capsys):
        path = _spec_file(tmp_path, [_tiny_spec().to_dict()])
        assert main(["run", "--spec", path, "--json"]) == 0
        document = _capture_json(capsys)
        assert document["command"] == "run"
        (outcome,) = document["outcomes"]
        assert outcome["spec"]["traffic"]["injection_rate"] == 0.002
        assert "average_latency" in outcome["summary"]
        assert isinstance(outcome["key"], str) and not outcome["from_cache"]

    def test_scenario_json(self, tmp_path, capsys):
        document = _tiny_spec().to_dict()
        document["scenario"] = {
            "events": [
                {"kind": "rate_ramp", "cycle": 10, "end_cycle": 30,
                 "start_rate": 0.002, "end_rate": 0.001}
            ]
        }
        path = _spec_file(tmp_path, [document])
        assert main(["run", "--spec", path, "--json"]) == 0
        parsed = _capture_json(capsys)
        assert parsed["command"] == "run"
        assert len(parsed["outcomes"]) == 1

    def test_run_prints_scenario_phase_rows(self, tmp_path, capsys):
        document = _tiny_spec().to_dict()
        document["scenario"] = {
            "events": [{"kind": "elevator_fault", "cycle": 20, "elevator": 0}]
        }
        path = _spec_file(tmp_path, [document])
        assert main(["run", "--spec", path]) == 0
        assert "fault:e0@20" in capsys.readouterr().out

    def test_run_probe_series_match_the_library(self, tmp_path, capsys):
        spec = _tiny_spec()
        path = _spec_file(tmp_path, [spec.to_dict()])
        assert main(["run", "--spec", path, "--json"]) == 0
        plain = _capture_json(capsys)
        assert main([
            "run", "--spec", path, "--probe-interval", "10",
            "--probe-channels", "in_flight_flits", "--json",
        ]) == 0
        probed = _capture_json(capsys)
        (outcome,) = probed["outcomes"]
        expected = run_experiment(
            spec, probe=ProbeSpec(10, ("in_flight_flits",))
        ).probe.to_dict()
        assert probed["probes"] == {outcome["key"]: expected}
        assert outcome["summary"] == plain["outcomes"][0]["summary"]

    def test_json_reruns_hit_the_sqlite_cache(self, tmp_path, capsys):
        args = [
            "compare", *TINY, "--policies", "elevator_first",
            "--rate", "0.002", "--json",
            "--cache-dir", str(tmp_path), "--cache-backend", "sqlite",
        ]
        assert main(args) == 0
        first = _capture_json(capsys)
        assert main(args) == 0
        second = _capture_json(capsys)
        # The engine block shape is pinned: counters plus the observability
        # timings/memo counts that ride along in every document (the timing
        # floats themselves are nondeterministic, so only their type is).
        expected_keys = {
            "executed", "cached", "workers",
            "setup_s", "kernel_s", "memo_hits", "memo_misses",
        }
        for engine, executed, cached in (
            (first["engine"], 1, 0), (second["engine"], 0, 1),
        ):
            assert set(engine) == expected_keys
            assert engine["executed"] == executed
            assert engine["cached"] == cached
            assert engine["workers"] == 1
            assert isinstance(engine["setup_s"], float)
            assert isinstance(engine["kernel_s"], float)
            assert isinstance(engine["memo_hits"], int)
            assert isinstance(engine["memo_misses"], int)
        # One executed task means exactly one setup-memo lookup; whether it
        # hits depends on what earlier tests warmed in this process.
        first_memo = first["engine"]["memo_hits"] + first["engine"]["memo_misses"]
        assert first_memo >= 1
        assert second["engine"] == {
            **second["engine"], "setup_s": 0.0, "kernel_s": 0.0,
            "memo_hits": 0, "memo_misses": 0,
        }
        assert first["policies"] == second["policies"]


class TestOptimizeGrid:
    def test_multi_document_spec_file_fans_out(self, tmp_path, capsys):
        placement = {
            "name": "cli-grid", "mesh": [2, 2, 2], "columns": [[0, 0], [1, 1]]
        }
        path = _spec_file(tmp_path, [
            {"placement": placement, "optimizer": "greedy-swap"},
            {"placement": placement, "optimizer": "greedy-swap",
             "max_subset_size": 1},
        ])
        assert main(["optimize", "--spec", path, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 optimized, 0 served from cache (2 workers)" in out

    def test_single_document_output_is_unchanged(self, tmp_path, capsys):
        # CI smoke greps these exact strings; the grid path must not leak
        # into single serial runs.
        args = [
            "optimize", "--mesh", "2", "2", "2", "--elevators", "0,0;1,1",
            "--optimizer", "greedy-swap", "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        assert "[repro.exec] design optimized" in capsys.readouterr().out
        assert main(args) == 0
        assert "[repro.exec] design served from cache" in capsys.readouterr().out


class TestCacheMigrateCommand:
    def test_migrate_via_cli(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "result-abc.json").write_text(
            json.dumps({"summary": {"average_latency": 4.0}})
        )
        assert main(["cache", "migrate", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "migrated 1 result(s) and 0 design(s)" in out
        store = SqliteStore(str(cache_dir / "repro.sqlite3"))
        try:
            assert store.get_result("abc") == {"average_latency": 4.0}
        finally:
            store.close()

    def test_migrate_rejects_missing_directory(self, tmp_path):
        with pytest.raises(SystemExit, match="not a directory"):
            main(["cache", "migrate", "--cache-dir", str(tmp_path / "nope")])
