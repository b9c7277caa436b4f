"""Tests for the typed spec layer: validation, round-trips, cache keys.

Covers the satellite guarantees of the `repro.api` redesign:

* property test that ``ExperimentSpec.from_dict(spec.to_dict()) == spec``
  and that ``config_key`` is stable across round-trips, over both a
  hypothesis-generated spec space and the full bench grid;
* custom-placement cache correctness: a placement object reusing a name
  must never share a ``config_key`` with the named placement (or another
  structure under the same name);
* parsing: any JSON-shaped document either parses or raises ``ValueError``;
* the runner, batch engine, sweep and CLI never emit a
  ``DeprecationWarning``.
"""

from __future__ import annotations

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.cache import (
    canonical_json,
    config_key,
    derive_seed,
    spec_from_canonical,
)
from repro.spec import (
    DesignSpec,
    ExperimentSpec,
    PlacementSpec,
    PolicySpec,
    SimSpec,
    TrafficSpec,
)
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D


# ---------------------------------------------------------------------- #
# Hypothesis strategies over the spec space
# ---------------------------------------------------------------------- #
_names = st.sampled_from(["PS1", "PS2", "PS3", "PM", "custom-a", "x"])
_policies = st.one_of(
    st.builds(PolicySpec, name=st.sampled_from(["elevator_first", "cda", "minimal"])),
    st.builds(
        PolicySpec,
        name=st.sampled_from(["adele", "adele_rr"]),
        options=st.fixed_dictionaries(
            {},
            optional={
                "max_subset_size": st.one_of(st.none(), st.integers(1, 6)),
                "low_traffic_threshold": st.one_of(
                    st.none(), st.floats(0.0, 1.0, allow_nan=False)
                ),
            },
        ),
    ),
)
_placements = st.one_of(
    st.builds(PlacementSpec, name=_names),
    st.builds(
        PlacementSpec,
        name=_names,
        mesh=st.just((3, 3, 2)),
        columns=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            min_size=1,
            max_size=4,
            unique=True,
        ).map(tuple),
    ),
)
_traffic = st.builds(
    TrafficSpec,
    pattern=st.sampled_from(["uniform", "shuffle", "transpose", "fft", "hotspot"]),
    injection_rate=st.floats(0.0, 0.5, allow_nan=False),
    min_packet_length=st.integers(1, 10),
    max_packet_length=st.integers(10, 40),
)
_sims = st.builds(
    SimSpec,
    warmup_cycles=st.integers(0, 500),
    measurement_cycles=st.integers(0, 2000),
    drain_cycles=st.integers(0, 1000),
    buffer_depth=st.integers(1, 8),
    seed=st.integers(0, 2**31),
)
_specs = st.builds(
    ExperimentSpec, placement=_placements, policy=_policies, traffic=_traffic, sim=_sims
)

# JSON-shaped documents: mostly the spec's own keys, with any JSON value
# (of the right or wrong type) in any field.
_json = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-5, 10**6),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=6),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=10,
)


def _document(fields):
    """A JSON object over ``fields`` (key -> plausible-value strategy)."""
    return st.one_of(
        _json,
        st.fixed_dictionaries(
            {}, optional={key: st.one_of(_json, value) for key, value in fields.items()}
        ),
    )


_small_ints = st.integers(0, 6)
_events = st.lists(
    _document(
        {
            "kind": st.sampled_from(
                ["traffic-phase", "rate-ramp", "elevator-fault", "elevator-repair",
                 "stats-marker"]
            ),
            "cycle": _small_ints,
            "end_cycle": _small_ints,
            "injection_rate": st.floats(0.0, 0.5),
            "end_rate": st.floats(0.0, 0.5),
            "pattern": st.just("uniform"),
            "elevator": _small_ints,
            "label": st.text(max_size=4),
        }
    ),
    max_size=3,
)
_placement_documents = _document(
    {
        "name": _names,
        "mesh": st.lists(st.integers(0, 4), min_size=3, max_size=3),
        "columns": st.lists(st.lists(_small_ints, max_size=3), max_size=3),
    }
)
_design_documents = _document(
    {
        "placement": _placement_documents,
        "traffic": st.just("uniform"),
        "optimizer": st.just("amosa"),
        "options": _json,
        "max_subset_size": _small_ints,
        "selection": st.just("knee"),
        "weight_distance_by_traffic": st.booleans(),
        "num_representatives": _small_ints,
    }
)
_json_documents = _document(
    {
        "format": st.just(1),
        "placement": _placement_documents,
        "policy": _document({"name": st.just("adele"), "options": _json}),
        "traffic": _document(
            {
                "pattern": st.just("uniform"),
                "injection_rate": st.floats(0.0, 0.5),
                "min_packet_length": _small_ints,
                "max_packet_length": st.integers(5, 30),
                "options": _json,
            }
        ),
        "sim": _document(
            {
                "warmup_cycles": _small_ints,
                "buffer_depth": _small_ints,
                "seed": _small_ints,
                "backend": st.just("reference"),
                "bit_exact": st.booleans(),
            }
        ),
        "design": _design_documents,
        "scenario": _document({"events": _events}),
    }
)


class TestRoundTripProperties:
    @settings(max_examples=150, deadline=None)
    @given(spec=_specs)
    def test_dict_round_trip_is_lossless(self, spec):
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=150, deadline=None)
    @given(spec=_specs)
    def test_config_key_is_stable_across_round_trips(self, spec):
        key = config_key(spec)
        via_dict = ExperimentSpec.from_dict(spec.to_dict())
        via_json = ExperimentSpec.from_json(spec.to_json())
        via_canonical = spec_from_canonical(json.loads(canonical_json(spec)))
        assert config_key(via_dict) == key
        assert config_key(via_json) == key
        assert config_key(via_canonical) == key
        assert derive_seed(via_dict, 7) == derive_seed(spec, 7)

    def test_full_bench_grid_round_trips_with_stable_keys(self):
        # The grid every benchmark sweeps: placements x policies x traffic x
        # rates.  Round-trips must be lossless, keys stable, and all keys
        # pairwise distinct.
        specs = [
            ExperimentSpec(
                placement=PlacementSpec(name=placement),
                policy=PolicySpec(name=policy),
                traffic=TrafficSpec(pattern=traffic, injection_rate=rate),
                sim=SimSpec(seed=1),
            )
            for placement in ("PS1", "PS2", "PS3", "PM")
            for policy in ("elevator_first", "cda", "adele", "adele_rr")
            for traffic in ("uniform", "shuffle", "fft")
            for rate in (0.001, 0.003, 0.005)
        ]
        keys = []
        for spec in specs:
            rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert rebuilt == spec
            assert config_key(rebuilt) == config_key(spec)
            keys.append(config_key(spec))
        assert len(set(keys)) == len(specs)



class TestSpecValidation:
    def test_structural_placement_needs_both_fields(self):
        with pytest.raises(ValueError):
            PlacementSpec(name="x", mesh=(2, 2, 2))
        with pytest.raises(ValueError):
            PlacementSpec(name="x", columns=((0, 0),))

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown experiment spec field"):
            ExperimentSpec.from_dict({"placment": {}})
        with pytest.raises(ValueError, match="unknown policy spec field"):
            PolicySpec.from_dict({"name": "cda", "kwargs": {}})
        with pytest.raises(ValueError, match="unknown traffic spec field"):
            TrafficSpec.from_dict({"rate": 0.1})

    def test_from_dict_rejects_bad_format_version(self):
        with pytest.raises(ValueError, match="unsupported experiment spec format"):
            ExperimentSpec.from_dict({"format": 99})

    def test_options_must_be_json_native(self):
        with pytest.raises(ValueError, match="JSON-native"):
            PolicySpec(name="cda", options={"weight": object()})

    def test_traffic_validation(self):
        with pytest.raises(ValueError):
            TrafficSpec(injection_rate=-0.1)
        with pytest.raises(ValueError):
            TrafficSpec(min_packet_length=5, max_packet_length=4)

    @pytest.mark.parametrize(
        "document",
        [
            {"placement": {"mesh": 3}},
            {"placement": {"columns": [1]}},
            {"placement": {"name": "x", "mesh": [2, 2, 2], "columns": [1]}},
            {"placement": {"name": "x", "mesh": [2, None, 2], "columns": [[0, 0]]}},
            {"placement": {"name": "x", "mesh": [2, 2, 2], "columns": [[0]]}},
            {"policy": {"options": 3}},
            {"policy": {"options": [["a", 1]]}},
            {"traffic": {"options": "abc"}},
            {"traffic": {"min_packet_length": "10"}},
            {"design": {"options": [1]}},
            # Booleans are not integers: True would serialize as JSON true
            # and split the cache key from 1.
            {"sim": {"warmup_cycles": True}},
            {"sim": {"measurement_cycles": True}},
            {"sim": {"drain_cycles": False}},
            {"sim": {"buffer_depth": True}},
            {"sim": {"seed": True}},
            {"traffic": {"min_packet_length": True}},
            {"traffic": {"max_packet_length": True}},
            {"design": {"max_subset_size": True}},
            {"design": {"num_representatives": True}},
        ],
    )
    def test_from_dict_rejects_wrong_container_types(self, document):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict(document)

    @settings(max_examples=300, deadline=None)
    @given(document=_json_documents)
    def test_any_json_document_parses_or_raises_value_error(self, document):
        try:
            spec = ExperimentSpec.from_dict(document)
        except ValueError:
            return
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=300, deadline=None)
    @given(document=_design_documents)
    def test_any_json_document_parses_design_or_raises_value_error(self, document):
        try:
            design = DesignSpec.from_dict(document)
        except ValueError:
            return
        assert DesignSpec.from_dict(design.to_dict()) == design

    def test_sim_validation(self):
        with pytest.raises(ValueError):
            SimSpec(warmup_cycles=-1)
        with pytest.raises(ValueError):
            SimSpec(buffer_depth=0)

    def test_with_flat_fields(self):
        spec = ExperimentSpec().with_(
            placement="PS2", policy="cda", injection_rate=0.01, seed=4,
            warmup_cycles=10,
        )
        assert spec.placement.name == "PS2"
        assert spec.policy.name == "cda"
        assert spec.policy.options == {}  # changing the policy name resets options
        assert spec.traffic.injection_rate == 0.01
        assert spec.sim.seed == 4
        assert spec.sim.warmup_cycles == 10
        with pytest.raises(ValueError, match="unknown ExperimentSpec field"):
            ExperimentSpec().with_(bogus=1)

    def test_with_same_policy_name_keeps_options(self):
        spec = ExperimentSpec(
            policy=PolicySpec(name="adele", options={"max_subset_size": 2})
        )
        assert spec.with_(policy="adele").policy.options == {"max_subset_size": 2}
        assert spec.with_(policy="cda").policy.options == {}

    def test_with_placement_object(self):
        placement = ElevatorPlacement(Mesh3D(2, 2, 2), [(0, 0)], name="OBJ")
        spec = ExperimentSpec().with_(placement=placement)
        assert spec.placement.is_structural
        assert spec.placement.resolve().columns() == [(0, 0)]


class TestCustomPlacementCacheKeys:
    """Satellite regression: placement objects reusing a name never alias."""

    def test_placement_obj_reusing_a_standard_name_gets_a_distinct_key(self):
        named = ExperimentSpec().with_(placement="PS1", policy="elevator_first")
        custom = named.with_(
            placement=PlacementSpec.from_placement(
                ElevatorPlacement(Mesh3D(4, 4, 4), [(0, 0)], name="PS1")
            )
        )
        assert custom.placement.name == named.placement.name
        assert config_key(named) != config_key(custom)
        assert derive_seed(named, 1) != derive_seed(custom, 1)

    def test_two_structures_under_one_name_get_distinct_keys(self):
        mesh = Mesh3D(2, 2, 2)
        spec_a = ExperimentSpec(
            placement=PlacementSpec.from_placement(
                ElevatorPlacement(mesh, [(0, 0)], name="dup")
            )
        )
        spec_b = ExperimentSpec(
            placement=PlacementSpec.from_placement(
                ElevatorPlacement(mesh, [(1, 1)], name="dup")
            )
        )
        assert config_key(spec_a) != config_key(spec_b)

    def test_case_variants_and_aliases_share_keys(self):
        # Equivalent spellings of one experiment must hit the same cache
        # entry and derive the same seed.
        base = ExperimentSpec()
        assert config_key(base.with_(policy="AdEle")) == config_key(
            base.with_(policy="adele")
        )
        assert config_key(base.with_(traffic="fluid.")) == config_key(
            base.with_(traffic="fluidanimate")
        )
        assert config_key(base.with_(traffic="Uniform")) == config_key(
            base.with_(traffic="uniform")
        )
        assert config_key(base.with_(placement="ps1")) == config_key(
            base.with_(placement="PS1")
        )
        assert derive_seed(base.with_(policy="AdEle"), 7) == derive_seed(
            base.with_(policy="adele"), 7
        )
        # Different components still never collide.
        assert config_key(base.with_(policy="cda")) != config_key(
            base.with_(policy="adele")
        )

    def test_spec_level_named_vs_structural_distinct(self):
        named = ExperimentSpec(placement=PlacementSpec(name="PS1"))
        structural = ExperimentSpec(
            placement=PlacementSpec(
                name="PS1", mesh=(4, 4, 4), columns=((1, 1), (2, 2), (3, 0))
            )
        )
        assert config_key(named) != config_key(structural)


class TestNoDeprecationWarnings:
    def test_internal_modules_do_not_trigger_the_warning(self, tmp_path):
        # Run the whole stack -- builders, batch engine (cold and warm
        # cache), sweep, CLI -- with DeprecationWarning promoted to an error.
        from repro.analysis.sweep import latency_sweep
        from repro.exec.batch import run_batch
        from repro.exec.cli import main as cli_main

        spec = ExperimentSpec(
            placement=PlacementSpec(name="shim", mesh=(2, 2, 2), columns=((0, 0),)),
            policy=PolicySpec(name="elevator_first"),
            traffic=TrafficSpec(pattern="uniform", injection_rate=0.05),
            sim=SimSpec(warmup_cycles=10, measurement_cycles=60, drain_cycles=60),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            outcomes = run_batch([spec], result_cache=None)
            assert outcomes[0].summary["average_latency"] > 0
            run_batch([spec], base_seed=3)
            latency_sweep(spec, ["elevator_first"], [0.02])
            cli_main(
                [
                    "sweep", "--mesh", "2", "2", "2", "--elevators", "0,0",
                    "--policies", "elevator_first", "--rates", "0.05",
                    "--warmup", "5", "--measure", "40", "--drain", "40",
                ]
            )
            cli_main(["list"])
