"""Unit tests for the synthetic application traffic (SPLASH-2/PARSEC stand-in)."""

import pytest

from repro.topology.mesh3d import Mesh3D
from repro.traffic.applications import (
    APPLICATION_NAMES,
    ApplicationSpec,
    ApplicationTraffic,
    application_spec,
    make_application_traffic,
)


class _ScanReferenceTraffic(ApplicationTraffic):
    """The graph build as formulated before the distance-row table: sort
    candidates by ``Mesh3D.manhattan_3d`` and derive each source's row by a
    full scan of the matrix."""

    def __init__(self, mesh, spec, seed=0):
        super().__init__(mesh, spec, seed)
        self._per_source = {}
        for src in mesh.nodes():
            destinations, weights = [], []
            for (s, d), w in self._matrix.items():
                if s == src:
                    destinations.append(d)
                    weights.append(w)
            self._per_source[src] = (destinations, weights)

    def _pick_partners(self, src, distances, rng):
        mesh = self.mesh
        count = min(self.spec.partners_per_node, mesh.num_nodes - 1)
        others = [node for node in mesh.nodes() if node != src]
        rng.shuffle(others)
        by_distance = sorted(others, key=lambda node: mesh.manhattan_3d(src, node))
        partners = []
        for _ in range(count):
            pool = [node for node in by_distance if node not in partners]
            if not pool:
                break
            if rng.random() < self.spec.locality:
                partners.append(pool[0])
            else:
                partners.append(rng.choice(pool))
        return partners


@pytest.fixture
def mesh():
    return Mesh3D(4, 4, 4)


class TestApplicationSpec:
    def test_all_six_benchmarks_present(self):
        assert set(APPLICATION_NAMES) == {
            "canneal",
            "fft",
            "fluidanimate",
            "lu",
            "radix",
            "water",
        }

    def test_spec_lookup_case_insensitive(self):
        assert application_spec("FFT").name == "fft"

    def test_unknown_application(self):
        with pytest.raises(ValueError, match="unknown application"):
            application_spec("blackscholes")

    def test_load_grouping_matches_paper(self):
        # Section IV-C: canneal, fft, radix, water are high-load;
        # fluidanimate and lu are low-load.
        high = {"canneal", "fft", "radix", "water"}
        low = {"fluidanimate", "lu"}
        min_high = min(application_spec(a).load_factor for a in high)
        max_low = max(application_spec(a).load_factor for a in low)
        assert min_high > 2 * max_low

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ApplicationSpec(
                name="bad",
                load_factor=0.0,
                partners_per_node=4,
                hotspot_nodes=1,
                hotspot_share=0.1,
                locality=0.5,
                zipf_exponent=1.0,
            )
        with pytest.raises(ValueError):
            ApplicationSpec(
                name="bad",
                load_factor=1.0,
                partners_per_node=0,
                hotspot_nodes=1,
                hotspot_share=0.1,
                locality=0.5,
                zipf_exponent=1.0,
            )


class TestApplicationTraffic:
    @pytest.mark.parametrize("name", APPLICATION_NAMES)
    def test_matrix_rows_sum_to_one(self, mesh, name):
        traffic = make_application_traffic(name, mesh, seed=1)
        matrix = traffic.traffic_matrix()
        for src in range(mesh.num_nodes):
            row = sum(w for (s, _d), w in matrix.items() if s == src)
            assert row == pytest.approx(1.0, abs=1e-9)

    def test_no_self_traffic(self, mesh):
        traffic = make_application_traffic("fft", mesh, seed=1)
        assert all(src != dst for (src, dst) in traffic.traffic_matrix())

    def test_destinations_follow_graph(self, mesh):
        traffic = make_application_traffic("canneal", mesh, seed=2)
        matrix = traffic.traffic_matrix()
        allowed = {dst for (src, dst) in matrix if src == 5}
        for _ in range(50):
            assert traffic.destination(5) in allowed

    def test_graph_is_deterministic_per_seed(self, mesh):
        a = make_application_traffic("radix", mesh, seed=7).traffic_matrix()
        b = make_application_traffic("radix", mesh, seed=7).traffic_matrix()
        assert a == b

    def test_different_seeds_differ(self, mesh):
        a = make_application_traffic("radix", mesh, seed=1).traffic_matrix()
        b = make_application_traffic("radix", mesh, seed=2).traffic_matrix()
        assert a != b

    def test_traffic_is_non_uniform(self, mesh):
        traffic = make_application_traffic("water", mesh, seed=1)
        matrix = traffic.traffic_matrix()
        weights = [w for (s, _d), w in matrix.items() if s == 0]
        assert max(weights) > 3 * min(weights)

    def test_sparser_than_uniform(self, mesh):
        traffic = make_application_traffic("fluidanimate", mesh, seed=1)
        matrix = traffic.traffic_matrix()
        pairs_per_source = len([1 for (s, _d) in matrix if s == 0])
        assert pairs_per_source < mesh.num_nodes - 1

    @pytest.mark.parametrize("name", APPLICATION_NAMES)
    @pytest.mark.parametrize("shape", [(4, 4, 4), (3, 2, 2)])
    def test_build_matches_scan_reference(self, name, shape):
        mesh = Mesh3D(*shape)
        for seed in (0, 3):
            fast = ApplicationTraffic(mesh, application_spec(name), seed=seed)
            ref = _ScanReferenceTraffic(mesh, application_spec(name), seed=seed)
            assert list(fast.traffic_matrix().items()) == list(
                ref.traffic_matrix().items()
            )
            assert fast._per_source == ref._per_source
            # The sampling streams then stay in lockstep too.
            assert [fast.destination(s) for s in mesh.nodes()] == [
                ref.destination(s) for s in mesh.nodes()
            ]

    def test_load_factor_exposed(self, mesh):
        traffic = make_application_traffic("lu", mesh, seed=0)
        assert traffic.load_factor == application_spec("lu").load_factor
