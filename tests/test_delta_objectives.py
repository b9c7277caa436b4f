"""Bit-identity contract of the incremental objective evaluator.

The central invariant of the refactored offline stage: for any placement,
traffic matrix and perturbation history,
:class:`repro.core.objectives.DeltaObjectiveEvaluator` returns **exactly**
(``==`` on floats, not approx) what a fresh full
:class:`~repro.core.objectives.ObjectiveEvaluator` recomputation returns.
Both reduce the same multisets of per-router terms through exactly rounded
sums, so the equality is by construction -- these tests enforce it over
random meshes, traffic weights (including denormal-adjacent magnitudes that
force the scaled-integer representation to rescale) and long accept/reject
perturbation sequences.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.amosa import AmosaConfig, AmosaOptimizer
from repro.core.objectives import (
    DeltaObjectiveEvaluator,
    ExactSum,
    ObjectiveEvaluator,
    variance_of,
)
from repro.core.subset_search import ElevatorSubsetProblem
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.patterns import UniformTraffic


def _placement(mesh_dims, column_count, seed):
    mesh = Mesh3D(*mesh_dims)
    rng = random.Random(seed)
    cells = [(x, y) for x in range(mesh_dims[0]) for y in range(mesh_dims[1])]
    columns = rng.sample(cells, min(column_count, len(cells)))
    return ElevatorPlacement(mesh, columns, name="prop")


def _random_traffic(mesh, seed, magnitudes=(1.0,)):
    rng = random.Random(seed)
    traffic = {}
    for src in mesh.nodes():
        for dst in mesh.nodes():
            if src == dst:
                continue
            if rng.random() < 0.2:
                continue  # sparse zero entries
            traffic[(src, dst)] = rng.random() * rng.choice(magnitudes)
    return traffic


# --------------------------------------------------------------------- #
# ExactSum
# --------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(
            min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
        ),
        max_size=40,
    )
)
def test_exact_sum_matches_fsum(values):
    accumulator = ExactSum()
    for value in values:
        accumulator.add(value)
    assert accumulator.value() == math.fsum(values)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        min_size=2,
        max_size=30,
    ),
    st.data(),
)
def test_exact_sum_discard_is_exact_inverse(values, data):
    accumulator = ExactSum()
    for value in values:
        accumulator.add(value)
    removed = data.draw(
        st.lists(st.sampled_from(values), max_size=len(values), unique_by=id)
    )
    for value in removed:
        accumulator.discard(value)
    kept = list(values)
    for value in removed:
        kept.remove(value)
    assert accumulator.value() == math.fsum(kept)


def test_exact_sum_handles_extreme_magnitudes():
    accumulator = ExactSum()
    values = [5e-324, 1e300, -1e300, 2.5e-310, 1e-17, 3.0]
    for value in values:
        accumulator.add(value)
    assert accumulator.value() == math.fsum(values)
    accumulator.discard(1e300)
    accumulator.discard(-1e300)
    assert accumulator.value() == math.fsum([5e-324, 2.5e-310, 1e-17, 3.0])


def test_variance_of_empty_and_constant():
    assert variance_of([]) == 0.0
    assert variance_of([2.5, 2.5, 2.5]) == 0.0
    assert variance_of([1.0, 3.0]) == 1.0


# --------------------------------------------------------------------- #
# The bit-identity property
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(2, 2, 2), (3, 2, 2), (3, 3, 2), (4, 2, 3)]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**30),
    st.booleans(),
    st.booleans(),
)
def test_delta_bit_identical_under_perturbation_sequences(
    mesh_dims, column_count, seed, weight_by_traffic, uniform
):
    placement = _placement(mesh_dims, column_count, seed)
    mesh = placement.mesh
    traffic = (
        UniformTraffic(mesh).traffic_matrix()
        if uniform
        else _random_traffic(mesh, seed + 1)
    )
    problem = ElevatorSubsetProblem(
        placement,
        traffic,
        weight_distance_by_traffic=weight_by_traffic,
        incremental=True,
    )
    full = ObjectiveEvaluator(
        placement, traffic, weight_distance_by_traffic=weight_by_traffic
    )
    rng = random.Random(seed + 2)
    current = problem.random_solution(rng)
    assert problem.evaluate(current) == full.evaluate(current.subsets())
    for step in range(60):
        # Mix the annealing access patterns: child of the last-evaluated
        # point, sibling after a reject, and an occasional step back.
        if rng.random() < 0.1 and current.parent is not None:
            candidate = current.parent
        else:
            candidate = problem.perturb(current, rng)
        incremental = problem.evaluate(candidate)
        recomputed = full.evaluate(candidate.subsets())
        assert incremental == recomputed, (step, incremental, recomputed)
        if rng.random() < 0.4:
            current = candidate


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_delta_bit_identical_with_extreme_traffic_magnitudes(seed):
    """Tiny and huge weights force the adaptive scaled-integer rescale."""
    placement = _placement((2, 2, 2), 2, seed)
    mesh = placement.mesh
    traffic = _random_traffic(
        mesh, seed, magnitudes=(1e-300, 5e-17, 1.0, 7e120)
    )
    problem = ElevatorSubsetProblem(placement, traffic, incremental=True)
    full = ObjectiveEvaluator(placement, traffic)
    rng = random.Random(seed + 1)
    solution = problem.random_solution(rng)
    for step in range(40):
        assert problem.evaluate(solution) == full.evaluate(solution.subsets()), step
        solution = problem.perturb(solution, rng)


# --------------------------------------------------------------------- #
# Direct DeltaObjectiveEvaluator API
# --------------------------------------------------------------------- #
class TestDeltaEvaluatorApi:
    @pytest.fixture
    def setup(self):
        mesh = Mesh3D(3, 3, 2)
        placement = ElevatorPlacement(mesh, [(0, 0), (2, 2), (1, 1)], name="api")
        traffic = UniformTraffic(mesh).traffic_matrix()
        return placement, traffic

    def test_empty_state_evaluates_to_zero(self, setup):
        placement, traffic = setup
        delta = DeltaObjectiveEvaluator(placement, traffic)
        assert delta.evaluate() == (0.0, 0.0)
        assert delta.utilizations() == [0.0] * placement.num_elevators

    def test_update_and_rebase_match_full(self, setup):
        placement, traffic = setup
        delta = DeltaObjectiveEvaluator(placement, traffic)
        full = ObjectiveEvaluator(placement, traffic)
        subsets = {node: (node % 3,) for node in placement.mesh.nodes()}
        delta.rebase(subsets)
        assert delta.evaluate() == full.evaluate(subsets)
        assert delta.utilizations() == full.utilizations(subsets)
        # Re-assign one router and compare against a fresh recompute.
        node = list(placement.mesh.nodes())[0]
        subsets = dict(subsets)
        subsets[node] = (0, 1)
        delta.update(node, (0, 1))
        assert delta.evaluate() == full.evaluate(subsets)

    def test_empty_subset_removes_contributions(self, setup):
        placement, traffic = setup
        delta = DeltaObjectiveEvaluator(placement, traffic)
        full = ObjectiveEvaluator(placement, traffic)
        nodes = list(placement.mesh.nodes())
        subsets = {node: (0,) for node in nodes}
        delta.rebase(subsets)
        subsets = dict(subsets)
        subsets[nodes[1]] = ()
        delta.update(nodes[1], ())
        assert delta.evaluate() == full.evaluate(subsets)

    def test_evaluate_assignment_diffs_by_identity(self, setup):
        placement, traffic = setup
        delta = DeltaObjectiveEvaluator(placement, traffic)
        full = ObjectiveEvaluator(placement, traffic)
        rng = random.Random(0)
        problem = ElevatorSubsetProblem(placement, traffic, incremental=False)
        solution = problem.random_solution(rng)
        assignment = dict(solution.assignment)
        assert delta.evaluate_assignment(assignment) == full.evaluate(
            solution.subsets()
        )
        # Change one router; untouched frozensets are shared objects.
        node = list(placement.mesh.nodes())[2]
        assignment = dict(assignment)
        assignment[node] = frozenset({0})
        expected = full.evaluate(
            {n: tuple(sorted(s)) for n, s in assignment.items()}
        )
        assert delta.evaluate_assignment(assignment) == expected

    def test_solution_without_derivation_falls_back_to_scan(self, setup):
        placement, traffic = setup
        problem = ElevatorSubsetProblem(placement, traffic, incremental=True)
        full = ObjectiveEvaluator(placement, traffic)
        rng = random.Random(1)
        a = problem.random_solution(rng)
        b = problem.random_solution(rng)  # independent root: no parent record
        assert problem.evaluate(a) == full.evaluate(a.subsets())
        assert problem.evaluate(b) == full.evaluate(b.subsets())
        assert problem.evaluate(a) == full.evaluate(a.subsets())

    def test_derivation_records_are_released_after_consumption(self, setup):
        placement, traffic = setup
        problem = ElevatorSubsetProblem(placement, traffic, incremental=True)
        rng = random.Random(2)
        current = problem.random_solution(rng)
        problem.evaluate(current)
        chain = [current]
        for _ in range(20):
            child = problem.perturb(chain[-1], rng)
            problem.evaluate(child)
            chain.append(child)
        # Every consumed solution has dropped its parent pointer, so accept
        # chains cannot pin the whole history in memory (only the current
        # base and the still-pending candidate may carry one).
        assert sum(1 for s in chain if s.parent is not None) <= 2


# --------------------------------------------------------------------- #
# Whole AMOSA runs
# --------------------------------------------------------------------- #
def _amosa_run(placement, incremental):
    problem = ElevatorSubsetProblem(
        placement,
        UniformTraffic(placement.mesh).traffic_matrix(),
        max_subset_size=3,
        incremental=incremental,
    )
    # The heuristic seeds optimize_elevator_subsets starts from.
    seeds = [problem.nearest_elevator_solution(), problem.full_subset_solution()]
    seeds += [problem.nearest_k_solution(k) for k in (2, 3)]
    config = AmosaConfig(iterations_per_temperature=10, seed=1)
    return AmosaOptimizer(problem, config=config).run(seeds=seeds)


def test_full_and_incremental_amosa_runs_are_identical():
    """Exact evaluation leaves the whole annealing trajectory unchanged."""
    placement = ElevatorPlacement(
        Mesh3D(4, 4, 4), [(1, 1), (2, 2), (3, 0)], name="amosa-modes"
    )
    full, incremental = (_amosa_run(placement, mode) for mode in (False, True))
    assert len(full.archive) > 1
    assert full.evaluations == incremental.evaluations
    assert full.accepted_moves == incremental.accepted_moves
    assert [(e.objectives, e.solution.subsets()) for e in full.archive] == [
        (e.objectives, e.solution.subsets()) for e in incremental.archive
    ]
