"""The benchmark's three workloads, generated from a seed.

Each generator returns ``[(label, spec), ...]``.  Labels are the
benchmark's own stable names for a spec; they key the committed output
digests, so a change to the program's canonical serialization (and hence
its cache keys) cannot silently detach a row from its expected output.

The workload seed is the only input: every simulation and optimizer seed
is drawn from ``random.Random("<workload>:<seed>")``.  String seeding hashes
with SHA-512, so the draw is the same in every process whatever
``PYTHONHASHSEED`` is.  The AdEle online policies of the two simulation
workloads deploy the program's default offline design (the design the
paper checks use); that design's own optimizer seed is a program default,
not a workload input.
"""

from __future__ import annotations

import random
from typing import List, Tuple

WORKLOADS = ("paper_sweep", "large_mesh_seeds", "offline_design")

#: Windows and grids of the paper checks (``benchmarks/conftest.py`` and
#: ``benchmarks/bench_fig7_realapp.py``): the Fig. 4 small-mesh rates plus
#: the six Fig. 7 application models at 0.005 x their load factor, each
#: with the windows its check uses.
SMALL_MESH_CYCLES = {"warmup_cycles": 300, "measurement_cycles": 1000, "drain_cycles": 600}
APP_CYCLES = {"warmup_cycles": 200, "measurement_cycles": 800, "drain_cycles": 500}
LARGE_MESH_CYCLES = {"warmup_cycles": 200, "measurement_cycles": 600, "drain_cycles": 400}
PAPER_PLACEMENTS = ("PS1", "PS2", "PS3")
POLICIES = ("elevator_first", "cda", "adele")
UNIFORM_RATES = (0.001, 0.003, 0.005)
APP_BASE_RATE = 0.005
#: Fig. 7 load factors of the registered application models (checked
#: against the program's registry by the self-tests).
APP_LOAD_FACTORS = (
    ("canneal", 1.00),
    ("fft", 0.90),
    ("fluidanimate", 0.18),
    ("lu", 0.22),
    ("radix", 0.95),
    ("water", 0.85),
)

LARGE_MESH_RATE = 0.004
LARGE_MESH_REPLICAS = 4
REPLICA_BATCH = 4

DESIGN_GRID = (
    ("PS1", "amosa"), ("PS1", "random-search"), ("PS1", "greedy-swap"),
    ("PS2", "amosa"), ("PS2", "random-search"), ("PS2", "greedy-swap"),
    ("PS3", "amosa"), ("PS3", "random-search"), ("PS3", "greedy-swap"),
    ("PM", "amosa"), ("PM", "greedy-swap"),
)

SEED_SPACE = 2**31 - 1


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}")


def paper_sweep(seed: int) -> List[Tuple[str, object]]:
    """Fig. 4 (uniform) and Fig. 7 (applications) over PS1-PS3.

    Each (placement, traffic) cell draws its own sim seed, shared by the
    three policies so they compare on the same packets.  The grid's total
    work then averages 27 draws and moves little from one workload seed to
    the next.
    """
    from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec

    rng = _rng("paper_sweep", seed)
    traffic = [("uniform", rate, SMALL_MESH_CYCLES) for rate in UNIFORM_RATES]
    traffic += [(app, APP_BASE_RATE * factor, APP_CYCLES) for app, factor in APP_LOAD_FACTORS]
    specs = []
    for placement in PAPER_PLACEMENTS:
        for pattern, rate, cycles in traffic:
            sim_seed = rng.randrange(1, SEED_SPACE)
            for policy in POLICIES:
                spec = ExperimentSpec(
                    placement=PlacementSpec(name=placement),
                    policy=PolicySpec(name=policy),
                    traffic=TrafficSpec(pattern=pattern, injection_rate=rate),
                    sim=SimSpec(seed=sim_seed, **cycles),
                )
                specs.append((f"{placement}/{policy}/{pattern}@{rate:g}", spec))
    return specs


def large_mesh_seeds(seed: int) -> List[Tuple[str, object]]:
    """PM at the highest Fig. 4 PM rate, every policy over four sim seeds."""
    from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec

    rng = _rng("large_mesh_seeds", seed)
    sim_seeds = [rng.randrange(1, SEED_SPACE) for _ in range(LARGE_MESH_REPLICAS)]
    specs = []
    for policy in POLICIES:
        for replica, sim_seed in enumerate(sim_seeds):
            spec = ExperimentSpec(
                placement=PlacementSpec(name="PM"),
                policy=PolicySpec(name=policy),
                traffic=TrafficSpec(pattern="uniform", injection_rate=LARGE_MESH_RATE),
                sim=SimSpec(seed=sim_seed, **LARGE_MESH_CYCLES),
            )
            specs.append((f"PM/{policy}/uniform@{LARGE_MESH_RATE:g}/r{replica}", spec))
    return specs


def offline_design(seed: int) -> List[Tuple[str, object]]:
    """Cold offline designs: every optimizer on PS1-PS3, two on PM."""
    from repro.spec import DesignSpec, PlacementSpec

    rng = _rng("offline_design", seed)
    specs = []
    for placement, optimizer in DESIGN_GRID:
        spec = DesignSpec(
            placement=PlacementSpec(name=placement),
            optimizer=optimizer,
            options={"seed": rng.randrange(1, SEED_SPACE)},
        )
        specs.append((f"{placement}/{optimizer}", spec))
    return specs


GENERATORS = {
    "paper_sweep": paper_sweep,
    "large_mesh_seeds": large_mesh_seeds,
    "offline_design": offline_design,
}


def generate(workload: str, seed: int) -> List[Tuple[str, object]]:
    """The labelled specs of one workload for one seed."""
    return GENERATORS[workload](seed)
