"""Streaming aggregation and shard merging for mega-sweeps.

Two consumers of the batch engine's output live here:

* :class:`StreamingAggregator` folds outcomes into bounded state *as they
  complete* -- a running Pareto front over configurable summary metrics
  plus per-phase latency-percentile sketches (the same bounded Algorithm-R
  reservoirs the simulator uses, exposed incrementally through
  :class:`~repro.sim.stats.LatencyReservoir`).  Feeding it through
  :meth:`ExperimentBatch.run_streaming` aggregates a grid of any size in
  O(chunk + front + reservoir) memory instead of materializing every row.

* :func:`merge_results` folds the outputs of N sharded runs (JSON cache
  directories, SQLite stores, or ``--json`` documents) into one result
  set.  Entries are deterministic functions of their canonical keys, so a
  merge is a union: the first copy of each key wins, later identical
  copies count as duplicates, and a *conflicting* copy (same key,
  different summary) is a bit-identity violation and fails loudly.  The
  merged cache is byte-identical to the cache an unsharded run of the
  same grid would have written -- the invariant the shard tests and the
  CI shard-smoke job pin.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.batch import ExperimentOutcome
from repro.exec.cache import (
    canonical_config,
    iter_json_cache_entries,
    open_caches,
)
from repro.sim.stats import LatencyReservoir
from repro.spec import ExperimentSpec


# ---------------------------------------------------------------------- #
# Running Pareto front
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ParetoPoint:
    """One nondominated summary row: its cache key and objective values."""

    key: str
    objectives: Tuple[float, ...]


class ParetoFront:
    """A running nondominated set over summary metrics (all minimized).

    ``add`` is O(front size): the candidate is dropped if any member
    dominates it, otherwise it joins and dominated members leave.  Ties are
    kept and exact duplicates (same key *and* objectives) are ignored, so
    the final front is a pure function of the *set* of offered points --
    shard arrival order cannot change it, which is what lets N shards
    stream into one front.
    """

    def __init__(self) -> None:
        self._points: List[ParetoPoint] = []

    def __len__(self) -> int:
        return len(self._points)

    @staticmethod
    def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
        """Strict Pareto dominance: a <= b everywhere and < somewhere."""
        return all(x <= y for x, y in zip(a, b)) and any(
            x < y for x, y in zip(a, b)
        )

    def add(self, key: str, objectives: Sequence[float]) -> bool:
        """Offer a point; returns ``True`` if it joined the front."""
        candidate = tuple(float(value) for value in objectives)
        survivors: List[ParetoPoint] = []
        for point in self._points:
            if point.key == key and point.objectives == candidate:
                return False  # exact duplicate (cache hit / repeated spec)
            if self._dominates(point.objectives, candidate):
                return False
            if not self._dominates(candidate, point.objectives):
                survivors.append(point)
        survivors.append(ParetoPoint(key=key, objectives=candidate))
        self._points = survivors
        return True

    def points(self) -> List[ParetoPoint]:
        """The front, sorted by objectives then key (deterministic)."""
        return sorted(self._points, key=lambda p: (p.objectives, p.key))


# ---------------------------------------------------------------------- #
# Streaming aggregation
# ---------------------------------------------------------------------- #
def _parse_objective(name: str) -> Tuple[str, float]:
    """``"metric"`` minimizes; ``"-metric"`` maximizes (sign-flipped)."""
    if name.startswith("-"):
        return name[1:], -1.0
    return name, 1.0


class StreamingAggregator:
    """Fold summary rows into bounded running aggregates.

    Args:
        objectives: Summary metric names defining the Pareto front, each
            minimized unless prefixed with ``-`` (maximized via sign flip).
            The default latency/throughput trade-off is computable for
            every run; energy studies typically pass
            ``("average_latency", "energy_per_flit")``.  Rows missing an
            objective, or carrying a non-finite value for one, are counted
            in ``front_skipped`` rather than joining the front (a saturated
            run's infinite latency dominates nothing meaningfully).
        reservoir_size: Capacity of every percentile sketch.

    The aggregate state is O(front + phases * reservoir): per-row memory is
    never retained, so a mega-grid streamed through
    :meth:`~repro.exec.batch.ExperimentBatch.run_streaming` aggregates in
    O(chunk) resident rows.  Scalar totals (rows, packets, latency sums)
    are exact and arrival-order independent; the front is order-independent
    by construction; percentile sketches are exact until a reservoir fills
    (``exact`` flags in the summary tell).
    """

    def __init__(
        self,
        objectives: Sequence[str] = ("average_latency", "-throughput"),
        reservoir_size: int = LatencyReservoir().capacity,
    ) -> None:
        if not objectives:
            raise ValueError("need at least one objective metric")
        self.objectives: Tuple[Tuple[str, float], ...] = tuple(
            _parse_objective(name) for name in objectives
        )
        self.reservoir_size = reservoir_size
        self.front = ParetoFront()
        self.front_skipped = 0
        self.rows = 0
        self.executed = 0
        self.cached = 0
        self.packets_created = 0
        self.packets_delivered = 0
        self.saturated_rows = 0
        self.latency = LatencyReservoir(capacity=reservoir_size)
        #: Per-phase-label latency sketches, fed from the per-phase windows
        #: of scenario rows (label order of first appearance is kept for
        #: stable reporting).
        self.phase_latency: Dict[str, LatencyReservoir] = {}

    # ------------------------------------------------------------------ #
    def consume(self, outcome: ExperimentOutcome) -> None:
        """Fold one batch outcome in (the ``run_streaming`` consumer)."""
        self.observe_row(outcome.key, outcome.summary, outcome.from_cache)

    def observe_row(
        self, key: str, summary: Dict[str, Any], from_cache: bool = False
    ) -> None:
        """Fold one summary row in."""
        self.rows += 1
        if from_cache:
            self.cached += 1
        else:
            self.executed += 1
        self.packets_created += int(summary.get("packets_created", 0))
        self.packets_delivered += int(summary.get("packets_delivered", 0))

        latency = summary.get("average_latency")
        if isinstance(latency, (int, float)):
            if latency == float("inf"):
                self.saturated_rows += 1
            elif latency == latency:  # not NaN
                self.latency.observe(float(latency))

        values: List[float] = []
        for name, sign in self.objectives:
            value = summary.get(name)
            if not isinstance(value, (int, float)) or not (
                float("-inf") < float(value) < float("inf")
            ):
                values = []
                break
            values.append(sign * float(value))
        if values:
            self.front.add(key, values)
        else:
            self.front_skipped += 1

        for phase in summary.get("phases", ()) or ():
            if not isinstance(phase, dict):
                continue
            label = str(phase.get("label", "?"))
            sketch = self.phase_latency.get(label)
            if sketch is None:
                sketch = LatencyReservoir(capacity=self.reservoir_size)
                self.phase_latency[label] = sketch
            value = phase.get("average_latency")
            if isinstance(value, (int, float)) and (
                float("-inf") < float(value) < float("inf")
            ):
                sketch.observe(float(value))

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Any]:
        """JSON-native snapshot of every running aggregate."""
        objective_names = [
            name if sign > 0 else f"-{name}" for name, sign in self.objectives
        ]
        return {
            "rows": self.rows,
            "executed": self.executed,
            "cached": self.cached,
            "packets_created": self.packets_created,
            "packets_delivered": self.packets_delivered,
            "saturated_rows": self.saturated_rows,
            "latency": self.latency.to_summary(),
            "phases": {
                label: sketch.to_summary()
                for label, sketch in self.phase_latency.items()
            },
            "pareto": {
                "objectives": objective_names,
                "size": len(self.front),
                "skipped_rows": self.front_skipped,
                "points": [
                    {
                        "key": point.key,
                        "objectives": {
                            name: sign * value
                            for (name, sign), value in zip(
                                self.objectives, point.objectives
                            )
                        },
                    }
                    for point in self.front.points()
                ],
            },
        }


# ---------------------------------------------------------------------- #
# Shard merging
# ---------------------------------------------------------------------- #
@dataclass
class MergeReport:
    """What :func:`merge_results` did.

    Attributes:
        results: Result rows newly written to the destination.
        result_duplicates: Rows already present (identical copies).
        designs: Design records newly written.
        design_duplicates: Design records already present.
        sources: The inputs actually read, in merge order.
    """

    results: int = 0
    result_duplicates: int = 0
    designs: int = 0
    design_duplicates: int = 0
    sources: List[str] = field(default_factory=list)

    def to_summary(self) -> Dict[str, Any]:
        return {
            "results": self.results,
            "result_duplicates": self.result_duplicates,
            "designs": self.designs,
            "design_duplicates": self.design_duplicates,
            "sources": list(self.sources),
        }


class MergeConflict(ValueError):
    """Same canonical key, different summary -- a bit-identity violation.

    Deterministic shards of one grid can never produce this; it means the
    inputs came from different grids, seeds, or code versions and must not
    be silently unioned.
    """


#: Row streams a merge input can yield: ``(key, config, summary)``.
_ResultRow = Tuple[str, Optional[Dict[str, Any]], Dict[str, Any]]


def _rows_from_json_dir(path: str) -> List[_ResultRow]:
    rows: List[_ResultRow] = []
    for key, record in iter_json_cache_entries(path, "result-"):
        summary = record.get("summary")
        if isinstance(summary, dict):
            rows.append((key, record.get("config"), summary))
    return rows


def _designs_from_json_dir(path: str) -> List[Tuple[str, Dict[str, Any]]]:
    return [
        (key_hash, record)
        for key_hash, record in iter_json_cache_entries(path, "design-")
        if record.get("format") == 2
    ]


def _rows_from_document(path: str, data: Dict[str, Any]) -> List[_ResultRow]:
    """Rows from a ``--json`` output document (``run``/``sweep``).

    The document's ``outcomes`` entries carry the effective spec, which is
    re-canonicalized so the merged cache entry's ``config`` field matches
    what a direct run would have written (byte identity again).
    """
    rows: List[_ResultRow] = []
    for index, outcome in enumerate(data.get("outcomes", ())):
        if not isinstance(outcome, dict):
            continue
        key = outcome.get("key")
        summary = outcome.get("summary")
        if not isinstance(key, str) or not isinstance(summary, dict):
            raise MergeConflict(
                f"{path}: outcome {index} lacks key/summary fields"
            )
        config = None
        spec_data = outcome.get("spec")
        if isinstance(spec_data, dict):
            config = canonical_config(ExperimentSpec.from_dict(spec_data))
        rows.append((key, config, summary))
    return rows


def _open_sqlite_source(db_path: str):
    from repro.service.store import SqliteStore

    return SqliteStore(db_path)


def merge_results(
    inputs: Sequence[str],
    into: str,
    backend: str = "json",
    aggregator: Optional[StreamingAggregator] = None,
    on_progress: Optional[Callable[[str, int], None]] = None,
) -> MergeReport:
    """Fold shard outputs into one result set (``repro merge``).

    Args:
        inputs: Shard outputs, each one of: a JSON cache directory
            (``result-*.json`` entries; ``design-*.json`` records merge
            too), a directory holding the service database
            (``repro.sqlite3``; both layouts merge when both exist), an
            explicit ``*.sqlite3`` file, or a ``--json`` output document of
            ``run``/``sweep`` (its ``outcomes`` rows merge; no designs).
        into: Destination cache directory, opened with ``backend`` exactly
            like ``--cache-dir`` -- so the merged set is immediately
            servable by every other command.
        backend: Destination cache backend (``json`` or ``sqlite``).
        aggregator: Optional streaming aggregator fed each unique key's
            summary once (destination-resident and first-copy rows alike),
            so ``repro merge --json`` reports the merged grid's running
            aggregates without re-reading the result set.
        on_progress: Optional ``(source, rows)`` callback after each input.

    Returns:
        A :class:`MergeReport`.

    Raises:
        MergeConflict: Two copies of one key disagree (see class docs).
        ValueError: An input path is neither a readable cache nor document.
    """
    from repro.service.store import DEFAULT_DB_FILENAME

    result_cache, design_cache = open_caches(into, backend)
    report = MergeReport()
    seen_summaries: Dict[str, Dict[str, Any]] = {}

    def _merge_row(source: str, row: _ResultRow) -> None:
        key, config, summary = row
        previous = seen_summaries.get(key)
        if previous is None:
            previous = result_cache.get(key)
            if previous is not None and aggregator is not None:
                # Destination-resident before this merge: aggregate it once.
                aggregator.observe_row(key, previous, from_cache=True)
        if previous is not None:
            if previous != summary:
                raise MergeConflict(
                    f"{source}: key {key} summary differs from an earlier "
                    "copy -- refusing to merge results of different grids"
                )
            seen_summaries[key] = previous
            report.result_duplicates += 1
            return
        result_cache.put(key, config, summary)
        seen_summaries[key] = summary
        report.results += 1
        if aggregator is not None:
            aggregator.observe_row(key, summary, from_cache=False)

    def _merge_designs(pairs: Sequence[Tuple[str, Dict[str, Any]]]) -> None:
        if design_cache is None or not pairs:
            return
        store = getattr(design_cache, "store", None)
        for key_hash, record in pairs:
            if store is not None:
                if store.get_design_record(key_hash) is None:
                    store.put_design_record(key_hash, record)
                    report.designs += 1
                else:
                    report.design_duplicates += 1
            else:
                # JSON destination: one file per record, atomic replace.
                from repro.exec.cache import _write_json_atomic

                path = os.path.join(into, f"design-{key_hash}.json")
                if os.path.exists(path):
                    report.design_duplicates += 1
                else:
                    _write_json_atomic(path, record)
                    report.designs += 1

    for source in inputs:
        rows: List[_ResultRow]
        if os.path.isdir(source):
            db_path = os.path.join(source, DEFAULT_DB_FILENAME)
            rows = _rows_from_json_dir(source)
            design_pairs = _designs_from_json_dir(source)
            merged_any = bool(rows or design_pairs)
            if os.path.exists(db_path):
                merged_any = True
                store = _open_sqlite_source(db_path)
                try:
                    rows.extend(store.iter_results())
                    _merge_designs(list(store.iter_design_records()))
                finally:
                    store.close()
            if not merged_any:
                raise ValueError(
                    f"merge input {source!r} holds no result-*.json entries "
                    f"and no {DEFAULT_DB_FILENAME}"
                )
            _merge_designs(design_pairs)
        elif source.endswith(".sqlite3"):
            store = _open_sqlite_source(source)
            try:
                rows = list(store.iter_results())
                _merge_designs(list(store.iter_design_records()))
            finally:
                store.close()
        elif os.path.isfile(source):
            import json as _json

            try:
                with open(source, "r") as handle:
                    data = _json.load(handle)
            except ValueError as error:
                raise ValueError(
                    f"merge input {source!r} is not valid JSON: {error}"
                )
            if not isinstance(data, dict) or "outcomes" not in data:
                raise ValueError(
                    f"merge input {source!r} is not a --json output document "
                    "(no 'outcomes' field)"
                )
            rows = _rows_from_document(source, data)
        else:
            raise ValueError(f"merge input {source!r} does not exist")
        for row in rows:
            _merge_row(source, row)
        report.sources.append(source)
        if on_progress is not None:
            on_progress(source, len(rows))
    return report


__all__ = [
    "ParetoPoint",
    "ParetoFront",
    "StreamingAggregator",
    "MergeReport",
    "MergeConflict",
    "merge_results",
]
