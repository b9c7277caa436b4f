"""Correctness checks on the rows a workload produced.

Two kinds of check run on every row of every run:

* conservation, on any seed: a simulation delivers no more packets than it
  created, its ``delivery_ratio`` agrees with those two counts, and its
  latency is finite whenever a packet was delivered; a design's selected
  solution is in its archive, and the archive is mutually non-dominated;
* output digests, on the default seed only: the SHA-256 of every summary
  field of a simulation row, or of a design's archive objectives and
  selected subsets, must equal the digest committed in ``digests.json``.

Both checks read rows as plain JSON data -- a simulation's summary as is,
a design through ``design_row`` -- so the self-tests can perturb rows
without running the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(row: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(row).encode("utf-8")).hexdigest()


def design_row(design: Any) -> Dict[str, Any]:
    """The digested form of a design: archive objectives, selected subsets."""
    archive = design.result.archive
    selected = design.selected
    return {
        "archive": [list(entry.objectives) for entry in archive],
        "archive_subsets": [_subsets(entry.solution) for entry in archive],
        "selected_objectives": list(selected.objectives),
        "selected_subsets": _subsets(selected.solution),
    }


def _subsets(solution: Any) -> Dict[str, List[int]]:
    return {str(node): sorted(subset) for node, subset in sorted(solution.subsets().items())}


def check_sim_row(row: Dict[str, Any]) -> List[str]:
    """Conservation problems of one simulation summary (empty = fine)."""
    problems = []
    created = row.get("packets_created")
    delivered = row.get("packets_delivered")
    ratio = row.get("delivery_ratio")
    latency = row.get("average_latency")
    if not all(isinstance(v, (int, float)) for v in (created, delivered, ratio, latency)):
        return ["missing or non-numeric packet counters"]
    if delivered < 0 or created < 0:
        problems.append(f"negative packet count (created {created}, delivered {delivered})")
    if delivered > created:
        problems.append(f"delivered {delivered} > created {created}")
    expected = delivered / created if created else 1.0
    if not math.isclose(ratio, expected, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"delivery_ratio {ratio} != {delivered}/{created}")
    if delivered > 0 and not math.isfinite(latency):
        problems.append(f"latency {latency} with {delivered} packets delivered")
    return problems


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def check_design_row(row: Dict[str, Any]) -> List[str]:
    """Archive problems of one design (empty = fine)."""
    problems = []
    archive = [tuple(point) for point in row["archive"]]
    if not archive:
        return ["empty archive"]
    members = list(zip(archive, [canonical_json(s) for s in row["archive_subsets"]]))
    chosen = (tuple(row["selected_objectives"]), canonical_json(row["selected_subsets"]))
    if chosen not in members:
        problems.append("selected solution is not in the archive")
    for i, a in enumerate(archive):
        for b in archive[i + 1:]:
            if _dominates(a, b) or _dominates(b, a):
                problems.append(f"archive points {a} and {b} dominate one another")
    return problems


def load_digests() -> Dict[str, Any]:
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def expected_digests(workload: str, seed: int, hash_seed: str) -> Optional[Dict[str, str]]:
    """Committed digests for this workload, or ``None`` when the seed (or
    the hash seed) is not the one they were recorded at."""
    entry = load_digests().get(workload)
    if not entry or entry.get("seed") != seed or entry.get("pythonhashseed") != hash_seed:
        return None
    return entry["rows"]


def check_rows(
    kind: str,
    rows: Sequence[Tuple[str, Dict[str, Any]]],
    expected: Optional[Dict[str, str]],
) -> List[Tuple[str, str]]:
    """All failures as ``(label, reason)``; at most one entry per label."""
    check = check_sim_row if kind == "sim" else check_design_row
    failures = []
    for label, row in rows:
        problems = check(row)
        if expected is not None:
            want = expected.get(label)
            if want is None:
                problems.append("no committed digest for this row")
            elif digest(row) != want:
                problems.append("output digest differs from the committed one")
        if problems:
            failures.append((label, "; ".join(problems)))
    if expected is not None:
        missing = sorted(set(expected) - {label for label, _ in rows})
        failures.extend((label, "row expected but not produced") for label in missing)
    return failures
