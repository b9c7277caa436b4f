"""Deterministic sharding of experiment grids by canonical config hash.

A *shard* is one of ``N`` disjoint, deterministic slices of an experiment
grid.  Membership is a pure function of the task's canonical cache key
(:func:`repro.exec.cache.config_key`): key ``k`` belongs to shard
``int(k, 16) % N``.  Because the key already captures the *effective* spec
(seed derived, aliases collapsed, defaults dropped), any two processes --
on any hosts, in any order, with any worker counts -- agree on which shard
owns which spec without coordinating.  That gives the batch engine
horizontal scale past one process pool:

* ``repro sweep --shard K/N`` (and ``run``) makes worker
  ``K`` simulate only its slice, writing its own cache shard;
* ``repro merge`` folds the shard caches back into one result set
  (:func:`repro.exec.aggregate.merge_results`), bit-identical to an
  unsharded run of the same grid;
* ``repro serve --shard K/N`` makes a service daemon claim only its
  slice of the durable job queue, so N daemons over N copies of a job
  split it the same way the CLI does.

The invariant every consumer relies on: **sharded + merged == unsharded,
bit for bit.**  Each spec is a deterministic function of its key, each key
belongs to exactly one shard, so the union of shard outputs is exactly the
unsharded output -- sharding restructures *where* work runs, never *what*
it computes.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

#: ``K/N`` with 1-based K.
_SHARD_RE = re.compile(r"^\s*(\d+)\s*/\s*(\d+)\s*$")


def shard_of(key: str, num_shards: int) -> int:
    """The 0-based shard owning a canonical cache key (sha256 hex).

    Uses the full hash value, so slices stay balanced even for adversarial
    grids; two calls on any host always agree.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    return int(key, 16) % num_shards


@dataclass(frozen=True)
class ShardSpec:
    """One slice of an N-way deterministic partition.

    Attributes:
        index: 1-based shard number (matches the CLI's ``--shard K/N``).
        count: Total number of shards.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("shard count must be >= 1")
        if not 1 <= self.index <= self.count:
            raise ValueError(
                f"shard index must be in 1..{self.count}, got {self.index}"
            )

    def owns(self, key: str) -> bool:
        """Whether this shard owns a canonical cache key."""
        return shard_of(key, self.count) == self.index - 1

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def parse_shard(text: str) -> ShardSpec:
    """Parse a ``K/N`` shard argument (1-based K).

    Raises:
        ValueError: Malformed text or out-of-range K/N.
    """
    match = _SHARD_RE.match(text or "")
    if match is None:
        raise ValueError(
            f"shard must look like K/N (e.g. 2/4), got {text!r}"
        )
    return ShardSpec(index=int(match.group(1)), count=int(match.group(2)))


def partition(keys: Iterable[str], num_shards: int) -> List[List[str]]:
    """Split keys into their ``num_shards`` slices (index ``k`` = shard k+1).

    Every key lands in exactly one slice; relative order within a slice is
    preserved.
    """
    slices: List[List[str]] = [[] for _ in range(num_shards)]
    for key in keys:
        slices[shard_of(key, num_shards)].append(key)
    return slices


def shard_counts(keys: Sequence[str], num_shards: int) -> Dict[int, int]:
    """``{1-based shard index: owned key count}`` for balance inspection."""
    counts = {index: 0 for index in range(1, num_shards + 1)}
    for key in keys:
        counts[shard_of(key, num_shards) + 1] += 1
    return counts


def shard_cache_dir(base_dir: str, shard: ShardSpec) -> str:
    """Conventional per-shard cache directory under a shared base.

    Purely a naming convention (``<base>/shard-KofN``) for single-host
    demos and benches; multi-host deployments typically point every shard
    at its own local directory and merge afterwards.  Because entries are
    keyed by canonical hash, shards may even share one directory safely --
    merging is then a no-op.
    """
    return os.path.join(base_dir, f"shard-{shard.index}of{shard.count}")


__all__ = [
    "ShardSpec",
    "shard_of",
    "parse_shard",
    "partition",
    "shard_counts",
    "shard_cache_dir",
]
