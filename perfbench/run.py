"""The repository benchmark: AdEle's three cost paths, timed from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 40 --trace 0

Workloads (``workloads.py``): ``paper_sweep`` (the 81-spec grid of the
paper checks), ``large_mesh_seeds`` (PM near saturation, 12 specs, SQLite
cache) and ``offline_design`` (11 cold offline designs).

Every repetition of a workload is a fresh child process (``child.py``):
cold caches, one engine worker, ``PYTHONHASHSEED`` pinned, numeric
libraries held to one thread.  Repetitions continue while the next one
still fits in ``--seconds``; the run then fills the rest of the budget
with set-up-only children, which stop at the first kernel call.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's repetitions:

* ``specs_per_s`` -- specs completed per second, from the workload call
  until the last result is in the cache;
* ``setup_s`` -- from spawning the process (before ``import repro``) to
  the first kernel call (first optimizer search on ``offline_design``);
* ``peak_rss_mb`` -- peak resident memory of the workload process.

The two times are in reference seconds (``calibration.py``): wall time
corrected by the host's speed, sampled on the same core while the
interval ran, so that neighbours on a shared host do not move them.  The
record keeps the plain wall-clock values next to them (``wall_clock``,
``runs``, ``setups``).

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (``layers.py``, wall seconds), the
tracing overhead (traced over untraced reference seconds), the model
outputs (AdEle over Elevator-First; reported, never gated) and
``traffic.hash_dependent_apps``, the number of registered application
models whose traffic matrix changes with ``PYTHONHASHSEED``.  Workload
processes pin ``PYTHONHASHSEED`` only so that the committed digests
reproduce; the probe shows what the pin would otherwise hide.

Every row is checked (``checks.py``); on the default seed its output must
also match the committed digest.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full record with its provenance.  ``--record-digests``
re-records ``digests.json`` at the default seed instead.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEFAULT_SEED = 1
#: Hash seed of every workload process.  Application traffic matrices are
#: seeded from a ``str`` hash today (``traffic.hash_dependent_apps``), so
#: without the pin the committed digests would not reproduce.
HASH_SEED = "0"
#: The hash-seed probe compares application matrices built under these.
PROBE_HASH_SEEDS = ("1", "2")
#: Hard ceiling on one benchmark run, children included.
RUN_LIMIT_S = 170.0
MAX_SETUP_SAMPLES = 9
PAPER = {"routing.adele_vs_ef_latency": "0.891", "routing.adele_vs_ef_energy": "<= 1.069"}

END_TO_END_UNITS = {"specs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Per-layer metrics this script adds to the children's.
RUN_METRICS = ("obs.trace_overhead_pct", "traffic.hash_dependent_apps", *PAPER,
               "workload.traced_wall_s")


class ChildFailed(RuntimeError):
    pass


def child_env(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = hash_seed
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(args, mode: str, traced: bool, deadline: float,
              hash_seed: str = HASH_SEED, record_digests: bool = False) -> dict:
    """Run one child to completion and return the result it wrote."""
    out = os.path.join(WORK, f"child-{os.getpid()}.json")
    if os.path.exists(out):
        os.unlink(out)
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--mode", mode,
        "--workdir", WORK, "--out", out,
    ]
    if record_digests:
        command.append("--record-digests")
    spawned = time.monotonic()
    command += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(hash_seed), capture_output=True,
            text=True, timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{mode} child exceeded the run's time limit") from error
    if not os.path.exists(out):
        raise ChildFailed(f"{mode} child exited {proc.returncode} without a result:\n"
                          + proc.stderr[-4000:])
    with open(out, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    os.unlink(out)
    return result


def hash_dependent_apps(args, deadline: float) -> dict:
    """Registered application models whose matrix depends on the hash seed."""
    digests = [
        run_child(args, "hashprobe", False, deadline, hash_seed=seed)["apps"]
        for seed in PROBE_HASH_SEEDS
    ]
    differ = sorted(name for name in digests[0] if digests[0][name] != digests[1].get(name))
    return {"count": len(differ), "of": len(digests[0]), "apps": differ}


def median(values):
    return statistics.median(values) if values else 0.0


def provenance(args, numpy_version) -> dict:
    commit = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for directory, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                source.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "pythonhashseed": HASH_SEED,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def measure(args) -> dict:
    """Run repetitions for ``--seconds``; return the record."""
    start = time.monotonic()
    deadline = start + args.seconds
    hard_deadline = start + RUN_LIMIT_S
    reps = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        began = time.monotonic()
        reps.append(run_child(args, "full", traced, hard_deadline))
        reps[-1].update(traced=traced, rep_s=time.monotonic() - began)
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and time.monotonic() + max(r["rep_s"] for r in reps) > deadline:
            break
    plain = [r for r in reps if not r["traced"] and "run" in r]
    traced_reps = [r for r in reps if r["traced"] and "layers" in r]
    setups = [r["setup"] for r in plain if r.get("setup")]
    if not args.trace:
        setup_cost = max((s["wall_s"] for s in setups), default=1.0)
        while (len(setups) < MAX_SETUP_SAMPLES
               and time.monotonic() + setup_cost < deadline):
            setup = run_child(args, "setup", False, hard_deadline).get("setup")
            if setup is None:
                break
            setups.append(setup)

    errors = [r["error"] for r in reps if "error" in r]
    failures = [f for r in reps for f in r.get("failures", [])]
    attempted = sum(r.get("attempted", 0) for r in reps)
    failed = sum(r.get("failed", 0) for r in reps)
    self_time_ok = all(r.get("self_time_ok", False) for r in reps if r["traced"])
    record = {
        "provenance": provenance(args, next((r["numpy"] for r in reps if "numpy" in r), None)),
        "repetitions": len(reps),
        "specs_attempted": attempted,
        "specs_failed": failed,
        "digests_checked": all(r.get("digests_checked") for r in reps),
        "failures": failures[:20],
        "errors": [e[-2000:] for e in errors],
        "runs": [r.get("run") for r in reps],
        "setups": setups,
    }
    correct = not errors and failed == 0 and self_time_ok
    model = next((r["model"] for r in reps if "model" in r), None)
    if model is not None:
        record["model_outputs"] = {
            name: {"value": model[name], "paper": PAPER[name]} for name in PAPER
        }
        record["model_outputs"]["pairs"] = model["pairs"]

    if args.trace:
        probe = hash_dependent_apps(args, hard_deadline)
        record["hash_probe"] = probe
        names = sorted({name for r in traced_reps for name in r["layers"]})
        metrics = {name: median([r["layers"][name] for r in traced_reps]) for name in names}
        plain_ref = median([r["run"]["reference_s"] for r in plain])
        traced_ref = median([r["run"]["reference_s"] for r in traced_reps])
        metrics["obs.trace_overhead_pct"] = (
            100.0 * (traced_ref / plain_ref - 1.0) if plain_ref else 0.0
        )
        metrics["traffic.hash_dependent_apps"] = probe["count"]
        for name in PAPER:
            metrics[name] = model[name] if model else 0.0
        metrics["workload.traced_wall_s"] = median([r["traced_wall_s"] for r in traced_reps])
        record["self_time_ok"] = self_time_ok
    else:
        metrics = {
            "specs_per_s": median([r["attempted"] / r["run"]["reference_s"] for r in plain]),
            "setup_s": median([s["reference_s"] for s in setups]),
            "peak_rss_mb": median([r["rss_mb"] for r in plain]),
        }
        record["wall_clock"] = {
            "specs_per_s": median([r["attempted"] / r["run"]["wall_s"] for r in plain]),
            "setup_s": median([s["wall_s"] for s in setups]),
        }
    record["result"] = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }
    return record


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name in ("sim.kernel_share", "exec.cache_hit_ratio", "core.precompute_per_design") \
            or name.startswith("routing.adele_vs_ef"):
        return "ratio"
    return "count"


def record_digests(args) -> None:
    """Re-record digests.json at the default seed (all three workloads)."""
    import checks

    table = {}
    for workload in workloads.WORKLOADS:
        args.workload = workload
        result = run_child(args, "full", False, time.monotonic() + 600, record_digests=True)
        if "error" in result or "digests" not in result:
            raise ChildFailed(result.get("error", "no digests"))
        table[workload] = {"seed": args.seed, "pythonhashseed": HASH_SEED,
                           "rows": result["digests"]}
        print(f"{workload}: {len(result['digests'])} rows", file=sys.stderr)
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    os.makedirs(WORK, exist_ok=True)
    # Bytecode is compiled once here, outside every timed region.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], check=True,
                   capture_output=True, timeout=120)
    try:
        if args.record_digests:
            record_digests(args)
            return 0
        record = measure(args)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        for name in os.listdir(WORK):
            path = os.path.join(WORK, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
    result = record["result"]
    print(f"{args.workload} seed {args.seed}: {record['repetitions']} repetitions, "
          f"{record['specs_attempted']} specs attempted, {record['specs_failed']} failed")
    for line in record["failures"] + record["errors"]:
        print(f"  FAILED {line}")
    for name, entry in record.get("model_outputs", {}).items():
        if isinstance(entry, dict):
            print(f"  model output {name} = {entry['value']:.4f} (paper: {entry['paper']}; "
                  "reported, never gated -- see ROADMAP item 3)")
    with open(os.path.join(WORK, f"record-{args.workload}.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
