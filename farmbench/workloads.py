"""The benchmark's workloads: seed -> the manifest the farm is handed.

The farm only ever sees the generated manifest.  Every builder below
goes through the program's public manifest API (``Manifest.builtin``,
``iter_corpus_jobs``, ``ShardedManifest``) exactly as the ``repro farm``
and ``repro shard`` commands do.  Why each workload exists, and which
layer metric should move on it, is written down in README.md.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict

WORKLOADS = ("apps_cold", "apps_warm", "corpus_stream")

# Size presets.  ``replicas`` copies of the 19-job builtin manifest (each
# copy with its own seed-derived Monkey seed, so every job has its own
# digest).  The corpus is spooled in 256-job shards so that the two
# shard workers' stride assignments get nearly equal work (6 vs 5.1
# shards), with ``repro shard``'s chunk of 16 records per job.
SIZES: Dict[str, Dict] = {
    "full": {"replicas": 3, "corpus_scale": 0.2, "chunk": 16,
             "shard_size": 256},
    "tiny": {"replicas": 1, "corpus_scale": 0.005, "chunk": 16,
             "shard_size": 32},
}

WORKERS = 2


def job_seeds(seed: int, replicas: int):
    """Distinct per-replica job seeds derived from the workload seed."""
    rng = random.Random(f"farmbench:{seed}")
    seeds: list = []
    while len(seeds) < replicas:
        candidate = rng.randrange(1 << 30)
        if candidate not in seeds:
            seeds.append(candidate)
    return seeds


def apps_manifest(seed: int, replicas: int):
    """The builtin 19-job manifest, replicated ``replicas`` times."""
    from repro.farm import Manifest

    jobs = []
    for copy, job_seed in enumerate(job_seeds(seed, replicas)):
        for spec in Manifest.builtin(seed=job_seed).jobs:
            jobs.append(dataclasses.replace(spec, id=f"{spec.id}#{copy}"))
    return Manifest(jobs=jobs)


def corpus_seed(seed: int) -> int:
    return random.Random(f"farmbench-corpus:{seed}").randrange(1 << 30)


def write_corpus_shards(directory: str, seed: int, size: Dict) -> None:
    """Spool the Section III corpus jobs into shards (``repro shard``)."""
    from repro.farm import ShardedManifest, iter_corpus_jobs

    ShardedManifest.write(
        directory,
        iter_corpus_jobs(scale=size["corpus_scale"], seed=corpus_seed(seed),
                         chunk=size["chunk"]),
        shard_size=size["shard_size"])
