"""Replica chunking with worker-count-independent results.

Replicas are partitioned into fixed-size chunks; chunk ``i`` draws all of its
randomness from the stream (master_seed, tag, i) and results are merged in
chunk order, so the output is identical whether chunks run sequentially or on
any number of workers.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

REPLICA_CHUNK = 512

# stream namespace tags, one per replica-chunked experiment family, and the
# tag of walk_pair's per-replica walker streams
TAG_GROWTH = 101
TAG_VOTER = 102
TAG_CTCOLLIDE = 103
TAG_PAIR = 104


def chunk_sizes(replicas, chunk=REPLICA_CHUNK):
    """Sizes of the fixed partition of ``replicas`` into chunks."""
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    full, rest = divmod(replicas, chunk)
    return [chunk] * full + ([rest] if rest else [])


def run_chunked(worker, payloads, workers=1):
    """Run ``worker(payload)`` over all payloads, results in payload order.

    ``worker`` must be a top-level function (picklable) when workers > 1.
    """
    if workers <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads)), mp_context=ctx) as pool:
        return list(pool.map(worker, payloads))
