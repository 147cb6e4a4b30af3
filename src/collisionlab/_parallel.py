"""Replica chunking with worker-count-independent results.

Replicas are partitioned into fixed-size chunks; chunk ``i`` draws all of its
randomness from the stream (master_seed, tag, i) and results are merged in
chunk order, so the output is identical whether chunks run sequentially or on
any number of workers.

A worker steps a contiguous run of chunks, a :class:`ChunkGroup`, as one
state, so each numpy call spans up to ``GROUP_CHUNKS`` chunks instead of one.
Every chunk keeps its own generator and fills only its own slice of each
draw, so a chunk makes the draws it would make alone, in the same order, and
the results do not depend on how the chunks are grouped.  Groups are
contiguous so that concatenating their results in group order is chunk order.

Stream paths are padded with zeros by ``np.random.SeedSequence``, so a
trailing 0 names no new stream: chunk 0 (s, tag, 0) draws what (s, tag)
would, and a single run's stream (s, 0) draws what ``default_rng(s)`` does,
the generator the percolation and Wilson models use.  A model built with
seed s and a walk run with seed s therefore share their uniforms; the streams
are kept as they are because re-seeding would change every pinned output.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

REPLICA_CHUNK = 512
# widest group, in chunks.  Stepping gets cheaper per walker-step with width
# until the arrays leave the cache: collision_growth of 32,768 pairs (best of
# 3, 2 vCPUs) took 0.60 / 0.30 / 0.29 / 0.46 s on comb R=300 (T=250) and
# 0.42 / 0.28 / 0.43 / 0.45 s on torus 64 (T=100) with groups of 1 / 16 / 32
# / 64 chunks.  The bound also caps a group's working memory at 16 x 512
# replicas.
GROUP_CHUNKS = 16

# stream namespace tags, one per replica-chunked experiment family, and the
# tag of walk_pair's per-replica walker streams
TAG_GROWTH = 101
TAG_VOTER = 102
TAG_CTCOLLIDE = 103
TAG_PAIR = 104


def substream_rng(master_seed, *path):
    """Generator for the stream (master_seed, *path), the one seed scheme.

    Each caller names its stream by a path of nonnegative integers: replica
    chunks by (tag, chunk index), walk pairs by (``TAG_PAIR``, replica,
    walker) and single runs by (0,).  ``master_seed`` must lie in [0, 2**64).
    ``SeedSequence`` pads the path with zeros, so trailing zeros do not make a
    new stream: (s, 0) is ``default_rng(s)`` and (s, tag, 0) is (s, tag).
    """
    master_seed = int(master_seed)
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must be a 64-bit nonnegative integer")
    return np.random.default_rng(
        np.random.SeedSequence((master_seed,) + tuple(int(p) for p in path))
    )


def chunk_sizes(replicas, chunk=REPLICA_CHUNK):
    """Sizes of the fixed partition of ``replicas`` into chunks."""
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    full, rest = divmod(replicas, chunk)
    return [chunk] * full + ([rest] if rest else [])


def chunk_groups(replicas, workers=1):
    """Split the chunks of ``replicas`` into contiguous groups.

    Returns (index of the group's first chunk, tuple of its chunk sizes) for
    each group, in chunk order.  The group count is a multiple of ``workers``
    while there are that many chunks, so each worker steps as many groups;
    none holds more than ``GROUP_CHUNKS`` chunks, and group widths differ by
    at most one chunk.
    """
    sizes = chunk_sizes(replicas)
    n = len(sizes)
    workers = max(1, min(workers, n))
    count = min(n, workers * -(-n // (workers * GROUP_CHUNKS)))
    cuts = [n * g // count for g in range(count + 1)]
    return [(a, tuple(sizes[a:b])) for a, b in zip(cuts, cuts[1:])]


class ChunkGroup:
    """Contiguous chunks stepped as one state, each with its own generator.

    Chunk c owns the replicas ``bounds[c]:bounds[c + 1]`` of the group and
    draws only from ``rngs[c]``, so it makes the draws it would make alone.
    """

    def __init__(self, rngs, sizes):
        self.rngs = rngs
        self.bounds = np.cumsum((0,) + tuple(sizes))
        self.size = int(self.bounds[-1])

    @classmethod
    def streams(cls, seed, tag, first, sizes):
        """The group of chunks first, first + 1, ... of the family ``tag``."""
        return cls([substream_rng(seed, tag, first + c) for c in range(len(sizes))], sizes)

    def filler(self, out):
        """A function that refills ``out``, C-contiguous (rows x size), and returns it.

        Chunk c fills its slice of row 0, then of row 1 and so on, which is
        the one ``random(rows * m)`` draw of a chunk of m replicas alone.
        The slices are made once: per step, the cost is one call per slice.
        """
        bounds = self.bounds.tolist()
        rows = out.reshape(-1, self.size)
        fills = [(rng.random, row[a:b])
                 for rng, a, b in zip(self.rngs, bounds[:-1], bounds[1:]) for row in rows]

        def refill():
            for fill, view in fills:
                fill(out=view)
            return out

        return refill

    def parts(self, active):
        """(generator, lo, hi) of every chunk holding active replicas.

        ``active`` is a sorted array of replica indices in the group; chunk
        c's active replicas are ``active[lo:hi]``.  A draw for the active set
        joins each part's draw of size hi - lo in this order.
        """
        cuts = np.searchsorted(active, self.bounds).tolist()
        return [(rng, lo, hi) for rng, lo, hi in zip(self.rngs, cuts[:-1], cuts[1:]) if hi > lo]


def run_chunked(worker, payloads, workers=1):
    """Run ``worker(payload)`` over all payloads, results in payload order.

    ``worker`` must be a top-level function (picklable) when workers > 1.
    Callers pass one payload per group of :func:`chunk_groups`.
    """
    if workers <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads)), mp_context=ctx) as pool:
        return list(pool.map(worker, payloads))
