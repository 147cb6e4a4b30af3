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

Fixed-width draws, one per step, come in blocks (:meth:`ChunkGroup.uniforms`):
a chunk of m replicas draws the next n <= ``BLOCK_STEPS`` steps' uniforms as
one ``random((n, rows, m))`` call.  ``Generator.random`` takes one 64-bit
word per double, in order, so that call returns exactly the n per-step
``random(rows * m)`` draws, and a chunk's draws do not depend on the block
length.

Every generator comes from :func:`substream_rng`, the percolation and Wilson
models' too: :func:`_as_rng` gives them the stream (seed, 0).  Stream paths
are padded with zeros by ``np.random.SeedSequence``, so a trailing 0 names
no new stream: chunk 0 (s, tag, 0) draws what (s, tag) would, and (s, 0)
draws what ``default_rng(s)`` does.  A model built with seed s and a walk run
with seed s therefore share their uniforms; the streams are kept as they are
because re-seeding would change every pinned output.
"""

from __future__ import annotations

from collections import deque

import numpy as np

REPLICA_CHUNK = 512
# widest group, in chunks.  Stepping gets cheaper per walker-step with width
# until the arrays leave the cache: collision_growth of 32,768 pairs (best of
# 3, 2 vCPUs) took 0.60 / 0.30 / 0.29 / 0.46 s on comb R=300 (T=250) and
# 0.42 / 0.28 / 0.43 / 0.45 s on torus 64 (T=100) with groups of 1 / 16 / 32
# / 64 chunks.  The bound also caps a group's working memory at 16 x 512
# replicas.
GROUP_CHUNKS = 16
# steps per block of fixed-width draws.  Longer blocks make fewer generator
# calls until the block leaves the cache: collision_growth of 1,024 pairs
# (best of 5, 2 vCPUs) took 111 / 78 / 92 / 76 / 84 / 87 ms on path R=5001
# (T=5000) and 30 / 20 / 20 / 19 / 19 / 22 ms on grid R=1251 (T=1250) with
# blocks of 1 / 8 / 16 / 32 / 64 / 128 steps.  The bound caps a group's block
# at BLOCK_STEPS x rows x GROUP_CHUNKS x 512 doubles: 4 MiB per worker for the
# two rows of a pair state, 512 KiB at 1,024 replicas, plus one chunk's draw
# of 256 KiB on its way into the block.  It also bounds a voter block's
# rounds: their uniform pairs, rung vertices, neighbors and copied opinions
# take about 42 bytes a round and replica at peak (tracemalloc), under 56 x
# BLOCK_STEPS x the group's width, 14 MiB per worker at 8,192 replicas.
BLOCK_STEPS = 32

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


def _as_rng(seed):
    """A Generator passes through; an integer seed becomes its stream (seed, 0)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return substream_rng(seed, 0)


def chunk_sizes(replicas):
    """Sizes of the fixed partition of ``replicas`` into chunks."""
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    full, rest = divmod(replicas, REPLICA_CHUNK)
    return [REPLICA_CHUNK] * full + ([rest] if rest else [])


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

    def uniforms(self, rows, steps):
        """Yield ``steps`` draws, each a flat (rows x size) array of uniforms.

        Chunk c's slices of a draw's rows, row 0 first, are the one
        ``random(rows * m)`` draw of its m replicas alone.  Draws come in
        blocks of at most ``BLOCK_STEPS`` steps, one ``random((n, rows, m))``
        call per chunk, so no chunk draws past step ``steps``.  A yielded
        array is overwritten by a later block: use it before the next draw.
        """
        bounds = self.bounds.tolist()
        block = np.empty((min(steps, BLOCK_STEPS), rows, self.size))
        draws = block.reshape(len(block), -1)  # one flat row a step
        for done in range(0, steps, BLOCK_STEPS):
            n = min(BLOCK_STEPS, steps - done)
            for rng, a, b in zip(self.rngs, bounds[:-1], bounds[1:]):
                block[:n, :, a:b] = rng.random((n, rows, b - a))
            yield from draws[:n]

    def parts(self, active):
        """(generator, lo, hi) of every chunk holding active replicas.

        ``active`` is a sorted array of replica indices in the group; chunk
        c's active replicas are ``active[lo:hi]``.  A draw for the active set
        joins each part's draw of size hi - lo in this order.
        """
        cuts = np.searchsorted(active, self.bounds).tolist()
        return [(rng, lo, hi) for rng, lo, hi in zip(self.rngs, cuts[:-1], cuts[1:]) if hi > lo]


def run_chunked(worker, payloads, workers=1):
    """Yield ``worker(payload)`` for every payload, lazily, in payload order.

    ``worker`` must be a top-level function (picklable) when workers > 1.
    Callers pass one payload per group of :func:`chunk_groups` and copy each
    result into place before taking the next, so they hold one group's
    result beside the merged results, not every group's.  Nothing runs until
    the first result is taken.  At most ``workers`` payloads are submitted
    beyond the result being taken, as finished results wait here until taken.
    """
    if workers <= 1 or len(payloads) <= 1:
        yield from map(worker, payloads)
        return
    # imported here: together they take 20-27 ms, and one worker needs neither
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(workers, len(payloads))
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        pending = deque()
        for payload in payloads:
            pending.append(pool.submit(worker, payload))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
