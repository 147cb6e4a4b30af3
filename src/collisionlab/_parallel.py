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

Fixed-width draws, one per step, come in blocks of about ``BLOCK_BYTES``
(:meth:`ChunkGroup.blocks`), each an (n, rows, size) array of n steps: a
chunk of m replicas draws the next n steps' uniforms as one ``random`` call
that fills an (n, rows, m) array, reused from block to block, and copies it
into its slice.  ``Generator.random`` takes one 64-bit word per double, in
order, so that call returns exactly the n per-step ``random(rows * m)``
draws, and a chunk's draws do not depend on the block length.  The caller
takes a block's steps as it needs them, a row at a time or many steps in one
call.  When a run has more than one block and the process may use more CPUs
than there are processes stepping groups, a draw thread fills the next block
while the caller steps the current one: ``Generator.random`` releases the
GIL while it fills.  Two pool workers on two CPUs draw inline: with a draw
thread each, collision_growth of 1,024 and 16,384 pairs at workers=2 took
0.98-1.10x the time of drawing inline (2 vCPUs).

Every generator comes from :func:`substream_rng`, the percolation and Wilson
models' too: :func:`_as_rng` gives them the stream (seed, 0).  Stream paths
are padded with zeros by ``np.random.SeedSequence``, so a trailing 0 names
no new stream: chunk 0 (s, tag, 0) draws what (s, tag) would, and (s, 0)
draws what ``default_rng(s)`` does.  A model built with seed s and a walk run
with seed s therefore share their uniforms; the streams are kept as they are
because re-seeding would change every pinned output.
"""

from __future__ import annotations

import os
import queue
import threading
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
# rounds per voter block.  Longer blocks make fewer generator calls until
# the block leaves the cache.  A voter block's uniform pairs, rung vertices,
# neighbors and copied opinions take about 42 bytes a round and replica at
# peak (tracemalloc), under 56 x BLOCK_STEPS x the group's width, 14 MiB per
# worker at 8,192 replicas.  The block edges depend on this constant, so it
# fixes the voter's draws.
BLOCK_STEPS = 32
# bytes of a block of fixed-width draws, of which a run holds two while its
# draw thread fills one ahead.  Every block costs a few GIL handoffs between
# the draw thread and the stepping loop, so small blocks lose: collision_growth
# of 1,024 pairs (2 vCPUs, median of 25 alternating runs) took 0.98 / 0.83 /
# 0.75 / 0.75x the time of inline 32-step blocks on path R=5001 (T=5000) and
# 1.00 / 0.87 / 0.81 / 0.82x on grid R=1251 (T=1250) with blocks of 256 KiB /
# 512 KiB / 1 MiB / 2 MiB drawn ahead.  A block holds 64 steps of a pair state
# at 1,024 replicas and 8 at the widest group, whose chunk draws on their way
# into the block take 64 KiB each.
BLOCK_BYTES = 2**20

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


def _usable_cpus():
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


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

    def blocks(self, rows, steps, processes=1):
        """Yield the draws of ``steps`` steps in blocks, each a (k, rows, size) array.

        Chunk c's slices of a step's rows, row 0 first, are the one
        ``random(rows * m)`` draw of its m replicas alone.  A block holds
        about ``BLOCK_BYTES``, one ``random`` call of k x rows x m per chunk,
        and the last block stops at step ``steps``, so no chunk draws past
        it.  With more than one block, and more usable CPUs than the
        ``processes`` that step groups at once, a draw thread fills the next
        block while the caller uses this one; its errors are raised here,
        and closing the generator stops and joins it.  A yielded block is
        overwritten by a later one, and the caller may overwrite it: use it
        before taking the next.
        """
        n = max(1, min(steps, BLOCK_BYTES // (8 * rows * self.size)))
        lengths = [min(n, steps - done) for done in range(0, steps, n)]
        ahead = len(lengths) > 1 and _usable_cpus() > processes
        blocks = [np.empty((n, rows, self.size)) for _ in range(1 + ahead)]
        # each chunk's draw, reused: a new array per draw left 1 MB of the
        # heap free but scattered after 45 s of lattice_mc rounds (2 vCPUs)
        part = np.empty(n * rows * int(np.diff(self.bounds).max()))
        if not ahead:
            for k in lengths:
                self._fill(blocks[0], k, part)
                yield blocks[0][:k]
            return
        free, ready = queue.SimpleQueue(), queue.SimpleQueue()

        def draw():  # one token from ``free`` per block, False to stop
            try:
                for i, k in enumerate(lengths):
                    if not free.get():
                        return
                    self._fill(blocks[i % 2], k, part)
                    ready.put(None)
            except BaseException as exc:  # raised in the caller
                ready.put(exc)

        free.put(True)
        free.put(True)
        thread = threading.Thread(target=draw, name="uniforms", daemon=True)
        thread.start()
        try:
            for i, k in enumerate(lengths):
                exc = ready.get()
                if exc is not None:
                    raise exc
                yield blocks[i % 2][:k]
                free.put(True)
        finally:
            free.put(False)
            thread.join()

    def _fill(self, block, n, part):
        """Fill the first ``n`` steps of ``block``, one draw per chunk into ``part``."""
        rows = block.shape[1]
        for rng, a, b in zip(self.rngs, self.bounds[:-1].tolist(), self.bounds[1:].tolist()):
            draw = part[:n * rows * (b - a)].reshape(n, rows, b - a)
            rng.random(out=draw)
            block[:n, :, a:b] = draw

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
    No more processes start than there are payloads or usable CPUs.
    """
    workers = min(workers, len(payloads), _usable_cpus())
    if workers <= 1:
        yield from map(worker, payloads)
        return
    # imported here: together they take 20-27 ms, and one worker needs neither
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        pending = deque()
        for payload in payloads:
            pending.append(pool.submit(worker, payload))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
