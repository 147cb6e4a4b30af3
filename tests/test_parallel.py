"""Chunk groups: the partition of chunks and the group engines' exactness.

Every group engine must give, bit for bit, what its chunks give when each is
stepped alone by the per-chunk loops in ``oracles``, whatever the grouping.
"""

import concurrent.futures
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import collisionlab
import oracles
import nets
from collisionlab import _parallel
from collisionlab._parallel import (
    BLOCK_BYTES,
    GROUP_CHUNKS,
    REPLICA_CHUNK,
    TAG_GROWTH,
    ChunkGroup,
    chunk_groups,
    chunk_sizes,
    run_chunked,
    substream_rng,
)
from collisionlab.collision_stats import _resolve_pair, collision_growth
from collisionlab.interacting import (continuous_collision_ensemble, voter_ensemble,
                                     voter_simulate)
from collisionlab.models import CombLattice, GridLattice, PathLattice, gen_torus

REMAINDER = 3 * REPLICA_CHUNK + 77
# more chunks than one group holds, the last one short
WIDE = (GROUP_CHUNKS + 2) * REPLICA_CHUNK + 5


def _square(x):
    return x * x


class TestRunChunked:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_yields_in_payload_order(self, workers):
        assert list(run_chunked(_square, list(range(7)), workers)) == [x * x for x in range(7)]

    def test_runs_each_payload_when_its_result_is_taken(self):
        calls = []
        results = run_chunked(lambda p: calls.append(p) or p, [4, 5, 6])
        assert calls == []
        assert next(results) == 4 and calls == [4]
        assert list(results) == [5, 6] and calls == [4, 5, 6]

    def test_pool_capped_at_usable_cpus(self, monkeypatch):
        started = []

        class Pool:  # runs each payload at submit, in this process
            def __init__(self, max_workers, mp_context):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, worker, payload):
                future = concurrent.futures.Future()
                future.set_result(worker(payload))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 3)
        squares = [x * x for x in range(10)]
        assert list(run_chunked(_square, list(range(10)), 100_000)) == squares
        assert list(run_chunked(_square, list(range(2)), 100_000)) == squares[:2]
        assert started == [3, 2]
        # one usable CPU runs the payloads here, with no pool
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)
        assert list(run_chunked(_square, list(range(10)), 4)) == squares
        assert started == [3, 2]

    def test_cli_import_leaves_out_the_pool(self):
        # only workers > 1 starts a pool, so a fresh import loads neither module
        script = ("import sys, collisionlab.experiment_cli\n"
                  "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n")
        src = str(Path(collisionlab.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"


class TestChunkGroups:
    @pytest.mark.parametrize("replicas", [1, 511, 512, 513, REMAINDER, WIDE, 100 * 512])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_contiguous_bounded_partition(self, replicas, workers):
        groups = chunk_groups(replicas, workers)
        sizes = chunk_sizes(replicas)
        assert [s for _, g in groups for s in g] == sizes
        widths = [len(g) for _, g in groups]
        assert [first for first, _ in groups] == np.cumsum([0] + widths[:-1]).tolist()
        assert len(groups) >= min(workers, len(sizes))
        # each worker steps as many groups, unless there are fewer chunks than that
        assert len(groups) % workers == 0 or len(groups) == len(sizes)
        assert max(widths) <= GROUP_CHUNKS
        assert max(widths) - min(widths) <= 1

    @pytest.mark.parametrize("sizes", [(512, 512, 77), (300,), (REPLICA_CHUNK,) * GROUP_CHUNKS])
    def test_block_draws_are_each_chunks_lone_draws(self, sizes, monkeypatch):
        # two full blocks and a short last one, drawn inline and ahead
        steps = 2 * _block_steps(sum(sizes)) + 5
        for cpus in (1, 4):
            monkeypatch.setattr(_parallel, "_usable_cpus", lambda: cpus)
            group = ChunkGroup.streams(7, TAG_GROWTH, 4, sizes)
            draws = [r.copy() for block in group.blocks(2, steps) for r in block]
            assert len(draws) == steps
            for c, (a, b) in enumerate(zip(group.bounds[:-1], group.bounds[1:])):
                alone = substream_rng(7, TAG_GROWTH, 4 + c)
                for r in draws:
                    assert np.array_equal(np.concatenate([r[0, a:b], r[1, a:b]]),
                                          alone.random(2 * sizes[c]))

    @pytest.mark.parametrize("chunks,steps", [(2, 64), (GROUP_CHUNKS, 8)])
    def test_block_holds_block_bytes(self, chunks, steps):
        # 64 steps of a pair state at 1,024 replicas, 8 at the widest group
        rngs = [_Draws(c) for c in range(chunks)]
        group = ChunkGroup(rngs, (REPLICA_CHUNK,) * chunks)
        assert sum(len(block) for block in group.blocks(2, 2 * steps + 5)) == 2 * steps + 5
        for rng in rngs:
            assert rng.sizes == [(steps, 2, REPLICA_CHUNK)] * 2 + [(5, 2, REPLICA_CHUNK)]

    def test_parts_split_active_by_chunk(self):
        group = ChunkGroup([None, None, None], (4, 4, 4))
        assert [(lo, hi) for _, lo, hi in group.parts(np.array([1, 2, 9, 11]))] == [(0, 2), (2, 4)]


def _block_steps(width, rows=2):
    """Steps in a block of ``ChunkGroup.blocks`` for a group of ``width`` replicas."""
    return max(1, BLOCK_BYTES // (8 * rows * width))


def _block_edges(replicas, workers):
    """Horizons on both sides of every group's block edges, with a short last block."""
    edges = {0, 1}
    for _, sizes in chunk_groups(replicas, workers):
        n = _block_steps(sum(sizes))
        edges |= {n - 1, n, n + 1, 2 * n + 7}
    return tuple(sorted(edges))


class _Draws:
    """A generator that records the sizes of its ``random`` calls and raises on
    call ``fail`` (counted from 1)."""

    def __init__(self, seed, fail=0):
        self.rng, self.sizes, self.fail = np.random.default_rng(seed), [], fail

    def random(self, out):
        self.sizes.append(out.shape)
        if len(self.sizes) == self.fail:
            raise RuntimeError(f"draw {self.fail} failed")
        return self.rng.random(out=out)


class TestDrawThread:
    """The thread that fills the next block of ``ChunkGroup.blocks``."""

    @staticmethod
    def _cpus(monkeypatch, cpus):
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: cpus)

    @staticmethod
    def _starts(monkeypatch):
        started = []

        class Thread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(_parallel.threading, "Thread", Thread)
        return started

    @pytest.mark.parametrize("cpus,blocks,processes,threads", [
        (2, 3, 1, 1),
        (1, 3, 1, 0),  # one usable CPU
        (2, 1, 1, 0),  # a single block
        (2, 3, 2, 0),  # every CPU steps a group already
        (4, 3, 2, 1),
    ])
    def test_thread_only_with_blocks_and_a_spare_cpu(self, monkeypatch, cpus, blocks,
                                                     processes, threads):
        self._cpus(monkeypatch, cpus)
        started = self._starts(monkeypatch)
        group = ChunkGroup.streams(3, TAG_GROWTH, 0, (512, 512))
        steps = blocks * _block_steps(group.size)
        assert sum(len(block) for block in group.blocks(2, steps, processes)) == steps
        assert len(started) == threads
        assert not any(t.is_alive() for t in started)

    def test_close_mid_block_stops_the_thread(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        before = threading.active_count()
        group = ChunkGroup.streams(3, TAG_GROWTH, 0, (512, 512))
        n = _block_steps(group.size)
        draws = group.blocks(2, 10 * n)
        for _ in range(2):  # into the second block
            next(draws)
        assert threading.active_count() == before + 1
        draws.close()
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_draw_error_is_raised_in_the_caller(self, monkeypatch, cpus):
        # one chunk, so the third random call draws the third block
        self._cpus(monkeypatch, cpus)
        before = threading.active_count()
        n = _block_steps(300)
        group = ChunkGroup([_Draws(5, fail=3)], (300,))
        want = np.random.default_rng(5).random((2 * n, 2, 300))
        got, raised = [], []

        def consume():  # in a thread of its own, so a lost error cannot hang the test
            try:
                for block in group.blocks(2, 5 * n):
                    got.extend(r.copy() for r in block)
            except RuntimeError as exc:
                raised.append(exc)

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=30)
        assert not consumer.is_alive()
        assert [str(e) for e in raised] == ["draw 3 failed"]
        assert np.array_equal(np.array(got), want)
        assert threading.active_count() == before

    def test_error_in_the_caller_stops_the_thread(self, monkeypatch):
        # an error raised in the second block, in each loop of _growth_chunk
        self._cpus(monkeypatch, 2)
        before = threading.active_count()
        first_block = _block_steps(1024)
        walked = []

        def step(steps):
            walked.append(steps)
            if sum(walked) > first_block:
                raise ZeroDivisionError

        class BrokenComb(CombLattice):  # the per-step loop
            def advance(self, state, r):
                step(1)
                super().advance(state, r)

        class BrokenPath(PathLattice):  # the block loop
            def difference_steps(self, r, out):
                step(len(r))
                super().difference_steps(r, out)

        for walker in (BrokenComb(600), BrokenPath(600)):
            walked.clear()
            # the traceback keeps the group's frame alive, so only closing
            # the draws on the way out can have stopped the thread
            with pytest.raises(ZeroDivisionError) as caught:
                collision_growth(walker, None, [500], 1024, seed=1)
            assert sum(walked) > first_block
            assert threading.active_count() == before
            del caught

    def test_handoffs_under_fast_switching(self, monkeypatch):
        # three groups drawn at once, six threads on fewer CPUs, many small
        # blocks and a switch every microsecond: a block refilled before its
        # caller is done with it would change that caller's draws
        monkeypatch.setattr(_parallel, "BLOCK_BYTES", 8 * 2 * 600 * 3)
        self._cpus(monkeypatch, 1)
        want = [np.concatenate([b.copy() for b in ChunkGroup.streams(s, TAG_GROWTH, 0, (512, 88))
                                .blocks(2, 400)]) for s in range(3)]
        self._cpus(monkeypatch, 2)
        got = [None] * 3

        def consume(s):
            group = ChunkGroup.streams(s, TAG_GROWTH, 0, (512, 88))
            got[s] = np.concatenate([b.copy() for b in group.blocks(2, 400)])

        consumers = [threading.Thread(target=consume, args=(s,), daemon=True) for s in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in consumers:
                t.start()
            for t in consumers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in consumers)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestGrowthGroups:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("replicas", [REMAINDER, WIDE])
    @pytest.mark.parametrize("graph,start", [
        (CombLattice(300), None),
        (PathLattice(300), None),
        (GridLattice(300), None),
        (gen_torus(6).network, 0),
        (gen_torus(6).network, (0, 7)),
    ], ids=["comb", "path", "grid", "torus", "torus_pair"])
    def test_block_edges_match_per_chunk_loop(self, graph, start, replicas, workers,
                                              monkeypatch):
        edges = _block_edges(replicas, workers)
        stepper, origin = _resolve_pair(graph, start)
        want = oracles.per_chunk(oracles.growth_chunk_loop,
                                 (stepper, origin, edges, 31), replicas, axis=1)
        for cpus in (1, 4):  # drawn inline, and ahead in every process
            monkeypatch.setattr(_parallel, "_usable_cpus", lambda: cpus)
            got = collision_growth(graph, start, edges, replicas, seed=31, workers=workers)
            assert np.array_equal(got.counts, want)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("replicas", [REMAINDER, WIDE])
    def test_lattice_matches_per_chunk_loop(self, replicas, workers):
        lat = CombLattice(40)
        got = collision_growth(lat, None, [0, 3, 17, 30], replicas, seed=11, workers=workers)
        stepper, origin = _resolve_pair(lat, None)
        want = oracles.per_chunk(oracles.growth_chunk_loop,
                                 (stepper, origin, (0, 3, 17, 30), 11), replicas, axis=1)
        assert np.array_equal(got.counts, want)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_pair_start_matches_per_chunk_loop(self, workers):
        net = gen_torus(5).network
        got = collision_growth(net, (0, 7), [4, 25], REMAINDER, seed=2, workers=workers)
        stepper, origin = _resolve_pair(net, (0, 7))
        assert origin.tolist() == [0, 7]
        want = oracles.per_chunk(oracles.growth_chunk_loop,
                                 (stepper, origin, (4, 25), 2), REMAINDER, axis=1)
        assert np.array_equal(got.counts, want)

    def test_path_walker_matches_per_chunk_loop(self):
        lat = PathLattice(64)
        got = collision_growth(lat, None, [63], WIDE, seed=5)
        stepper, origin = _resolve_pair(lat, None)
        want = oracles.per_chunk(oracles.growth_chunk_loop, (stepper, origin, (63,), 5),
                                 WIDE, axis=1)
        assert np.array_equal(got.counts, want)


class TestVoterGroups:
    @staticmethod
    def _check(net, initial, t_max, replicas, seed, workers):
        got = voter_ensemble(net, initial, t_max, replicas, seed, workers=workers)
        ops, val, when, events, rounds = oracles.per_chunk(
            oracles.voter_block_chunk_loop,
            (net, np.asarray(initial, dtype=np.int8), t_max, seed), replicas)
        assert np.array_equal(got.final_opinions, ops)
        assert np.array_equal(got.consensus_value, val)
        assert np.array_equal(got.consensus_time, when, equal_nan=True)
        assert got.events == events.sum()
        assert got.rounds == oracles.group_rounds(rounds, replicas, workers)
        return got

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("replicas", [REMAINDER, WIDE])
    def test_matches_per_chunk_loop(self, replicas, workers):
        self._check(nets.weighted_triangle(), [0, 1, 1], 50.0, replicas, 3, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_t_max_cut_off(self, workers):
        # about a third of the replicas are still running at t_max
        initial = [0, 1] * 4 + [0]
        got = self._check(gen_torus(3).network, initial, 6.0, REMAINDER, 17, workers)
        unreached = int((got.consensus_value < 0).sum())
        assert 0 < unreached < got.replicas
        assert np.isnan(got.consensus_time).sum() == unreached

    @pytest.mark.parametrize("workers", [1, 2])
    def test_t_max_cuts_many_chunks(self, workers):
        # a weighted net whose sampler searches (ladder 1, four rows split);
        # t_max cuts while every full chunk still has about a quarter of its
        # replicas running
        net = nets.random_connected_network(1)
        got = self._check(net, [0, 1] * 5, 20.0, WIDE, 21, workers)
        unreached = (got.consensus_value < 0)[:WIDE - WIDE % REPLICA_CHUNK]
        assert unreached.reshape(-1, REPLICA_CHUNK).any(axis=1).all()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_short_budgets(self, workers):
        # V * t_max = 0.9 events: a replica with no budget draws nothing, and
        # the others end within the first blocks of 1, 2 and 4 rounds
        initial = [0, 1] * 4 + [0]
        got = self._check(gen_torus(3).network, initial, 0.1, WIDE, 23, workers)
        assert (got.consensus_value < 0).all()
        assert got.events < got.replicas

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_horizon(self, workers):
        # t_max = inf draws no budget and Gamma(k) / V times
        got = self._check(nets.weighted_triangle(), [0, 1, 1], np.inf, REMAINDER, 5, workers)
        assert (got.consensus_value >= 0).all()

    @pytest.mark.parametrize("value", [0, 1])
    def test_constant_start(self, value):
        got = self._check(nets.weighted_triangle(), [value] * 3, 5.0, REMAINDER, 4, 1)
        assert (got.consensus_value == value).all() and (got.consensus_time == 0.0).all()

    def test_generator_state_after_run(self):
        # a Generator used before the run ends where the budget, one call a
        # block and the time draw leave it
        net, initial = gen_torus(3).network, np.array([0, 1] * 4 + [0], dtype=np.int8)
        got, want = np.random.default_rng(8), np.random.default_rng(8)
        got.random(5), want.random(5)
        config, when = voter_simulate(net, initial, 30.0, got)
        ops, _, cons_time, _, _ = oracles.voter_block_loop(net, initial, 30.0, want, 1)
        assert np.array_equal(config.opinions, ops[0])
        assert when == cons_time[0]
        assert got.bit_generator.state == want.bit_generator.state


class TestCtGroups:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("replicas", [REMAINDER, WIDE])
    def test_matches_per_chunk_loop(self, replicas, workers):
        net = nets.weighted_triangle()
        got = continuous_collision_ensemble(net, 0, 3.0, 8, replicas, seed=9, workers=workers)
        want = oracles.per_chunk(oracles.ct_chunk_loop, (net, 0, 3.0, 8, 9), replicas)
        assert np.array_equal(got, want)

    def test_torus_matches_per_chunk_loop(self):
        net = gen_torus(4).network
        got = continuous_collision_ensemble(net, 5, 4.0, 16, REMAINDER, seed=13)
        want = oracles.per_chunk(oracles.ct_chunk_loop, (net, 5, 4.0, 16, 13), REMAINDER)
        assert np.array_equal(got, want)
