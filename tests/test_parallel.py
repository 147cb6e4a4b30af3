"""Chunk groups: the partition of chunks and the group engines' exactness.

Every group engine must give, bit for bit, what its chunks give when each is
stepped alone by the per-chunk loops in ``oracles``, whatever the grouping.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import collisionlab
import oracles
import nets
from collisionlab._parallel import (
    BLOCK_STEPS,
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
from collisionlab.models import CombLattice, PathLattice, gen_torus

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

    @pytest.mark.parametrize("sizes", [(512, 512, 77), (300,)])
    def test_block_draws_are_each_chunks_lone_draws(self, sizes):
        # two full blocks and a short last one
        steps = 2 * BLOCK_STEPS + 5
        group = ChunkGroup.streams(7, TAG_GROWTH, 4, sizes)
        draws = [d.reshape(2, group.size).copy() for d in group.uniforms(2, steps)]
        assert len(draws) == steps
        for c, (a, b) in enumerate(zip(group.bounds[:-1], group.bounds[1:])):
            alone = substream_rng(7, TAG_GROWTH, 4 + c)
            for r in draws:
                assert np.array_equal(np.concatenate([r[0, a:b], r[1, a:b]]),
                                      alone.random(2 * sizes[c]))

    def test_parts_split_active_by_chunk(self):
        group = ChunkGroup([None, None, None], (4, 4, 4))
        assert [(lo, hi) for _, lo, hi in group.parts(np.array([1, 2, 9, 11]))] == [(0, 2), (2, 4)]


# horizons on both sides of block edges, with a short last block
BLOCK_EDGES = (0, 1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 7)


class TestGrowthGroups:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("replicas", [REMAINDER, WIDE])
    @pytest.mark.parametrize("graph,start", [
        (CombLattice(80), None),
        (PathLattice(80), None),
        (gen_torus(6).network, 0),
        (gen_torus(6).network, (0, 7)),
    ], ids=["comb", "path", "torus", "torus_pair"])
    def test_block_edges_match_per_chunk_loop(self, graph, start, replicas, workers):
        got = collision_growth(graph, start, BLOCK_EDGES, replicas, seed=31, workers=workers)
        stepper, origin = _resolve_pair(graph, start)
        want = oracles.per_chunk(oracles.growth_chunk_loop,
                                 (stepper, origin, BLOCK_EDGES, 31), replicas, axis=1)
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
