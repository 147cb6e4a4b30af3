import hashlib
import time

import numpy as np
import pytest

import nets
import oracles
from collisionlab import (
    HorizonMismatchError,
    collision_measure,
    continuous_collision_ensemble,
    discretization_integral,
    dual_walker_positions,
    stationary_distribution,
    voter_ensemble,
    voter_simulate,
    walk_continuous,
)
from collisionlab import build_network, gen_torus, interacting
from collisionlab._parallel import TAG_CTCOLLIDE, TAG_VOTER, ChunkGroup, chunk_sizes
from collisionlab.interacting import _ct_chunk
from collisionlab.walk_engine import JumpTrajectory, substream_rng


def _jump(vertices, times, t_max):
    return JumpTrajectory(np.array(vertices), np.array(times, dtype=float), float(t_max))


class TestCollisionMeasure:
    def test_identical_trajectories(self):
        j = walk_continuous(nets.weighted_triangle(), 0, 4.0, seed=3)
        k = walk_continuous(nets.weighted_triangle(), 0, 4.0, seed=3)
        assert collision_measure(j, k).total == 4.0

    def test_disjoint_support(self):
        a = _jump([0], [0.0], 3.0)
        b = _jump([1], [0.0], 3.0)
        assert collision_measure(a, b).total == 0.0

    def test_horizon_mismatch(self):
        a = _jump([0], [0.0], 3.0)
        b = _jump([0], [0.0], 4.0)
        with pytest.raises(HorizonMismatchError):
            collision_measure(a, b)

    def test_hand_computed_overlap(self):
        a = _jump([0, 1, 0], [0.0, 1.0, 2.5], 4.0)
        b = _jump([1, 0], [0.0, 2.0], 4.0)
        m = collision_measure(a, b)
        # equal on [1.0, 2.0) at vertex 1 and [2.5, 4.0) at vertex 0
        assert m.intervals == ((1.0, 2.0), (2.5, 4.0))
        assert m.total == pytest.approx(2.5)

    def test_two_vertex_mean_formula(self):
        # P(X_t = Y_t) = (1 + exp(-4t)) / 2 for unit-rate flips, integrated
        t_max = 5.0
        table = continuous_collision_ensemble(
            nets.two_vertex(1.0), 0, t_max, 8, 30_000, seed=17
        )
        exact = t_max / 2 + (1 - np.exp(-4 * t_max)) / 8
        se = table[:, 0].std(ddof=1) / np.sqrt(table.shape[0])
        assert abs(table[:, 0].mean() - exact) < 3 * se

    def test_additivity_under_split(self):
        j = walk_continuous(nets.weighted_triangle(), 0, 6.0, seed=5)
        k = walk_continuous(nets.weighted_triangle(), 0, 6.0, seed=6)
        whole = collision_measure(j, k).total
        first = collision_measure(j.restrict(0.0, 3.0), k.restrict(0.0, 3.0)).total
        second = collision_measure(j.restrict(3.0, 6.0), k.restrict(3.0, 6.0)).total
        assert first + second == pytest.approx(whole, abs=1e-12)


class TestDiscretizationIntegral:
    def test_identical_trajectories(self):
        j = walk_continuous(nets.weighted_triangle(), 0, 4.0, seed=3)
        k = walk_continuous(nets.weighted_triangle(), 0, 4.0, seed=3)
        for grid in (1, 10, 1000):
            assert abs(discretization_integral(j, k, grid) - 4.0) <= 1.0 / grid + 1e-12

    def test_disjoint_support(self):
        a = _jump([0], [0.0], 3.0)
        b = _jump([1], [0.0], 3.0)
        assert discretization_integral(a, b, 100) == 0.0

    def test_riemann_bound_random_pairs(self):
        net = nets.weighted_triangle()
        rng = np.random.default_rng(23)
        grid = 1000
        for _ in range(25):
            j = walk_continuous(net, 0, 5.0, rng)
            k = walk_continuous(net, 0, 5.0, rng)
            m = collision_measure(j, k)
            est = discretization_integral(j, k, grid)
            bound = (2 * 5.0 + len(m.intervals) + 3) / grid
            assert abs(est - m.total) <= bound


class TestPairChain:
    """The batched continuous-time pair chain behind continuous_collision_ensemble."""

    @pytest.mark.parametrize("name,net", [
        ("torus4", gen_torus(4).network),
        ("weighted_triangle", nets.weighted_triangle()),
        ("two_vertex", nets.two_vertex(1.0)),
    ])
    @pytest.mark.parametrize("t_max,grid", [(4.0, 16), (2.5, 50)])
    def test_rows_match_rebuilt_trajectories(self, name, net, t_max, grid):
        # one group of 50 one-replica chunks: the scalar chain on chunk i's
        # substream makes row i's draws, and its trajectories give the row bit for bit
        rows = _ct_chunk((net, 0, t_max, grid, 31, 0, (1,) * 50))
        for i, row in enumerate(rows):
            rng = substream_rng(31, TAG_CTCOLLIDE, i)
            jx, jy = oracles.ct_pair_scalar(net, 0, t_max, rng)
            assert row[0] == collision_measure(jx, jy).total
            assert row[1] == discretization_integral(jx, jy, grid)

    def test_mean_matches_scalar_chunk(self):
        net, t_max, grid, n = gen_torus(4).network, 4.0, 16, 2000
        batched = continuous_collision_ensemble(net, 0, t_max, grid, n, seed=41)
        scalar = np.concatenate([oracles.ct_chunk_scalar((net, 0, t_max, grid, 42, i, size))
                                 for i, size in enumerate(chunk_sizes(n))])
        for col in range(2):
            a, b = batched[:, col], scalar[:, col]
            se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            assert abs(a.mean() - b.mean()) < 4 * se

    def test_single_vertex_holds_until_t_max(self):
        table = continuous_collision_ensemble(build_network(1, []), 0, 2.0, 50, 600, seed=3)
        assert table.shape == (600, 2)
        assert (table == [2.0, 2.02]).all()

    def test_fine_grid_needs_no_buffer(self):
        # no per-replica buffer: grid * (t_max + 2) floats would not fit in memory
        t0 = time.perf_counter()
        table = continuous_collision_ensemble(gen_torus(4).network, 0, 3.0, 10**12, 40, seed=5)
        assert time.perf_counter() - t0 < 1.0
        assert np.abs(table[:, 1] - table[:, 0]).max() < 1e-9

    @pytest.mark.parametrize("start,t_max,grid", [
        (16, 1.0, 8), (-1, 1.0, 8), (0, 0.0, 8), (0, float("nan"), 8), (0, 1.0, 0),
        (0, 3.0, 2**52),
    ])
    def test_rejects_bad_arguments(self, start, t_max, grid):
        with pytest.raises(ValueError):
            continuous_collision_ensemble(gen_torus(4).network, start, t_max, grid, 4, seed=1)


class TestVoterSimulate:
    def test_initial_consensus(self):
        cfg, t = voter_simulate(nets.p3(), [1, 1, 1], 10.0, seed=3)
        assert t == 0.0
        assert cfg.opinions.tolist() == [1, 1, 1]

    def test_absorbs_and_freezes(self):
        cfg, t = voter_simulate(nets.p3(), [0, 1, 0], 500.0, seed=9)
        assert t is not None
        assert cfg.opinions.min() == cfg.opinions.max()

    def test_timeout_returns_none(self):
        cfg, t = voter_simulate(nets.cycle(6), [0, 1, 0, 1, 0, 1], 1e-6, seed=9)
        assert t is None
        assert cfg.time == 1e-6

    @staticmethod
    def _battery_sha():
        """sha256 of outcomes over 1,500 runs."""
        h = hashlib.sha256()
        for net in (nets.p3(), nets.weighted_triangle(), nets.loop_triangle(),
                    nets.cycle(5), nets.star(4)):
            initial = np.arange(net.vertex_count) % 2
            for seed in range(100):
                for t_max in (0.3, 2.0, 1e9):
                    cfg, t = voter_simulate(net, initial, t_max, seed)
                    h.update(cfg.opinions.tobytes())
                    h.update(repr((str(cfg.opinions.dtype), cfg.time, t)).encode())
        return h.hexdigest()

    def test_pinned_battery(self):
        # re-pinned when the jump chain replaced the clock-driven rounds, and
        # again when it stepped in blocks of rounds; the next tests check the
        # old pins against the replaced laws
        assert self._battery_sha() == (
            "9944787a7fd1767735d1e5e587f20b84b9c1a094e95edb74f1f237640094c0ef"
        )

    def test_pinned_battery_jump_law_keeps_old_pin(self, monkeypatch):
        # the jump chain of one draw a round, swapped in for the blocks,
        # gives the pin fixed before the blocks of rounds
        def jump_batch(net, initial, t_max, group):
            return oracles.voter_jump_loop(net, initial, t_max, group.rngs[0], group.size)

        monkeypatch.setattr(interacting, "_voter_batch", jump_batch)
        assert self._battery_sha() == (
            "55fdf0ae07389265eddaaef7f66813917036d3b55f117d02353b143a289f4d3d"
        )

    def test_pinned_battery_old_law_keeps_old_pin(self, monkeypatch):
        # the clock-driven law, swapped in for the jump chain, gives the pin
        # fixed while voter_simulate still had its own scalar loop
        def clock_batch(net, initial, t_max, group):
            return oracles.voter_loop(net, initial, t_max, group.rngs[0], group.size)

        monkeypatch.setattr(interacting, "_voter_batch", clock_batch)
        assert self._battery_sha() == (
            "ea8d6d9fe0cf432aae5868d43ff2642826ac363be29d5f6a6f9bf0f5760066fc"
        )

    def test_single_edge_symmetric_consensus(self):
        wins = 0
        runs = 4000
        rng_seed = 0
        ens = voter_ensemble(nets.single_edge(), [0, 1], 200.0, runs, seed=rng_seed)
        wins = (ens.consensus_value == 1).sum()
        sigma = np.sqrt(0.25 / runs)
        assert abs(wins / runs - 0.5) < 3 * sigma


class TestVoterEnsemble:
    def test_matches_worker_counts(self):
        a = voter_ensemble(nets.p3(), [0, 1, 0], 450.0, 1200, seed=5, workers=1)
        b = voter_ensemble(nets.p3(), [0, 1, 0], 450.0, 1200, seed=5, workers=2)
        assert np.array_equal(a.consensus_value, b.consensus_value)
        assert np.array_equal(a.consensus_time, b.consensus_time, equal_nan=True)

    def test_p3_center_consensus_probability(self):
        ens = voter_ensemble(nets.p3(), [0, 1, 0], 450.0, 30_000, seed=6)
        assert ens.consensus_fraction() == 1.0
        ones = (ens.consensus_value == 1).mean()
        exact = oracles.voter_consensus_ones_exact(nets.p3(), [0, 1, 0])
        assert exact == pytest.approx(0.5, abs=1e-12)
        assert abs(ones - exact) < 3 * np.sqrt(0.25 / 30_000)

    def test_martingale_conserved(self):
        # E[sum_v pi(v) xi_t(v)] stays at its initial value
        net = nets.weighted_p3()
        pi = stationary_distribution(net)
        initial = np.array([1, 0, 0], dtype=np.int8)
        start_value = float(pi @ initial)
        for t in (0.3, 1.0, 3.0):
            ens = voter_ensemble(net, initial, t, 40_000, seed=8)
            values = ens.final_opinions @ pi
            se = values.std(ddof=1) / np.sqrt(len(values))
            assert abs(values.mean() - start_value) < 4 * se

    def test_weighted_consensus_probability_matches_oracle(self):
        net = nets.weighted_triangle()
        initial = [1, 0, 0]
        exact = oracles.voter_consensus_ones_exact(net, initial)
        pi = stationary_distribution(net)
        assert exact == pytest.approx(float(pi @ np.array(initial)), abs=1e-12)
        ens = voter_ensemble(net, initial, 600.0, 30_000, seed=12)
        emp = (ens.consensus_value == 1).mean()
        assert abs(emp - exact) < 3 * np.sqrt(exact * (1 - exact) / 30_000)


class TestVoterTimeLaw:
    """The jump chain's consensus times against the exact 2^V chain."""

    # (net, initial, t_max that about half the replicas reach consensus by)
    NETS = [
        (nets.p3(), [0, 1, 0], 0.7),
        (nets.weighted_triangle(), [1, 0, 0], 0.7),
        (nets.star(3), [0, 1, 0, 1], 1.2),
    ]

    @pytest.mark.parametrize("net,initial,half", NETS)
    def test_consensus_time_distribution(self, net, initial, half):
        replicas = 20_000
        ens = voter_ensemble(net, initial, 50.0, replicas, seed=31)
        for s in (0.5, 1.0, 2.0):
            exact = oracles.voter_consensus_by_exact(net, initial, s)
            emp = (ens.consensus_time <= s).mean()
            assert abs(emp - exact) < 4 * np.sqrt(exact * (1 - exact) / replicas)

    @pytest.mark.parametrize("net,initial,half", NETS)
    def test_reached_by_t_max(self, net, initial, half):
        replicas = 20_000
        exact = oracles.voter_consensus_by_exact(net, initial, half)
        assert 0.4 < exact < 0.6
        ens = voter_ensemble(net, initial, half, replicas, seed=32)
        reached = ens.consensus_value >= 0
        assert abs(reached.mean() - exact) < 4 * np.sqrt(exact * (1 - exact) / replicas)
        assert (ens.consensus_time[reached] <= half).all()
        assert np.isnan(ens.consensus_time[~reached]).all()

    def test_mean_time_without_horizon(self):
        # either ring of the edge ends the run: Exponential(2), mean 0.5
        replicas = 100_000
        ens = voter_ensemble(nets.single_edge(), [0, 1], np.inf, replicas, seed=33)
        assert ens.consensus_fraction() == 1.0
        assert abs(ens.consensus_time.mean() - 0.5) < 4 * 0.5 / np.sqrt(replicas)

    def test_rung_vertex_below_vertex_count(self):
        # the largest uniform below 1 rings vertex V - 1, never V
        m = np.arange(1, 41)
        V = np.concatenate([2**m - 1, 2**m, 2**m + 1])
        assert np.array_equal((np.nextafter(1.0, 0.0) * V).astype(np.int64), V - 1)

    def test_refuses_budget_numpy_cannot_draw(self):
        # V * t_max = 3e19 events is past numpy's Poisson limit; inf needs no budget
        with pytest.raises(ValueError, match="t_max"):
            voter_ensemble(nets.p3(), [0, 1, 0], 1e19, 10, seed=1)
        with pytest.raises(ValueError, match="t_max"):
            voter_simulate(nets.p3(), [0, 1, 0], 1e19, seed=1)
        assert voter_simulate(nets.p3(), [0, 1, 0], np.inf, seed=1)[1] > 0

    @pytest.mark.parametrize("t_max", [-np.inf, np.nan, -1.0, 0.0])
    def test_refuses_t_max_not_positive(self, t_max):
        # unchecked, -inf would run as +inf, nan and -1 would fail in the
        # budget check or numpy's poisson, and 0 would leave every replica
        # unreached
        net, initial = gen_torus(3).network, [0, 1] * 4 + [0]
        with pytest.raises(ValueError, match="t_max must be positive"):
            voter_ensemble(net, initial, t_max, 10, seed=1)
        with pytest.raises(ValueError, match="t_max must be positive"):
            voter_simulate(net, initial, t_max, seed=1)


class _CountingRng:
    """A generator that counts the uniforms its ``random`` calls return."""

    def __init__(self, rng):
        self.rng, self.uniforms = rng, 0

    def random(self, size):
        self.uniforms += int(np.prod(size))
        return self.rng.random(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestVoterBlocks:
    def test_short_budgets_waste_few_draws(self):
        # budgets of about one event (V * t_max = 1) end within the first
        # blocks of 1, 2 and 4 rounds, so the uniforms drawn stay well within
        # twice the two a replica uses per event: 1.24 times on average for
        # Poisson(1) budgets, 1.6 if replicas with no budget drew in block 0
        net = gen_torus(10).network
        initial = np.arange(100, dtype=np.int8) % 2
        rngs = [_CountingRng(substream_rng(41, TAG_VOTER, c)) for c in range(4)]
        group = ChunkGroup(rngs, (512,) * 4)
        _, cons_val, _, events, rounds = interacting._voter_batch(net, initial, 0.01, group)
        assert (cons_val < 0).all() and 0 < events < 2048 * 2
        drawn = sum(rng.uniforms for rng in rngs)
        assert 2 * events <= drawn <= 1.4 * (2 * events)
        assert rounds == 2 ** rounds.bit_length() - 1  # whole blocks of 1, 2, 4, ...


class TestDuality:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_single_site_marginals(self, t):
        net = nets.p3()
        initial = np.array([0, 1, 0], dtype=np.int8)
        replicas = 40_000
        ens = voter_ensemble(net, initial, t, replicas, seed=21)
        voter_marginal = ens.final_opinions[:, 0].mean()
        pos = dual_walker_positions(net, 0, t, replicas, seed=22)
        dual_marginal = (initial[pos] == 1).mean()
        exact = oracles.voter_marginal_exact(net, initial, 0, t)
        exact_dual = float(oracles.unit_rate_walk_marginal(net, 0, t) @ initial)
        assert exact == pytest.approx(exact_dual, abs=1e-10)  # duality is exact
        sigma = np.sqrt(exact * (1 - exact) / replicas)
        assert abs(voter_marginal - exact) < 3 * sigma
        assert abs(dual_marginal - exact) < 3 * sigma
        assert abs(voter_marginal - dual_marginal) < 3 * sigma * np.sqrt(2)

    @pytest.mark.parametrize("start", [-1, 3])
    def test_out_of_range_start_rejected(self, start):
        with pytest.raises(ValueError, match="start"):
            dual_walker_positions(nets.p3(), start, 1.0, 10, seed=1)

