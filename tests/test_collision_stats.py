import hashlib

import numpy as np
import pytest

import nets
import oracles
from collisionlab import (
    CertificateViolationError,
    ResourceLimitError,
    collision_growth,
    horizon_estimates,
    last_collision_identity,
    last_collision_identity_all,
    q0_profile,
    q0_profile_all,
    qlast_horizon,
    walk_pair,
)
from collisionlab import collision_stats
from collisionlab.collision_stats import NetworkStepper, _resolve_pair
from collisionlab.models import (CombLattice, GridLattice, PathLattice, gen_percolation_cluster,
                                 gen_torus)


class TestCountCollisions:
    def test_single_edge_deterministic(self):
        tx, ty = walk_pair(nets.single_edge(), 0, 0, 7, seed=2)
        assert np.count_nonzero(tx.steps[1:] == ty.steps[1:]) == 7


class TestQ0Exact:
    def test_single_edge_forced_meeting(self):
        assert q0_profile(nets.single_edge(), 0, 1)[1] == 0.0

    def test_triangle_one_step(self):
        assert q0_profile(nets.triangle(), 0, 1)[1] == pytest.approx(0.5, abs=1e-15)

    def test_triangle_two_steps(self):
        assert q0_profile(nets.triangle(), 0, 2)[2] == pytest.approx(0.375, abs=1e-15)

    def test_empty_window_convention(self):
        for _, net in nets.small_named()[:5]:
            assert q0_profile(net, 0, 0)[0] == 1.0

    def test_monotone_in_window(self):
        for _, net in nets.small_named():
            prof = q0_profile(net, 0, 12)
            assert prof[0] == 1.0
            assert (np.diff(prof) <= 1e-15).all()

    # torus 10 and 12 (100 and 144 vertices) sit either side of the vertex
    # count where an earlier implementation switched algorithms
    ORACLE_CASES = (
        nets.small_named()
        + [(f"random{seed}", nets.random_connected_network(seed, max_vertices=60))
           for seed in range(6)]
        + [("torus10", gen_torus(10).network), ("torus12", gen_torus(12).network)]
    )

    @pytest.mark.parametrize(
        "net", [net for _, net in ORACLE_CASES], ids=[name for name, _ in ORACLE_CASES]
    )
    def test_profile_all_matches_forward_oracle(self, net):
        N = 12
        prof = q0_profile_all(net, N)
        assert prof.shape == (N + 1, net.vertex_count)
        for v in range(net.vertex_count):
            assert np.abs(prof[:, v] - oracles.q0_forward(net, v, N)).max() <= 1e-13

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            q0_profile_all(nets.triangle(), -1)

    def test_pair_cap(self):
        net = nets.path_n(7000)
        with pytest.raises(ResourceLimitError):
            q0_profile(net, 0, 1)

    def test_identity_all_on_critical_cluster(self):
        # a critical percolation cluster, the stand-in for the IIC, at a
        # paper-scale 1,380 vertices: well inside the memory cap
        net = gen_percolation_cluster(60, 0.5, seed=0).network
        assert net.vertex_count == 1380
        assert np.abs(last_collision_identity_all(net, 4) - 1.0).max() <= 1e-9


class TestQlastHorizon:
    def test_time_zero_term_is_q0(self):
        net = nets.weighted_triangle()
        for N in (0, 1, 4):
            assert qlast_horizon(net, 0, 0, 0, N) == pytest.approx(
                q0_profile(net, 0, N)[N], abs=1e-14
            )

    def test_single_edge_final_step(self):
        for N in (1, 2, 5):
            reachable = N % 2  # deterministic chain alternates 0,1,0,...
            assert qlast_horizon(nets.single_edge(), 0, reachable, N, N) == 1.0
            assert qlast_horizon(nets.single_edge(), 0, 1 - reachable, N, N) == 0.0

    def test_triangle_example(self):
        assert qlast_horizon(nets.triangle(), 0, 1, 1, 2) == pytest.approx(0.125, abs=1e-15)


class TestLastCollisionIdentity:
    def test_single_edge(self):
        assert last_collision_identity(nets.single_edge(), 0, 3) == pytest.approx(1.0, abs=1e-12)

    def test_triangle(self):
        assert last_collision_identity(nets.triangle(), 0, 5) == pytest.approx(1.0, abs=1e-10)

    def test_p3_center(self):
        assert last_collision_identity(nets.p3(), 1, 4) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_networks_all_roots(self, seed):
        net = nets.random_connected_network(seed, max_vertices=20)
        totals = last_collision_identity_all(net, 20)
        assert np.abs(totals - 1.0).max() < 1e-9

    def test_all_roots_matches_single(self):
        net = nets.weighted_triangle()
        totals = last_collision_identity_all(net, 9)
        for u in range(3):
            assert totals[u] == pytest.approx(last_collision_identity(net, u, 9), abs=1e-13)


class TestHorizonEstimates:
    def test_bundle_consistency(self):
        net = nets.weighted_triangle()
        est = horizon_estimates(net, 0, 6)
        assert est.q0[0].tolist() == [1.0, 1.0, 1.0]
        assert est.identity_total == pytest.approx(1.0, abs=1e-12)
        assert est.qlast[0, 0] == pytest.approx(q0_profile(net, 0, 6)[6], abs=1e-14)
        assert est.qlast.shape == (7, 3)

    @pytest.mark.parametrize("seed", range(3))
    def test_total_is_the_identity_and_qlast_the_horizon(self, seed):
        net = nets.random_connected_network(seed, max_vertices=12)
        est = horizon_estimates(net, 1, 8)
        assert est.identity_total == last_collision_identity(net, 1, 8)
        for n in (0, 3, 8):
            for v in range(net.vertex_count):
                assert qlast_horizon(net, 1, v, n, 8) == est.qlast[n, v]


class TestVertexRange:
    """Out-of-range vertices are refused before the q0 recursion runs."""

    @pytest.fixture(autouse=True)
    def _no_recursion(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("q0 recursion ran before the vertex check")

        monkeypatch.setattr(collision_stats, "q0_profile_all", refuse)

    @pytest.mark.parametrize("call", [
        lambda net: horizon_estimates(net, -1, 4),
        lambda net: horizon_estimates(net, 3, 4),
        lambda net: last_collision_identity(net, 3, 4),
        lambda net: last_collision_identity(net, -1, 4),
        lambda net: q0_profile(net, -1, 3),
        lambda net: q0_profile(net, 3, 3),
        lambda net: q0_profile(net, 3, 3)[3],
        lambda net: qlast_horizon(net, 0, -1, 1, 3),
        lambda net: qlast_horizon(net, 0, 3, 1, 3),
        lambda net: qlast_horizon(net, -1, 0, 1, 3),
    ])
    def test_rejected(self, call):
        with pytest.raises(ValueError, match=r"is outside \[0, 3\)"):
            call(nets.p3())


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "name,net",
        [
            ("single_edge", nets.single_edge()),
            ("two_vertex_multi", nets.two_vertex_multi()),
            ("p3", nets.p3()),
            ("weighted_p3", nets.weighted_p3()),
            ("triangle", nets.triangle()),
            ("c4", nets.cycle(4)),
        ],
    )
    def test_small_battery_n4(self, name, net):
        N = 4
        for u in range(net.vertex_count):
            q0_brute, last = oracles.pair_path_statistics(net, u, N)
            prof = q0_profile(net, u, N)
            assert np.abs(prof - q0_brute).max() < 1e-12
            for n in range(N + 1):
                for v in range(net.vertex_count):
                    assert qlast_horizon(net, u, v, n, N) == pytest.approx(
                        last.get((n, v), 0.0), abs=1e-12
                    )

    def test_q0_monte_carlo_consistency(self):
        # empirical no-meeting frequencies vs the exact taboo probabilities
        net = nets.weighted_triangle()
        replicas = 100_000
        stepper = NetworkStepper(net, 0)
        rng = np.random.default_rng(31)
        sx = stepper.new_state(replicas)
        sy = stepper.new_state(replicas)
        never_met = np.ones(replicas, dtype=bool)
        exact = q0_profile(net, 0, 4)
        for m in range(1, 5):
            stepper.advance(sx, rng.random(replicas))
            stepper.advance(sy, rng.random(replicas))
            never_met &= sx != sy
            emp = never_met.mean()
            sigma = np.sqrt(exact[m] * (1 - exact[m]) / replicas)
            assert abs(emp - exact[m]) < 4 * sigma


class TestCollisionGrowth:
    def test_single_edge_counts_equal_horizon(self):
        g = collision_growth(nets.single_edge(), 0, [3, 8], 64, seed=5)
        assert (g.counts[0] == 3).all()
        assert (g.counts[1] == 8).all()
        assert g.stats[1].mean == 8.0
        assert g.stats[1].median == 8.0

    def test_counts_monotone_in_horizon(self):
        g = collision_growth(nets.triangle(), 0, [4, 16, 64], 500, seed=6)
        assert (g.counts[1] >= g.counts[0]).all()
        assert (g.counts[2] >= g.counts[1]).all()

    def test_worker_independence(self):
        for lat in (PathLattice(65), GridLattice(65)):
            a = collision_growth(lat, None, [64], 1200, seed=3, workers=1)
            b = collision_growth(lat, None, [64], 1200, seed=3, workers=2)
            assert np.array_equal(a.counts, b.counts)

    def test_distinct_starts_pinned(self):
        # sha256 of the counts fixed before both walks moved into one pair
        # state: walk x (from 0) still takes the first half of every draw
        g = collision_growth(gen_torus(4).network, (0, 5), [4, 16], 600, seed=24)
        assert g.counts[:, :8].tolist() == [[0, 1, 0, 0, 0, 1, 1, 0],
                                            [2, 3, 2, 0, 2, 4, 3, 2]]
        assert hashlib.sha256(g.counts.astype("<i8").tobytes()).hexdigest() == (
            "232dede24765e248b25d0524f604f651742fef230e23a9473b04e2a5bf82ffe2"
        )

    @pytest.mark.parametrize("graph,reference,start", [
        (PathLattice(301), oracles.PositionPathLattice(301), None),
        (CombLattice(301), oracles.CompareCombLattice(301), None),
        (GridLattice(301), GridLattice(301), None),
        (gen_torus(6).network, gen_torus(6).network, 0),
        (nets.single_edge(), nets.single_edge(), 0),
    ], ids=["path", "comb", "grid", "torus", "edge"])
    @pytest.mark.parametrize("horizons", [(1, 126, 127, 128, 254, 255, 300), (300,),
                                          (0, 7, 7, 58, 59, 60, 118, 299)],
                             ids=["straddling", "one", "block_edges"])
    def test_counts_match_int64_loop_across_tally_flushes(self, graph, reference, start,
                                                         horizons):
        # the int8 tally is added to the counts at each horizon and after 127
        # steps without one: horizons on both sides of those flushes, and one
        # horizon far past 127 steps.  On one edge the walks meet at every
        # step, so a tally held past 127 meetings would wrap.  A block of
        # draws is 59 steps at 1,100 replicas: horizons on both sides of its
        # edges, at 0 and repeated, where the block loop cuts its spans
        replicas = 1100
        got = collision_growth(graph, start, horizons, replicas, seed=23)
        stepper, origin = _resolve_pair(reference, start)
        want = oracles.per_chunk(oracles.growth_chunk_loop, (stepper, origin, horizons, 23),
                                 replicas, axis=1)
        assert np.array_equal(got.counts, want)

    def test_group_counts_travel_as_int32(self):
        # half the bytes through a pool's pipe; the merged counts stay int64
        stepper, origin = _resolve_pair(PathLattice(20), None)
        piece = collision_stats._growth_chunk((stepper, origin, (5, 19), 1, 0, (512,), 1))
        assert piece.dtype == np.int32
        g = collision_growth(PathLattice(20), None, [5, 19], 512, seed=1)
        assert g.counts.dtype == np.int64 and np.array_equal(g.counts, piece)

    def test_certificate_enforced(self):
        lat = PathLattice(10)
        with pytest.raises(CertificateViolationError):
            collision_growth(lat, None, [10], 8, seed=1)
        m = nets.p3()  # no certificate: any horizon is allowed
        collision_growth(m, 0, [10], 8, seed=1)

    def test_mean_matches_exact_small_horizon(self):
        net = nets.weighted_triangle()
        T = 4
        g = collision_growth(net, 0, [T], 60_000, seed=9)
        exact_mean = _exact_mean_collisions(net, 0, T)
        se = g.counts[0].std(ddof=1) / np.sqrt(g.counts.shape[1])
        assert abs(g.stats[0].mean - exact_mean) < 4 * se


def _exact_mean_collisions(net, u, T):
    # E[count at T] = sum_{n<=T} P(X_n = Y_n) = sum_n sum_v p_n(u,v)^2
    # since the walks are independent with identical marginals
    P = net.one_step_matrix()
    row = np.zeros(net.vertex_count)
    row[u] = 1.0
    total = 0.0
    for _ in range(T):
        row = row @ P
        total += float((row * row).sum())
    return total


class TestParity:
    @pytest.mark.parametrize("u,v", [(0, -1), (-1, 0), (0, 4), (4, 0)])
    def test_out_of_range_vertex_rejected(self, u, v):
        # -1 must not start either walk at vertex 3
        with pytest.raises(ValueError, match="vertex"):
            collision_growth(nets.cycle(4), (u, v), [5], 8, seed=1)

    @pytest.mark.parametrize("seed", range(5))
    def test_parity_conservation(self, seed):
        # odd-class starts never meet, for any seed
        net = nets.cycle(6)
        g = collision_growth(net, (0, 1), [50], 400, seed=seed)
        assert g.counts.max() == 0
