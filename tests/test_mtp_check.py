import numpy as np
import pytest

import nets
import oracles
from collisionlab import (
    MtpVerdict,
    RootedDistribution,
    TransportCapExceededError,
    adjacency_transport,
    apply_root_law,
    build_network,
    check_mtp,
    check_reversibility_labeled,
    leaf_adjacency_transport,
    qlast_transport,
    received_mass_identity_all,
    transport_by_name,
)
from collisionlab.models import gen_percolation_cluster
from collisionlab.mtp_check import MassTransport


def _uniform_dist(net):
    return RootedDistribution.single(net, apply_root_law(net, "uniform"))


def _biased_dist(net):
    return RootedDistribution.single(net, apply_root_law(net, "conductance_biased"))


class TestExpectedMass:
    def test_p3_uniform_adjacency_is_average_degree(self):
        result = check_mtp(_uniform_dist(nets.p3()), adjacency_transport())
        assert result.mass_out == pytest.approx(4 / 3)
        assert result.mass_in == pytest.approx(4 / 3)

    def test_p3_uniform_leaf_adjacency(self):
        result = check_mtp(_uniform_dist(nets.p3()), leaf_adjacency_transport())
        assert result.mass_out == pytest.approx(2 / 3)
        assert result.mass_in == pytest.approx(2 / 3)

    def test_p3_biased_leaf_adjacency_asymmetric(self):
        result = check_mtp(_biased_dist(nets.p3()), leaf_adjacency_transport())
        assert result.mass_out == 0.5
        assert result.mass_in == 1.0

    def test_mixture_weights(self):
        d = RootedDistribution(
            (
                (nets.p3(), apply_root_law(nets.p3(), "uniform"), 0.5),
                (nets.triangle(), apply_root_law(nets.triangle(), "uniform"), 0.5),
            )
        )
        result = check_mtp(d, adjacency_transport())
        assert result.mass_out == pytest.approx(0.5 * 4 / 3 + 0.5 * 2.0)


class TestCheckMtp:
    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_root_always_holds(self, seed):
        net = nets.random_connected_network(seed, max_vertices=18)
        d = _uniform_dist(net)
        for transport in (
            adjacency_transport(),
            leaf_adjacency_transport(),
            qlast_transport(2, 6),
            oracles.random_transport(seed),
        ):
            result = check_mtp(d, transport, tolerance=1e-9)
            assert result.verdict is MtpVerdict.HOLDS, transport.name

    def test_biased_p3_violated_with_exact_masses(self):
        result = check_mtp(_biased_dist(nets.p3()), leaf_adjacency_transport())
        assert result.verdict is MtpVerdict.VIOLATED
        assert result.mass_out == 0.5
        assert result.mass_in == 1.0

    def test_single_vertex_holds(self):
        net = build_network(1, [])
        d = _uniform_dist(net)
        unit = MassTransport("unit", lambda n: np.ones((1, 1)))
        result = check_mtp(d, unit)
        assert result.verdict is MtpVerdict.HOLDS

    def test_matrix_built_once_per_network(self):
        calls = []

        def build(net):
            calls.append(net)
            return adjacency_transport().builder(net)

        d = RootedDistribution(
            (
                (nets.p3(), apply_root_law(nets.p3(), "uniform"), 0.5),
                (nets.triangle(), apply_root_law(nets.triangle(), "uniform"), 0.5),
            )
        )
        result = check_mtp(d, MassTransport("counted", build))
        assert len(calls) == 2
        assert result.mass_out == pytest.approx(0.5 * 4 / 3 + 0.5 * 2.0)
        assert result.mass_in == pytest.approx(0.5 * 4 / 3 + 0.5 * 2.0)

    def test_cap_hit_is_indeterminate(self):
        huge = MassTransport("huge", lambda n: np.full((n.vertex_count,) * 2, 1e13))
        result = check_mtp(_uniform_dist(nets.p3()), huge)
        assert result.verdict is MtpVerdict.INDETERMINATE
        assert np.isnan(result.mass_out) and np.isnan(result.mass_in)
        with pytest.raises(TransportCapExceededError):
            huge.matrix(nets.p3())

    def test_negative_mass_rejected(self):
        bad = MassTransport("bad", lambda n: -np.ones((n.vertex_count,) * 2))
        with pytest.raises(ValueError, match="negative mass"):
            check_mtp(_uniform_dist(nets.p3()), bad)


class TestTransportRegistry:
    def test_names_resolve(self):
        assert transport_by_name("adjacency").name == "adjacency"
        assert transport_by_name("leaf_adjacency").name == "leaf_adjacency"
        assert transport_by_name("qlast:2:8").name == "qlast:2:8"

    def test_bad_names(self):
        with pytest.raises(ValueError):
            transport_by_name("qlast:2")
        with pytest.raises(ValueError):
            transport_by_name("nope")

    @pytest.mark.parametrize("spec", ["qlast:25:20", "qlast:-1:4"])
    def test_qlast_time_outside_window(self, spec):
        with pytest.raises(ValueError):
            transport_by_name(spec)

    def test_adjacency_matches_edge_loop(self):
        singles = [build_network(1, []), build_network(1, [(0, 0, 2.0)])]
        for net in nets.battery() + [n for _, n in nets.small_named()] + singles:
            F = adjacency_transport().matrix(net)
            assert np.array_equal(F, oracles.adjacency_edges(net))

    def test_random_transport_reproducible(self):
        net = nets.weighted_triangle()
        a = oracles.random_transport(5).matrix(net)
        b = oracles.random_transport(5).matrix(net)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_random_transport_keeps_its_stream(self, seed):
        # the values were drawn from default_rng(SeedSequence((0xF00D, seed)))
        for net in (nets.weighted_triangle(), nets.random_connected_network(2)):
            A = oracles.adjacency_edges(net) > 0
            reach = np.eye(net.vertex_count, dtype=bool) | A | (A @ A)
            rng = np.random.default_rng(np.random.SeedSequence((0xF00D, seed)))
            want = np.where(reach, rng.uniform(0.0, 10.0, size=A.shape), 0.0)
            assert np.array_equal(oracles.random_transport(seed).matrix(net), want)

    def test_qlast_transport_values(self):
        from collisionlab import qlast_horizon

        net = nets.weighted_triangle()
        F = qlast_transport(1, 3).matrix(net)
        for u in range(3):
            for v in range(3):
                expect = net.vertex_conductance[u] * qlast_horizon(net, u, v, 1, 3)
                assert F[u, v] == pytest.approx(expect, abs=1e-14)


def _balance(net, n):
    """Max over (u, v) of |pi(u) p_n(u, v) - pi(v) p_n(v, u)|, pi the
    conductance-biased root law."""
    return check_reversibility_labeled(net, apply_root_law(net, "conductance_biased"), n)


class TestDetailedBalance:
    def test_p3_one_step(self):
        assert _balance(nets.p3(), 1) < 1e-15

    def test_zero_steps(self):
        assert _balance(nets.weighted_triangle(), 0) == 0.0

    def test_weighted_triangle_three_steps(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        assert _balance(net, 3) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_battery_up_to_64(self, seed):
        net = nets.random_connected_network(seed, max_vertices=16)
        for n in (1, 2, 16, 64):
            assert _balance(net, n) < 1e-10


class TestReceivedMass:
    def test_p3_center_one_step(self):
        lhs, rhs = received_mass_identity_all(nets.p3(), 1)
        assert lhs[1, 1] == pytest.approx(2.0, abs=1e-14)
        assert rhs[1, 1] == pytest.approx(2.0, abs=1e-14)

    def test_triangle_one_step(self):
        lhs, rhs = received_mass_identity_all(nets.triangle(), 1)
        assert lhs[1, 0] == pytest.approx(1.0, abs=1e-14)
        assert rhs[1, 0] == pytest.approx(1.0, abs=1e-14)

    def test_zero_steps_gives_conductance(self):
        net = nets.weighted_triangle()
        lhs, rhs = received_mass_identity_all(net, 0)
        for v in range(3):
            assert lhs[0, v] == pytest.approx(net.vertex_conductance[v])
            assert rhs[0, v] == pytest.approx(net.vertex_conductance[v])

    @pytest.mark.parametrize("seed", range(4))
    def test_battery_identity(self, seed):
        net = nets.random_connected_network(seed, max_vertices=16)
        lhs, rhs = received_mass_identity_all(net, 16)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestReversibility:
    def test_p3_biased_one_step(self):
        law = apply_root_law(nets.p3(), "conductance_biased")
        assert check_reversibility_labeled(nets.p3(), law, 1) < 1e-15

    def test_p3_uniform_violation_is_one_sixth(self):
        law = apply_root_law(nets.p3(), "uniform")
        violation = check_reversibility_labeled(nets.p3(), law, 1)
        assert violation == pytest.approx(1 / 6, abs=1e-12)

    def test_regular_graph_uniform_reversible(self):
        net = nets.cycle(6)
        law = apply_root_law(net, "uniform")
        for n in (1, 3, 8):
            assert check_reversibility_labeled(net, law, n) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_biased_battery(self, seed):
        net = nets.random_connected_network(seed, max_vertices=16)
        law = apply_root_law(net, "conductance_biased")
        for n in range(0, 17, 4):
            assert check_reversibility_labeled(net, law, n) < 1e-10


def test_qlast_transport_mtp_uniform_root():
    # the degree-times-last-meeting transport balances under a uniform root
    for seed in range(3):
        net = nets.random_connected_network(seed, max_vertices=14)
        d = RootedDistribution.single(net, apply_root_law(net, "uniform"))
        for n, N in ((0, 4), (2, 8)):
            result = check_mtp(d, qlast_transport(n, N), tolerance=1e-9)
            assert result.verdict is MtpVerdict.HOLDS


def test_qlast_transport_mtp_on_critical_cluster():
    # the same balance on a critical percolation cluster of 1,380 vertices,
    # the paper's scale for the stand-in of the IIC
    net = gen_percolation_cluster(60, 0.5, seed=0).network
    assert net.vertex_count == 1380
    result = check_mtp(_uniform_dist(net), transport_by_name("qlast:5:10"))
    assert result.verdict is MtpVerdict.HOLDS
