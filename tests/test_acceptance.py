"""Acceptance suite: one test per criterion, printing one PASS line each.

Run with:

    pytest -v -s tests/test_acceptance.py

Criteria with Monte Carlo content use fixed seeds, so the whole suite is
deterministic.  The heavier experiments fan replicas out to a small worker
pool; results are worker-count independent by construction (and criterion 12
asserts exactly that).
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

import nets
import oracles
from collisionlab import (
    apply_root_law,
    adjacency_transport,
    check_mtp,
    check_reversibility_labeled,
    collision_growth,
    collision_measure,
    continuous_collision_ensemble,
    discretization_integral,
    dual_walker_positions,
    gen_comb,
    gen_grid_box,
    gen_percolation_cluster,
    gen_torus,
    gen_wilson_ust,
    last_collision_identity_all,
    leaf_adjacency_transport,
    qlast_horizon,
    qlast_transport,
    q0_profile,
    received_mass_identity_all,
    stationary_distribution,
    voter_ensemble,
    walk_continuous,
    MtpVerdict,
    RootedDistribution,
)
from collisionlab.experiment_cli import ExperimentConfig, run
from collisionlab.models import CombLattice, PathLattice

WORKERS = min(4, os.cpu_count() or 1)


def _report(cid, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{cid}] {name}: PASS{suffix}")


# -- C1 ---------------------------------------------------------------------


def test_c01_partition_identity(battery20):
    worst = 0.0
    for net in battery20:
        totals = last_collision_identity_all(net, 50)
        worst = max(worst, float(np.abs(totals - 1.0).max()))
    for net in battery20[:3]:
        for N in (0, 7, 23):
            totals = last_collision_identity_all(net, N)
            worst = max(worst, float(np.abs(totals - 1.0).max()))
    assert worst < 1e-9
    _report("C01", "last-collision partition identity equals 1",
            f"{len(battery20)} networks, all roots, N<=50, worst |err| {worst:.2e}")


# -- C2 ---------------------------------------------------------------------


def test_c02_received_mass_identity(battery20):
    worst = 0.0
    for net in battery20:
        lhs, rhs = received_mass_identity_all(net, 32)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-10
    _report("C02", "received-mass kernel identity",
            f"all vertices, n<=32, worst |err| {worst:.2e}")


# -- C3 ---------------------------------------------------------------------


def _oracle_battery():
    # all are |V| <= 5; starts are restricted only where per-step pair
    # branching is 9 (enumeration size 9^6), which is symmetric anyway
    return [
        (nets.single_edge(), [0, 1]),
        (nets.two_vertex_multi(), [0, 1]),
        (nets.p3(), [0, 1, 2]),
        (nets.weighted_p3(), [0, 1, 2]),
        (nets.path_n(5), [0, 1, 2, 3, 4]),
        (nets.triangle(), [0, 1, 2]),
        (nets.weighted_triangle(), [0, 1, 2]),
        (nets.cycle(4), [0, 1]),
        (nets.cycle(5), [0, 1]),
        (nets.k4(), [0]),
        (nets.loop_triangle(), [0, 1]),
    ]


def test_c03_brute_force_oracle_equivalence():
    N = 6
    worst = 0.0
    checked = 0
    for net, starts in _oracle_battery():
        for u in starts:
            brute_q0, brute_last = oracles.pair_path_statistics(net, u, N)
            prof = q0_profile(net, u, N)
            worst = max(worst, float(np.abs(prof - brute_q0).max()))
            for n in range(N + 1):
                for v in range(net.vertex_count):
                    got = qlast_horizon(net, u, v, n, N)
                    want = brute_last.get((n, v), 0.0)
                    worst = max(worst, abs(got - want))
                    checked += 1
    assert worst < 1e-12
    _report("C03", "exact taboo probabilities match exhaustive pair-path enumeration",
            f"N={N}, {checked} qlast values, worst |err| {worst:.2e}")


# -- C4 ---------------------------------------------------------------------


def test_c04_mtp_certification(battery20, small_named):
    transports = [adjacency_transport(), leaf_adjacency_transport(), qlast_transport(2, 8)]
    networks = battery20 + [net for _, net in small_named]
    for net in networks:
        dist = RootedDistribution.single(net, apply_root_law(net, "uniform"))
        for transport in transports:
            result = check_mtp(dist, transport, tolerance=1e-9)
            assert result.verdict is MtpVerdict.HOLDS, (transport.name, result)
    biased = RootedDistribution.single(nets.p3(), apply_root_law(nets.p3(), "conductance_biased"))
    result = check_mtp(biased, leaf_adjacency_transport(), tolerance=1e-9)
    assert result.verdict is MtpVerdict.VIOLATED
    assert result.mass_out == 0.5
    assert result.mass_in == 1.0
    _report("C04", "uniform root satisfies mass transport; biased P3 fails at (0.5, 1.0)",
            f"{len(networks)} networks x {len(transports)} transports")


# -- C5 ---------------------------------------------------------------------


def test_c05_reversibility_certification(battery20, small_named):
    worst = 0.0
    networks = battery20 + [net for _, net in small_named]
    for net in networks:
        law = apply_root_law(net, "conductance_biased")
        for n in range(17):
            worst = max(worst, check_reversibility_labeled(net, law, n))
    assert worst <= 1e-10
    uniform = apply_root_law(nets.p3(), "uniform")
    violation = check_reversibility_labeled(nets.p3(), uniform, 1)
    assert violation == pytest.approx(1 / 6, abs=1e-12)
    _report("C05", "biased root is exchangeable with the walk; uniform P3 breaks by 1/6",
            f"n<=16, worst biased asymmetry {worst:.2e}")


# -- C6 ---------------------------------------------------------------------


def test_c06_line_collision_growth_slope():
    horizons = [100, 1000, 10_000]
    lattice = PathLattice(10_001)
    result = collision_growth(lattice, None, horizons, 10_000, seed=606, workers=WORKERS)
    means = [s.mean for s in result.stats]
    slope = np.polyfit(np.log10(horizons), np.log10(means), 1)[0]
    assert 0.4 <= slope <= 0.6
    _report("C06", "line-walk mean collision count grows like sqrt(T)",
            f"means {[round(m, 2) for m in means]}, log-log slope {slope:.3f}")


# -- C7 ---------------------------------------------------------------------


def test_c07_comb_contrast():
    horizons = [10_000, 100_000]
    lattice = CombLattice(100_001)
    result = collision_growth(lattice, None, horizons, 2048, seed=707, workers=WORKERS)
    med4, med5 = (s.median for s in result.stats)
    mean4, mean5 = (s.mean for s in result.stats)
    assert med5 <= 2 * med4, (med4, med5)
    assert mean5 >= 1.3 * mean4, (mean4, mean5)
    _report("C07", "comb: medians stagnate while means keep growing",
            f"median {med4}->{med5}, mean {mean4:.2f}->{mean5:.2f}")


# -- C8 ---------------------------------------------------------------------


def _growth_gap_in_se(net, start, seed):
    result = collision_growth(net, start, [1000, 10_000], 2048, seed=seed, workers=WORKERS)
    diff = result.counts[1] - result.counts[0]
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    return (result.stats[0].mean, result.stats[1].mean, float(diff.mean() / se))


def test_c08_recurrent_model_growth():
    cluster = gen_percolation_cluster(200, 0.5, seed=808)
    m3, m4, gap_perc = _growth_gap_in_se(cluster.network, cluster.start, seed=809)
    assert gap_perc >= 5.0, (m3, m4, gap_perc)

    tree = gen_wilson_ust(gen_torus(64).network, seed=810)
    t3, t4, gap_ust = _growth_gap_in_se(tree, 0, seed=811)
    assert gap_ust >= 5.0, (t3, t4, gap_ust)
    _report("C08", "critical cluster and spanning tree keep colliding",
            f"percolation mean {m3:.2f}->{m4:.2f} (+{gap_perc:.0f} SE), "
            f"UST mean {t3:.2f}->{t4:.2f} (+{gap_ust:.0f} SE)")


# -- C9 ---------------------------------------------------------------------


def test_c09_continuous_time_measure():
    t_max = 5.0
    table = continuous_collision_ensemble(
        nets.two_vertex(1.0), 0, t_max, 8, 50_000, seed=909, workers=WORKERS
    )
    exact = t_max / 2 + (1 - np.exp(-4 * t_max)) / 8
    mean = table[:, 0].mean()
    se = table[:, 0].std(ddof=1) / np.sqrt(table.shape[0])
    assert abs(mean - exact) < 3 * se

    grid = 10_000
    rng = np.random.default_rng(910)
    worst_excess = -1.0
    for _ in range(100):
        jx = walk_continuous(nets.two_vertex(1.0), 0, t_max, rng)
        jy = walk_continuous(nets.two_vertex(1.0), 0, t_max, rng)
        m = collision_measure(jx, jy)
        est = discretization_integral(jx, jy, grid)
        # left-endpoint Riemann error: one cell per count discontinuity
        bound = (2 * len(m.intervals) + 1) / grid
        assert abs(est - m.total) <= bound + 1e-12
        worst_excess = max(worst_excess, abs(est - m.total) - bound)
    _report("C09", "continuous-time collision measure and its discretization",
            f"mean {mean:.4f} vs exact {exact:.4f} (se {se:.4f}); "
            f"100 pairs within the Riemann bound at grid {grid}")


# -- C10 --------------------------------------------------------------------


def test_c10_voter_duality_and_consensus():
    consensus_nets = [
        ("single_edge", nets.single_edge(), [0, 1]),
        ("p3", nets.p3(), [0, 1, 0]),
        ("weighted_p3", nets.weighted_p3(), [1, 0, 0]),
        ("triangle", nets.triangle(), [1, 0, 0]),
        ("c4", nets.cycle(4), [1, 0, 1, 0]),
        ("c5", nets.cycle(5), [1, 1, 0, 0, 0]),
        ("random8", nets.random_connected_network(3, min_vertices=8, max_vertices=8),
         [1, 0, 1, 0, 0, 0, 1, 0]),
    ]
    for name, net, initial in consensus_nets:
        t_max = 50.0 * net.vertex_count**2
        ens = voter_ensemble(net, initial, t_max, 10_000, seed=1010, workers=WORKERS)
        misses = np.flatnonzero(ens.consensus_value < 0)
        assert misses.size == 0, f"{name}: replicas without consensus {misses[:5]} (seed 1010)"

    # absorption law: P3 with opinion 1 at the center reaches all-ones half the time
    replicas = 100_000
    ens = voter_ensemble(nets.p3(), [0, 1, 0], 450.0, replicas, seed=1011, workers=WORKERS)
    ones = (ens.consensus_value == 1).mean()
    sigma = np.sqrt(0.25 / replicas)
    assert abs(ones - 0.5) < 3 * sigma

    # single-site duality marginals, Monte Carlo both ways plus exact oracles
    details = []
    for t in (0.5, 1.0, 2.0):
        initial = np.array([0, 1, 0], dtype=np.int8)
        ens_t = voter_ensemble(nets.p3(), initial, t, replicas, seed=1012, workers=WORKERS)
        voter_marginal = ens_t.final_opinions[:, 0].mean()
        pos = dual_walker_positions(nets.p3(), 0, t, replicas, seed=1013)
        dual_marginal = (initial[pos] == 1).mean()
        exact = oracles.voter_marginal_exact(nets.p3(), initial, 0, t)
        exact_dual = float(oracles.unit_rate_walk_marginal(nets.p3(), 0, t) @ initial)
        assert abs(exact - exact_dual) < 1e-10
        sig = np.sqrt(exact * (1 - exact) / replicas)
        assert abs(voter_marginal - exact) < 3 * sig
        assert abs(dual_marginal - exact) < 3 * sig
        assert abs(voter_marginal - dual_marginal) < 3 * sig * np.sqrt(2)
        details.append(f"t={t}: {voter_marginal:.4f}~{dual_marginal:.4f} (exact {exact:.4f})")
    _report("C10", "voter consensus and coalescing-walk duality",
            f"100% consensus on {len(consensus_nets)} networks; "
            f"P(all-ones)={ones:.4f}; " + "; ".join(details))


# Exact references beside C10, on a weighted 10-vertex multigraph (ladder 1,
# four of its rows split).
# The replicas' P(consensus on 1) at t_max = inf is the martingale's
# sum_v pi(v) eta_0(v), and the law at a t_max cut is the 2^V chain's.

C10_NET_SEED, C10_INITIAL = 1, [0, 1] * 5


def test_c10_exact_consensus_on_ones():
    net = nets.random_connected_network(C10_NET_SEED)
    exact = float(stationary_distribution(net) @ np.array(C10_INITIAL))
    replicas = 20_000
    ens = voter_ensemble(net, C10_INITIAL, np.inf, replicas, seed=1014, workers=WORKERS)
    assert ens.consensus_fraction() == 1.0
    ones = (ens.consensus_value == 1).mean()
    z = (ones - exact) / np.sqrt(exact * (1 - exact) / replicas)
    assert abs(z) < 4, f"P(all ones) {ones:.4f} vs exact {exact:.4f}, z {z:.2f} (seed 1014)"
    _report("C10", "voter consensus on ones at t_max = inf",
            f"{ones:.4f} vs sum pi eta_0 = {exact:.4f}, z {z:+.2f}")


def test_c10_exact_law_at_t_max_cut():
    net = nets.random_connected_network(C10_NET_SEED)
    V, t_max = net.vertex_count, 20.0
    states, law = oracles.voter_law_exact(net, C10_INITIAL, t_max)
    ones = states.sum(axis=1)
    exact = {"reached": law[(ones == 0) | (ones == V)].sum(), "all ones": law[ones == V].sum(),
             "eta(0)": law @ states[:, 0]}
    assert np.allclose(list(exact.values()), [0.7749, 0.3302, 0.4365], atol=5e-5)
    replicas = 20_000
    ens = voter_ensemble(net, C10_INITIAL, t_max, replicas, seed=1015, workers=WORKERS)
    final_ones = ens.final_opinions.sum(axis=1)
    emp = {"reached": (ens.consensus_value >= 0).mean(), "all ones": (final_ones == V).mean(),
           "eta(0)": ens.final_opinions[:, 0].mean()}
    details = []
    for name, p in exact.items():
        z = (emp[name] - p) / np.sqrt(p * (1 - p) / replicas)
        assert abs(z) < 4, f"{name}: {emp[name]:.4f} vs exact {p:.4f}, z {z:.2f} (seed 1015)"
        details.append(f"{name} {emp[name]:.4f} vs {p:.4f}")
    _report("C10", "voter law at a t_max cut against the 2^V chain", "; ".join(details))


# -- C11 --------------------------------------------------------------------


def test_c11_parity():
    comb = gen_comb(3)
    spine_neighbor = comb.coords.index((1, 0))
    grid = gen_grid_box(2)
    east = grid.coords.index((1, 0))
    cases = [
        ("single_edge", nets.single_edge(), (0, 1)),
        ("p3", nets.p3(), (0, 1)),
        ("path5", nets.path_n(5), (1, 2)),
        ("c4", nets.cycle(4), (0, 1)),
        ("comb", comb.network, (comb.start, spine_neighbor)),
        ("grid", grid.network, (grid.start, east)),
    ]
    total = 0
    for name, net, (u, v) in cases:
        g = collision_growth(net, (u, v), [64], 10_000, seed=1111, workers=WORKERS)
        assert g.counts.max() == 0, f"{name}: odd-class walks met"
        total += g.counts.size
    _report("C11", "bipartite odd-class starts never collide",
            f"{len(cases)} networks x 10000 replicas, horizon 64, zero meetings")


# -- C12 --------------------------------------------------------------------


def test_c12_determinism_across_workers(tmp_path):
    p3_file = tmp_path / "p3.json"
    p3_file.write_text(json.dumps(nets.p3().to_json_dict()))
    configs = [
        ExperimentConfig(kind="collide", model={"name": "path", "R": 51},
                         horizons=(50,), replicas=700, master_seed=5),
        ExperimentConfig(kind="collide", model={"name": "comb", "R": 33},
                         horizons=(16, 32), replicas=600, master_seed=6),
        ExperimentConfig(kind="identity", model={"name": "path", "R": 2},
                         n_steps=4, master_seed=7),
        ExperimentConfig(kind="mtp", network_file=str(p3_file),
                         transport="qlast:1:4", root_law="uniform", master_seed=8),
        ExperimentConfig(kind="voter", model={"name": "path", "R": 1},
                         replicas=1200, t_max=450.0, master_seed=9),
        ExperimentConfig(kind="ctcollide", model={"name": "path", "R": 1},
                         replicas=600, t_max=2.0, grid=50, master_seed=10),
    ]
    for config in configs:
        reference = run(replace(config, workers=1)).deterministic_bytes()
        for workers in (2, 8):
            got = run(replace(config, workers=workers)).deterministic_bytes()
            assert got == reference, (config.kind, workers)
    _report("C12", "envelopes byte-identical across worker counts {1,2,8}",
            f"{len(configs)} configs")
