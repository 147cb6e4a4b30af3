import numpy as np
import pytest

import nets
import oracles
from conftest import chisquare_pvalue
from collisionlab import (
    CertificateViolationError,
    ResourceLimitError,
    apply_root_law,
    gen_comb,
    gen_grid_box,
    gen_path_segment,
    gen_percolation_cluster,
    gen_torus,
    gen_wilson_ust,
    is_bipartite,
    n_step_kernel,
)
from collisionlab.models import CombLattice, GridLattice, PathLattice


class TestPathSegment:
    def test_r1_is_p3(self):
        m = gen_path_segment(1)
        assert m.network.vertex_count == 3
        assert m.network.degrees[m.start] == 2

    def test_counts(self):
        m = gen_path_segment(5)
        assert m.network.vertex_count == 11
        assert m.network.edge_count == 10

    @pytest.mark.parametrize("R", [4, 5])
    def test_three_step_law_is_binomial(self, R):
        # within the certified horizon the segment walk is the line walk:
        # X_3 - center is a sum of three +-1 coin flips
        m = gen_path_segment(R)
        row = n_step_kernel(m.network, 3).matrix[m.start]
        expected = {-3: 1 / 8, -1: 3 / 8, 1: 3 / 8, 3: 1 / 8}
        for v in range(m.network.vertex_count):
            assert row[v] == pytest.approx(expected.get(m.coords[v], 0.0), abs=1e-14)

    def test_certificate(self):
        m = gen_path_segment(5)
        m.certificate.require(4)
        with pytest.raises(CertificateViolationError):
            m.certificate.require(5)


class TestGridBox:
    def test_counts_r1(self):
        m = gen_grid_box(1)
        assert m.network.vertex_count == 9
        assert m.network.edge_count == 12

    def test_degrees(self):
        m = gen_grid_box(2)
        assert m.network.degrees[m.start] == 4
        corner = m.coords.index((-2, -2))
        assert m.network.degrees[corner] == 2

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            gen_grid_box(300, cap=100_000)


class TestComb:
    def test_vertex_count(self):
        assert gen_comb(2).network.vertex_count == 15

    def test_degrees(self):
        m = gen_comb(3)
        interior_spine = m.coords.index((1, 0))
        assert m.network.degrees[interior_spine] == 3
        tip = m.coords.index((0, 3))
        assert m.network.degrees[tip] == 1

    def test_bipartite(self):
        assert is_bipartite(gen_comb(2).network)[0]


@pytest.mark.parametrize("gen", [gen_path_segment, gen_grid_box, gen_comb])
def test_truncation_exactness(gen):
    # the law of (X_0..X_T) from the center agrees between radii R and R+1
    R = 4
    a, b = gen(R), gen(R + 1)
    T = a.certificate.horizon
    for n in range(T + 1):
        row_a = n_step_kernel(a.network, n).matrix[a.start]
        row_b = n_step_kernel(b.network, n).matrix[b.start]
        dist_a = {a.coords[v]: row_a[v] for v in range(len(row_a)) if row_a[v] > 0}
        dist_b = {b.coords[v]: row_b[v] for v in range(len(row_b)) if row_b[v] > 0}
        assert set(dist_a) == set(dist_b)
        for label, p in dist_a.items():
            assert p == pytest.approx(dist_b[label], abs=1e-12)


@pytest.mark.parametrize(
    "walker_cls,gen", [(PathLattice, gen_path_segment), (GridLattice, gen_grid_box), (CombLattice, gen_comb)]
)
def test_lattice_walker_matches_explicit_kernel(walker_cls, gen):
    # empirical 3-step law of the coordinate walker vs the explicit truncation
    walker = walker_cls(4)
    m = gen(4)
    rng = np.random.default_rng(7)
    state = walker.new_state(20_000)
    for _ in range(3):
        walker.advance(state, rng)
    labels = walker.coords(state)
    row = n_step_kernel(m.network, 3).matrix[m.start]
    support = [v for v in range(len(row)) if row[v] > 0]
    counts = [sum(1 for s in labels if s == m.coords[v]) for v in support]
    p = chisquare_pvalue(counts, [row[v] for v in support], len(labels))
    assert p > 0.001


@pytest.mark.parametrize("walker_cls", [GridLattice, CombLattice])
def test_planar_radius_below_code_range(walker_cls):
    # x * 2^32 + y codes stay unique only while |y| < 2^31
    with pytest.raises(ValueError, match="2\\^31"):
        walker_cls(2**31)
    assert walker_cls(2**31 - 1).certificate.horizon == 2**31 - 2


@pytest.mark.parametrize("walker_cls", [PathLattice, GridLattice, CombLattice])
def test_lattice_walker_steps_along_edges(walker_cls):
    # every step of every walker joins two adjacent labels of the truncation
    walker = walker_cls(12)
    m = walker.materialize()
    index = {label: v for v, label in enumerate(m.coords)}
    adjacent = {frozenset(e[:2]) for e in m.network.edges}
    rng = np.random.default_rng(3)
    state = walker.new_state(400)
    before = walker.coords(state)
    for _ in range(11):
        walker.advance(state, rng)
        after = walker.coords(state)
        assert all(frozenset((index[a], index[b])) in adjacent
                   for a, b in zip(before, after))
        before = after


class TestPercolation:
    def test_full_box(self):
        m = gen_percolation_cluster(4, 1.0, seed=1)
        assert m.network.vertex_count == 25

    def test_empty(self):
        m = gen_percolation_cluster(4, 0.0, seed=1)
        assert m.network.vertex_count == 1
        assert m.network.edge_count == 0

    def test_cluster_is_box_subgraph(self):
        m = gen_percolation_cluster(10, 0.5, seed=3)
        for (a, b, _) in m.network.edges:
            xa, ya = m.coords[a]
            xb, yb = m.coords[b]
            assert abs(xa - xb) + abs(ya - yb) == 1

    @pytest.mark.parametrize("n,p,seed", [
        (1, 0.0, 0), (1, 0.5, 2), (1, 1.0, 0), (4, 0.0, 1), (4, 1.0, 1),
        (10, 0.5, 3), (25, 0.5, 7), (30, 0.6, 11), (40, 0.45, 5),
    ])
    def test_matches_loop_oracle(self, n, p, seed):
        m = gen_percolation_cluster(n, p, seed=seed)
        edges, coords = oracles.percolation_cluster(n, p, seed)
        assert m.network.edges == tuple(edges)
        assert m.coords == coords

    def test_reproducible(self):
        a = gen_percolation_cluster(12, 0.5, seed=9)
        b = gen_percolation_cluster(12, 0.5, seed=9)
        assert a.network.edges == b.network.edges

    def test_root_law_uniform_chisquare(self):
        m = gen_percolation_cluster(100, 0.5, seed=5)
        rng = np.random.default_rng(11)
        draws = m.root_law.sample(rng, 100_000)
        counts = np.bincount(draws, minlength=m.network.vertex_count)
        p = chisquare_pvalue(counts, m.root_law.probabilities, 100_000)
        assert p > 0.01


class TestWilson:
    def _tree_key(self, tree):
        return frozenset((min(a, b), max(a, b)) for a, b, _ in tree.edges)

    def test_spanning_tree_properties(self):
        base = gen_torus(5).network
        tree = gen_wilson_ust(base, seed=3)
        assert tree.vertex_count == base.vertex_count
        assert tree.edge_count == base.vertex_count - 1  # connected + acyclic

    def test_tree_input_returned(self):
        base = nets.path_n(6)
        tree = gen_wilson_ust(base, seed=1)
        assert self._tree_key(tree) == self._tree_key(base)

    def test_reproducible(self):
        base = gen_torus(4).network
        assert gen_wilson_ust(base, 7).edges == gen_wilson_ust(base, 7).edges

    @pytest.mark.parametrize("base,count", [(nets.triangle(), 3), (nets.cycle(4), 4)])
    def test_uniform_over_trees(self, base, count):
        # cycle C_n has exactly n spanning trees, each with probability 1/n
        samples = 10_000
        freq = {}
        for s in range(samples):
            key = self._tree_key(gen_wilson_ust(base, seed=s))
            freq[key] = freq.get(key, 0) + 1
        assert len(freq) == count
        sigma = np.sqrt((1 / count) * (1 - 1 / count) / samples)
        for k, n in freq.items():
            assert abs(n / samples - 1 / count) < 3 * sigma + 1e-9


class TestRootLaw:
    def test_uniform(self):
        law = apply_root_law(nets.p3(), "uniform")
        assert np.allclose(law.probabilities, 1 / 3)

    def test_conductance_biased(self):
        law = apply_root_law(nets.p3(), "conductance_biased")
        assert law.probabilities.tolist() == [0.25, 0.5, 0.25]

    def test_regular_graph_laws_coincide(self):
        net = nets.cycle(6)
        uni = apply_root_law(net, "uniform")
        bia = apply_root_law(net, "conductance_biased")
        assert np.allclose(uni.probabilities, bia.probabilities)

    def test_fixed(self):
        law = apply_root_law(nets.p3(), "fixed", vertex=2)
        assert law.probabilities.tolist() == [0.0, 0.0, 1.0]
