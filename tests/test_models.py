import hashlib
import json

import numpy as np
import pytest

import nets
import oracles
from conftest import chisquare_pvalue
from collisionlab import (
    CertificateViolationError,
    ResourceLimitError,
    apply_root_law,
    build_network,
    gen_comb,
    gen_grid_box,
    gen_path_segment,
    gen_percolation_cluster,
    gen_torus,
    gen_wilson_ust,
    is_bipartite,
    n_step_kernel,
)
from collisionlab._parallel import substream_rng
from collisionlab.models import CombLattice, GridLattice, PathLattice, RootedModel, _box_bonds
from collisionlab.walk_engine import _sampling_tables


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
            gen_grid_box(1200)  # 2401^2 = 5.76M vertices, refused before building


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


@pytest.mark.parametrize("R", [1, 2, 5])
def test_box_coords_match_nested_loops(R):
    # the labels the generators built with one Python generator per vertex
    assert gen_grid_box(R).coords == tuple(
        (x, y) for x in range(-R, R + 1) for y in range(-R, R + 1))
    assert gen_comb(R).coords == tuple((x, y) for x in range(-R, R + 1) for y in range(R + 1))
    side = R + 1
    assert gen_torus(side).coords == tuple((x, y) for x in range(side) for y in range(side))


@pytest.mark.parametrize("cols,rows", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 5), (5, 1),
                                       (2, 7), (6, 3), (4, 4)])
@pytest.mark.parametrize("spine,wrap", [(False, False), (False, True), (True, False),
                                        (True, True)])
def test_box_bonds_match_nested_loops(cols, rows, spine, wrap):
    # percolation draws its keep mask in this bond order
    got = _box_bonds(cols, rows, spine=spine, wrap=wrap)
    want = oracles.box_bonds_loop(cols, rows, spine=spine, wrap=wrap)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("make,labels", [
    (lambda: gen_path_segment(3), lambda: tuple(range(-3, 4))),
    (lambda: gen_grid_box(2),
     lambda: tuple((x, y) for x in range(-2, 3) for y in range(-2, 3))),
    (lambda: gen_comb(2), lambda: tuple((x, y) for x in range(-2, 3) for y in range(3))),
    (lambda: gen_torus(3), lambda: tuple((x, y) for x in range(3) for y in range(3))),
    (lambda: gen_percolation_cluster(15, 0.5, seed=6),
     lambda: oracles.percolation_cluster(15, 0.5, 6)[1]),
    (lambda: RootedModel(gen_wilson_ust(gen_torus(3).network, seed=1)), lambda: None),
], ids=["path", "grid", "comb", "torus", "percolation", "no_labels"])
def test_coords_built_on_first_access(make, labels):
    model = make()
    assert "coords" not in model.__dict__
    assert model.coords == labels()
    assert model.__dict__["coords"] is model.coords  # kept, not rebuilt


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
        walker.advance(state, rng.random(state.size))
    labels = walker.coords(state, 3)
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
@pytest.mark.parametrize("R", [1, 4])
def test_walker_describes_its_truncation(walker_cls, R):
    # the count and certificate known before building are the built model's,
    # and the certificate's start is the walkers' common start, the center
    walker = walker_cls(R)
    m = walker.materialize()
    assert walker.vertex_count == m.network.vertex_count
    assert m.certificate == walker.certificate
    assert m.start == walker.certificate.start_vertex
    assert m.coords[m.start] == walker.coords(walker.new_state(1))[0]


@pytest.mark.parametrize("gen", [gen_path_segment, gen_grid_box, gen_comb])
def test_generator_radius_checked(gen):
    with pytest.raises(ValueError, match="radius must be at least 1"):
        gen(0)


def test_grid_box_radius_below_code_range():
    # the walker's code range bounds its truncation too, before any array exists
    with pytest.raises(ValueError, match="2\\^31"):
        gen_grid_box(2**31)


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
    for n in range(1, 12):
        walker.advance(state, rng.random(state.size))
        after = walker.coords(state, n)
        assert all(frozenset((index[a], index[b])) in adjacent
                   for a, b in zip(before, after))
        before = after


def test_comb_floor_cuts_match_comparisons():
    # The rounded product fl(6r) is monotone in r, so each set {r: floor(6r)
    # >= k} is all the doubles from some cut up.  The move table changes only
    # at k = 2, 3 and 4 (the spine's thirds, the tooth's halves); if fl(6r)
    # reaches k at the double 1/3, 1/2 or 2/3 and stays below it at the double
    # just below, those cuts are the comparisons' cuts, and by the same
    # monotonicity floor(6r) stays in 0..5 if it does so at 0 and at the
    # largest double below 1.  These doubles and their neighbours then decide
    # every other double.
    cuts = [1 / 3, 0.5, 2 / 3]
    r = np.array([0.0, np.nextafter(1.0, 0.0)]
                 + [v for c in cuts for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))])
    assert np.floor(6 * r).tolist() == [0, 5, 1, 2, 2, 2, 3, 3, 3, 4, 4]
    walker, reference = CombLattice(10), oracles.CompareCombLattice(10)
    # on the spine at x = 0 and x = -3, and on teeth of heights 1 and 7
    for code in (0, -3 << 32, (2 << 32) + 1, (-1 << 32) + 7):
        got, want = np.full(r.size, code), np.full(r.size, code)
        walker.advance(got, r.copy())
        reference.advance(want, r.copy())
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("walker,reference", [
    (PathLattice(301), oracles.PositionPathLattice(301)),
    (CombLattice(301), oracles.CompareCombLattice(301)),
], ids=["path", "comb"])
def test_walker_matches_oracle_advance(walker, reference):
    # the count-code line and the floor(6r) comb give the labels of the
    # position-code line and the comparison comb at every step
    rng = np.random.default_rng(23)
    state, oracle_state = walker.new_state(4096), reference.new_state(4096)
    for n in range(1, 301):
        r = rng.random(state.size)
        walker.advance(state, r.copy())
        reference.advance(oracle_state, r)
        assert walker.coords(state, n) == reference.coords(oracle_state, n)


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
        law = apply_root_law(m.network, m.root_law)
        rng = np.random.default_rng(11)
        draws = law.sample(rng, 100_000)
        counts = np.bincount(draws, minlength=m.network.vertex_count)
        p = chisquare_pvalue(counts, law.probabilities, 100_000)
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

    @pytest.mark.parametrize("base", [
        build_network(4, [(a, b, 1.0 + a + 2.0 * b) for a in range(4) for b in range(a + 1, 4)]),
        nets.two_vertex_multi(),
        nets.loop_triangle(),
    ], ids=["weighted_k4", "two_vertex_multi", "loop_triangle"])
    def test_weighted_law_exact(self, base):
        # tree frequencies against the enumerated law P(T) ~ prod c(u, v); each
        # tree edge carries the aggregated conductance of its vertex pair
        law = oracles.spanning_tree_law(base)
        trees = list(law)
        counts = np.zeros(len(trees))
        samples = 4000
        for s in range(samples):
            tree = gen_wilson_ust(base, seed=s)
            for a, b, w in tree.edges:
                assert w == base.conductance_between(a, b)
            counts[trees.index(self._tree_key(tree))] += 1
        assert chisquare_pvalue(counts, [law[t] for t in trees], samples) > 0.01


class TestWilsonBlocks:
    """The tree loop with table reads and block uniforms against one
    ``sample_step`` call a step."""

    @staticmethod
    def _same_trees(base, seeds, monkeypatch):
        steps, step = [], oracles.sample_step

        def counted(*args):
            steps[-1] += 1
            return step(*args)

        monkeypatch.setattr(oracles, "sample_step", counted)
        for seed in seeds:
            steps.append(0)
            assert gen_wilson_ust(base, seed).edges == oracles.wilson_sample_step(base, seed).edges
        return steps

    @pytest.mark.parametrize("make", [
        lambda: gen_torus(8).network,
        lambda: gen_percolation_cluster(12, 0.5, seed=2).network,
        nets.skewed_hub,
        lambda: nets.random_connected_network(5),
        nets.parallel_and_loops,
    ], ids=["torus8", "percolation12", "skewed_hub", "random_conductances",
            "parallel_and_loops"])
    def test_trees_match_guide_range_search(self, make, monkeypatch):
        # the loop reads ``first`` on ladder-0 tables and bisects otherwise
        base = make()
        monkeypatch.setattr(oracles, "sample_step", oracles.guide_range_step)
        for seed in (1, 2, 3):
            assert gen_wilson_ust(base, seed).edges == oracles.wilson_sample_step(base, seed).edges

    def test_torus_crosses_full_blocks(self, monkeypatch):
        # blocks of 8, 16, ..., 4,096 draws reach 4,096 after 8,190 draws;
        # every tree here draws into a second full block, one into its tenth
        steps = self._same_trees(gen_torus(64).network, (1, 2, 3), monkeypatch)
        assert min(steps) > 8190 + 4096 and max(steps) > 8190 + 9 * 4096

    @pytest.mark.parametrize("base", [
        nets.skewed_hub(), nets.skewed_hub(hub=1), nets.parallel_and_loops(),
        nets.random_connected_network(5),
    ], ids=["skewed_hub", "skewed_hub_at_1", "parallel_and_loops", "random5"])
    def test_bisected_ranges(self, base, monkeypatch):
        # rooted at 0, the walks leave the hub's row alone unless the hub moves
        self._same_trees(base, (0, 1, 2, 3), monkeypatch)

    @pytest.mark.parametrize("base", [
        nets.two_vertex_multi(), nets.weighted_p3(), nets.loop_triangle(), nets.k4(),
        nets.path_n(5), nets.cycle(5),
    ], ids=["two_vertex_multi", "weighted_p3", "loop_triangle", "k4", "path5", "c5"])
    def test_small_bases_cross_first_block(self, base, monkeypatch):
        # a 2-vertex tree takes one draw; the others cross the 8-draw block
        steps = self._same_trees(base, range(200), monkeypatch)
        assert max(steps) > 8 or base.vertex_count == 2


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

    def test_conductance_biased_single_vertex(self):
        law = apply_root_law(build_network(1, []), "conductance_biased")
        assert law.probabilities.tolist() == [1.0]


def _model_digest(model):
    """sha256 over a model's interchange form, coords, start, two-coloring,
    CSR adjacency, degrees, vertex conductances and sampling tables."""
    net = model.network
    ok, colors = is_bipartite(net)
    colors = None if colors is None else colors.tolist()
    doc = [net.to_json_dict(), model.coords, model.start, ok, colors]
    h = hashlib.sha256(json.dumps(doc).encode())
    for arr in (*net.adjacency_csr(), net.degrees, net.vertex_conductance, *_sampling_tables(net)):
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


_PINNED_MODELS = {
    "path-1": lambda: gen_path_segment(1),
    "path-9": lambda: gen_path_segment(9),
    "grid-1": lambda: gen_grid_box(1),
    "grid-7": lambda: gen_grid_box(7),
    "comb-1": lambda: gen_comb(1),
    "comb-6": lambda: gen_comb(6),
    "torus-2": lambda: gen_torus(2),
    "torus-3": lambda: gen_torus(3),
    "torus-9": lambda: gen_torus(9),
    "percolation-20-0": lambda: gen_percolation_cluster(20, 0.0, seed=4),
    "percolation-20-0.5": lambda: gen_percolation_cluster(20, 0.5, seed=4),
    "percolation-20-1": lambda: gen_percolation_cluster(20, 1.0, seed=4),
    "percolation-60-0.5": lambda: gen_percolation_cluster(60, 0.5, seed=13),
    "wilson-torus-7": lambda: RootedModel(gen_wilson_ust(gen_torus(7).network, seed=2)),
    "wilson-weighted": lambda: RootedModel(
        gen_wilson_ust(nets.random_connected_network(5), seed=3)
    ),
}


@pytest.mark.parametrize("base,seed,sha", [
    (lambda: gen_torus(7).network, 2,
     "22a276c37b5b60dd7afbc2b19716e8d466f42164e92570ae402696b1ca6af317"),
    (lambda: nets.random_connected_network(5), 3,
     "23ab336383e7e2f8d6dd0ae22e2b1ffca5319c63bf141bbf3f2646e3f84ea752"),
], ids=["wilson-torus-7", "wilson-weighted"])
def test_incidence_wilson_keeps_old_pins(base, seed, sha):
    # the Wilson pins were taken from the incidence-list walk
    assert _model_digest(RootedModel(oracles.wilson_incidence(base(), seed))) == sha


@pytest.mark.parametrize("name,sha", [
    ("path-1", "bef3aeb0c83deaff8775125cf1d4e8249f29c00a38d916b15b0a263519b96b4a"),
    ("path-9", "2ed0b5428eb7ac24a04c9e8d75481c7786326ac8313eb4ebb19ed31e33c2c0bc"),
    ("grid-1", "afb1dc8a5385c320847c1490b1fcaf058061dc22f003c383dbb843b57a7f5334"),
    ("grid-7", "e52b3233a042179712bfffeeef66dc01bccf74523e11b339cbdbf3cd67b9f5d3"),
    ("comb-1", "bddb7ecafca1eefbe9b0d79f5e566fe64d43888c8f91092a6aaf4890cce20031"),
    ("comb-6", "c6301d2e45d902c689e1ab1a1638c3e6908f46d8e787bcde2c7dd9d5ca2fb486"),
    ("torus-2", "f598e2ac084ab7627695ee0d8302717ea364b3238648aa5de028e421e4af707a"),
    ("torus-3", "d381a81a544842fc2cef88067d3abfcf36fd6233f495eea09fb811ebb43c7b15"),
    ("torus-9", "3c56c18148e2f63cdd50f843795523b7160a4596055b4bfa84fb5c98114b855f"),
    ("percolation-20-0", "3d3dd8e0fa655b085756b9e0bcfb7a6176d5fb2b86f99d7aee5bcc924da89546"),
    ("percolation-20-0.5", "f008ae9ddff66d2a85cecfa3c378706c459561f487c5ad69c4b625ce538aa981"),
    ("percolation-20-1", "151329d21747831667f1b65e349bfb5979b4eeea55a7332e7ab502320a1b7005"),
    ("percolation-60-0.5", "2d6173219ec7b1a4dcd4f8db4e80326d755cdc7ccb1c912173f96ae2356fd806"),
    ("wilson-torus-7", "2b956ee496b0e9f60168412fa617fb9bf708830250dc4ff4255e1e352a0a619f"),
    ("wilson-weighted", "b1a3a73111c8b5c36b057f0c06bfac8e56ec984f4d50faad725dbac068cbb620"),
])
def test_generator_output_pinned(name, sha):
    # the hashes were taken from the per-edge loop generators and the
    # Python union-find and depth-first searches they used; the Wilson trees
    # are those of the walk through the CSR sampler
    assert _model_digest(_PINNED_MODELS[name]()) == sha


@pytest.mark.parametrize("build,sha", [
    (lambda: gen_percolation_cluster(20, 0.5, substream_rng(4, 0)),
     "f008ae9ddff66d2a85cecfa3c378706c459561f487c5ad69c4b625ce538aa981"),
    (lambda: RootedModel(gen_wilson_ust(gen_torus(7).network, substream_rng(2, 0))),
     "2b956ee496b0e9f60168412fa617fb9bf708830250dc4ff4255e1e352a0a619f"),
], ids=["percolation-20-0.5", "wilson-torus-7"])
def test_model_seed_is_its_stream(build, sha):
    # an integer seed s names the stream (s, 0): the pins of seeds 4 and 2
    assert _model_digest(build()) == sha


@pytest.mark.parametrize("seed", [0, 5, 2**32 + 7, 2**63 + 11, 2**64 - 1])
def test_model_seed_draws_what_default_rng_did(seed):
    # the models drew from default_rng(seed) before they took the stream (seed, 0)
    old = gen_percolation_cluster(6, 0.5, np.random.default_rng(seed))
    assert _model_digest(gen_percolation_cluster(6, 0.5, seed)) == _model_digest(old)
    base = gen_torus(4).network
    old = gen_wilson_ust(base, np.random.default_rng(seed))
    assert gen_wilson_ust(base, seed).edges == old.edges
