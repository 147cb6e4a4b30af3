import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import nets
import oracles
from collisionlab import (
    DisconnectedGraphError,
    EndpointOutOfRangeError,
    Network,
    NonpositiveConductanceError,
    ResourceLimitError,
    build_network,
    component_labels,
    gen_comb,
    gen_grid_box,
    gen_torus,
    is_bipartite,
    kernel_powers,
    last_collision_identity,
    n_step_kernel,
    network_from_json,
    qlast_transport,
    stationary_distribution,
)


class TestBuildNetwork:
    def test_single_edge(self):
        net = build_network(2, [(0, 1, 1.0)])
        assert net.vertex_conductance.tolist() == [1.0, 1.0]

    def test_p3_center_conductance(self):
        net = nets.p3()
        assert net.vertex_conductance[1] == 2.0

    def test_degrees_count_edge_ends(self):
        # a self-loop adds one to its vertex's degree
        for net in nets.battery():
            deg = np.zeros(net.vertex_count, dtype=np.int64)
            for a, b, _ in net.edges:
                deg[a] += 1
                if b != a:
                    deg[b] += 1
            assert np.array_equal(net.degrees, deg)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            build_network(3, [(0, 1, 1.0)])

    def test_too_few_edges_rejected_before_any_vertex_array(self):
        # V - 1 edges at least connect V vertices; 10**12 vertices would take
        # terabytes of per-vertex arrays
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedGraphError, match="1 edges cannot connect"):
                network_from_json({"vertices": 10**12, "edges": [[0, 1]]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_endpoint_check_precedes_edge_count_check(self):
        with pytest.raises(EndpointOutOfRangeError):
            build_network(10**12, [(0, -1)])
        with pytest.raises(NonpositiveConductanceError):
            build_network(10**12, [(0, 1, 0.0)])

    def test_nonpositive_conductance_rejected(self):
        with pytest.raises(NonpositiveConductanceError):
            build_network(2, [(0, 1, 0.0)])
        with pytest.raises(NonpositiveConductanceError):
            build_network(2, [(0, 1, -2.0)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(EndpointOutOfRangeError):
            build_network(2, [(0, 2, 1.0)])

    @pytest.mark.parametrize("w", [float("inf"), float("-inf"), float("nan")])
    def test_nonfinite_conductance_rejected(self, w):
        with pytest.raises(NonpositiveConductanceError, match="finite"):
            build_network(3, [(0, 1, 1.0), (1, 2, w)])

    @pytest.mark.parametrize("end", [float("nan"), float("inf"), -1.0, 3.0])
    def test_nonfinite_or_outside_endpoint_rejected(self, end):
        # the bad end in either column, in tuples and, where an int64 holds
        # it, in an edge array
        for column in (0, 1):
            edge = [1, 2, 1.0]
            edge[column] = end
            with pytest.raises(EndpointOutOfRangeError, match="outside"):
                build_network(3, [(0, 1, 1.0), tuple(edge)])
            if np.isfinite(end):
                ends = np.array([(0, 1), (1, 2)], dtype=np.int64)
                ends[1, column] = end
                with pytest.raises(EndpointOutOfRangeError, match="outside"):
                    build_network(3, ends)

    @pytest.mark.parametrize("count", [True, 3.7, 3.0, float("nan"), "3", None])
    def test_non_integer_vertex_count_rejected(self, count):
        with pytest.raises(ValueError, match="vertex_count"):
            build_network(count, [(0, 1, 1.0)])

    @pytest.mark.parametrize("count", [3, np.int64(3), np.int32(3)])
    def test_integer_vertex_count_accepted(self, count):
        assert build_network(count, [(0, 1), (1, 2)]).vertex_count == 3

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2, 1.0)],  # pairs mixed with triples
        [(0, 1, 1.0), (1, 2, 1.0, 5.0)],
        [(0, 1, 1.0, 5.0), (1, 2, 1.0, 5.0)],
        [(0,), (1,)],
        [(0, "one", 1.0)],
        (0, 1, 1.0),
    ])
    def test_malformed_edges_rejected(self, edges):
        with pytest.raises(ValueError, match="pairs"):
            build_network(3, edges)

    def test_first_bad_edge_is_reported(self):
        # an edge list is checked in order, whatever is wrong with each edge
        with pytest.raises(NonpositiveConductanceError):
            build_network(3, [(0, 1, 0.0), (1, 5, 1.0)])
        with pytest.raises(EndpointOutOfRangeError, match=r"\(1, 5\)"):
            build_network(3, [(0, 1, 1.0), (1, 5, 1.0), (1, 2, 0.0)])

    def test_edges_keep_input_order_and_types(self):
        net = build_network(3, [(2, 1), (0, 1), (1, 1)])
        assert net.edges == ((2, 1, 1.0), (0, 1, 1.0), (1, 1, 1.0))
        assert [type(x) for x in net.edges[0]] == [int, int, float]
        assert net.edge_count == 3
        assert net.ends.shape == (3, 2) and net.conductances.shape == (3,)

    def test_edge_arrays_read_only(self):
        net = nets.weighted_triangle()
        with pytest.raises(ValueError):
            net.ends[0, 0] = 2
        with pytest.raises(ValueError):
            net.conductances[0] = 5.0

    def test_array_input_matches_tuple_list(self):
        for net in nets.battery() + [n for _, n in nets.small_named()]:
            table = np.column_stack([net.ends, net.conductances])
            again = build_network(net.vertex_count, table)
            assert again.edges == net.edges
            for x, y in zip(again.adjacency_csr(), net.adjacency_csr()):
                assert np.array_equal(x, y)

    def test_parallel_edges_aggregate(self):
        net = nets.two_vertex_multi()
        assert net.conductance_between(0, 1) == 4.0
        assert net.vertex_conductance[0] == 4.0

    @pytest.mark.parametrize("weights,total", [
        ((1.0, 2.0**-53, 2.0**-53), 1.0 + 2.0**-52),
        ((2.0**-53, 2.0**-53, 1.0), 1.0),  # each 2^-53 rounds away on 1.0
    ])
    def test_parallel_edges_sum_in_input_order(self, weights, total):
        # c(u, v) is np.add.reduceat's sum of the parallel weights in input
        # order: the first weight plus the sum of the others
        net = build_network(2, [(0, 1, w) for w in weights])
        assert net.conductance_between(0, 1) == net.conductance_between(1, 0) == total
        assert net.vertex_conductance.tolist() == [total, total]

    def test_many_parallel_edges_keep_input_order(self):
        # 200 copies of one edge, each followed by 19 edges of a path, which
        # an unstable argsort of the entries' keys takes out of input order
        weights = [1.0] + [2.0**-53] * 199
        path = [(v, v + 1, 1.0) for v in range(1, 39)]
        edges = []
        for i, w in enumerate(weights):
            edges.append((0, 1, w))
            edges.extend(path[i % 2::2])
        net = build_network(40, edges + path)
        total = np.add.reduceat(weights, [0])[0]
        assert net.conductance_between(0, 1) == net.conductance_between(1, 0) == total
        assert net.vertex_conductance[0] == total

    @pytest.mark.parametrize("u,v", [(-1, 1), (1, 3), (3, 1), (1, -1)])
    def test_conductance_between_rejects_outside_vertex(self, u, v):
        # c(2, 1) = 1, so a wrapped -1 would not answer 0.0 either
        with pytest.raises(ValueError, match="vertex"):
            nets.p3().conductance_between(u, v)

    def test_self_loop_counts_once(self):
        net = build_network(2, [(0, 1, 1.0), (0, 0, 2.0)])
        assert net.vertex_conductance[0] == 3.0
        assert net.conductance_between(0, 0) == 2.0
        assert net.one_step_matrix()[0, 0] == pytest.approx(2.0 / 3.0)

    def test_one_step_matrix_matches_row_loop(self):
        singles = [build_network(1, []), build_network(1, [(0, 0, 2.0)])]
        for net in nets.battery() + [n for _, n in nets.small_named()] + singles:
            assert np.array_equal(net.one_step_matrix(), oracles.one_step_rows(net))

    def test_single_vertex_no_edges(self):
        net = build_network(1, [])
        assert net.one_step_matrix().tolist() == [[1.0]]
        assert stationary_distribution(net).tolist() == [1.0]

    def test_json_round_trip(self):
        net = nets.weighted_triangle()
        again = network_from_json(net.to_json_dict())
        assert again.edges == net.edges
        assert again.vertex_count == net.vertex_count


def _nested_list_load(obj):
    """The loader before ``fromiter``: the parsed edge rows straight to Network."""
    return Network(obj["vertices"], obj["edges"])


def _outcome(load, text):
    try:
        net = load(json.loads(text))
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)
    return net.vertex_count, net.ends.tolist(), net.conductances.tobytes()


class TestNetworkFromJson:
    @pytest.mark.parametrize("net", [nets.weighted_triangle(), gen_torus(5).network,
                                     gen_comb(4).network, build_network(1, [])],
                             ids=["triangle", "torus", "comb", "single"])
    def test_valid_files_match_nested_list_load(self, net):
        text = json.dumps(net.to_json_dict())
        fast, slow = network_from_json(json.loads(text)), _nested_list_load(json.loads(text))
        assert np.array_equal(fast.ends, slow.ends)
        assert fast.conductances.tobytes() == slow.conductances.tobytes()
        assert fast.ends.dtype == slow.ends.dtype and fast.ends.shape == slow.ends.shape

    @pytest.mark.parametrize("edges", [
        "[[0, 1], [1, 2]]",  # pairs
        '[[0, 1, 1.5], [1, 2, "2.5"]]',  # a number as a string, as asarray reads it
        "[[0, 1, true], [1, 2, 1e300]]",
        "[[0, 1, 1.0], [1, 2]]",  # a triple and a pair
        "[[0, 1, 1.0], [1, 2, null]]",
        "[[0, 1, [1.0]], [1, 2, 1.0]]",  # nested
        '[[0, 1, {"c": 1}], [1, 2, 1.0]]',
        '[[0, 1, "x"], [1, 2, 1.0]]',
        '["01", "12"]',  # strings of one width are not rows
        '[{"a": 0, "b": 1}, {"a": 1, "b": 2}]',
        "[[0, 1, 1, 1], [1, 2, 1, 1]]",
        "[[], []]",
        "[0, 1]",
        "[]",
        "7",
        "[[0, 1e400], [1, 2]]",
        "[[0, 5], [1, 2]]",
        "[[0, 1, -1.0], [1, 2, 1.0]]",
    ])
    def test_error_or_network_matches_nested_list_load(self, edges):
        text = f'{{"vertices": 3, "edges": {edges}}}'
        assert _outcome(network_from_json, text) == _outcome(_nested_list_load, text)


class TestTransitionProb:
    def test_p3_center(self):
        assert nets.p3().one_step_matrix()[1, 0] == 0.5

    def test_p3_leaf(self):
        assert nets.p3().one_step_matrix()[0, 1] == 1.0

    def test_parallel_edges_all_mass_across(self):
        assert nets.two_vertex_multi().one_step_matrix()[0, 1] == 1.0


def _random_multigraph(rng):
    """Vertices 0 .. n-1 with random edges: isolated vertices, self-loops
    and parallel edges all occur, and some graphs have no edges."""
    n = int(rng.integers(1, 60))
    m = int(rng.integers(0, 2 * n)) if rng.random() < 0.9 else 0
    a, b = rng.integers(0, n, m), rng.integers(0, n, m)
    loops = rng.random(m) < 0.1
    b[loops] = a[loops]
    dup = rng.integers(0, max(m, 1), m // 4)
    return n, np.concatenate([a, a[dup]]), np.concatenate([b, b[dup]])


def _smallest_member_labels(n, a, b):
    """Each vertex's component's smallest vertex, from scipy's labels."""
    graph = coo_matrix((np.ones(a.size), (a, b)), shape=(n, n))
    count, comp = connected_components(graph, directed=False)
    smallest = np.full(count, n)
    np.minimum.at(smallest, comp, np.arange(n))
    return smallest[comp]


class TestComponentLabels:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_scipy(self, seed):
        n, a, b = _random_multigraph(np.random.default_rng(seed))
        assert np.array_equal(component_labels(n, a, b), _smallest_member_labels(n, a, b))

    def test_no_edges(self):
        empty = np.zeros(0, dtype=np.int64)
        assert component_labels(5, empty, empty).tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_path_and_box(self, seed):
        # deep hook chains: a path and a box with randomly permuted labels
        rng = np.random.default_rng(seed)
        n = 3000
        perm = rng.permutation(n)
        a, b = perm[:-1], perm[1:]
        assert np.array_equal(component_labels(n, a, b), np.zeros(n, dtype=np.int64))
        ends = gen_grid_box(20).network.ends
        perm = rng.permutation(41 * 41)
        keep = rng.random(len(ends)) < 0.5
        a, b = perm[ends[keep, 0]], perm[ends[keep, 1]]
        want = _smallest_member_labels(41 * 41, a, b)
        assert np.array_equal(component_labels(41 * 41, a, b), want)


class TestNStepKernel:
    def test_zero_steps_identity(self):
        K = n_step_kernel(nets.p3(), 0)
        assert np.array_equal(K.matrix, np.eye(3))

    def test_p3_two_step_return(self):
        assert n_step_kernel(nets.p3(), 2).matrix[0, 0] == pytest.approx(0.5)

    def test_triangle_two_step_return(self):
        K = n_step_kernel(nets.triangle(), 2)
        for v in range(3):
            assert K.matrix[v, v] == pytest.approx(0.5)

    def test_dense_cap(self):
        net = nets.path_n(7000)
        with pytest.raises(ResourceLimitError):
            n_step_kernel(net, 1)

    def test_matches_path_enumeration(self):
        net = nets.weighted_triangle()
        for n in range(5):
            dist = oracles.walk_distribution(net, 0, n)
            row = n_step_kernel(net, n).matrix[0]
            for v in range(3):
                assert row[v] == pytest.approx(dist.get(v, 0.0), abs=1e-12)


class TestKernelPowers:
    @pytest.mark.parametrize("name,net", nets.small_named())
    def test_matches_n_step_kernel(self, name, net):
        # n_step_kernel is the last power of kernel_powers; both are checked
        # against the binary matrix power it replaced
        rows = kernel_powers(net, 6, start=0)
        for n, (Pn, row) in enumerate(zip(kernel_powers(net, 6), rows)):
            assert np.abs(Pn - oracles.matrix_power_kernel(net, n).matrix).max() < 1e-14
            assert np.array_equal(n_step_kernel(net, n).matrix, Pn)
            assert np.abs(row - Pn[0]).max() < 1e-14

    def test_yields_zero_through_N(self):
        assert len(list(kernel_powers(nets.p3(), 4))) == 5
        assert np.array_equal(next(kernel_powers(nets.p3(), 0, start=2)), [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("start", [-1, 3])
    def test_out_of_range_start_raises_on_call(self, start):
        with pytest.raises(ValueError, match="start vertex"):
            kernel_powers(nets.p3(), 4, start=start)  # not iterated

    def test_negative_N_rejected(self):
        with pytest.raises(ValueError):
            kernel_powers(nets.p3(), -1)

    def test_dense_cap_checked_on_call(self):
        with pytest.raises(ResourceLimitError):
            kernel_powers(nets.path_n(7000), 2)

    def test_network_keeps_no_dense_array(self):
        # a Network stays O(E) after the dense kernels ran on it, so pickling
        # it for a worker ships no V x V matrix
        net = gen_torus(30).network
        size = len(pickle.dumps(net))
        last_collision_identity(net, 0, 2)
        qlast_transport(1, 2).matrix(net)
        assert len(pickle.dumps(net)) == size
        assert net.one_step_matrix() is not net.one_step_matrix()


class TestKernelInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_stochastic_up_to_64(self, seed):
        net = nets.random_connected_network(seed, max_vertices=25)
        P = net.one_step_matrix()
        M = np.eye(net.vertex_count)
        for _ in range(64):
            M = M @ P
            assert np.abs(M.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_chapman_kolmogorov(self, seed):
        net = nets.random_connected_network(seed, max_vertices=25)
        for a, b in [(1, 1), (2, 3), (5, 7)]:
            lhs = n_step_kernel(net, a + b).matrix
            rhs = n_step_kernel(net, a).matrix @ n_step_kernel(net, b).matrix
            assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_detailed_balance_one_step(self, seed):
        net = nets.random_connected_network(seed, max_vertices=25)
        P = net.one_step_matrix()
        flow = net.vertex_conductance[:, None] * P
        assert np.abs(flow - flow.T).max() < 1e-12
        # both sides equal the pairwise conductance
        for u in range(net.vertex_count):
            for v in range(net.vertex_count):
                assert flow[u, v] == pytest.approx(net.conductance_between(u, v), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_stationary_invariance(self, seed):
        net = nets.random_connected_network(seed, max_vertices=25)
        pi = stationary_distribution(net)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(pi @ net.one_step_matrix() - pi).max() < 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_networks_row_stochastic(self, seed):
        net = nets.random_connected_network(seed, max_vertices=12)
        P = net.one_step_matrix()
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
        assert P.min() >= 0.0


@st.composite
def _multigraphs(draw):
    """(n, edges): a path through every vertex plus extra edges, self-loops and
    parallel edges among them, with uneven conductances, in a drawn order."""
    n = draw(st.integers(min_value=1, max_value=8))
    weight = st.floats(min_value=1e-3, max_value=1e3)
    vertex = st.integers(min_value=0, max_value=n - 1)
    path = [(i, i + 1, draw(weight)) for i in range(n - 1)]
    extra = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=24))
    return n, draw(st.permutations(path + extra))


@given(_multigraphs())
@settings(max_examples=200, deadline=None)
def test_adjacency_matches_lexsort_oracle(graph):
    net = build_network(*graph)
    got = (*net.adjacency_csr(), net.vertex_conductance)
    for a, b in zip(got, oracles.adjacency_lexsort(net)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStationaryDistribution:
    def test_p3_degree_proportional(self):
        assert stationary_distribution(nets.p3()).tolist() == [0.25, 0.5, 0.25]

    def test_regular_graph_uniform(self):
        pi = stationary_distribution(nets.cycle(5))
        assert np.allclose(pi, 0.2)

    def test_two_vertex_symmetric(self):
        assert stationary_distribution(nets.two_vertex(3.0)).tolist() == [0.5, 0.5]


class TestBipartite:
    def test_even_cycle(self):
        ok, colors = is_bipartite(nets.cycle(4))
        assert ok
        assert colors[0] != colors[1]

    def test_triangle(self):
        assert is_bipartite(nets.triangle()) == (False, None)

    def test_single_edge_coloring(self):
        ok, colors = is_bipartite(nets.single_edge())
        assert ok
        assert sorted(colors.tolist()) == [0, 1]

    @pytest.mark.parametrize("name,net", nets.small_named() + [
        *((f"battery{i}", net) for i, net in enumerate(nets.battery())),
        *((f"cycle{n}", nets.cycle(n)) for n in range(2, 31)),
        ("comb4", gen_comb(4).network), ("grid3", gen_grid_box(3).network),
        ("torus3", gen_torus(3).network), ("torus4", gen_torus(4).network),
    ])
    def test_matches_dfs_oracle(self, name, net):
        ok, colors = is_bipartite(net)
        want_ok, want_colors = oracles.bipartite_dfs(net)
        assert ok == want_ok
        if ok:
            assert colors.dtype == want_colors.dtype
            assert np.array_equal(colors, want_colors)
        else:
            assert colors is None

    def test_self_loop_is_odd_cycle(self):
        assert is_bipartite(nets.loop_triangle())[0] is False
        assert is_bipartite(build_network(2, [(0, 1, 1.0), (1, 1, 1.0)]))[0] is False
