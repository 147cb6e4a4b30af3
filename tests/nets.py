"""Shared test networks: small named graphs plus a seeded randomized battery."""

import numpy as np

from collisionlab import build_network


def single_edge():
    return build_network(2, [(0, 1, 1.0)])


def two_vertex(w=1.0):
    return build_network(2, [(0, 1, w)])


def two_vertex_multi():
    return build_network(2, [(0, 1, 3.0), (0, 1, 1.0)])


def p3():
    return build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])


def weighted_p3():
    return build_network(3, [(0, 1, 1.0), (1, 2, 2.0)])


def path_n(n):
    return build_network(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def triangle():
    return build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def weighted_triangle():
    return build_network(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])


def loop_triangle():
    return build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (0, 0, 0.5)])


def cycle(n):
    return build_network(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def k4():
    return build_network(4, [(a, b, 1.0) for a in range(4) for b in range(a + 1, 4)])


def star(k):
    return build_network(k + 1, [(0, i, 1.0) for i in range(1, k + 1)])


def parallel_and_loops():
    return build_network(
        4,
        [(0, 1, 0.5), (1, 0, 1.5), (0, 1, 0.25), (1, 2, 3.0), (2, 2, 0.7),
         (2, 3, 1.1), (3, 3, 0.2), (3, 3, 0.9), (0, 3, 2.0), (0, 0, 0.1)],
    )


def skewed_hub(hub=0):
    """A hub whose conductances 2^-k crowd most of its row into its last
    guide buckets, a ladder of 6 passes even once the row splits 16-fold.
    Vertex v of the hub-at-0 net is vertex (v + hub) % 52."""
    edges = ([(0, k + 1, 2.0**-k) for k in range(51)]
             + [(0, 1, 0.25), (0, 40, 2.0**-45), (0, 51, 2.0**-3), (0, 0, 2.0**-30), (7, 8, 1.0)])
    return build_network(52, [((a + hub) % 52, (b + hub) % 52, w) for a, b, w in edges])


def weighted_star(leaves=200, center=1, cycle=False):
    """A star whose conductances, 2^u for u uniform in [-1, 1], put two
    cumulative values in some of the center's buckets, so that row splits.
    With ``cycle`` the leaves also form a unit-conductance cycle, and most of
    their rows, of three entries, do not split."""
    rng = np.random.default_rng(np.random.SeedSequence((0x57A2, leaves)))
    ring = [v for v in range(leaves + 1) if v != center]
    edges = [(center, v, float(w)) for v, w in zip(ring, 2.0 ** rng.uniform(-1.0, 1.0, leaves))]
    if cycle:
        edges += [(a, b, 1.0) for a, b in zip(ring, ring[1:] + ring[:1])]
    return build_network(leaves + 1, edges)


def tiny_beside_unit():
    """Vertex 3's row holds two conductances of 2^-60 before one of 1: the
    running sums 2^-60 and 2^-59 share bucket 0 however finely it is split,
    so the row stays wide at the cap."""
    return build_network(4, [(3, 0, 2.0**-60), (3, 1, 2.0**-60), (3, 2, 1.0), (0, 2, 1.0),
                             (1, 2, 1.0)])


#: named small networks used across module tests
def small_named():
    return [
        ("single_edge", single_edge()),
        ("two_vertex_multi", two_vertex_multi()),
        ("p3", p3()),
        ("weighted_p3", weighted_p3()),
        ("path5", path_n(5)),
        ("triangle", triangle()),
        ("weighted_triangle", weighted_triangle()),
        ("loop_triangle", loop_triangle()),
        ("c4", cycle(4)),
        ("c5", cycle(5)),
        ("k4", k4()),
        ("star4", star(4)),
    ]


def random_connected_network(seed, min_vertices=4, max_vertices=40):
    """Seeded connected multigraph with mixed conductances.

    A random attachment tree guarantees connectivity; extra edges may create
    parallel edges and self-loops.  Conductances are log-uniform in [0.1, 10].
    """
    rng = np.random.default_rng(np.random.SeedSequence((0xBA77E21, int(seed))))
    n = int(rng.integers(min_vertices, max_vertices + 1))

    def w():
        return float(10.0 ** rng.uniform(-1.0, 1.0))

    edges = [(int(rng.integers(0, i)), i, w()) for i in range(1, n)]
    for _ in range(int(rng.integers(0, n + 1))):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        edges.append((a, b, w()))
    return build_network(n, edges)


def battery(count=20, **kwargs):
    return [random_connected_network(seed, **kwargs) for seed in range(count)]
