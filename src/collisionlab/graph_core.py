"""Finite conductance networks and exact random-walk kernels.

Vertices are dense integers ``0 .. vertex_count-1``.  Parallel edges and
self-loops are allowed and every edge carries a strictly positive
conductance.  The walk leaves ``u`` along an incident edge with probability
proportional to that edge's conductance, so the one-step law is
``p(u, v) = c(u, v) / c(u)`` where ``c(u, v)`` sums the conductances of all
edges joining ``u`` and ``v`` and ``c(u)`` sums the conductances incident to
``u`` (a self-loop counts once in both, giving ``p(u, u) = w / c(u)``).

A :class:`Network` holds its edges as arrays (``ends``, ``conductances``),
checked with numpy, and the aggregated adjacency in CSR form.  Connectivity
questions all go through :func:`component_labels`, one hooking and pointer
jumping routine: the connectivity check on construction, the two-coloring
of :func:`is_bipartite` (on the bipartite double cover) and the clusters of
the percolation generator.

The build selects rows of large arrays by a mask with ``np.compress``, which
gathers the kept rows by their indices: on masks with many false entries
numpy's boolean indexing is several times slower (numpy 2.4 on 2 vCPUs, a
180,000-row bond table half kept: 2.1 against 0.31 ms).  Boolean indexing
stays where it is the faster one: on masks that are nearly all true, such
as the non-loop mask of :meth:`Network._build_adjacency`, and on arrays of
about a thousand.

Exact kernels are dense.  Every power of the one-step matrix comes from
:func:`kernel_powers` (P^0 .. P^N, whole or as the rows of one start), and
:func:`n_step_kernel` is its last power.  Each call builds its own P and no
V x V array is kept on a :class:`Network`, which stays O(E).
``MEMORY_BUDGET`` is the one size policy of the package: :func:`require_memory`
refuses any estimate above it, here the dense kernels' :func:`dense_bytes`
before their first array, and in ``models`` and ``experiment_cli`` the
generators and a run's results.
Large graphs are handled by the Monte Carlo machinery instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

import numpy as np

from .errors import (
    DisconnectedGraphError,
    EndpointOutOfRangeError,
    NonpositiveConductanceError,
    ResourceLimitError,
)

# Bytes of arrays that one run may hold; every size estimate is checked against it.
MEMORY_BUDGET = 2**31

ROW_SUM_TOL = 1e-12


class Network:
    """Connected vertex-labeled multigraph with positive edge conductances.

    Immutable after construction and safe to share across parallel workers.
    A single-vertex network with no edges is permitted (it arises naturally
    as a degenerate percolation cluster); its walk is the constant chain.
    The edges are kept as arrays in input order: ``ends`` (m x 2 ints) and
    ``conductances`` (m floats).

    Parameters
    ----------
    vertex_count : int
        Number of vertices, at least 1; ValueError when it is not an integer
        (a bool, a float, even an integral one).
    edges : sequence or array of (a, b) pairs or of (a, b, conductance) triples
        Undirected edges, all pairs (conductance 1.0) or all triples;
        ValueError when they mix or have another length.
    """

    __slots__ = (
        "vertex_count",
        "ends",
        "conductances",
        "vertex_conductance",
        "degrees",
        "_offsets",
        "_targets",
        "_weights",
        "_tables",
    )

    def __init__(self, vertex_count, edges):
        if isinstance(vertex_count, bool) or not isinstance(vertex_count, (int, np.integer)):
            raise ValueError(f"vertex_count must be an integer, not {vertex_count!r}")
        if vertex_count < 1:
            raise EndpointOutOfRangeError("vertex_count must be at least 1")
        vertex_count = int(vertex_count)
        try:
            arr = np.asarray(edges, dtype=float)
        except (TypeError, ValueError):
            arr = None
        if arr is not None and arr.shape[:1] == (0,):
            arr = np.zeros((0, 3))
        if arr is None or arr.ndim != 2 or arr.shape[1] not in (2, 3):
            raise ValueError("edges must be all (a, b) pairs or all (a, b, conductance) triples")
        w = arr[:, 2] if arr.shape[1] == 3 else np.ones(len(arr))
        # NaN fails both comparisons; a fraction truncates below as int() does
        inside = (arr[:, :2] >= 0) & (arr[:, :2] < vertex_count)
        bad_end = ~(inside[:, 0] & inside[:, 1])
        bad = np.flatnonzero(bad_end | ~(np.isfinite(w) & (w > 0.0)))
        if bad.size:
            i = bad[0]
            a, b = (np.format_float_positional(x, trim="-") for x in arr[i, :2])
            if bad_end[i]:
                raise EndpointOutOfRangeError(
                    f"edge ({a}, {b}) has an endpoint outside [0, {vertex_count})"
                )
            raise NonpositiveConductanceError(
                f"edge ({a}, {b}) has conductance {w[i]}; conductances must be finite and > 0"
            )
        # a connected graph on V vertices has at least V - 1 edges; checked
        # before any V-long array is allocated
        if vertex_count > len(arr) + 1:
            raise DisconnectedGraphError(
                f"graph is not connected; {len(arr)} edges cannot connect {vertex_count} vertices"
            )
        ends = arr[:, :2].astype(np.int64)
        self.conductances = np.ascontiguousarray(w)
        del arr, w, inside, bad_end  # the float rows are not held while the adjacency builds

        self.vertex_count = vertex_count
        self.ends = ends
        ends.flags.writeable = False
        self.conductances.flags.writeable = False
        self._build_adjacency()
        self._check_connected()
        self._tables = None

    def _build_adjacency(self):
        n = self.vertex_count
        a, b = self.ends.T
        w = self.conductances
        # each non-loop edge appears in both directions, the reverse entries
        # after the edges; a loop appears once
        back = a != b
        # edge ends per vertex, a self-loop counted once
        self.degrees = np.bincount(a, minlength=n) + np.bincount(b[back], minlength=n)

        # the entries' keys src * n + dst, sorted as lexsort would sort (src,
        # dst); n * n < 2**63 for any n whose arrays fit the memory budget.
        # Stable, so parallel edges reach reduceat in input order.  Each
        # array goes once the next needs no more of it.
        key = np.concatenate([a * n + b, b[back] * n + a[back]])
        order = np.argsort(key, kind="stable")
        key = key[order]
        ww = np.concatenate([w, w[back]])[order]
        del order, back
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        rows, targets = np.divmod(key[starts], n)
        del key
        weights = np.add.reduceat(ww, starts) if starts.size else np.zeros(0)
        del ww

        counts = np.bincount(rows, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._offsets = offsets
        self._targets = targets
        self._weights = weights

        # each row's c(u, v) summed in target order; float even with no edges
        self.vertex_conductance = np.bincount(rows, weights, n).astype(float, copy=False)

    def _check_connected(self):
        unreached = np.flatnonzero(component_labels(self.vertex_count, *self.ends.T))
        if unreached.size:
            raise DisconnectedGraphError(
                f"graph is not connected; vertex {unreached[0]} is unreachable from 0"
            )

    # -- read-only views ---------------------------------------------------

    @property
    def edges(self):
        """The edges as a tuple of (a, b, conductance) in input order."""
        a, b = self.ends.T
        return tuple(zip(a.tolist(), b.tolist(), self.conductances.tolist()))

    @property
    def edge_count(self):
        return len(self.ends)

    def adjacency_csr(self):
        """Aggregated adjacency as (offsets, targets, weights) arrays."""
        return self._offsets, self._targets, self._weights

    def conductance_between(self, u, v):
        """Total conductance c(u, v) of the edges joining ``u`` and ``v``."""
        u, v = check_vertex(self, u, "vertex"), check_vertex(self, v, "vertex")
        lo, hi = self._offsets[u], self._offsets[u + 1]
        i = np.searchsorted(self._targets[lo:hi], v)
        if i < hi - lo and self._targets[lo + i] == v:
            return float(self._weights[lo + i])
        return 0.0

    def one_step_matrix(self):
        """Dense one-step transition matrix, a new V x V array on every call."""
        n = self.vertex_count
        require_memory(dense_bytes(n), f"the dense kernels on {n} vertices")
        # an isolated vertex (only in the single-vertex network) is a constant chain
        P = np.diag((self.vertex_conductance == 0.0).astype(float))
        rows = np.repeat(np.arange(n), np.diff(self._offsets))
        P[rows, self._targets] = self._weights / self.vertex_conductance[rows]
        return P

    def to_json_dict(self):
        """Interchange form {"vertices": N, "edges": [[a, b, c], ...]}.

        The rows are built straight from the edge arrays, without the tuples
        of :attr:`edges`.
        """
        a, b = self.ends.T
        rows = zip(a.tolist(), b.tolist(), self.conductances.tolist())
        return {"vertices": self.vertex_count, "edges": list(map(list, rows))}

    def __repr__(self):
        return f"Network(vertices={self.vertex_count}, edges={self.edge_count})"


def build_network(vertex_count, edge_list):
    """Validate and build a connected :class:`Network`.

    Raises
    ------
    EndpointOutOfRangeError, NonpositiveConductanceError, DisconnectedGraphError
    ValueError
        When the edges are not all (a, b) pairs or all (a, b, conductance) triples.
    """
    return Network(vertex_count, edge_list)


def network_from_json(obj):
    """Rebuild a network from its interchange dict.

    Edge rows that are all lists of the first row's width, as ``json``
    parses them, are read with one ``np.fromiter`` instead of a nested-list
    ``np.asarray`` (both take ``float()`` of each entry), after one check
    pass: ``list.__len__`` gives each row's width and refuses a row that is
    not a list.  Any other edge list, or one that ``fromiter`` refuses, goes
    to :class:`Network` as it is, which names the fault.  The rows are let
    go before the build, so they are freed there when ``obj`` was the
    caller's only reference to them.
    """
    edges, vertices = obj["edges"], obj["vertices"]
    del obj
    if type(edges) is list and edges:
        try:
            rows, width = len(edges), list.__len__(edges[0])
            if set(map(list.__len__, edges)) == {width}:
                edges = np.fromiter(chain.from_iterable(edges), float,
                                    rows * width).reshape(rows, width)
        except (TypeError, ValueError):
            pass
    return Network(vertices, edges)


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic n-step transition matrix."""

    matrix: np.ndarray
    steps: int

    def __post_init__(self):
        rows = self.matrix.sum(axis=1)
        if np.abs(rows - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("kernel rows must sum to 1 within 1e-12")
        if self.matrix.min() < -ROW_SUM_TOL or self.matrix.max() > 1 + ROW_SUM_TOL:
            raise ValueError("kernel entries must lie in [0, 1]")


def require_memory(nbytes, what):
    """ResourceLimitError naming ``what`` when ``nbytes`` exceed ``MEMORY_BUDGET``."""
    if nbytes > MEMORY_BUDGET:
        scale = min(int(math.log10(nbytes)) // 3, 6)
        size = f"{nbytes / 1000**scale:.1f} {'B kB MB GB TB PB EB'.split()[scale]}"
        raise ResourceLimitError(
            f"{what} need {size}; the memory cap is {MEMORY_BUDGET / 2**30:g} GiB"
        )


def dense_bytes(V, N=0):
    """Peak bytes of the dense kernels on V vertices over a window of N steps.

    Seven V x V float arrays bound the largest set alive at once (a fresh
    process at V = 1,600, N = 10 rises by 4.3 for the identity and 5.4 for
    the qlast transport), plus the (N + 1) x V tables of q0 and qlast.
    """
    return 8 * (7 * V * V + 2 * (N + 1) * V)


def check_vertex(net, v, role="start vertex"):
    """``v`` as an int; ValueError when it is not a vertex of ``net``."""
    v = int(v)
    if not 0 <= v < net.vertex_count:
        raise ValueError(f"{role} {v} is outside [0, {net.vertex_count})")
    return v


def n_step_kernel(net, n):
    """P^n as a kernel: the last power of :func:`kernel_powers`, holding one at a time."""
    for Pn in kernel_powers(net, n):
        pass
    return TransitionKernel(Pn, steps=n)


def kernel_powers(net, N, start=None):
    """Iterator over P^0 .. P^N by repeated right-multiplication.

    Yields full V x V matrices, or with ``start`` the rows P^n[start].  The
    arguments and the memory cap are checked on the call, before iteration.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    P = net.one_step_matrix()
    if start is None:
        first = np.eye(net.vertex_count)
    else:
        first = np.zeros(net.vertex_count)
        first[check_vertex(net, start)] = 1.0
    return accumulate(repeat(P, N), np.matmul, initial=first)


def component_labels(n, a, b):
    """Smallest vertex of each vertex's component in the graph on 0 .. n-1
    with edges (a[i], b[i]).

    Hooking and pointer jumping (Shiloach and Vishkin 1982): each round hooks
    every label onto the smallest label across its edges, then flattens the
    pointers to roots.  A label never exceeds its vertex, so the roots are
    the components' smallest vertices.  Within two rounds every tree that
    still has an outside edge merges, so there are O(log n) rounds.
    """
    label = np.arange(n)
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    while True:
        la, lb = label[a], label[b]
        live = la != lb
        if not live.any():
            return label
        if not live.all():  # copies only when an edge has joined its ends' trees
            a, b = np.compress(live, a), np.compress(live, b)
            la, lb = np.compress(live, la), np.compress(live, lb)
        hi = np.maximum(la, lb)
        np.minimum(la, lb, out=la)
        del lb
        np.minimum.at(label, hi, la)
        del la, hi
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def is_bipartite(net):
    """Two-color the graph if possible.

    Vertex v has copies 2v and 2v + 1 in the bipartite double cover, whose
    arcs run 2u - 2v+1 and 2u+1 - 2v for every edge; the graph has no odd
    cycle exactly when no vertex has both copies in one component.

    Returns
    -------
    (bool, ndarray or None)
        ``(True, colors)`` with ``colors[v]`` in {0, 1} when the graph has no
        odd cycle, else ``(False, None)``.  Self-loops are odd cycles.  Each
        component's smallest vertex has color 0.
    """
    a, b = 2 * net.ends.T
    cover = np.concatenate([a, a + 1]), np.concatenate([b + 1, b])
    label = component_labels(2 * net.vertex_count, *cover)
    if (label[0::2] == label[1::2]).any():
        return False, None
    return True, (label[0::2] & 1).astype(np.int8)


def stationary_distribution(net):
    """Stationary law of the walk: pi(v) = c(v) / sum_u c(u)."""
    total = net.vertex_conductance.sum()
    if total == 0.0:
        return np.ones(net.vertex_count) / net.vertex_count
    return net.vertex_conductance / total
