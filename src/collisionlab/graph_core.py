"""Finite conductance networks and exact random-walk kernels.

Vertices are dense integers ``0 .. vertex_count-1``.  Parallel edges and
self-loops are allowed and every edge carries a strictly positive
conductance.  The walk leaves ``u`` along an incident edge with probability
proportional to that edge's conductance, so the one-step law is
``p(u, v) = c(u, v) / c(u)`` where ``c(u, v)`` sums the conductances of all
edges joining ``u`` and ``v`` and ``c(u)`` sums the conductances incident to
``u`` (a self-loop counts once in both, giving ``p(u, u) = w / c(u)``).

Exact kernels are dense.  Every power of the one-step matrix comes from
:func:`kernel_powers` (P^0 .. P^N, whole or as the rows of one start) or,
for a single n, from :func:`n_step_kernel`.  The module-level
``DENSE_VERTEX_CAP`` is the one size limit for dense matrices; large graphs
are handled by the Monte Carlo machinery instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .errors import (
    DisconnectedGraphError,
    EndpointOutOfRangeError,
    NonpositiveConductanceError,
    ResourceLimitError,
)

# Largest vertex count for which dense kernel matrices are built.
DENSE_VERTEX_CAP = 512

ROW_SUM_TOL = 1e-12


class Network:
    """Connected vertex-labeled multigraph with positive edge conductances.

    Immutable after construction and safe to share across parallel workers.
    A single-vertex network with no edges is permitted (it arises naturally
    as a degenerate percolation cluster); its walk is the constant chain.

    Parameters
    ----------
    vertex_count : int
        Number of vertices, at least 1.
    edges : iterable of (a, b) or (a, b, conductance)
        Undirected edges; conductance defaults to 1.0.
    """

    __slots__ = (
        "vertex_count",
        "edges",
        "vertex_conductance",
        "degrees",
        "_offsets",
        "_targets",
        "_weights",
        "_dense",
        "_tables",
    )

    def __init__(self, vertex_count, edges):
        if vertex_count < 1:
            raise EndpointOutOfRangeError("vertex_count must be at least 1")
        vertex_count = int(vertex_count)
        normalized = []
        for e in edges:
            if len(e) == 2:
                a, b = e
                w = 1.0
            else:
                a, b, w = e
            a, b, w = int(a), int(b), float(w)
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise EndpointOutOfRangeError(
                    f"edge ({a}, {b}) has an endpoint outside [0, {vertex_count})"
                )
            if not w > 0.0:
                raise NonpositiveConductanceError(
                    f"edge ({a}, {b}) has conductance {w}; conductances must be > 0"
                )
            normalized.append((a, b, w))

        self.vertex_count = vertex_count
        self.edges = tuple(normalized)
        self._build_adjacency()
        self._check_connected()
        self._dense = None
        self._tables = None

    def _build_adjacency(self):
        n = self.vertex_count
        if self.edges:
            arr = np.asarray(self.edges, dtype=float)
            a = arr[:, 0].astype(np.int64)
            b = arr[:, 1].astype(np.int64)
            w = arr[:, 2]
            loop = a == b
            # each non-loop edge appears in both directions; a loop appears once
            src = np.concatenate([a, b[~loop]])
            dst = np.concatenate([b, a[~loop]])
            ww = np.concatenate([w, w[~loop]])
        else:
            src = dst = np.zeros(0, dtype=np.int64)
            ww = np.zeros(0)
        # edge ends per vertex, a self-loop counted once
        self.degrees = np.bincount(src, minlength=n)

        order = np.lexsort((dst, src))
        src, dst, ww = src[order], dst[order], ww[order]
        if src.size:
            new_group = np.empty(src.size, dtype=bool)
            new_group[0] = True
            new_group[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            starts = np.flatnonzero(new_group)
            targets = dst[starts]
            weights = np.add.reduceat(ww, starts)
            rows = src[starts]
        else:
            targets = np.zeros(0, dtype=np.int64)
            weights = np.zeros(0)
            rows = np.zeros(0, dtype=np.int64)

        counts = np.bincount(rows, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._offsets = offsets
        self._targets = targets
        self._weights = weights

        strength = np.zeros(n)
        np.add.at(strength, rows, weights)
        self.vertex_conductance = strength

    def _check_connected(self):
        n = self.vertex_count
        if n == 1:
            return
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            lo, hi = self._offsets[u], self._offsets[u + 1]
            for v in self._targets[lo:hi]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0])
            raise DisconnectedGraphError(
                f"graph is not connected; vertex {missing} is unreachable from 0"
            )

    # -- read-only views ---------------------------------------------------

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def total_conductance(self):
        return float(self.vertex_conductance.sum())

    def neighbors(self, u):
        """Distinct neighbors of ``u`` and the aggregated conductance to each."""
        lo, hi = self._offsets[u], self._offsets[u + 1]
        return self._targets[lo:hi], self._weights[lo:hi]

    def adjacency_csr(self):
        """Aggregated adjacency as (offsets, targets, weights) arrays."""
        return self._offsets, self._targets, self._weights

    def conductance_between(self, u, v):
        """Total conductance c(u, v) of the edges joining ``u`` and ``v``."""
        lo, hi = self._offsets[u], self._offsets[u + 1]
        i = np.searchsorted(self._targets[lo:hi], v)
        if i < hi - lo and self._targets[lo + i] == v:
            return float(self._weights[lo + i])
        return 0.0

    def one_step_matrix(self):
        """Dense one-step transition matrix (cached)."""
        if self._dense is None:
            n = self.vertex_count
            if n > DENSE_VERTEX_CAP:
                raise ResourceLimitError(
                    f"dense kernel needs {n} vertices but the cap is {DENSE_VERTEX_CAP}"
                )
            # an isolated vertex (only in the single-vertex network) is a constant chain
            P = np.diag((self.vertex_conductance == 0.0).astype(float))
            rows = np.repeat(np.arange(n), np.diff(self._offsets))
            P[rows, self._targets] = self._weights / self.vertex_conductance[rows]
            self._dense = P
        return self._dense

    def to_json_dict(self):
        """Interchange form {"vertices": N, "edges": [[a, b, c], ...]}."""
        return {
            "vertices": self.vertex_count,
            "edges": [[a, b, w] for a, b, w in self.edges],
        }

    def __repr__(self):
        return f"Network(vertices={self.vertex_count}, edges={len(self.edges)})"


def build_network(vertex_count, edge_list):
    """Validate and build a connected :class:`Network`.

    Raises
    ------
    EndpointOutOfRangeError, NonpositiveConductanceError, DisconnectedGraphError
    """
    return Network(vertex_count, edge_list)


def network_from_json(obj):
    """Rebuild a network from its interchange dict."""
    return Network(obj["vertices"], [tuple(e) for e in obj["edges"]])


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

    @property
    def size(self):
        return self.matrix.shape[0]

    def entry(self, u, v):
        return float(self.matrix[u, v])


def check_vertex(net, v, role="start vertex"):
    """``v`` as an int; ValueError when it is not a vertex of ``net``."""
    v = int(v)
    if not 0 <= v < net.vertex_count:
        raise ValueError(f"{role} {v} is outside [0, {net.vertex_count})")
    return v


def transition_prob(net, u, v):
    """One-step probability p(u, v) = c(u, v) / c(u)."""
    cu = net.vertex_conductance[u]
    if cu == 0.0:
        return 1.0 if u == v else 0.0
    return net.conductance_between(u, v) / cu


def n_step_kernel(net, n):
    """n-step transition kernel as a dense matrix power; n = 0 is the identity."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    return TransitionKernel(np.linalg.matrix_power(net.one_step_matrix(), n), steps=n)


def kernel_powers(net, N, start=None):
    """Iterator over P^0 .. P^N by repeated right-multiplication.

    Yields full V x V matrices, or with ``start`` the rows P^n[start].  The
    arguments and the dense cap are checked on the call, before iteration.
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


def is_bipartite(net):
    """Two-color the graph if possible.

    Returns
    -------
    (bool, ndarray or None)
        ``(True, colors)`` with ``colors[v]`` in {0, 1} when the graph has no
        odd cycle, else ``(False, None)``.  Self-loops are odd cycles.
    """
    n = net.vertex_count
    colors = np.full(n, -1, dtype=np.int8)
    offsets, targets, _ = net.adjacency_csr()
    for root in range(n):
        if colors[root] != -1:
            continue
        colors[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            lo, hi = offsets[u], offsets[u + 1]
            for v in targets[lo:hi]:
                if v == u:
                    return False, None
                if colors[v] == -1:
                    colors[v] = colors[u] ^ 1
                    stack.append(int(v))
                elif colors[v] == colors[u]:
                    return False, None
    return True, colors


def stationary_distribution(net):
    """Stationary law of the walk: pi(v) = c(v) / sum_u c(u)."""
    total = net.vertex_conductance.sum()
    if total == 0.0:
        return np.ones(net.vertex_count) / net.vertex_count
    return net.vertex_conductance / total


class UnionFind:
    """Union-find over 0 .. n-1 with path halving; the minimal member is the root."""

    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        """Merge the sets of ``a`` and ``b``; returns the merged set's root."""
        ra, rb = self.find(a), self.find(b)
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra
