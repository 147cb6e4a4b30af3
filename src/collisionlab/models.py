"""Graph model generators: lattice truncations, percolation clusters, spanning trees.

Each lattice family (line segment, square box, comb) is one coordinate
walker class (:class:`PathLattice`, :class:`GridLattice`, :class:`CombLattice`)
holding both of its forms: the walk, sampled on coordinate codes without
materializing the graph, which makes long-horizon experiments affordable, and
the explicit truncation (``materialize()``, which :func:`gen_path_segment`,
:func:`gen_grid_box` and :func:`gen_comb` return), a
:class:`~collisionlab.graph_core.Network` with a :class:`TruncationCertificate`.
The class's ``_box(R) -> (cols, rows, y0)`` is the truncation's box: site
(x + R) * rows + (y + y0) is vertex (x, y), and the center R * rows + y0 is
the certificate's start.

A walker's state is a flat int64 array of codes: on the line the number of
right steps taken so far, on the grid and the comb x * 2^32 + y (y >= 0
there), unique for radius < 2^31.  The walks of a pair have always taken the
same number of steps, so they meet exactly when their codes are equal.  A
line step adds [r >= 1/2]; a grid or comb step adds a delta gathered from a
small table at floor(4r) or floor(6r).  The line's and the grid's steps do
not depend on the position, so ``difference_steps`` can give the steps of
the difference X - Y of a pair's codes for many steps at once.
``coords(state, steps)`` decodes codes to vertex labels, the line's as
x = 2 * code - steps.

A truncation with safety radius ``R`` reproduces the infinite lattice's walk
law exactly for any horizon ``T <= R - 1`` started from the designated center:
every vertex the walk can touch before the final step has the same incident
edge set as in the infinite graph.  The certificate records this horizon and
experiment runners refuse horizons beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, product
from typing import Callable, Optional

import numpy as np

from ._parallel import _as_rng
from .errors import CertificateViolationError
from .graph_core import (Network, build_network, component_labels, require_memory,
                         stationary_distribution)
from . import walk_engine

CRITICAL_BOND_P = 0.5  # classical critical density for square-lattice bond percolation


ROOT_LAWS = ("uniform", "conductance_biased")


@dataclass(frozen=True)
class RootLaw:
    """Probability law for the root vertex of a network."""

    kind: str  # one of ROOT_LAWS
    probabilities: np.ndarray

    def sample(self, rng, size=None):
        n = len(self.probabilities)
        return rng.choice(n, size=size, p=self.probabilities)


def apply_root_law(net, kind):
    """Build a root law of the given kind over ``net``'s vertices.

    ``uniform`` puts mass 1/|V| everywhere, and ``conductance_biased`` weights
    each vertex by c(v).
    """
    n = net.vertex_count
    if kind == "uniform":
        return RootLaw("uniform", np.full(n, 1.0 / n))
    if kind == "conductance_biased":
        return RootLaw("conductance_biased", stationary_distribution(net))
    raise ValueError(f"unknown root law kind {kind!r}")


@dataclass(frozen=True)
class TruncationCertificate:
    """Guarantee that a truncation is walk-exact up to a horizon.

    ``horizon`` is the largest step count T for which the law of
    (X_0, ..., X_T) from ``start_vertex`` matches the infinite model.
    """

    horizon: int
    safety_radius: int
    start_vertex: int

    def require(self, T):
        if T > self.horizon:
            raise CertificateViolationError(
                f"horizon {T} exceeds the certified horizon {self.horizon} "
                f"(safety radius {self.safety_radius})"
            )


@dataclass(frozen=True)
class RootedModel:
    """A generated network with its designated start vertex and metadata."""

    network: Network
    start: Optional[int] = None
    certificate: Optional[TruncationCertificate] = None
    root_law: Optional[str] = None  # the name of the model's root law, one of ROOT_LAWS
    make_coords: Optional[Callable] = field(default=None, repr=False, compare=False)

    @cached_property
    def coords(self):
        """Per-vertex labels for tests and debugging, built once from ``make_coords``."""
        return None if self.make_coords is None else tuple(self.make_coords())


# ---------------------------------------------------------------------------
# Explicit lattice truncations
# ---------------------------------------------------------------------------


def gen_path_segment(R):
    """Line segment {-R..R} with unit conductances, centered at 0."""
    return PathLattice(R).materialize()


def gen_grid_box(R):
    """(2R+1) x (2R+1) box of the square lattice with unit nearest-neighbor edges."""
    return GridLattice(R).materialize()


def gen_comb(R):
    """Comb truncation: spine {-R..R} x {0} with a tooth {x} x {1..R} at every spine vertex.

    Tooth height equals spine radius so a single parameter certifies the
    horizon; the origin (0, 0) is the designated start.
    """
    return CombLattice(R).materialize()


def _box_bonds(cols, rows, spine=False, wrap=False):
    """Bond ends (m x 2) of a cols x rows box: site x * rows + y to x + 1, then to y + 1.

    ``spine`` keeps the x-bonds of row 0 only (the comb); ``wrap`` joins the
    last column and row to the first (the torus).  Every generator starts
    here, so this is where the memory cap refuses a model before it is built.
    The ends are computed in the result's two columns; the only other
    array as long is each bond's flat index 2 * site + bond (0 along x, 1
    along y).
    """
    require_sites(cols * rows)
    exists = np.ones((cols, rows, 2), dtype=bool)  # site, bond (x, y)
    exists[-1, :, 0] = exists[:, -1, 1] = wrap
    if spine:
        exists[:, 1:, 0] = False
    at = np.flatnonzero(exists)
    ends = np.empty((at.size, 2), dtype=np.int64)
    site, far = ends.T
    np.right_shift(at, 1, out=site)
    np.bitwise_and(at, 1, out=far)
    del at
    if wrap:  # the last row's y-bonds close to row 0
        last_row = (far == 1) & (site % rows == rows - 1)
    far *= 1 - rows
    far += rows
    far += site  # x + 1 is rows sites on, y + 1 one site on
    if wrap:  # and the last column's x-bonds to column 0
        far[last_row] -= rows
        far[far >= cols * rows] -= cols * rows
    return ends


# bytes a site charged for a model's arrays
SITE_BYTES = 512


def require_sites(sites, site_bytes=SITE_BYTES):
    """Refuse a model on a box of ``sites`` sites above the memory cap.

    Measured generator peaks per site of the box, as the VmHWM rise of one
    generator call in a fresh process with ``numpy.random`` loaded, at about
    360,000 sites: grid box 300 bytes, torus 301, comb 156, path 156,
    percolation 66.  A ``gen`` run passes its model's own ``site_bytes``,
    which also pay for the payload.
    """
    require_memory(site_bytes * sites,
                   f"the arrays of {sites} lattice sites at {site_bytes} bytes a site")


def gen_torus(side):
    """side x side square torus with unit conductances (wrap-around grid)."""
    if side < 2:
        raise ValueError("side must be at least 2")
    bonds = _box_bonds(side, side, wrap=True)
    return RootedModel(build_network(side * side, bonds), start=0,
                       make_coords=lambda: product(range(side), repeat=2))


# ---------------------------------------------------------------------------
# Percolation
# ---------------------------------------------------------------------------


def gen_percolation_cluster(n, p=CRITICAL_BOND_P, seed=0):
    """Largest open cluster of bond percolation on the (n+1) x (n+1) box.

    Each nearest-neighbor bond of the box is retained independently with
    probability ``p``.  The largest cluster (ties broken by smallest minimal
    vertex index) is returned re-indexed densely; its root law is ``uniform``.
    Deterministic given ``seed``, a Generator or the stream (seed, 0).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    side = n + 1
    sites = side * side
    bonds = _box_bonds(side, side)
    # the box's bonds are freed
    bonds = np.compress(_as_rng(seed).random(len(bonds)) < p, bonds, axis=0)
    roots = component_labels(sites, *bonds.T)
    # roots are minimal members of their components, so the first maximal root
    # is also the tie-break by smallest minimal vertex index
    best_root = int(np.bincount(roots, minlength=sites).argmax())
    members = np.flatnonzero(roots == best_root)
    # a kept bond lies in one cluster
    bonds = np.compress(roots[bonds[:, 0]] == best_root, bonds, axis=0)
    del roots
    relabel = np.full(sites, -1)
    relabel[members] = np.arange(members.size)
    bonds = relabel[bonds]
    del relabel
    return RootedModel(
        build_network(members.size, bonds),
        start=0,
        root_law="uniform",
        make_coords=lambda: zip((members // side).tolist(), (members % side).tolist()),
    )


# ---------------------------------------------------------------------------
# Uniform spanning trees (loop-erased random walk sampling)
# ---------------------------------------------------------------------------


def gen_wilson_ust(base, seed=0):
    """Random spanning tree of ``base`` by loop-erased random walks (Wilson 1996).

    The tree has probability proportional to the product of its edge
    conductances (uniform for unit conductances).  The walks step by
    :meth:`~collisionlab.walk_engine.CSRSampler.walk`, the network sampler's
    one-vertex draws, and the sweep is rooted at vertex 0; the law does not
    depend on that choice.  It draws uniforms in blocks of 8, 16, ..., 4,096,
    exactly the per-step draws: ``Generator.random`` takes one 64-bit word
    per double.
    The edges are (u, parent[u]) for u = 1..V-1.  On a multigraph a tree edge
    carries the aggregated c(u, v) of all the edges joining u and v, not the
    conductance of one parallel edge, so the tree is the weighted uniform
    spanning tree of the aggregated network.  Deterministic given ``seed``,
    a Generator or the stream (seed, 0).
    """
    n = base.vertex_count
    if n == 1:
        return Network(1, [])
    rng = _as_rng(seed)
    walk = walk_engine.network_sampler(base).walk
    draws = chain.from_iterable(rng.random(8 << min(i, 9)).tolist() for i in count())
    in_tree = [False] * n
    in_tree[0] = True
    parent = [0] * n  # the exit taken on the last visit
    for start in range(1, n):
        if in_tree[start]:
            continue
        u = start
        for v in walk(start, draws):
            parent[u] = u = v  # parent[u] is set before u moves
            if in_tree[v]:
                break
        # the last exits from ``start`` trace the loop-erased path into the tree
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = parent[u]
    u, v = np.arange(1, n), np.array(parent[1:])
    # CSR rows are sorted by target, so row * n + target is sorted throughout
    offsets, targets, weights = base.adjacency_csr()
    keys = np.repeat(np.arange(n), np.diff(offsets)) * n + targets
    w = weights[np.searchsorted(keys, u * n + v)]
    return build_network(n, np.column_stack([u, v, w]))


# ---------------------------------------------------------------------------
# Coordinate walkers for the lattice families
# ---------------------------------------------------------------------------

# |y| <= horizon = radius - 1 < 2^31 keeps the x * 2^32 + y codes unique
CODE_RADIUS_LIMIT = 1 << 31
_HIGH = 1 << 32
_LOW = _HIGH - 1

_GRID_MOVES = np.array([-_HIGH, _HIGH, -1, 1], dtype=np.int64)  # by floor(4r)
# a step of X - Y, by 4 * floor(4 r_x) + floor(4 r_y)
_GRID_DIFFERENCES = (_GRID_MOVES[:, None] - _GRID_MOVES).ravel()
# by 6 * on_tooth + floor(6r): the spine's thirds, then the tooth's halves
_COMB_MOVES = np.array([-_HIGH, -_HIGH, _HIGH, _HIGH, 1, 1,
                        -1, -1, -1, 1, 1, 1], dtype=np.int64)


class _CoordinateWalker:
    """One lattice family: its walk on codes and its truncation, exact up to
    horizon radius - 1.

    Each walker has its own ``advance(state, r)``, which moves walker i of the
    flat code array ``state`` by the uniform ``r[i]`` and may overwrite ``r``,
    and its own ``_box(R) -> (cols, rows, y0)``, the truncation's box.  A
    walker whose step does not depend on its position (the line and the
    grid) also has ``difference_steps(r, out)``: for the (k, 2, m) uniforms
    of k steps of m pairs, x row before y row, it writes the k steps of the
    code difference X - Y into the (k, m) int64 ``out``, the steps that
    ``advance`` would give x less those it would give y.
    """

    planar = True  # x * 2^32 + y codes
    spine = False  # the box keeps the x-bonds of row 0 only

    def __init__(self, radius):
        if radius < 1:
            raise ValueError("radius must be at least 1")
        if self.planar and radius >= CODE_RADIUS_LIMIT:
            raise ValueError("radius must be below 2^31 to keep x * 2^32 + y codes unique")
        self.radius = R = int(radius)
        cols, rows, y0 = self._box(R)
        self.vertex_count = cols * rows
        self.certificate = TruncationCertificate(
            horizon=R - 1, safety_radius=R, start_vertex=R * rows + y0
        )

    def new_state(self, m):
        return np.zeros(m, dtype=np.int64)

    def coords(self, state, steps=0):
        """The truncation's ``coords`` labels of the codes in ``state`` after
        ``steps`` steps (only the line's codes need it)."""
        x = (state + (1 << 31)) >> 32
        return list(zip(x.tolist(), (state - (x << 32)).tolist()))

    def materialize(self):
        """The truncation as a :class:`RootedModel` started at the center."""
        R = self.radius
        cols, rows, y0 = self._box(R)
        bonds = _box_bonds(cols, rows, spine=self.spine)
        xs = range(-R, R + 1)
        cert = self.certificate
        return RootedModel(build_network(self.vertex_count, bonds), start=cert.start_vertex,
                           certificate=cert, make_coords=lambda: (
                               product(xs, range(-y0, rows - y0)) if self.planar else xs))


class PathLattice(_CoordinateWalker):
    """Walk on the integer line; a draw r < 1/2 steps left, else right.

    The code is the number of right steps so far, so after n steps the walk
    is at x = 2 * code - n; two walks after the same n steps meet exactly
    when their codes are equal.
    """

    planar = False
    _box = staticmethod(lambda R: (2 * R + 1, 1, 0))

    def advance(self, state, r):
        state += r >= 0.5

    def difference_steps(self, r, out):
        right = (r >= 0.5).view(np.int8)
        np.subtract(right[:, 0], right[:, 1], out=out)

    def coords(self, state, steps=0):
        return (2 * state - steps).tolist()


class GridLattice(_CoordinateWalker):
    """Walk on the square lattice; the quarters of [0, 1) step to x - 1,
    x + 1, y - 1 and y + 1."""

    _box = staticmethod(lambda R: (2 * R + 1, 2 * R + 1, R))

    def advance(self, state, r):
        r *= 4  # exact, so floor(4r) is the quarter r lies in
        state += _GRID_MOVES[r.astype(np.intp)]

    def difference_steps(self, r, out):
        # advance's floor(4r) by three comparisons: 4r is exact, so r >= k/4
        # exactly when 4r >= k
        quarter = (r >= 0.25).view(np.int8)
        quarter += (r >= 0.5).view(np.int8)
        quarter += (r >= 0.75).view(np.int8)
        pair = quarter[:, 0] * np.int8(4)
        pair += quarter[:, 1]
        # every index is in range, so no mode="raise" check needs a copy of out
        np.take(_GRID_DIFFERENCES, pair, out=out, mode="clip")


class CombLattice(_CoordinateWalker):
    """Walk on the comb: a spine y = 0 with an upward tooth at every x.

    The tooth height y >= 0 is ``code & (2^32 - 1)``.  On the spine the
    thirds of [0, 1) step left, right and up the tooth; on a tooth the halves
    step down and up.  One floor(6r) finds both: its value k in 0..5 puts r
    in the thirds as k // 2 and in the halves as k // 3.  Within the
    certified horizon the walk cannot reach tooth tips or spine ends, so
    these unbounded rules realize the truncation's law exactly.
    """

    spine = True
    _box = staticmethod(lambda R: (2 * R + 1, R + 1, 0))

    def advance(self, state, r):
        # the rounded 6r is monotone in r and reaches 2, 3 and 4 exactly at
        # the doubles 1/3, 1/2 and 2/3, so floor(6r) makes the same cuts as
        # comparing r with them, and stays below 6 for every r < 1
        move = np.minimum(state & _LOW, 1)
        move *= 6
        r *= 6
        move += r.astype(np.intp)
        state += _COMB_MOVES[move]
