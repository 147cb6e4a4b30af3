"""Independent brute-force oracles for the exact computations under test.

Everything here re-derives probabilities from a network's raw edge list,
with no shared code paths with the package internals being verified.  The
one taboo iteration here runs forward from a single start, the reference for
the package's backward recursion over all starts.  The one-step draw rule is
the exception: :class:`PaddedSampler` reads the aggregated CSR adjacency, as
the package's sampler does, and applies the padded-table rule the package
used before its CSR sampler, a row search since narrowed by a guide table,
so the two must agree bit for bit.  :func:`guide_range_step` is the guide's
range search alone, the draw rule before the tables kept each bucket's
neighbor where every range is one index.  :func:`sample_step` is one draw
through the package's one-vertex walk.  :func:`continuous_walk_loop` is
``walk_continuous`` as a scalar loop of an exponential and then a uniform a
jump; the two must give the same paths and leave a shared generator in the
same state.
:func:`random_transport` is seeded test input for ``check_mtp``.
:func:`adjacency_lexsort` builds
the CSR adjacency and vertex conductances as ``Network`` did before its
single-key sort and ``bincount``, and :func:`box_bonds_loop` lists a box's
bonds in nested loops; both must agree bit for bit.
:func:`percolation_cluster` is the per-bond loop version of the percolation
generator, which must return the same cluster edge for edge, and
:func:`one_step_rows` and :func:`adjacency_edges` are the loop versions of
the two dense builders, which must return the same matrices bit for bit.
:func:`bipartite_dfs` is the depth-first two-coloring that ``is_bipartite``
replaced, which must return the same verdict and colors.
:func:`matrix_power_kernel` is the binary matrix power that served
``n_step_kernel`` before every P^n came from ``kernel_powers``; it agrees to
1e-14 and still gives the ``mtp`` pin made before.
:func:`ct_chunk_scalar` is the per-replica continuous-time chunk that the
batched pair chain replaced, and :func:`ct_pair_scalar` runs that pair chain
one event at a time and returns both trajectories.
:func:`growth_chunk_loop`, :func:`voter_block_chunk_loop` and
:func:`ct_chunk_loop` step one 512-replica chunk at a time on the chunk's own
generator, as the replica loops did before chunk groups; the group engines
must give the same results bit for bit.  :func:`growth_chunk_loop` also
counts meetings straight into int64, as before the engine's int8 tally.
:class:`PositionPathLattice` and :class:`CompareCombLattice` are the line
walker on position codes and the comb walker by three comparisons, as they
stepped before the count code and the floor(6r) table; on the same uniforms
they must give the same labels and collision counts.
:func:`voter_block_loop`, the body of the voter one, keeps full-size state
and masks each round's copies where the engine compacts.
:func:`voter_jump_loop` is the jump chain of one draw a round that the
blocks of rounds replaced, and :func:`voter_loop` the
clock-driven law before it, an exponential wait, a vertex and a uniform per
event; through :func:`voter_jump_chunk_loop`, :func:`voter_chunk_loop` and
:func:`voter_group_loop`, swapped in for the engine, they still give the
voter pins made before.  :func:`voter_law_exact` is the law of the whole
configuration at a time t, from the 2^V chain.
:func:`wilson_incidence` is Wilson's algorithm over per-vertex incidence
lists, as ``gen_wilson_ust`` ran before it stepped through the CSR sampler;
it still gives the trees pinned then.  :func:`wilson_sample_step` is the
loop of one :func:`sample_step` call a step that ``gen_wilson_ust`` ran before
it drew its uniforms in blocks, and :func:`wilson_guide_rows` the loop that
read the guide itself before it drew through the sampler's one-vertex
form; both must give the same trees.  :func:`spanning_tree_law` is the
exact weighted spanning-tree law by enumeration.  :func:`split_rows_tables`
builds the sampling tables as the package did before it counted each row's
buckets first: a guide of one bucket an entry, whose crowded rows are then
split and re-keyed; every array and attribute must be the same.
"""

import itertools
from collections import defaultdict

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from collisionlab._parallel import (BLOCK_STEPS, TAG_CTCOLLIDE, TAG_GROWTH, TAG_VOTER,
                                    chunk_groups, chunk_sizes)
from collisionlab.graph_core import TransitionKernel, build_network
from collisionlab.interacting import collision_measure, discretization_integral
from collisionlab.models import CombLattice, PathLattice
from collisionlab.mtp_check import MassTransport, adjacency_transport
from collisionlab.walk_engine import (GUIDE_SPLITS, CSRSampler, JumpTrajectory,
                                      SamplingTables, _sampling_tables, network_sampler,
                                      substream_rng, walk_continuous)


def neighbor_probs(net):
    """Per-vertex (neighbor, probability) lists straight from the edge list."""
    weight = defaultdict(lambda: defaultdict(float))
    for a, b, w in net.edges:
        weight[a][b] += w
        if b != a:
            weight[b][a] += w
    probs = {}
    for u in range(net.vertex_count):
        row = weight.get(u, {})
        cu = sum(row.values())
        if cu == 0.0:
            probs[u] = [(u, 1.0)]
        else:
            probs[u] = [(v, wv / cu) for v, wv in sorted(row.items())]
    return probs


def one_step_rows(net):
    """Dense one-step matrix filled row by row from the CSR adjacency."""
    offsets, targets, weights = net.adjacency_csr()
    P = np.zeros((net.vertex_count, net.vertex_count))
    for u in range(net.vertex_count):
        lo, hi = offsets[u], offsets[u + 1]
        if hi > lo:
            P[u, targets[lo:hi]] = weights[lo:hi] / net.vertex_conductance[u]
        else:
            P[u, u] = 1.0  # isolated vertex: constant chain
    return P


def adjacency_edges(net):
    """0/1 matrix with both orientations of every edge set, by an edge loop."""
    F = np.zeros((net.vertex_count, net.vertex_count))
    for a, b, _ in net.edges:
        F[a, b] = 1.0
        F[b, a] = 1.0
    return F


def random_transport(seed):
    """Seeded transport, uniform on [0, 10) over pairs within graph distance 2,
    drawn from the stream (0xF00D, ``seed``): test input for ``check_mtp``."""

    def build(net):
        rng = substream_rng(0xF00D, seed)
        A = adjacency_transport().builder(net) > 0
        reach = np.eye(net.vertex_count, dtype=bool) | A | (A @ A)
        values = rng.uniform(0.0, 10.0, size=A.shape)
        return np.where(reach, values, 0.0)

    return MassTransport(f"random:{seed}", build)


def matrix_power_kernel(net, n):
    """P^n by ``np.linalg.matrix_power``, the path ``n_step_kernel`` took
    before it became the last power of ``kernel_powers``."""
    return TransitionKernel(np.linalg.matrix_power(net.one_step_matrix(), n), steps=n)


def bipartite_dfs(net):
    """(True, colors) or (False, None) by depth-first search over the CSR.

    Vertices are taken as roots in increasing order, so each component's
    smallest vertex has color 0; a self-loop is an odd cycle.
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
            for v in targets[offsets[u]:offsets[u + 1]]:
                if v == u:
                    return False, None
                if colors[v] == -1:
                    colors[v] = colors[u] ^ 1
                    stack.append(int(v))
                elif colors[v] == colors[u]:
                    return False, None
    return True, colors


def walk_distribution(net, start, n):
    """Exact law of X_n as a dict vertex -> probability, by path expansion."""
    probs = neighbor_probs(net)
    dist = {start: 1.0}
    for _ in range(n):
        nxt = defaultdict(float)
        for u, p in dist.items():
            for v, q in probs[u]:
                nxt[v] += p * q
        dist = dict(nxt)
    return dist


def pair_path_statistics(net, u, N):
    """Enumerate every pair of N-step walks from (u, u) and tabulate:

    * ``q0[m]``: probability the walks never meet at steps 1..m, and
    * ``last[(n, v)]``: probability their last meeting in [0, N] is at (n, v).
    """
    probs = neighbor_probs(net)
    q0 = np.zeros(N + 1)
    last = defaultdict(float)

    def rec(a, b, depth, p, last_n, last_v):
        if last_n == 0:
            q0[depth] += p
        if depth == N:
            last[(last_n, last_v)] += p
            return
        for va, pa in probs[a]:
            for vb, pb in probs[b]:
                if va == vb:
                    rec(va, vb, depth + 1, p * pa * pb, depth + 1, va)
                else:
                    rec(va, vb, depth + 1, p * pa * pb, last_n, last_v)

    rec(u, u, 0, 1.0, 0, u)
    return q0, dict(last)


def q0_forward(net, v, N):
    """q0(v, m) for m = 0..N from the forward pair-chain law of one start.

    W holds the law of the pair (X_m, Y_m) restricted to paths that have not
    met at steps 1..m: W <- P^T W P, then the diagonal is zeroed.
    """
    n = net.vertex_count
    P = np.zeros((n, n))
    for u, row in neighbor_probs(net).items():
        for w, q in row:
            P[u, w] += q
    W = np.zeros((n, n))
    W[v, v] = 1.0
    out = np.empty(N + 1)
    out[0] = 1.0
    for m in range(1, N + 1):
        W = P.T @ W @ P
        np.fill_diagonal(W, 0.0)
        out[m] = W.sum()
    return out


class PaddedSampler:
    """Reference one-step draw: the padded (V x maxdeg) table rule, row by row.

    Row ``u`` holds ``np.cumsum`` of its aggregated conductances divided by
    the row total, with the last real entry pinned to 1.0 and padding of 1.0
    out to the widest row.  The step from ``u`` with uniform ``r`` takes the
    neighbor at index #{cum <= r}.  Rows are built on demand, so stars with
    thousands of leaves never allocate the full table.  An isolated vertex
    stays put.
    """

    def __init__(self, net):
        self.offsets, self.targets, self.weights = net.adjacency_csr()
        self.width = max(int(np.diff(self.offsets).max()), 1)
        self._rows = {}

    def row(self, u):
        if u not in self._rows:
            lo, hi = self.offsets[u], self.offsets[u + 1]
            nbr = np.full(self.width, u, dtype=np.int64)
            cum = np.ones(self.width)
            if hi > lo:
                c = np.cumsum(self.weights[lo:hi])
                c /= c[-1]
                c[-1] = 1.0
                nbr[: hi - lo] = self.targets[lo:hi]
                nbr[hi - lo :] = self.targets[hi - 1]
                cum[: hi - lo] = c
            self._rows[u] = (nbr, cum)
        return self._rows[u]

    def draw(self, u, r):
        nbr, cum = self.row(int(u))
        return int(nbr[(cum <= r).sum()])


# ---------------------------------------------------------------------------
# Exact continuous-time marginals
# ---------------------------------------------------------------------------


def guide_range_step(net, u, rng):
    """One draw by bisecting the guide range ``[lo, hi]`` of ``r``'s bucket,
    never reading ``first``: the neighbor after the last cumulative value
    ``<= r``."""
    tables = _sampling_tables(net)
    _, targets, cum = tables
    r = rng.random()
    at = int(tables.buckets[u]) + int(r * tables.deg[u])
    lo, hi = int(tables.lo[at]), int(tables.hi[at])
    while lo < hi:
        mid = (lo + hi) // 2
        if cum[mid] <= r:
            lo = mid + 1
        else:
            hi = mid
    return int(targets[lo])


def sample_step(net, u, rng):
    """One transition from ``u`` with one uniform drawn from ``rng``, by the
    network sampler's one-vertex walk."""
    (v,) = network_sampler(net).walk(u, (rng.random(),))
    return v


def _guide_two_pass(cum, below, d, degs, buckets):
    """The guide ``(hi, lo)`` of rows of ``degs`` entries keyed from ``buckets``."""
    o, n = np.repeat(buckets[:-1], degs), int(buckets[-1])
    return (np.bincount((c * d).astype(np.int64) + o + k, minlength=n + 1)[:n]
            .cumsum(dtype=np.int32) for c, k in ((cum, 0), (below, 1)))


def _rows_of(at, offsets):
    """A mask of the rows that hold the entries ``at``."""
    rows = np.zeros(offsets.size - 1, dtype=bool)
    rows[np.searchsorted(offsets, at, side="right") - 1] = True
    return rows


def _split_rows(t, below, rows):
    """Split the buckets of ``rows`` 2, 4, ... fold until none holds two
    cumulative values or ``GUIDE_SPLITS`` is reached, then re-key those rows
    alone, moving the other rows' buckets to their new keys unchanged."""
    offsets, _, cum = t
    degs = np.diff(offsets)
    n = degs[rows]
    start = np.concatenate(([0], np.cumsum(n)))  # the rows' entries, joined
    base = offsets[rows] - start[:-1]  # joined index + base = entry index
    at = np.repeat(base, n) + np.arange(start[-1])
    c, b = cum[at], below[at]
    size, crowded = n.copy(), np.ones(rows.size, dtype=bool)
    for _ in range(GUIDE_SPLITS):
        size[crowded] *= 2
        d = np.repeat(size.astype(float), n)
        high, low = (c * d).astype(np.int64), (b * d).astype(np.int64)
        held = high == low
        two = np.flatnonzero(held[1:] & held[:-1] & (high[1:] == high[:-1]))
        if not two.size:
            break
        crowded = _rows_of(two, start)
    keys = np.concatenate(([0], np.cumsum(size)))
    entry = np.repeat(base, size)  # joined count + entry = entry index
    count = degs.copy()
    count[rows] = size
    buckets = np.concatenate(([0], np.cumsum(count)))
    grow = np.zeros(offsets[-1], dtype=np.int64)
    grow[offsets[rows + 1] - 1] = size - n
    kept = np.cumsum(grow)  # each old bucket's new key: the buckets added before it
    kept += np.arange(offsets[-1])
    moved = np.repeat(buckets[rows] - keys[:-1], size) + np.arange(keys[-1])
    for name, joined in zip(("hi", "lo"), _guide_two_pass(c, b, d, n, keys)):
        guide = np.empty(int(buckets[-1]), dtype=np.int32)
        guide[kept] = getattr(t, name)  # a split row's buckets are overwritten next
        joined += entry
        guide[moved] = joined
        setattr(t, name, guide)
    t.deg, t._buckets = count.astype(float), buckets


def split_rows_tables(net):
    """Sampling tables built in two passes, uncached: a guide of one bucket an
    entry, then the crowded rows split and re-keyed by :func:`_split_rows`."""
    offsets, targets, weights = net.adjacency_csr()
    if targets.size == 0:
        offsets, targets, weights = np.array([0, 1]), np.zeros(1, dtype=np.int64), np.ones(1)
    degs = np.diff(offsets)
    cum = weights.copy()
    rows, top = np.arange(degs.size), int(degs.max())
    for k in range(1, top):
        rows = rows[degs[rows] > k]
        if rows.size < top - k:
            for a, b in zip(offsets[rows].tolist(), offsets[rows + 1].tolist()):
                np.add.accumulate(weights[a:b], out=cum[a:b])
            break
        at = offsets[rows] + k
        cum[at] += cum[at - 1]
    cum /= np.repeat(cum[offsets[1:] - 1], degs)
    cum[offsets[1:] - 1] = 1.0
    t = SamplingTables((offsets, targets, cum))
    t.deg = degs.astype(float)
    below = np.maximum(cum.view(np.int64) - 1, 0).view(float)
    t.hi, t.lo = _guide_two_pass(cum, below, np.repeat(t.deg, degs), degs, offsets)
    width = t.hi - t.lo
    widest = int(width.max())
    if widest > 1:
        _split_rows(t, below, np.flatnonzero(_rows_of(np.flatnonzero(width > 1), offsets)))
        widest = int((t.hi - t.lo).max())
    t.ladder = widest.bit_length()
    if t.ladder == 0:
        t.first = targets[t.lo]
    return t


def adjacency_lexsort(net):
    """(offsets, targets, weights, vertex conductances) by ``lexsort`` and
    ``np.add.at``: both directions of each non-loop edge, a loop once, sorted
    by (source, target), parallel entries summed in sorted order."""
    n = net.vertex_count
    a, b = net.ends.T
    w = net.conductances
    loop = a == b
    src = np.concatenate([a, b[~loop]])
    dst = np.concatenate([b, a[~loop]])
    ww = np.concatenate([w, w[~loop]])
    order = np.lexsort((dst, src))
    src, dst, ww = src[order], dst[order], ww[order]
    new = np.ones(src.size, dtype=bool)
    new[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    starts = np.flatnonzero(new)
    weights = np.add.reduceat(ww, starts) if starts.size else np.zeros(0)
    rows = src[starts]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    strength = np.zeros(n)
    np.add.at(strength, rows, weights)
    return offsets, dst[starts], weights, strength


def box_bonds_loop(cols, rows, spine=False, wrap=False):
    """Bonds of a cols x rows box in nested loops: each site x * rows + y in
    turn, its bond to x + 1, then to y + 1; ``wrap`` joins the last column and
    row to the first, ``spine`` keeps the x-bonds of row 0 only."""
    bonds = []
    for x in range(cols):
        for y in range(rows):
            if (x < cols - 1 or wrap) and (y == 0 or not spine):
                bonds.append((x * rows + y, (x + 1) % cols * rows + y))
            if y < rows - 1 or wrap:
                bonds.append((x * rows + y, x * rows + (y + 1) % rows))
    return np.array(bonds, dtype=np.int64).reshape(-1, 2)


def percolation_cluster(n, p, seed):
    """(edges, coords) of the largest open cluster, by per-bond Python loops.

    The reference for ``gen_percolation_cluster``: the same bond order and
    draws, a plain union-find, the largest cluster with ties broken by the
    smallest member, re-indexed by increasing site number.
    """
    side = n + 1
    idx = lambda x, y: x * side + y
    bonds = []
    for x in range(side):
        for y in range(side):
            if x < n:
                bonds.append((idx(x, y), idx(x + 1, y)))
            if y < n:
                bonds.append((idx(x, y), idx(x, y + 1)))
    keep = np.random.default_rng(seed).random(len(bonds)) < p
    parent = list(range(side * side))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for (a, b), k in zip(bonds, keep):
        if k:
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
    clusters = defaultdict(list)
    for v in range(side * side):
        clusters[find(v)].append(v)
    members = max(clusters.values(), key=lambda c: (len(c), -c[0]))
    relabel = {v: i for i, v in enumerate(members)}
    edges = [
        (relabel[a], relabel[b], 1.0)
        for (a, b), k in zip(bonds, keep)
        if k and a in relabel and b in relabel
    ]
    coords = tuple((v // side, v % side) for v in members)
    return edges, coords


def continuous_walk_marginal(net, start, t):
    """Law of the rate-c(e) continuous walk at time t, via the generator."""
    n = net.vertex_count
    Q = np.zeros((n, n))
    for a, b, w in net.edges:
        if a != b:
            Q[a, b] += w
            Q[b, a] += w
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return expm(t * Q)[start]


def continuous_walk_loop(net, start, t_max, rng):
    """(vertices, entry times) of ``walk_continuous`` as one scalar loop: at
    each vertex an exponential holding time, then, unless it passes
    ``t_max``, one uniform for the jump, drawn by :class:`PaddedSampler`; a
    jump to the same vertex extends the segment, and a vertex of rate 0
    draws nothing."""
    ref, rates = PaddedSampler(net), net.vertex_conductance
    verts, times, t, u = [start], [0.0], 0.0, start
    while rates[u] != 0.0:
        t += rng.exponential(1.0 / rates[u])
        if t >= t_max:
            break
        v = ref.draw(u, rng.random())
        if v != u:
            verts.append(v)
            times.append(t)
            u = v
    return verts, times


def unit_rate_walk_marginal(net, start, t):
    """Law at time t of the walk that jumps at rate 1 with the one-step kernel."""
    n = net.vertex_count
    P = np.zeros((n, n))
    for u, row in neighbor_probs(net).items():
        for v, q in row:
            P[u, v] += q
    return expm(t * (P - np.eye(n)))[start]


# ---------------------------------------------------------------------------
# Exact voter-model oracle on the full 2^V configuration chain
# ---------------------------------------------------------------------------


def _voter_generator(net):
    """Generator of the voter chain: u adopts from v at rate p(u, v)."""
    n = net.vertex_count
    probs = neighbor_probs(net)
    states = list(itertools.product((0, 1), repeat=n))
    index = {s: i for i, s in enumerate(states)}
    Q = np.zeros((len(states), len(states)))
    for s in states:
        i = index[s]
        for u in range(n):
            for v, q in probs[u]:
                if s[u] != s[v]:
                    flipped = list(s)
                    flipped[u] = s[v]
                    j = index[tuple(flipped)]
                    Q[i, j] += q
                    Q[i, i] -= q
    return states, index, Q


def voter_marginal_exact(net, initial, vertex, t):
    """Exact P(opinion of ``vertex`` is 1 at time t) from the 2^V chain."""
    states, index, Q = _voter_generator(net)
    row = expm(t * Q)[index[tuple(int(x) for x in initial)]]
    return float(sum(row[i] for i, s in enumerate(states) if s[vertex] == 1))


def voter_consensus_by_exact(net, initial, t):
    """Exact P(consensus by time t) from the 2^V chain."""
    states, index, Q = _voter_generator(net)
    row = expm(t * Q)[index[tuple(int(x) for x in initial)]]
    n = net.vertex_count
    return float(row[index[(0,) * n]] + row[index[(1,) * n]])


def voter_law_exact(net, initial, t):
    """(states as a (2^V, V) array, P(state at time t)) from the 2^V chain,
    by ``expm_multiply`` on its sparse generator, for V up to about 12."""
    states, index, Q = _voter_generator(net)
    p0 = np.zeros(len(states))
    p0[index[tuple(int(x) for x in initial)]] = 1.0
    return np.array(states), expm_multiply(t * csr_matrix(Q).T, p0)


def voter_consensus_ones_exact(net, initial):
    """Exact absorption probability into the all-ones consensus."""
    states, index, Q = _voter_generator(net)
    n = net.vertex_count
    ones = index[tuple([1] * n)]
    zeros = index[tuple([0] * n)]
    start = index[tuple(int(x) for x in initial)]
    if start == ones:
        return 1.0
    if start == zeros:
        return 0.0
    transient = [i for i in range(len(states)) if i not in (ones, zeros)]
    A = Q[np.ix_(transient, transient)]
    b = -Q[np.ix_(transient, [ones])].ravel()
    h = np.linalg.solve(A, b)
    return float(h[transient.index(start)])


# ---------------------------------------------------------------------------
# Continuous-time collision pairs
# ---------------------------------------------------------------------------


def ct_chunk_scalar(payload):
    """The per-replica chunk that ``interacting._ct_chunk`` replaced.

    Two scalar ``walk_continuous`` calls per replica from the chunk's stream,
    then ``collision_measure`` and ``discretization_integral``.  Swapped in
    for ``_ct_chunk`` it reproduces the envelopes pinned before the pair chain.
    """
    net, start, t_max, grid, seed, chunk_index, size = payload
    rng = substream_rng(seed, TAG_CTCOLLIDE, chunk_index)
    rows = np.empty((size, 2))
    for i in range(size):
        jx = walk_continuous(net, start, t_max, rng)
        jy = walk_continuous(net, start, t_max, rng)
        rows[i, 0] = collision_measure(jx, jy).total
        rows[i, 1] = discretization_integral(jx, jy, grid)
    return rows


def ct_pair_scalar(net, start, t_max, rng):
    """Both trajectories of one pair chain, drawn one event at a time.

    Makes the draws of a one-replica ``_ct_chunk`` round by round: the event
    time at rate c(x) + c(y), then two uniforms, the first choosing the mover
    and the second its :class:`PaddedSampler` step.  Jumps onto the mover's
    own vertex extend its segment, as in ``walk_continuous``.
    """
    rates = net.vertex_conductance
    sampler = PaddedSampler(net)
    pos = [start, start]
    paths = [([start], [0.0]), ([start], [0.0])]
    t = 0.0
    while rates[pos[0]] + rates[pos[1]] > 0.0:
        total = rates[pos[0]] + rates[pos[1]]
        e = t + rng.exponential(1.0 / total)
        r = rng.random(2)
        if e >= t_max:
            break
        w = 0 if r[0] * total < rates[pos[0]] else 1
        v = sampler.draw(pos[w], r[1])
        if v != pos[w]:
            pos[w] = v
            paths[w][0].append(v)
            paths[w][1].append(e)
        t = e
    return tuple(
        JumpTrajectory(np.array(verts, dtype=np.int64), np.array(times), float(t_max))
        for verts, times in paths
    )


def ct_group_scalar(payload):
    """:func:`ct_chunk_scalar` on each chunk of a chunk-group payload, in chunk order."""
    *head, first, sizes = payload
    return np.concatenate([ct_chunk_scalar((*head, first + c, size))
                           for c, size in enumerate(sizes)])


# ---------------------------------------------------------------------------
# Per-chunk replica loops
# ---------------------------------------------------------------------------


def per_chunk(loop, head, replicas, axis=0):
    """``loop((*head, i, size))`` for every chunk i of ``replicas``, joined on ``axis``.

    A loop returning a tuple is joined element by element; a scalar element
    becomes an array of one value a chunk.
    """
    pieces = [loop((*head, i, size)) for i, size in enumerate(chunk_sizes(replicas))]
    if isinstance(pieces[0], tuple):
        return tuple(np.concatenate(p, axis=axis) if np.ndim(p[0]) else np.array(p)
                     for p in zip(*pieces))
    return np.concatenate(pieces, axis=axis)


def growth_chunk_loop(payload):
    """Collision counts of one chunk: a (2m) pair state, x then y, one 2m draw a step."""
    stepper, origin, horizons, seed, chunk_index, size = payload
    rng = substream_rng(seed, TAG_GROWTH, chunk_index)
    state = np.repeat(origin, size)
    x, y = state[:size], state[size:]
    counters = np.zeros(size, dtype=np.int64)
    out = np.empty((len(horizons), size), dtype=np.int64)
    walked = 0
    for i, h in enumerate(horizons):
        for _ in range(h - walked):
            stepper.advance(state, rng.random(2 * size))
            counters += x == y
        walked = h
        out[i] = counters
    return out


class PositionPathLattice(PathLattice):
    """The line walker on position codes x, as it stepped before its codes
    counted right steps: floor(2r) gathers the step -1 or +1."""

    def advance(self, state, r):
        r *= 2  # exact, so floor(2r) is [r >= 1/2]
        state += np.array([-1, 1])[r.astype(np.intp)]

    def coords(self, state, steps=0):
        return state.tolist()


class CompareCombLattice(CombLattice):
    """The comb walker as it stepped before one floor(6r) found its moves:
    4 * on_tooth plus three comparisons of r with 1/3, 1/2 and 2/3."""

    def advance(self, state, r):
        high = 1 << 32
        move = np.minimum(state & (high - 1), 1)
        move <<= 2
        move += r >= 1 / 3
        move += r >= 0.5
        move += r >= 2 / 3
        state += np.array([-high, high, high, 1, -1, -1, 1, 1])[move]


def voter_chunk_loop(payload):
    """(opinions, consensus values, consensus times, events) of one voter chunk,
    by the clock-driven law of :func:`voter_loop`."""
    net, initial, t_max, seed, chunk_index, size = payload
    return voter_loop(net, initial, t_max, substream_rng(seed, TAG_VOTER, chunk_index), size)


def voter_group_loop(payload, loop=voter_chunk_loop):
    """``loop`` on each chunk of a chunk-group payload, in chunk order, with
    the events summed and the rounds of its longest chunk, as
    ``_voter_chunk`` returns them."""
    *head, first, sizes = payload
    pieces = [loop((*head, first + c, size)) for c, size in enumerate(sizes)]
    opinions, cons_val, cons_time, events = (np.concatenate(p) for p in list(zip(*pieces))[:4])
    return opinions, cons_val, cons_time, int(events.sum()), max(p[4] for p in pieces)


def group_rounds(chunk_rounds, replicas, workers):
    """The rounds of ``voter_ensemble``'s chunk groups, summed, from the
    rounds each chunk steps alone: a group steps until its last chunk ends."""
    return sum(int(chunk_rounds[first:first + len(sizes)].max())
               for first, sizes in chunk_groups(replicas, workers))


def voter_loop(net, initial, t_max, rng, size):
    """The voter runs of ``size`` replicas on ``rng`` by the clock-driven law
    the jump chain replaced: each round draws the Exponential(V) waits, the
    rung vertices (``integers``) and the uniforms of all active replicas, one
    call each.  Also returns each replica's event count and the rounds run."""
    V = net.vertex_count
    sampler = CSRSampler(_sampling_tables(net))
    opinions = np.tile(initial, (size, 1))
    flat = opinions.reshape(-1)
    ones = opinions.sum(axis=1, dtype=np.int64)
    t = np.zeros(size)
    events = np.zeros(size, dtype=np.int64)
    cons_val = np.full(size, -1, dtype=np.int8)
    cons_time = np.full(size, np.nan)
    settled = (ones == 0) | (ones == V)
    cons_val[settled] = (ones[settled] > 0).astype(np.int8)
    cons_time[settled] = 0.0
    active = np.flatnonzero(~settled)
    rounds = 0
    while active.size:
        rounds += 1
        k = active
        dt = rng.exponential(1.0 / V, k.size)
        u = rng.integers(0, V, k.size)
        r = rng.random(k.size)
        tk = t[k] + dt
        t[k] = tk
        alive = tk <= t_max
        if not alive.all():
            k, u, r = k[alive], u[alive], r[alive]
            if k.size == 0:
                break
        events[k] += 1
        row = k * V
        at_u = row + u
        new = flat[row + sampler.draw(u, r)]
        count = ones[k] + (new - flat[at_u])
        ones[k] = count
        flat[at_u] = new
        done = (count == 0) | (count == V)
        if done.any():
            d = k[done]
            cons_val[d] = count[done] > 0
            cons_time[d] = t[d]
        active = k[~done]
    return opinions, cons_val, cons_time, events, rounds


def voter_jump_chunk_loop(payload):
    """(opinions, consensus values, consensus times, events) of one voter
    chunk, by the jump chain of :func:`voter_jump_loop`."""
    net, initial, t_max, seed, chunk_index, size = payload
    return voter_jump_loop(net, initial, t_max, substream_rng(seed, TAG_VOTER, chunk_index),
                           size)


def voter_jump_loop(net, initial, t_max, rng, size):
    """The voter runs of ``size`` replicas on ``rng`` as a jump chain, with
    full-size state: one ``poisson(V * t_max, size)`` draw of event budgets
    (none at t_max = inf), then each round one ``random((n, 2))`` draw for
    the n replicas short of consensus with budget left, the rung vertex
    floor(V r0) copying its neighbor drawn with r1, and last one ``beta``
    (``standard_gamma`` at t_max = inf) draw of the consensus times of the
    replicas that reached it.  A constant start draws nothing.  Also returns
    each replica's event count and the rounds run."""
    V = net.vertex_count
    sampler = CSRSampler(_sampling_tables(net))
    opinions = np.tile(initial, (size, 1))
    ones = opinions.sum(axis=1)
    settled = (ones == 0) | (ones == V)
    cons_val = np.where(settled, ones > 0, -1).astype(np.int8)
    cons_time = np.where(settled, 0.0, np.nan)
    events = np.zeros(size, dtype=np.int64)
    if settled.all():
        return opinions, cons_val, cons_time, events, 0
    finite = np.isfinite(t_max)
    budget = rng.poisson(V * t_max, size) if finite else np.full(size, np.iinfo(np.int64).max)
    active = np.arange(size)
    rounds = 0
    while True:
        active = active[events[active] < budget[active]]
        if active.size == 0:
            break
        rounds += 1
        r = rng.random((active.size, 2))
        u = (r[:, 0] * V).astype(np.int64)
        opinions[active, u] = opinions[active, sampler.draw(u, r[:, 1])]
        events[active] += 1
        ones = opinions[active].sum(axis=1)
        done = (ones == 0) | (ones == V)
        cons_val[active[done]] = ones[done] > 0
        active = active[~done]
    _voter_times(cons_val, cons_time, events, budget, t_max, V, rng)
    return opinions, cons_val, cons_time, events, rounds


def _voter_times(cons_val, cons_time, events, budget, t_max, V, rng):
    """Fill in the consensus times of the replicas that reached consensus
    after ``events`` of their ``budget``, in one draw."""
    reached = np.flatnonzero(cons_val >= 0)
    if reached.size:
        k = events[reached]
        cons_time[reached] = (t_max * rng.beta(k, budget[reached] - k + 1)
                              if np.isfinite(t_max) else rng.standard_gamma(k) / V)


def voter_block_chunk_loop(payload):
    """(opinions, consensus values, consensus times, events, rounds) of one
    voter chunk, by the block law of :func:`voter_block_loop`."""
    net, initial, t_max, seed, chunk_index, size = payload
    return voter_block_loop(net, initial, t_max, substream_rng(seed, TAG_VOTER, chunk_index),
                            size)


def voter_block_loop(net, initial, t_max, rng, size):
    """The voter runs of ``size`` replicas on ``rng`` as a jump chain stepped
    in blocks, with full-size state: one ``poisson(V * t_max, size)`` draw of
    event budgets (none at t_max = inf), then blocks of b = 1, 2, 4, ...,
    ``BLOCK_STEPS`` rounds.  A block makes one ``random((b, n, 2))`` draw for
    the n replicas short of consensus with budget left at its start; each
    round j of it, every one of them short of consensus whose budget exceeds
    j copies to its rung vertex floor(V r0) the opinion of the neighbor drawn
    with r1, and the others draw in vain.  Last, one ``beta`` (``standard_gamma``
    at t_max = inf) draw of the consensus times of the replicas that reached
    it.  A constant start draws nothing.  Also returns each replica's event
    count and the rounds run, a whole number of blocks."""
    V = net.vertex_count
    sampler = CSRSampler(_sampling_tables(net))
    opinions = np.tile(initial, (size, 1))
    ones = opinions.sum(axis=1)
    settled = (ones == 0) | (ones == V)
    cons_val = np.where(settled, ones > 0, -1).astype(np.int8)
    cons_time = np.where(settled, 0.0, np.nan)
    events = np.zeros(size, dtype=np.int64)
    if settled.all():
        return opinions, cons_val, cons_time, events, 0
    budget = (rng.poisson(V * t_max, size) if np.isfinite(t_max)
              else np.full(size, np.iinfo(np.int64).max))
    rounds = 0
    while True:
        active = np.flatnonzero((cons_val < 0) & (budget > rounds))
        if active.size == 0:
            break
        b = min(BLOCK_STEPS, rounds + 1)
        r = rng.random((b, active.size, 2))
        for j in range(b):
            ring = (cons_val[active] < 0) & (budget[active] > rounds + j)
            a, r_j = active[ring], r[j, ring]
            u = (r_j[:, 0] * V).astype(np.int64)
            opinions[a, u] = opinions[a, sampler.draw(u, r_j[:, 1])]
            events[a] += 1
            ones = opinions[a].sum(axis=1)
            cons_val[a] = np.where((ones == 0) | (ones == V), ones > 0, -1)
        rounds += b
    _voter_times(cons_val, cons_time, events, budget, t_max, V, rng)
    return opinions, cons_val, cons_time, events, rounds


def ct_chunk_loop(payload):
    """(measure, grid integral) rows of one chunk, run as its own pair chain."""
    net, start, t_max, grid, seed, chunk_index, size = payload
    rng = substream_rng(seed, TAG_CTCOLLIDE, chunk_index)
    rates = net.vertex_conductance
    last_tick = np.floor(t_max * grid) + 1
    if rates[start] == 0.0:
        return np.tile([t_max, last_tick / grid], (size, 1))
    sampler = CSRSampler(_sampling_tables(net))
    measure = np.zeros(size)
    ticks = np.zeros(size)
    idx = np.arange(size)
    x = np.full(size, start, dtype=np.int64)
    y = x.copy()
    t = np.zeros(size)
    while idx.size:
        cx = rates[x]
        total = cx + rates[y]
        e = t + rng.exponential(1.0 / total)
        r = rng.random((2, idx.size))
        done = e >= t_max
        meet = x == y
        if meet.any():
            i, s = idx[meet], t[meet]
            end = np.where(done[meet], t_max, e[meet])
            measure[i] += end - s
            hi = np.where(done[meet], last_tick, np.ceil(end * grid))
            ticks[i] += hi - np.ceil(s * grid)
        if done.any():
            live = ~done
            idx, x, y, e, cx, total, r = (
                idx[live], x[live], y[live], e[live], cx[live], total[live], r[:, live]
            )
        x_moves = r[0] * total < cx
        target = sampler.draw(np.where(x_moves, x, y), r[1])
        x = np.where(x_moves, target, x)
        y = np.where(x_moves, y, target)
        t = e
    return np.column_stack([measure, ticks / grid])


# ---------------------------------------------------------------------------
# Spanning trees
# ---------------------------------------------------------------------------


def wilson_incidence(base, seed=0):
    """Wilson's algorithm stepping over incident edge instances.

    Each vertex lists its incident edges (a self-loop once) with a cumulative
    conductance table searched by ``np.searchsorted``; a tree edge carries the
    conductance of the parallel edge that was drawn.
    """
    n = base.vertex_count
    if n == 1:
        return build_network(1, [])
    inc = [[] for _ in range(n)]
    for a, b, w in base.edges:
        inc[a].append((b, w))
        if b != a:
            inc[b].append((a, w))
    cum = []
    targets = []
    for u in range(n):
        ws = np.array([w for _, w in inc[u]])
        c = np.cumsum(ws)
        c /= c[-1]
        c[-1] = 1.0
        cum.append(c)
        targets.append([v for v, _ in inc[u]])

    rng = np.random.default_rng(seed)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    next_hop = [None] * n
    for start in range(1, n):
        if in_tree[start]:
            continue
        u = start
        while not in_tree[u]:
            i = int(np.searchsorted(cum[u], rng.random(), side="right"))
            v = targets[u][i]
            next_hop[u] = (v, inc[u][i][1])
            u = v
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = next_hop[u][0]
    edges = [(u, hop[0], hop[1]) for u, hop in enumerate(next_hop) if u != 0]
    return build_network(n, edges)


def wilson_sample_step(base, seed=0):
    """Wilson's algorithm with one :func:`sample_step` call a step.

    ``gen_wilson_ust`` ran this loop before it read the sampling tables
    once per tree and drew its uniforms in blocks; it must give the same
    tree edge for edge.
    """
    n = base.vertex_count
    if n == 1:
        return build_network(1, [])
    rng = np.random.default_rng(seed)
    in_tree = [False] * n
    in_tree[0] = True
    parent = [0] * n
    for start in range(1, n):
        u = start
        while not in_tree[u]:
            v = sample_step(base, u, rng)
            parent[u] = v
            u = v
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = parent[u]
    u, v = np.arange(1, n), np.array(parent[1:])
    offsets, targets, weights = base.adjacency_csr()
    keys = np.repeat(np.arange(n), np.diff(offsets)) * n + targets
    w = weights[np.searchsorted(keys, u * n + v)]
    return build_network(n, np.column_stack([u, v, w]))


def wilson_guide_rows(base, seed=0):
    """Wilson's algorithm reading the guide itself, by block-drawn uniforms.

    On ladder-0 tables each step reads a Python list of the vertex's
    ``first`` entries; otherwise it bisects the guide range of ``r``'s
    bucket through memoryviews of the tables.  The tables are those of
    :func:`split_rows_tables`.
    """
    n = base.vertex_count
    if n == 1:
        return build_network(1, [])
    rng = np.random.default_rng(seed)
    tables = split_rows_tables(base)
    deg, rows = tables.deg.tolist(), None
    if tables.ladder == 0:
        first, cut = tables.first.tolist(), tables.buckets.tolist()
        rows = [first[a:b] for a, b in zip(cut, cut[1:])]
    else:
        buckets, targets, cum, lo, hi = map(
            memoryview, (tables.buckets, *tables[1:], tables.lo, tables.hi))
    draws, block = iter(()), 8
    in_tree = [False] * n
    in_tree[0] = True
    parent = [0] * n
    for start in range(1, n):
        u = start
        while not in_tree[u]:
            r = next(draws, None)
            if r is None:
                draws, block = iter(rng.random(block).tolist()), min(2 * block, 4096)
                r = next(draws)
            if rows is not None:
                v = rows[u][int(r * deg[u])]
            else:
                at = buckets[u] + int(r * deg[u])
                a, b = lo[at], hi[at]
                while a < b:
                    mid = (a + b) >> 1
                    if cum[mid] <= r:
                        a = mid + 1
                    else:
                        b = mid
                v = targets[a]
            parent[u] = v
            u = v
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = parent[u]
    u, v = np.arange(1, n), np.array(parent[1:])
    offsets, targets, weights = base.adjacency_csr()
    keys = np.repeat(np.arange(n), np.diff(offsets)) * n + targets
    w = weights[np.searchsorted(keys, u * n + v)]
    return build_network(n, np.column_stack([u, v, w]))


def spanning_tree_law(net):
    """{frozenset of vertex pairs: probability} of the weighted spanning tree.

    Enumerates every (V - 1)-subset of the vertex pairs joined by a non-loop
    edge, keeps the acyclic ones and weights each by the product of its
    aggregated conductances c(u, v).
    """
    c = defaultdict(float)
    for a, b, w in net.edges:
        if a != b:
            c[(min(a, b), max(a, b))] += w
    n = net.vertex_count
    weights = {}
    for pairs in itertools.combinations(sorted(c), n - 1):
        label = list(range(n))  # component of each vertex
        for a, b in pairs:
            la, lb = label[a], label[b]
            if la == lb:
                break  # the pair closes a cycle
            label = [la if x == lb else x for x in label]
        else:
            weights[frozenset(pairs)] = float(np.prod([c[p] for p in pairs]))
    total = sum(weights.values())
    return {tree: w / total for tree, w in weights.items()}
