"""Trajectory sampling for discrete- and continuous-time walks.

All sampling is reproducible: randomness flows from :func:`substream_rng`,
which hashes a master seed and a path of integers into a seed sequence, so
replicas can run in any order (or in parallel) without sharing generator
state.

Every one-step draw goes through one sampler over the network's CSR
adjacency: per-row cumulative conductances in O(E) memory, searched with a
uniform ``r`` in [0, 1).  The step from ``u`` takes the neighbor whose index
in ``u``'s row is the count of cumulative values ``<= r`` (so an ``r`` equal
to an interior cumulative value moves past it).  A guide table (Chen and
Asau 1974) read at bucket floor(r * deg(u)) narrows that count to a short
range, which batched draws search in as many passes as the widest range
needs and single draws bisect.  A row with a bucket that holds two
cumulative values has its buckets split 2, 4, ... up to 2^``GUIDE_SPLITS``
fold, so that on most weighted networks every range is at most two indices
and a draw takes one comparison.  Where every range is one index
(unit-conductance tori, percolation clusters, spanning trees) a draw is one
gather.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._parallel import TAG_PAIR, _as_rng, substream_rng
from .graph_core import Network, check_vertex


@dataclass(frozen=True)
class Trajectory:
    """Discrete-time path X_0..X_T as a vertex array."""

    steps: np.ndarray


@dataclass(frozen=True)
class JumpTrajectory:
    """Continuous-time path as contiguous holding segments on [0, t_max].

    ``vertices[i]`` is occupied on [``entry_times[i]``, ``entry_times[i+1]``),
    the final segment ending at ``t_max``.  ``entry_times[0]`` is 0.
    """

    vertices: np.ndarray
    entry_times: np.ndarray
    t_max: float

    def exit_times(self):
        return np.append(self.entry_times[1:], self.t_max)

    def segments(self):
        exits = self.exit_times()
        for v, s, e in zip(self.vertices, self.entry_times, exits):
            yield int(v), float(s), float(e)

    def vertex_at(self, t):
        """Occupied vertex at time t (arrays accepted); t must lie in [0, t_max]."""
        i = np.searchsorted(self.entry_times, t, side="right") - 1
        return self.vertices[i]

    def restrict(self, t0, t1):
        """Sub-trajectory on [t0, t1], re-based to start at time 0."""
        if not 0.0 <= t0 < t1 <= self.t_max:
            raise ValueError("window must satisfy 0 <= t0 < t1 <= t_max")
        lo = int(np.searchsorted(self.entry_times, t0, side="right") - 1)
        hi = int(np.searchsorted(self.entry_times, t1, side="left"))
        verts = self.vertices[lo:hi].copy()
        times = self.entry_times[lo:hi] - t0
        times[0] = 0.0
        return JumpTrajectory(verts, times, t_max=t1 - t0)


# Finest split of a crowded row's guide.  A row whose buckets hold more than
# one cumulative value gets deg * 2^s buckets, the smallest s <= GUIDE_SPLITS
# that leaves at most one in each.  On a perfbench pa_tree_20000 network
# (39,998 entries, conductances 0.5-2; 2,048 walkers, medians of 15
# alternating rounds in one process, 2 vCPUs) caps of 1 / 2 / 3 / 4 / 5 gave
# ladders of 2 / 1 / 1 / 1 / 1 passes, draws of 72.7 / 32.8 / 37.3 / 33.0 /
# 35.8 us a step and tables of 1.53 / 1.56 / 1.56 / 1.56 / 1.56 MB (1.28 MB
# unsplit).  Caps past 2 changed nothing there; the cap bounds rows that
# never separate, such as two 2^-60 conductances beside 1, at
# 2^GUIDE_SPLITS buckets an entry.
GUIDE_SPLITS = 4


class SamplingTables(tuple):
    """The arrays ``(offsets, targets, cum)``, which unpack as a 3-tuple, and their guide.

    Row ``u`` has ``deg[u]`` buckets (a float), its degree times 2^s, s = 0
    unless the row split, and ``r`` falls in ``b = int(r * deg[u]) <
    deg[u]``, one float product at build and at draw time.  Keyed ``k =
    buckets[u] + b``, its draw lies in ``[lo[k], hi[k]]`` (int32 arrays):
    ``lo`` counts the entries ``<= r`` for every ``r`` of the bucket, ``hi``
    those ``<= r`` for some.  Where no row split, ``buckets`` is ``offsets``
    itself and the tables hold no second array of row starts.  ``ladder`` is
    the bit length of the widest range; only at 0, where ``lo == hi``, is
    there ``first = targets[lo]``, each bucket's draw.
    """

    @property
    def buckets(self):
        return self.__dict__.get("_buckets", self[0])


def _guide(cum, below, d, degs, buckets):
    """The guide ``(hi, lo)`` of rows of ``degs`` entries, entry ``j`` in a
    row of ``d[j]`` buckets (a float) keyed from ``buckets[u]``.  Entry
    ``j`` counts in ``hi`` from bucket ``int(cum[j] * d[j])`` on and in
    ``lo`` past ``int(below[j] * d[j])``, ``below[j]`` the float before
    ``cum[j]``; one running count over the entries given serves all rows."""
    o, n = np.repeat(buckets[:-1], degs), int(buckets[-1])
    return (np.bincount((c * d).astype(np.int64) + o + k, minlength=n + 1)[:n]
            .cumsum(dtype=np.int32) for c, k in ((cum, 0), (below, 1)))


def _rows_of(at, offsets):
    """A mask of the rows that hold the entries ``at``."""
    rows = np.zeros(offsets.size - 1, dtype=bool)
    rows[np.searchsorted(offsets, at, side="right") - 1] = True
    return rows


def _split_rows(t, below, rows):
    """Split the buckets of ``rows`` (sorted), each of which has one holding
    two cumulative values or more, in 2, 4, ... until none does or
    ``GUIDE_SPLITS`` is reached, then re-key those rows alone.

    A bucket holds entry ``j`` when the float before ``cum[j]`` falls in it
    too, so it holds two exactly when two neighbors in a row, both held,
    share it; a row's last entry, 1.0, is never held.  The other rows'
    buckets move to their new keys unchanged.
    """
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
    for name, joined in zip(("hi", "lo"), _guide(c, b, d, n, keys)):
        guide = np.empty(int(buckets[-1]), dtype=np.int32)
        guide[kept] = getattr(t, name)  # a split row's buckets are overwritten next
        joined += entry
        guide[moved] = joined
        setattr(t, name, guide)
    t.deg, t._buckets = count.astype(float), buckets


def _sampling_tables(net: Network):
    """CSR (offsets, targets, cum) tables and their guide for one-step sampling, cached.

    ``offsets`` and ``targets`` are the network's aggregated adjacency; ``cum``
    holds each row's running conductance sum divided by the row total, the
    row's last entry pinned to 1.0 so a uniform draw in [0, 1) always selects
    a real neighbor.  Memory is O(E) whatever the degrees.  The running sums
    are built in column passes, left to right within every row, and the
    last few long rows one at a time, so they equal a per-row ``np.cumsum``
    bit for bit.  A single-vertex network with no edges gets one self-loop
    row.  The guide is built once with one bucket an entry, keyed
    ``offsets[u] + b``; rows with a bucket that holds two cumulative values
    or more are then split (:func:`_split_rows`).
    """
    if net._tables is None:
        offsets, targets, weights = net.adjacency_csr()
        if targets.size == 0:
            offsets, targets, weights = (
                np.array([0, 1]), np.zeros(1, dtype=np.int64), np.ones(1)
            )
        degs = np.diff(offsets)
        cum = weights.copy()
        rows, top = np.arange(degs.size), int(degs.max())
        for k in range(1, top):
            rows = rows[degs[rows] > k]
            if rows.size < top - k:  # fewer rows left than passes: finish row by row
                for a, b in zip(offsets[rows].tolist(), offsets[rows + 1].tolist()):
                    np.add.accumulate(weights[a:b], out=cum[a:b])
                break
            at = offsets[rows] + k
            cum[at] += cum[at - 1]
        cum /= np.repeat(cum[offsets[1:] - 1], degs)
        cum[offsets[1:] - 1] = 1.0
        t = SamplingTables((offsets, targets, cum))
        t.deg = degs.astype(float)
        below = np.maximum(cum.view(np.int64) - 1, 0).view(float)  # prev(cum), 0 kept
        t.hi, t.lo = _guide(cum, below, np.repeat(t.deg, degs), degs, offsets)
        width = t.hi - t.lo
        widest = int(width.max())
        if widest > 1:  # bucket k of this guide is entry k
            _split_rows(t, below, np.flatnonzero(_rows_of(np.flatnonzero(width > 1), offsets)))
            widest = int((t.hi - t.lo).max())
        t.ladder = widest.bit_length()
        if t.ladder == 0:
            t.first = targets[t.lo]
        net._tables = t
    return net._tables


class CSRSampler:
    """Batched one-step draws over the tables of :func:`_sampling_tables`.

    With an empty ladder the draw is ``first`` at the bucket, one gather.
    Otherwise it counts from ``j = lo``, the bucket's first possible draw.
    Passes of 2^(p-1), ..., 2, p = ``ladder``, add the step where the
    cumulative value ``step - 1`` on, clamped to ``hi``, is ``<= r``
    (``cum[hi] > r``, so a clamped probe adds nothing).  The last pass adds
    ``cum[j] <= r`` with no clamp, since ``j <= hi`` by then, and the drawn
    neighbor is ``targets[j]``: a ladder of 1 needs no ``hi``.
    """

    def __init__(self, tables):
        self.buckets, self.deg = tables.buckets, tables.deg
        self.first = getattr(tables, "first", None)
        if self.first is None:  # a pickled sampler carries only what it reads
            self.targets, self.cum, self.lo = *tables[1:], tables.lo
            if tables.ladder > 1:
                self.hi = tables.hi
        self.steps = [1 << i for i in reversed(range(tables.ladder))]

    def draw(self, u, r):
        """Vertices reached from the vertices ``u`` with the uniforms ``r``."""
        at = (r * self.deg[u]).astype(np.int64)
        at += self.buckets[u]
        if self.first is not None:
            return self.first[at]
        j, cum = self.lo[at].astype(np.int64), self.cum
        if len(self.steps) > 1:
            end = self.hi[at]
            for step in self.steps[:-1]:
                j += (cum[np.minimum(j + (step - 1), end)] <= r) * step
        j += cum[j] <= r
        return self.targets[j]


def _guide_search(cum, lo, hi, r):
    """The first index in ``r``'s guide range ``[lo, hi]`` whose ``cum(j)`` is
    above ``r``, by bisection: the rule of :meth:`CSRSampler.draw`, one draw."""
    while lo < hi:
        mid = (lo + hi) >> 1
        if cum(mid) <= r:
            lo = mid + 1
        else:
            hi = mid
    return lo


def sample_step(net, u, rng):
    """One transition of the conductance-weighted walk from ``u``.

    The same rule as :meth:`CSRSampler.draw`, by :func:`_guide_search` where
    the tables have no ``first``, for callers that draw one step at a time.
    """
    _, targets, cum = tables = _sampling_tables(net)
    r = rng.random()
    at = tables.buckets.item(u) + int(r * tables.deg.item(u))
    if tables.ladder == 0:
        return tables.first.item(at)
    return targets.item(_guide_search(cum.item, tables.lo.item(at), tables.hi.item(at), r))


class NetworkStepper:
    """Batched stepper: one CSR draw moves every walker of a flat vertex state."""

    def __init__(self, net: Network, start=0):
        self.sampler = CSRSampler(_sampling_tables(net))
        self.start = check_vertex(net, start)

    def new_state(self, m):
        return np.full(m, self.start, dtype=np.int64)

    def advance(self, state, r):
        """Move every walker of ``state`` by one draw, walker i with ``r[i]``."""
        state[:] = self.sampler.draw(state, r)


def walk_discrete(net, start, T, seed):
    """Sample X_0..X_T for the conductance-weighted walk from ``start``.

    ``seed`` may be an integer in [0, 2**64) or a numpy Generator.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    u = check_vertex(net, start)
    rng = _as_rng(seed)
    out = np.empty(T + 1, dtype=np.int64)
    out[0] = u
    for n in range(1, T + 1):
        u = sample_step(net, u, rng)
        out[n] = u
    return Trajectory(out)


def walk_continuous(net, start, t_max, seed):
    """Sample the continuous-time walk that crosses each edge e at rate c(e).

    The holding time at ``u`` is Exponential(c(u)) and the jump target is
    drawn from the one-step kernel; a jump across a self-loop does not change
    the vertex, so it simply extends the current segment (the visible law is
    unchanged by memorylessness).
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    u = check_vertex(net, start)
    rng = _as_rng(seed)
    rates = net.vertex_conductance
    verts = [u]
    times = [0.0]
    t = 0.0
    while True:
        rate = rates[u]
        if rate == 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= t_max:
            break
        v = sample_step(net, u, rng)
        if v != u:
            verts.append(v)
            times.append(t)
            u = v
    return JumpTrajectory(
        np.array(verts, dtype=np.int64), np.array(times), t_max=float(t_max)
    )


def walk_pair(net, start_x, start_y, T, seed, replica=0):
    """Two independent discrete walks of one replica.

    Walker w (0 for x, 1 for y) draws from the stream
    (seed, ``TAG_PAIR``, replica, w) of :func:`substream_rng`.
    """
    tx = walk_discrete(net, start_x, T, substream_rng(seed, TAG_PAIR, replica, 0))
    ty = walk_discrete(net, start_y, T, substream_rng(seed, TAG_PAIR, replica, 1))
    return tx, ty


def write_trajectory_csv(path, items):
    """Write trajectories as rows replica,walker,step_or_entry_time,vertex.

    ``items`` yields (replica, walker, trajectory) with either trajectory type.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replica", "walker", "step_or_entry_time", "vertex"])
        for replica, walker, traj in items:
            if isinstance(traj, Trajectory):
                for n, v in enumerate(traj.steps):
                    writer.writerow([replica, walker, n, int(v)])
            else:
                for v, entry, _ in traj.segments():
                    writer.writerow([replica, walker, repr(entry), v])
