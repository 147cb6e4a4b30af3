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
range, which every draw searches in as many passes as the widest range
needs: batched draws on arrays, one-vertex draws by the same passes on
Python lists made once per network.  A row with a bucket that holds two
cumulative values has its buckets split 2, 4, ... up to 2^``GUIDE_SPLITS``
fold, so that on most weighted networks every range is at most two indices
and a draw takes one comparison.  Where every range is one index
(unit-conductance tori, percolation clusters, spanning trees) a draw is one
gather.  Only this module reads the tables' guide.
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

    def __getstate__(self):  # the one-vertex sampler is remade where it is used
        return {k: v for k, v in vars(self).items() if k != "sampler"}


def _bucket_keys(cum, count, degs):
    """Each entry's buckets ``int(cum * d)`` and ``int(below * d)``, ``d`` the
    float bucket count of its row (``count``, over rows of ``degs``
    entries) and ``below`` the float before ``cum`` (0 kept), made here
    and freed on return."""
    d = np.repeat(count.astype(float), degs)
    high = (cum * d).astype(np.int64)
    below = cum.view(np.int64) - 1
    d *= np.maximum(below, 0, out=below).view(float)
    del below
    return high, d.astype(np.int64)


def _crowded(high, low):
    """The entries that share a bucket with the entry before them, both held.

    A bucket holds an entry when the float before its cumulative value falls
    in it too, so a bucket holds two exactly when two neighbors in a row,
    both held, share it; a row's last entry, 1.0, is never held, so no pair
    spans two rows.
    """
    held = high == low
    return 1 + np.flatnonzero(held[1:] & held[:-1] & (high[1:] == high[:-1]))


def _bucket_counts(offsets, cum, high, low):
    """Each row's bucket count: its degree, doubled while one of its buckets
    holds two cumulative values, at most ``GUIDE_SPLITS`` times.  ``high``
    and ``low`` are the entries' buckets at one bucket an entry; each later
    pass reads only the rows still crowded."""
    degs = np.diff(offsets)
    count, two = degs.copy(), _crowded(high, low)
    for _ in range(GUIDE_SPLITS):
        if not two.size:
            break
        rows = np.unique(np.searchsorted(offsets, two, side="right") - 1)
        count[rows] *= 2
        n = degs[rows]
        at = np.repeat(offsets[rows] - np.cumsum(n) + n, n) + np.arange(n.sum())
        two = at[_crowded(*_bucket_keys(cum[at], count[rows], n))]
    return count


def _guide(high, low, degs, buckets):
    """The guide ``(hi, lo)`` of rows of ``degs`` entries, keyed from
    ``buckets[u]``: entry ``j`` counts in ``hi`` from its bucket ``high[j]``
    on and in ``lo`` past ``low[j]``.  One running count over all entries
    serves all rows.  ``high`` and ``low`` are keyed in place, so they are
    spent."""
    o, n = np.repeat(buckets[:-1], degs), int(buckets[-1])
    high += o
    low += o
    low += 1
    del o
    return [np.bincount(b, minlength=n + 1)[:n].cumsum(dtype=np.int32) for b in (high, low)]


def _sampling_tables(net: Network):
    """CSR (offsets, targets, cum) tables and their guide for one-step sampling, cached.

    ``offsets`` and ``targets`` are the network's aggregated adjacency; ``cum``
    holds each row's running conductance sum divided by the row total, the
    row's last entry pinned to 1.0 so a uniform draw in [0, 1) always selects
    a real neighbor.  Memory is O(E) whatever the degrees.  The running sums
    are built in column passes, left to right within every row, and the
    last few long rows one at a time, so they equal a per-row ``np.cumsum``
    bit for bit.  A single-vertex network with no edges gets one self-loop
    row.  Each row's bucket count comes first (:func:`_bucket_counts`), then
    the guide of all rows in one pass.
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
            rows = np.compress(degs[rows] > k, rows)
            if rows.size < top - k:  # fewer rows left than passes: finish row by row
                for a, b in zip(offsets[rows].tolist(), offsets[rows + 1].tolist()):
                    np.add.accumulate(weights[a:b], out=cum[a:b])
                break
            at = offsets[rows] + k
            cum[at] += cum[at - 1]
        cum /= np.repeat(cum[offsets[1:] - 1], degs)
        cum[offsets[1:] - 1] = 1.0
        t = SamplingTables((offsets, targets, cum))
        high, low = _bucket_keys(cum, degs, degs)
        count = _bucket_counts(offsets, cum, high, low)
        split = not np.array_equal(count, degs)
        if split:
            del high, low
            high, low = _bucket_keys(cum, count, degs)
        buckets = np.concatenate(([0], np.cumsum(count))) if split else offsets
        t.deg = count.astype(float)
        t.hi, t.lo = _guide(high, low, degs, buckets)
        del high, low  # the entries' bucket scratch
        if split:
            t._buckets = buckets
        t.ladder = int((t.hi - t.lo).max()).bit_length()
        if t.ladder == 0:
            t.first = targets[t.lo]
        net._tables = t
    return net._tables


class CSRSampler:
    """Batched and one-vertex draws over the tables of :func:`_sampling_tables`.

    With an empty ladder the draw is ``first`` at the bucket, one gather.
    Otherwise it counts from ``j = lo``, the bucket's first possible draw.
    Passes of 2^(p-1), ..., 2, p = ``ladder``, add the step where the
    cumulative value ``step - 1`` on, clamped to ``hi``, is ``<= r``
    (``cum[hi] > r``, so a clamped probe adds nothing).  The last pass adds
    ``cum[j] <= r`` with no clamp, since ``j <= hi`` by then, and the drawn
    neighbor is ``targets[j]``: a ladder of 1 needs no ``hi``.
    """

    def __init__(self, tables, lists=False):
        self.buckets, self.deg = tables.buckets, tables.deg
        self.first = getattr(tables, "first", None)
        if self.first is None:  # a pickled sampler carries only what it reads
            self.targets, self.cum, self.lo = *tables[1:], tables.lo
            if tables.ladder > 1:
                self.hi = tables.hi
        self.steps = [1 << i for i in reversed(range(tables.ladder))]
        if lists:  # what walk() reads
            self.bucket_list, self.deg_list = tables.buckets.tolist(), tables.deg.tolist()
            if self.first is not None:
                self.first_list = self.first.tolist()
            else:
                self.target_list, self.cum_list = self.targets.tolist(), self.cum.tolist()
                self.lo_list, self.hi_list = self.lo.tolist(), tables.hi.tolist()

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

    def walk(self, u, draws):
        """The vertices that one walker from ``u`` reaches, one for each
        uniform of ``draws`` it takes: the rule of :meth:`draw` on the Python
        lists of a sampler made with ``lists`` (see :func:`network_sampler`)."""
        buckets, deg = self.bucket_list, self.deg_list
        if not self.steps:
            first = self.first_list
            for r in draws:
                u = first[buckets[u] + int(r * deg[u])]
                yield u
            return
        lo, hi, cum, targets = self.lo_list, self.hi_list, self.cum_list, self.target_list
        passes = self.steps[:-1]
        for r in draws:
            at = buckets[u] + int(r * deg[u])
            j = lo[at]
            for step in passes:
                if cum[min(j + step - 1, hi[at])] <= r:
                    j += step
            u = targets[j + (cum[j] <= r)]
            yield u


def network_sampler(net):
    """The :class:`CSRSampler` of ``net`` for one-vertex draws, made with its
    lists once per network and kept with the tables, which do not pickle it."""
    tables = _sampling_tables(net)
    if "sampler" not in vars(tables):
        tables.sampler = CSRSampler(tables, lists=True)
    return tables.sampler


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
    draws = iter(_as_rng(seed).random, None)  # one uniform a step, as the walk takes them
    out = np.empty(T + 1, dtype=np.int64)
    out[0] = u
    out[1:] = np.fromiter(network_sampler(net).walk(u, draws), np.int64, count=T)
    return Trajectory(out)


def walk_continuous(net, start, t_max, seed):
    """Sample the continuous-time walk that crosses each edge e at rate c(e).

    The holding time at ``u`` is Exponential(c(u)) and the jump target is
    drawn from the one-step kernel; a jump across a self-loop does not change
    the vertex, so it simply extends the current segment (the visible law is
    unchanged by memorylessness).  One :meth:`CSRSampler.walk` takes the
    jumps: before each uniform it reads, the walk's draws make the holding
    time at the current vertex, and they end at a rate of 0 or at ``t_max``.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    u = check_vertex(net, start)
    rng = _as_rng(seed)
    rates = net.vertex_conductance
    verts = [u]
    times = [0.0]
    t = 0.0

    def draws():
        nonlocal t
        while (rate := rates[verts[-1]]) != 0.0:
            t += rng.exponential(1.0 / rate)
            if t >= t_max:
                return
            yield rng.random()

    for v in network_sampler(net).walk(u, draws()):
        if v != verts[-1]:
            verts.append(v)
            times.append(t)
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
    """Write discrete walks as rows replica,walker,step_or_entry_time,vertex.

    ``items`` yields (replica, walker, :class:`Trajectory`); the third column
    holds the step number.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replica", "walker", "step_or_entry_time", "vertex"])
        for replica, walker, traj in items:
            for n, v in enumerate(traj.steps):
                writer.writerow([replica, walker, n, int(v)])
