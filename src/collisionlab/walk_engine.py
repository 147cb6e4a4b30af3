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
needs and single draws bisect.  Where every range is one index (unit-conductance
tori, percolation clusters, spanning trees) a draw is one gather.
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


class SamplingTables(tuple):
    """The arrays ``(offsets, targets, cum)``, which unpack as a 3-tuple, and their guide.

    Row ``u`` (offset ``o``, ``d`` entries) has ``d`` buckets and ``r`` falls in
    ``b = int(r * deg[u]) < d``, one float product at build and at draw time.
    Its draw lies in ``[lo[o + b], hi[o + b]]`` (int32 arrays): ``lo`` counts
    the entries ``<= r`` for every ``r`` of the bucket, ``hi`` those ``<= r``
    for some.  ``ladder`` is the bit length of the widest range; only at 0,
    where ``lo == hi``, is there ``first = targets[lo]``, each bucket's draw.
    """


def _sampling_tables(net: Network):
    """CSR (offsets, targets, cum) tables and their guide for one-step sampling, cached.

    ``offsets`` and ``targets`` are the network's aggregated adjacency; ``cum``
    holds each row's running conductance sum divided by the row total, the
    row's last entry pinned to 1.0 so a uniform draw in [0, 1) always selects
    a real neighbor.  Memory is O(E) whatever the degrees.  The running sums
    are built in column passes, left to right within every row, so they
    equal a per-row ``np.cumsum`` bit for bit.  A single-vertex network with
    no edges gets one self-loop row.  Entry ``j`` counts in ``hi`` from bucket
    ``int(cum[j] * d)`` on and in ``lo`` past ``int(prev(cum[j]) * d)``; keyed
    ``o + b``, one running count serves all rows.
    """
    if net._tables is None:
        offsets, targets, weights = net.adjacency_csr()
        if targets.size == 0:
            offsets, targets, weights = (
                np.array([0, 1]), np.zeros(1, dtype=np.int64), np.ones(1)
            )
        degs = np.diff(offsets)
        cum = weights.copy()
        rows = np.arange(degs.size)
        for k in range(1, int(degs.max())):
            rows = rows[degs[rows] > k]
            at = offsets[rows] + k
            cum[at] += cum[at - 1]
        cum /= np.repeat(cum[offsets[1:] - 1], degs)
        cum[offsets[1:] - 1] = 1.0
        t = SamplingTables((offsets, targets, cum))
        t.deg = degs.astype(float)
        below = np.maximum(cum.view(np.int64) - 1, 0).view(float)  # prev(cum), 0 kept
        d, o, n = np.repeat(t.deg, degs), np.repeat(offsets[:-1], degs), cum.size
        t.hi, t.lo = (np.bincount((c * d).astype(np.int64) + o + k, minlength=n + 1)[:n]
                      .cumsum(dtype=np.int32) for c, k in ((cum, 0), (below, 1)))
        t.ladder = int((t.hi - t.lo).max()).bit_length()
        if t.ladder == 0:
            t.first = targets[t.lo]
        net._tables = t
    return net._tables


class CSRSampler:
    """Batched one-step draws over the tables of :func:`_sampling_tables`.

    With an empty ladder the draw is ``first`` at the bucket, one gather.
    Otherwise it reads the bucket's guide range ``[lo, hi]``, and ``pos``, the
    last index known to hold a cumulative value ``<= r`` (``lo - 1`` at
    first), tries steps of 2^(p-1), ..., 2, 1 clamped to ``hi``, p =
    ``ladder``.  ``cum[hi] > r``, so a clamped probe never moves ``pos``; the
    drawn neighbor is ``targets[pos + 1]``.
    """

    def __init__(self, tables):
        self.offsets, self.deg = tables[0], tables.deg
        self.first = getattr(tables, "first", None)
        if self.first is None:  # a pickled ladder-0 sampler carries only what it reads
            self.targets, self.cum, self.lo, self.hi = *tables[1:], tables.lo, tables.hi
        self.steps = [1 << i for i in reversed(range(tables.ladder))]

    def draw(self, u, r):
        """Vertices reached from the vertices ``u`` with the uniforms ``r``."""
        at = (r * self.deg[u]).astype(np.int64)
        at += self.offsets[u]
        if self.first is not None:
            return self.first[at]
        pos, end, cum = self.lo[at] - 1, self.hi[at], self.cum
        for step in self.steps:
            probe = np.minimum(pos + step, end)
            pos = np.where(cum[probe] <= r, probe, pos)
        return self.targets[pos + 1]


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
    offsets, targets, cum = tables = _sampling_tables(net)
    r = rng.random()
    at = offsets.item(u) + int(r * tables.deg.item(u))
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
