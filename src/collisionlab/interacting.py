"""Continuous-time collision measure, the voter model, and coalescing walks.

The collision measure of two continuous-time trajectories is the Lebesgue
measure of the set of times at which they occupy the same vertex, computed
exactly by intersecting their holding segments.  Replicated runs
(:func:`continuous_collision_ensemble`) never build the trajectories: each
group of chunks (``_parallel.ChunkGroup``) steps its pairs as one pair
chain, with the next event at rate c(x) + c(y), adding the holding time and
the grid points it covers while x == y.

Replicated voter runs likewise step a chunk group as one state.  Each round
of either draws only for the replicas still active: chunk c draws from its
own stream for its own active replicas, joined in chunk order, so every
chunk makes the draws it would make alone.  A voter replica stays active
until consensus or ``t_max``, a pair chain until its next event passes
``t_max``.  The voter keeps only the active replicas' state, in compact
arrays, so a round costs a few numpy calls a chunk however many are active.

The voter model here rings each vertex at rate 1; on a ring the vertex
adopts the opinion of a neighbor chosen with probability proportional to
edge conductance.  Under these dynamics the opinion lineage of any vertex is
a rate-1 jump-kernel walk run backwards in time, which makes single-site
marginals equal to hitting probabilities of that walk, coalescing walks the
dual of the full process, and the stationary-measure-weighted opinion
average a martingale.  On a finite connected network the process absorbs at
consensus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import (TAG_CTCOLLIDE, TAG_VOTER, ChunkGroup, _as_rng, chunk_groups,
                        run_chunked)
from .errors import HorizonMismatchError
from .graph_core import check_vertex
from .walk_engine import (
    CSRSampler,
    JumpTrajectory,
    _sampling_tables,
    sample_step,
)
from .walk_engine import walk_continuous  # noqa: F401  perfbench traces it here


# ---------------------------------------------------------------------------
# Collision measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollisionMeasure:
    """Total occupation-time overlap and the merged equality intervals."""

    total: float
    intervals: tuple  # of (start, end), disjoint and sorted
    t_max: float


def collision_measure(jump_x: JumpTrajectory, jump_y: JumpTrajectory):
    """Lebesgue measure of {t <= t_max : X_t = Y_t}, by segment intersection."""
    if jump_x.t_max != jump_y.t_max:
        raise HorizonMismatchError(
            f"trajectories cover [0, {jump_x.t_max}] and [0, {jump_y.t_max}]"
        )
    xv, xt, xe = jump_x.vertices, jump_x.entry_times, jump_x.exit_times()
    yv, yt, ye = jump_y.vertices, jump_y.entry_times, jump_y.exit_times()
    intervals = []
    i = j = 0
    while i < len(xv) and j < len(yv):
        lo = max(xt[i], yt[j])
        hi = min(xe[i], ye[j])
        if hi > lo and xv[i] == yv[j]:
            if intervals and intervals[-1][1] == lo:
                intervals[-1] = (intervals[-1][0], float(hi))
            else:
                intervals.append((float(lo), float(hi)))
        if xe[i] <= ye[j]:
            i += 1
        else:
            j += 1
    total = float(sum(e - s for s, e in intervals))
    return CollisionMeasure(total=total, intervals=tuple(intervals), t_max=jump_x.t_max)


def discretization_integral(jump_x, jump_y, grid):
    """Average over offsets s in [0, 1) of #{n : X_{n+s} = Y_{n+s}, n+s <= t_max}.

    This left-endpoint Riemann sum converges to the exact collision measure
    as ``grid`` grows; the error is at most one grid cell per discontinuity
    of the per-offset count.
    """
    if grid < 1:
        raise ValueError("grid must be at least 1")
    if jump_x.t_max != jump_y.t_max:
        raise HorizonMismatchError(
            f"trajectories cover [0, {jump_x.t_max}] and [0, {jump_y.t_max}]"
        )
    t_max = jump_x.t_max
    offsets = np.arange(grid) / grid
    n = np.arange(int(np.floor(t_max)) + 2)
    q = offsets[:, None] + n[None, :]
    q = q[q <= t_max]
    eq = jump_x.vertex_at(q) == jump_y.vertex_at(q)
    return float(eq.sum()) / grid


# ---------------------------------------------------------------------------
# Voter model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VoterConfiguration:
    """Opinion in {0, 1} for every vertex, at a point in time."""

    opinions: np.ndarray
    time: float


def _initial_opinions(net, initial):
    ops = initial.opinions if isinstance(initial, VoterConfiguration) else initial
    ops = np.asarray(ops, dtype=np.int8)
    if ops.shape != (net.vertex_count,):
        raise ValueError("initial opinions must cover every vertex")
    if not np.isin(ops, (0, 1)).all():
        raise ValueError("opinions must be 0 or 1")
    return ops


def voter_simulate(net, initial, t_max, seed):
    """Run one voter trajectory until consensus or ``t_max``.

    Returns (final configuration, consensus time or None).  The consensus
    time is 0.0 when the initial configuration is already constant.
    """
    ops = _initial_opinions(net, initial)
    opinions, _, when = _voter_batch(net, ops, t_max, ChunkGroup([_as_rng(seed)], (1,)))
    if np.isnan(when[0]):
        return VoterConfiguration(opinions[0], float(t_max)), None
    return VoterConfiguration(opinions[0], float(when[0])), float(when[0])


def _voter_batch(net, initial, t_max, group):
    """Voter runs of every replica of ``group``, one active set for all its chunks.

    Each round, every active replica rings a uniform vertex after an
    Exponential(V) wait; chunk c draws its waits, vertices and uniforms, in
    that order, for its own active replicas from its own generator.  The
    active replicas' clocks, one-counts and row starts are compact arrays
    aligned with ``k``, filtered only when a replica leaves.  Waits are drawn
    in place: ``exponential(1 / V)`` is ``1 / V`` times
    ``standard_exponential``, so the scaled standard draws are the same doubles.
    """
    V = net.vertex_count
    size = group.size
    sampler = CSRSampler(_sampling_tables(net))
    opinions = np.tile(initial, (size, 1))
    flat = opinions.reshape(-1)  # replica k's vertex u is flat[k * V + u]
    ones = opinions.sum(axis=1, dtype=np.int64)
    cons_val = np.full(size, -1, dtype=np.int8)
    cons_time = np.full(size, np.nan)
    consensus = np.isin(np.arange(V + 1), (0, V))  # by one-count
    settled = consensus[ones]
    cons_val[settled] = (ones[settled] > 0).astype(np.int8)
    cons_time[settled] = 0.0
    k = np.flatnonzero(~settled)
    t, count, row = np.zeros(k.size), ones[k], k * V
    waits, uniforms = np.empty(k.size), np.empty(k.size)
    while k.size:
        # each active chunk draws into its own slices of dt and r, which hold
        # until a replica leaves
        n = k.size
        dt, r = waits[:n], uniforms[:n]
        chunks = [(rng, dt[lo:hi], r[lo:hi]) for rng, lo, hi in group.parts(k)]
        while k.size == n:
            u = []
            for rng, dt_c, r_c in chunks:
                rng.standard_exponential(out=dt_c)
                u.append(rng.integers(0, V, dt_c.size))
                rng.random(out=r_c)
            u = u[0] if len(u) == 1 else np.concatenate(u)
            dt *= 1.0 / V
            t += dt
            if t.max() > t_max:
                alive = t <= t_max
                k, t, count, row, u, r = (a[alive] for a in (k, t, count, row, u, r))
            at_u = row + u
            new = flat[row + sampler.draw(u, r)]
            count += new - flat[at_u]
            flat[at_u] = new
            done = consensus[count]
            if done.any():
                cons_val[k[done]] = count[done] > 0
                cons_time[k[done]] = t[done]
                k, t, count, row = (a[~done] for a in (k, t, count, row))
    return opinions, cons_val, cons_time


def _voter_chunk(payload):
    net, initial, t_max, seed, first, sizes = payload
    return _voter_batch(net, initial, t_max, ChunkGroup.streams(seed, TAG_VOTER, first, sizes))


@dataclass(frozen=True)
class VoterEnsembleResult:
    """Replica-level voter outcomes; consensus_value is -1 when not reached."""

    final_opinions: np.ndarray  # (replicas, V) configuration at min(consensus, t_max)
    consensus_value: np.ndarray  # (replicas,) in {-1, 0, 1}
    consensus_time: np.ndarray  # (replicas,) NaN when consensus was not reached
    t_max: float
    seed: int

    @property
    def replicas(self):
        return self.final_opinions.shape[0]

    def consensus_fraction(self):
        return float((self.consensus_value >= 0).mean())


def voter_ensemble(net, initial, t_max, replicas, seed, workers=1):
    """Replicated voter runs with worker-count-independent results."""
    ops = _initial_opinions(net, initial)
    payloads = [
        (net, ops, float(t_max), int(seed), first, sizes)
        for first, sizes in chunk_groups(replicas, workers)
    ]
    final = np.empty((replicas, net.vertex_count), dtype=np.int8)
    value = np.empty(replicas, dtype=np.int8)
    when = np.empty(replicas)
    done = 0
    for opinions, cons_val, cons_time in run_chunked(_voter_chunk, payloads, workers=workers):
        rows = slice(done, done + len(cons_val))
        final[rows], value[rows], when[rows] = opinions, cons_val, cons_time
        done = rows.stop
    return VoterEnsembleResult(final_opinions=final, consensus_value=value,
                               consensus_time=when, t_max=float(t_max), seed=int(seed))


def dual_walker_positions(net, start, t, replicas, seed):
    """Positions at time ``t`` of rate-1 jump-kernel walks from ``start``.

    This is the opinion-lineage walk of the voter model: the chance that a
    vertex holds opinion 1 at time t equals the chance that this walk sits on
    an initially-1 vertex at time t.  Jump counts are Poisson(t).
    """
    start = check_vertex(net, start)
    rng = _as_rng(seed)
    sampler = CSRSampler(_sampling_tables(net))
    jumps = rng.poisson(t, replicas)
    pos = np.full(replicas, start, dtype=np.int64)
    for step in range(int(jumps.max(initial=0))):
        act = np.flatnonzero(jumps > step)
        r = rng.random(act.size)
        pos[act] = sampler.draw(pos[act], r)
    return pos


# ---------------------------------------------------------------------------
# Coalescing walks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoalescingResult:
    """Partition of walkers into coalesced groups and their positions at t_max."""

    partition: tuple  # of tuples of walker ids, each sorted, ordered by minimum
    positions: tuple  # per-walker vertex at t_max
    t_max: float


def coalescing_walks(net, starts, t_max, seed):
    """Rate-1 jump-kernel walks that merge permanently upon meeting.

    Walkers sharing a start coalesce at time 0.  Merged walkers move as one
    cluster (carried by the minimal walker id) at rate 1.
    """
    starts = [int(s) for s in starts]
    k = len(starts)
    if k == 0:
        raise ValueError("at least one walker is required")
    label = np.arange(k)  # smallest walker id of each walker's cluster
    occupied = {}
    for i, s in enumerate(starts):
        label[i] = occupied.setdefault(s, i)
    positions = {i: s for s, i in occupied.items()}
    roots = sorted(positions)
    rng = _as_rng(seed)
    t = 0.0
    while True:
        m = len(roots)
        t += rng.exponential(1.0 / m)
        if t > t_max:
            break
        root = roots[int(rng.integers(m))]
        old = positions[root]
        v = sample_step(net, old, rng)
        if v == old:
            continue
        del occupied[old]
        if v in occupied:
            keep, drop = sorted((root, occupied[v]))
            label[label == drop] = keep
            positions.pop(drop)
            positions[keep] = v
            occupied[v] = keep
            roots = sorted(positions)
        else:
            occupied[v] = root
            positions[root] = v
    partition = tuple(tuple(np.flatnonzero(label == r).tolist()) for r in roots)
    pos = tuple(positions[r] for r in label.tolist())
    return CoalescingResult(partition=partition, positions=pos, t_max=float(t_max))


# ---------------------------------------------------------------------------
# Replicated continuous-time collision experiments
# ---------------------------------------------------------------------------


def _ct_chunk(payload):
    """(measure, grid integral) rows of one chunk group, run as one pair chain."""
    net, start, t_max, grid, seed, first, sizes = payload
    size = sum(sizes)
    rates = net.vertex_conductance
    last_tick = np.floor(t_max * grid) + 1  # the grid includes t_max itself
    if rates[start] == 0.0:  # a single vertex with no edges: the pair never moves
        return np.tile([t_max, last_tick / grid], (size, 1))
    group = ChunkGroup.streams(seed, TAG_CTCOLLIDE, first, sizes)
    sampler = CSRSampler(_sampling_tables(net))
    measure = np.zeros(size)
    ticks = np.zeros(size)
    # the replicas still running, with their pair state and clock
    idx = np.arange(size)
    x = np.full(size, start, dtype=np.int64)
    y = x.copy()
    t = np.zeros(size)
    while idx.size:
        cx = rates[x]
        total = cx + rates[y]
        parts = group.parts(idx)
        e = t + np.concatenate([rng.exponential(1.0 / total[lo:hi]) for rng, lo, hi in parts])
        r = np.concatenate([rng.random((2, hi - lo)) for rng, lo, hi in parts], axis=1)
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


def continuous_collision_ensemble(net, start, t_max, grid, replicas, seed, workers=1):
    """Per-replica (exact measure, grid integral) for pairs of rate-c walks.

    Each chunk group runs one pair chain over its replicas (Gillespie): the pair
    (x, y) waits an Exponential(c(x) + c(y)) time, then x jumps with
    probability c(x) / (c(x) + c(y)) and y otherwise, by one sampler draw.
    By memorylessness this is the law of two independent walks that hold at
    ``u`` for an Exponential(c(u)) time, as :func:`walk_continuous` samples
    them.  While x == y the holding time adds to the measure, and the grid
    points k / ``grid`` inside it (t_max included) are counted in O(1), so
    row i holds what :func:`collision_measure` and
    :func:`discretization_integral` give for the pair's two trajectories.
    Tick counts stay exact while ``grid * t_max < 2**53``.
    """
    start = check_vertex(net, start)
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if grid < 1:
        raise ValueError("grid must be at least 1")
    if grid * t_max >= 2**53:
        raise ValueError("grid * t_max must be below 2**53")
    payloads = [
        (net, start, float(t_max), int(grid), int(seed), first, sizes)
        for first, sizes in chunk_groups(replicas, workers)
    ]
    table = np.empty((replicas, 2))
    done = 0
    for piece in run_chunked(_ct_chunk, payloads, workers=workers):
        table[done:done + len(piece)] = piece
        done += len(piece)
    return table
