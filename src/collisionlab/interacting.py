"""Continuous-time collision measure and the voter model.

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
chunk makes the draws it would make alone.  A pair chain stays active until
its next event passes ``t_max``.  The voter runs as a jump chain with no
clock: a replica's rings up to ``t_max`` are a Poisson(V·t_max) number of
events, drawn up front as its budget, and a round makes one event of every
active replica from one uniform pair, the rung vertex and the neighbor it
copies.  Rounds run in blocks of up to ``BLOCK_STEPS``: a block costs one
generator call a chunk and one neighbor lookup for all its rounds, and a
round only the copies, one gather and one scatter however many replicas
are active; the one-counts are brought up to date at the block's end.  A
replica stays active until consensus or until its budget is spent, checked
at block ends, and the consensus times are drawn afterwards from the event
counts (:func:`_voter_batch`).  The voter keeps only the active replicas'
state, in compact arrays.

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

from ._parallel import (BLOCK_STEPS, TAG_CTCOLLIDE, TAG_VOTER, ChunkGroup, _as_rng,
                        chunk_groups, run_chunked)
from .errors import HorizonMismatchError
from .graph_core import check_vertex
from .walk_engine import CSRSampler, JumpTrajectory, _sampling_tables
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


# numpy's ``Generator.poisson`` refuses a mean above this (``POISSON_LAM_MAX``)
POISSON_MEAN_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


def check_event_budget(vertex_count, t_max):
    """ValueError unless t_max > 0 and V·t_max, a voter replica's mean event
    budget, is below :data:`POISSON_MEAN_MAX`; t_max = inf draws no budget."""
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    mean = vertex_count * t_max
    if not np.isinf(t_max) and not mean < POISSON_MEAN_MAX:
        raise ValueError(f"V * t_max = {mean:.4g} voter events must be below "
                         f"{POISSON_MEAN_MAX:.4g}; use a smaller t_max or t_max = inf")


def voter_simulate(net, initial, t_max, seed):
    """Run one voter trajectory until consensus or ``t_max``.

    Returns (final configuration, consensus time or None).  The consensus
    time is 0.0 when the initial configuration is already constant.
    """
    ops = _initial_opinions(net, initial)
    check_event_budget(net.vertex_count, t_max)
    opinions, _, when = _voter_batch(net, ops, t_max, ChunkGroup([_as_rng(seed)], (1,)))[:3]
    if np.isnan(when[0]):
        return VoterConfiguration(opinions[0], float(t_max)), None
    return VoterConfiguration(opinions[0], float(when[0])), float(when[0])


def _voter_batch(net, initial, t_max, group):
    """Voter runs of every replica of ``group``, one jump chain for all its chunks.

    Returns (opinions, consensus values, consensus times, total events,
    rounds stepped).  A replica's rings up to ``t_max`` are N ~
    Poisson(V·t_max) events, and given N its k-th event time is
    t_max·Beta(k, N - k + 1), the k-th of N sorted uniforms (t_max = inf: no
    N, and the time is Gamma(k) / V).  So chunk c draws from its own
    generator, for its own replicas: their budgets N in one ``poisson``
    call; then the rounds' uniform pairs; last, the times of those that
    reached consensus, in one ``beta`` (or ``standard_gamma``) call.

    Rounds run in blocks of 1, 2, 4, ... up to ``BLOCK_STEPS``, so block
    edges depend on the round index alone.  A block draws, in one
    ``random((b, n, 2))`` call per chunk for its n replicas active at the
    block's start, the b rounds' rung vertices floor(V·r0) (at most V - 1
    while V < 2**53, off uniform by a relative V·2**-53) and the neighbors
    they copy.  Round j of a replica whose budget is at most j copies its
    rung vertex's own opinion, a no-op, and a replica at consensus is
    absorbed, so the rounds a block steps past a replica's last event change
    nothing.  Only the copies run round by round, two numpy calls a round:
    one gather of the old and new opinions of every active replica, at its
    rung vertex and at the neighbor, into a byte buffer, and one scatter of
    the new ones.  At the block's end the one-counts move by the sum of new
    - old, and a replica at consensus then reached it in the block (it
    absorbs): it leaves with k = its first consensus round + 1 events, the
    round of its last nonzero new - old, since no copy changes a count at
    consensus.  One whose budget is spent leaves unreached, at its
    configuration at ``t_max``.  The active replicas' one-counts are a
    compact array aligned with ``k``, filtered only at block ends.
    """
    V = net.vertex_count
    size = group.size
    opinions = np.tile(initial, (size, 1))
    start = int(initial.sum(dtype=np.int64))
    if start in (0, V):  # every replica starts at consensus
        return opinions, np.full(size, start > 0, dtype=np.int8), np.zeros(size), 0, 0
    sampler = CSRSampler(_sampling_tables(net))
    flat = opinions.reshape(-1)  # replica k's vertex u is flat[k * V + u]
    chunks = group.parts(np.arange(size))
    finite = not np.isinf(t_max)  # else no budget: every replica runs to consensus
    budget = (np.concatenate([rng.poisson(V * t_max, hi - lo) for rng, lo, hi in chunks])
              if finite else np.full(size, np.iinfo(np.int64).max))
    events = budget.copy()  # an unreached replica spends its budget
    cons_val = np.full(size, -1, dtype=np.int8)
    consensus = np.isin(np.arange(V + 1), (0, V))  # by one-count
    k = np.flatnonzero(budget)  # a replica with no events never draws
    count = np.full(k.size, start, dtype=np.int64)
    rounds = 0
    while k.size:
        b = min(BLOCK_STEPS, rounds + 1)
        r = np.concatenate([rng.random((b, hi - lo, 2)) for rng, lo, hi in group.parts(k)],
                           axis=1)
        u = (r[..., 0] * V).astype(np.int64)
        w = sampler.draw(u, r[..., 1])
        del r
        left = budget[k]
        if left.min() < rounds + b:  # a budget runs out in this block
            np.copyto(w, u, where=left <= np.arange(rounds, rounds + b)[:, None])
        pair = np.empty((b, 2, k.size), dtype=np.int64)  # round j: u, w as indices of flat
        row = k * V
        np.add(u, row, out=pair[:, 0])
        np.add(w, row, out=pair[:, 1])
        del u, w
        got = np.empty(pair.shape, dtype=np.int8)  # round j's old and new opinions
        for p, g in zip(pair, got):
            g[...] = flat[p]
            flat[p[0]] = g[1]
        step = got[:, 1]
        step -= got[:, 0]  # new - old
        end = count + step.sum(axis=0, dtype=np.int64)
        done = consensus[end]  # consensus absorbs: reached in the block iff held at its end
        if done.any():
            d = k[done]
            cons_val[d] = end[done] > 0
            events[d] = rounds + b - (step[::-1, done] != 0).argmax(axis=0)
        del pair, got, step, p, g  # so that the next block's draws reuse their room
        rounds += b
        keep = ~done & (left > rounds)
        k, count = k[keep], end[keep]
    cons_time = np.full(size, np.nan)
    for rng, lo, hi in chunks:
        reached = np.flatnonzero(cons_val[lo:hi] >= 0) + lo
        if reached.size:
            steps = events[reached]
            cons_time[reached] = (t_max * rng.beta(steps, budget[reached] - steps + 1)
                                  if finite else rng.standard_gamma(steps) / V)
    return opinions, cons_val, cons_time, int(events.sum()), rounds


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
    events: int  # voter events simulated over all replicas
    rounds: int  # rounds stepped, summed over chunk groups

    @property
    def replicas(self):
        return self.final_opinions.shape[0]

    def consensus_fraction(self):
        return float((self.consensus_value >= 0).mean())


def voter_ensemble(net, initial, t_max, replicas, seed, workers=1):
    """Replicated voter runs with worker-count-independent results."""
    ops = _initial_opinions(net, initial)
    check_event_budget(net.vertex_count, t_max)
    payloads = [
        (net, ops, float(t_max), int(seed), first, sizes)
        for first, sizes in chunk_groups(replicas, workers)
    ]
    final = np.empty((replicas, net.vertex_count), dtype=np.int8)
    value = np.empty(replicas, dtype=np.int8)
    when = np.empty(replicas)
    done = events = rounds = 0
    for opinions, cons_val, cons_time, n, steps in run_chunked(_voter_chunk, payloads,
                                                               workers=workers):
        rows = slice(done, done + len(cons_val))
        final[rows], value[rows], when[rows] = opinions, cons_val, cons_time
        done, events, rounds = rows.stop, events + n, rounds + steps
    return VoterEnsembleResult(final_opinions=final, consensus_value=value,
                               consensus_time=when, t_max=float(t_max), seed=int(seed),
                               events=events, rounds=rounds)


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
                idx[live], x[live], y[live], e[live], cx[live], total[live],
                np.compress(live, r, axis=1),
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
