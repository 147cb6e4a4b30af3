"""Collision statistics for two independent walks.

Exact finite-horizon quantities are computed on the product chain over
ordered vertex pairs with the diagonal as taboo set:

* ``q0(v, m)``   -- both walks start at v and avoid each other at every step
  1..m (the empty window m = 0 has probability 1 by convention);
* ``qlast(u, v, n, N)`` = p_n(u, v)^2 * q0(v, N - n) -- the last meeting in
  the window [0, N] happens at time n at vertex v;
* summing qlast over all (n, v) partitions the sample space, so the total is
  exactly 1 for every start u and horizon N.

q0 for every start comes from one backward taboo recursion on V x V matrices,
h_0 = 1 and h_m = P (h_{m-1} off the diagonal) P^T with q0(v, m) = h_m[v, v]:
O(N V^3) time and O(V^2) memory for all starts together.  The p_n side of
every identity here comes from ``graph_core.kernel_powers``.  qlast for one
start is formed by :func:`horizon_estimates`; ``mtp_check.qlast_transport``
forms c(u) * qlast for every start at once.  The one size limit is
``graph_core.MEMORY_BUDGET``: :func:`q0_profile_all` checks
``graph_core.dense_bytes`` for its window before any array exists, and no
function takes a per-call cap.

Monte Carlo collision counting runs replicas in fixed chunks with per-chunk
seed streams, so the per-replica counts are independent of the worker count.
A worker steps a group of contiguous chunks (``_parallel.ChunkGroup``) as
one, its n pairs' uniforms coming from ``ChunkGroup.blocks`` in blocks of
steps: chunk c of m pairs draws k steps at once as one (k, 2, m) array, whose
row for each step is the 2m draw, x slice then y slice, it would make alone.
With a CPU to spare, a draw thread fills the next block meanwhile.  The
blocks are cut into spans that end at every horizon, and each span is
counted by one of two loops:

* the block loop, for a walker whose step does not depend on its position
  (the line and the grid, which have ``difference_steps``): both walks start
  at one code, so they meet exactly when the difference walk D = X - Y of
  their codes is back at 0.  A span's steps of D come from one call, D's
  running sum takes one add a step, and one equality and one reduce along
  the step axis count the span's zeros;
* the per-step loop, for the comb and networks: one ``advance`` per step on
  a flat pair state, x half before y half, taking a row of the span, and a
  collision wherever x == y, in an int8 tally added to the counts after each
  span of at most 127 steps.

``run_chunked`` yields one group's counts at a time, each copied into the
merged counts at once, so a run holds no other group's counts beside them.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from ._parallel import TAG_GROWTH, ChunkGroup, chunk_groups, run_chunked
from .graph_core import Network, check_vertex, dense_bytes, kernel_powers, require_memory
from .walk_engine import NetworkStepper


def q0_profile_all(net, N):
    """Matrix of q0(v, m) with shape (N + 1, V), all starts at once.

    Backward taboo recursion over pairs of starts: h_0 = 1 and
    h_m = P (h_{m-1} with its diagonal zeroed) P^T, so h_m[a, b] is the
    probability that walks from a and b avoid each other at steps 1..m and
    q0(v, m) = h_m[v, v].  Each step is two dense V x V products.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    n = net.vertex_count
    require_memory(dense_bytes(n, N), f"the dense kernels on {n} vertices")
    P = net.one_step_matrix()
    out = np.empty((N + 1, n))
    out[0] = 1.0
    h = np.ones((n, n))
    for m in range(1, N + 1):
        np.fill_diagonal(h, 0.0)
        h = P @ h @ P.T
        out[m] = h.diagonal()
    return out


def q0_profile(net, v, N):
    """Array q0(v, m) for m = 0..N; a column of :func:`q0_profile_all`."""
    v = check_vertex(net, v, "vertex")
    return q0_profile_all(net, N)[:, v]


@dataclass(frozen=True)
class HorizonEstimates:
    """Exact taboo probabilities over a finite window for one start vertex.

    ``q0[m, v]`` is q0(v, m); ``qlast[n, v]`` is the last-meeting probability
    at (n, v) for walks from ``start``; their grand total is ``identity_total``.
    """

    start: int
    horizon: int
    q0: np.ndarray
    qlast: np.ndarray
    identity_total: float


def horizon_estimates(net, u, N):
    """Bundle q0 profiles and the last-meeting table for walks from ``u``.

    ``qlast[n] = p_n(u, .)^2 * q0(., N - n)``; ``identity_total`` adds one
    dot product per n, in n order.
    """
    u = check_vertex(net, u)
    # the recursion's P is freed before kernel_powers builds its own
    prof = q0_profile_all(net, N)
    qlast = np.empty((N + 1, net.vertex_count))
    total = 0.0
    for n, row in enumerate(kernel_powers(net, N, start=u)):
        squared = row * row
        qlast[n] = squared * prof[N - n]
        total += float(squared @ prof[N - n])
    return HorizonEstimates(
        start=u, horizon=int(N), q0=prof, qlast=qlast, identity_total=total
    )


def qlast_horizon(net, u, v, n, N):
    """Probability the last meeting in [0, N] is at time n at vertex v.

    Both walks start at u; the value is p_n(u, v)^2 * q0(v, N - n).
    """
    if not 0 <= n <= N:
        raise ValueError("need 0 <= n <= N")
    v = check_vertex(net, v, "vertex")
    return float(horizon_estimates(net, u, N).qlast[n, v])


def last_collision_identity(net, u, N):
    """The last-collision partition total for a single start vertex."""
    return horizon_estimates(net, u, N).identity_total


def last_collision_identity_all(net, N):
    """Vector over starts u of sum_{n<=N} sum_v p_n(u,v)^2 q0(v, N-n).

    Decomposing by the time and place of the last meeting partitions the
    pair-path space, so every entry equals 1 up to floating-point error.
    """
    prof = q0_profile_all(net, N)
    total = np.zeros(net.vertex_count)
    for n, Pn in enumerate(kernel_powers(net, N)):
        total += (Pn * Pn) @ prof[N - n]
    return total


# ---------------------------------------------------------------------------
# Monte Carlo collision growth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthStatistics:
    horizon: int
    mean: float
    median: float
    q10: float
    q90: float
    replicas: int
    seed: int


@dataclass(frozen=True)
class GrowthResult:
    """Per-horizon collision-count statistics plus the retained raw counts."""

    horizons: tuple
    counts: np.ndarray  # shape (len(horizons), replicas)
    stats: tuple
    seed: int


# bytes of one span of the running difference walk D: 16 steps at 1,024 pairs
SPAN_BYTES = 2**17


def _pair_counter(stepper, origin, counters):
    """The per-step loop: ``count(span)`` adds a span's meetings to ``counters``.

    The (2, n) pair state takes one ``advance`` a step, on a row of the
    span's draws, and each step's meetings x == y are added, as bytes, into
    an int8 tally, which the span then adds to the counts: a span is at most
    127 steps, the most the tally can hold.  Returns (count, widest span).
    """
    size = counters.size
    state = np.repeat(origin, size)
    x, y = state[:size], state[size:]
    met = np.empty(size, dtype=bool)
    tally, met_bytes = np.zeros(size, dtype=np.int8), met.view(np.int8)

    def count(span):
        for r in span.reshape(len(span), -1):
            stepper.advance(state, r)
            np.equal(x, y, out=met)
            np.add(tally, met_bytes, out=tally)
        np.add(counters, tally, out=counters)
        tally.fill(0)

    return count, 127


def _difference_counter(walker, origin, counters):
    """The block loop: ``count(span)`` adds a span's meetings to ``counters``.

    The walks meet when the difference walk D = X - Y of their codes is 0.
    ``walker.difference_steps`` writes a span's steps of D in one call, one
    add a step makes D's running sum, and one equality and one reduce along
    the step axis count the span's zeros.  On the grid D = dx * 2^32 + dy
    with |dx|, |dy| <= 2T < 2^32, and int64 sums are exact modulo 2^64, so
    D is 0 only when dx and dy both are: a D that wraps never reads a false
    0.  Returns (count, widest span), the span sized by ``SPAN_BYTES``.
    """
    size = counters.size
    width = max(1, SPAN_BYTES // (8 * size))
    walk = np.empty((width + 1, size), dtype=np.int64)  # row 0: D before the span
    walk[0] = origin[0] - origin[1]
    rows = list(walk)
    met = np.empty((width, size), dtype=bool)

    def count(span):
        s = len(span)
        walker.difference_steps(span, walk[1:s + 1])
        for before, row in zip(rows, rows[1:s + 1]):
            np.add(before, row, out=row)
        np.equal(walk[1:s + 1], 0, out=met[:s])
        np.add(counters, np.add.reduce(met[:s], axis=0, dtype=counters.dtype), out=counters)
        walk[0] = walk[s]

    return count, width


def _growth_chunk(payload):
    """Collision counts at each horizon for one chunk group.

    The group's blocks of draws are cut into spans that end at every
    horizon, and each span is counted by the block loop when the walker has
    ``difference_steps`` and by the per-step loop otherwise.  The counts are
    int32 while the last horizon fits, so the group's result crosses a
    process boundary at half the size.
    """
    stepper, origin, horizons, seed, first, sizes, processes = payload
    group = ChunkGroup.streams(seed, TAG_GROWTH, first, sizes)
    dtype = np.int32 if horizons[-1] < 1 << 31 else np.int64
    counters = np.zeros(group.size, dtype=dtype)
    out = np.empty((len(horizons), group.size), dtype=dtype)
    counter = _difference_counter if hasattr(stepper, "difference_steps") else _pair_counter
    count, width = counter(stepper, origin, counters)
    walked, block, lo = 0, (), 0
    # closed on the way out, so a draw thread never outlives the group
    with closing(group.blocks(2, horizons[-1], processes)) as blocks:
        for i, h in enumerate(horizons):  # ascending
            while walked < h:
                if lo == len(block):
                    block, lo = next(blocks), 0
                hi = min(len(block), lo + width, lo + h - walked)
                count(block[lo:hi])
                walked += hi - lo
                lo = hi
            out[i] = counters
    return out


def _resolve_pair(graph, start):
    """One stepper for both walks and the start codes (x, y) of every pair."""
    if isinstance(graph, Network):
        if start is None:
            raise ValueError("start vertex is required for an explicit network")
        sx, sy = start if isinstance(start, tuple) else (start, start)
        stepper = NetworkStepper(graph, sx)  # steppers keep no walk state
        return stepper, np.array([stepper.start, check_vertex(graph, sy)])
    if hasattr(graph, "advance") and hasattr(graph, "new_state"):
        if start is not None:
            raise ValueError(
                "lattice walkers always start both walks at the center; "
                "materialize the network to use another start"
            )
        return graph, graph.new_state(2)
    raise TypeError(f"cannot run pair walks on {type(graph).__name__}")


def collision_growth(
    graph,
    start,
    horizons,
    replicas,
    seed,
    workers=1,
):
    """Monte Carlo statistics of the collision count at each horizon.

    ``graph`` is either an explicit :class:`Network` (with ``start``) or a
    lattice coordinate walker.  ``start`` may be a single vertex (both walks
    begin there) or a pair of vertices; counts at each horizon come from one
    continued run.  When the walker carries a truncation certificate,
    horizons beyond the certified range raise.
    """
    horizons = sorted(int(h) for h in horizons)
    if not horizons or horizons[0] < 0:
        raise ValueError("horizons must be nonnegative")
    certificate = getattr(graph, "certificate", None)
    if certificate is not None:
        for T in horizons:
            certificate.require(T)
    stepper, origin = _resolve_pair(graph, start)
    groups = chunk_groups(replicas, workers)
    # run_chunked steps this many groups at once, one a process
    processes = max(1, min(workers, len(groups)))
    payloads = [
        (stepper, origin, tuple(horizons), int(seed), first, sizes, processes)
        for first, sizes in groups
    ]
    counts = np.empty((len(horizons), replicas), dtype=np.int64)
    done = 0
    for piece in run_chunked(_growth_chunk, payloads, workers=workers):
        counts[:, done:done + piece.shape[1]] = piece
        done += piece.shape[1]
        del piece  # not held while the next group runs
    stats = tuple(
        GrowthStatistics(
            horizon=h,
            mean=float(counts[i].mean()),
            median=float(np.median(counts[i])),
            q10=float(np.quantile(counts[i], 0.10)),
            q90=float(np.quantile(counts[i], 0.90)),
            replicas=int(replicas),
            seed=int(seed),
        )
        for i, h in enumerate(horizons)
    )
    return GrowthResult(
        horizons=tuple(horizons), counts=counts, stats=stats, seed=int(seed)
    )

