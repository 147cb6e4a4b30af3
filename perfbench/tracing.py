"""Spans around the calls into each collisionlab module, recorded from outside.

:class:`Tracer` replaces a fixed set of public entry points with wrappers
for the duration of a ``with`` block.  A name that a caller imported
directly (``from .walk_engine import walk_continuous``) is wrapped where that
caller looks it up.  Each call records a span ``[name, start, end, parent,
op, work, ok]``; ``work`` is the count measured at the same boundary
(walkers advanced, jumps, segments, table bytes, chunks).  Spans stay in
memory until :meth:`Tracer.save`.

Run traced passes with ``workers=1``: chunks sent to worker processes would
record their spans in the worker.
"""

from __future__ import annotations

import functools
import json
import pickle
import time
from collections import defaultdict

import numpy as np

GEN_SPANS = ("models.gen_path_segment", "models.gen_grid_box", "models.gen_comb",
             "models.gen_torus", "models.gen_percolation_cluster", "models.gen_wilson_ust")
BUILD_SPANS = ("graph_core.build_network", "graph_core.network_from_json")
Q0_SPANS = ("collision_stats.q0_profile_all", "collision_stats.q0_profile")


def _batch(args, out):
    return args[1].shape[0]


def _tables_bytes(args, out):
    return sum(a.nbytes for a in out)


def _jumps(args, out):
    return out.vertices.size - 1


def _segments(args, out):
    return args[0].vertices.size + args[1].vertices.size


def _chunks(args, out):
    return len(args[1])


def _targets(mods):
    """(owner, attribute, span name, work counter) for every wrapped entry point."""
    ec, md, gc, we = mods["experiment_cli"], mods["models"], mods["graph_core"], mods["walk_engine"]
    cs, mc, it = mods["collision_stats"], mods["mtp_check"], mods["interacting"]
    return [
        (ec, "run", "experiment_cli.run", None),
        (ec, "_raise_violations", "experiment_cli.validate", None),
        (ec, "resolve_graph", "experiment_cli.resolve_graph", None),
        (ec, "gen_percolation_cluster", "models.gen_percolation_cluster", None),
        (ec, "gen_torus", "models.gen_torus", None),
        (ec, "gen_wilson_ust", "models.gen_wilson_ust", None),
        (md, "gen_path_segment", "models.gen_path_segment", None),
        (md, "gen_grid_box", "models.gen_grid_box", None),
        (md, "gen_comb", "models.gen_comb", None),
        (md.PathLattice, "advance", "models.PathLattice.advance", _batch),
        (md.GridLattice, "advance", "models.GridLattice.advance", _batch),
        (md.CombLattice, "advance", "models.CombLattice.advance", _batch),
        (md, "build_network", "graph_core.build_network", None),
        (ec, "network_from_json", "graph_core.network_from_json", None),
        (gc.Network, "one_step_matrix", "graph_core.one_step_matrix", None),
        (we, "_sampling_tables", "walk_engine.sampling_tables", _tables_bytes),
        (it, "_sampling_tables", "walk_engine.sampling_tables", _tables_bytes),
        (we.NetworkStepper, "advance", "walk_engine.NetworkStepper.advance", _batch),
        (it, "walk_continuous", "walk_engine.walk_continuous", _jumps),
        (ec, "walk_pair", "walk_engine.walk_pair", None),
        (ec, "collision_growth", "collision_stats.collision_growth", None),
        (cs, "_growth_chunk", "collision_stats.growth_chunk", None),
        (ec, "last_collision_identity", "collision_stats.last_collision_identity", None),
        (cs, "q0_profile_all", "collision_stats.q0_profile_all", None),
        (mc, "q0_profile_all", "collision_stats.q0_profile_all", None),
        (cs, "q0_profile", "collision_stats.q0_profile", None),
        (ec, "check_mtp", "mtp_check.check_mtp", None),
        (mc.MassTransport, "matrix", "mtp_check.transport_matrix", None),
        (ec, "voter_ensemble", "interacting.voter_ensemble", None),
        (it, "_voter_chunk", "interacting.voter_chunk", None),
        (ec, "continuous_collision_ensemble", "interacting.continuous_collision_ensemble", None),
        (it, "_ct_chunk", "interacting.ct_chunk", None),
        (it, "collision_measure", "interacting.collision_measure", _segments),
        (it, "discretization_integral", "interacting.discretization_integral", None),
        (cs, "run_chunked", "_parallel.run_chunked", _chunks),
        (it, "run_chunked", "_parallel.run_chunked", _chunks),
    ]


class _ByteCounter:
    def __init__(self):
        self.n = 0

    def write(self, data):
        self.n += len(data)


def pickled_size(obj):
    """Bytes ``obj`` pickles to, counted without holding the pickle."""
    counter = _ByteCounter()
    pickle.Pickler(counter).dump(obj)
    return counter.n


class Tracer:
    """Records spans while installed; ``op`` tags each span with the op it serves."""

    def __init__(self, mods):
        self.mods = mods
        self.spans = []
        self.op = -1
        self.captures = defaultdict(dict)  # op -> results seen at layer boundaries
        self.payload_bytes = 0
        self._stack = []
        self._pending_payloads = []
        self._saved = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "walk_engine.sampling_tables" and args[0]._tables is not None:
                return fn(*args, **kwargs)  # cached: no build happens
            if name == "_parallel.run_chunked":
                tracer._pending_payloads.append(args[1])
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, tracer.op, 0, ok]
            if work is not None:
                spans[idx][5] = work(args, out)
            if name == "collision_stats.collision_growth":
                tracer.captures[tracer.op]["counts"] = out.counts
            elif name == "interacting.continuous_collision_ensemble":
                tracer.captures[tracer.op]["table"] = out
            return out

        return wrapper

    def __enter__(self):
        for owner, attr, name, work in _targets(self.mods):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, work))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def end_op(self):
        """Count the pickled chunk payloads of the op just run, outside any span."""
        for payloads in self._pending_payloads:
            self.payload_bytes += sum(pickled_size(p) for p in payloads)
        self._pending_payloads.clear()

    def save(self, path, meta):
        """Write the spans as compressed columns, with a name table and ``meta``."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        np.savez_compressed(
            path,
            name=np.array([code[n] for n in cols[0]], dtype=np.int16),
            start=np.array(cols[1], dtype=float),
            end=np.array(cols[2], dtype=float),
            parent=np.array(cols[3], dtype=np.int64),
            op=np.array(cols[4], dtype=np.int32),
            work=np.array(cols[5], dtype=np.int64),
            ok=np.array(cols[6], dtype=bool),
            names=np.array(json.dumps(names)),
            meta=np.array(json.dumps(meta)),
        )


class SpanStats:
    """Per-name totals over a tracer's spans: calls, time, self time, work."""

    def __init__(self, spans):
        cover = defaultdict(float)
        for name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                cover[parent] += t1 - t0
        self.calls = defaultdict(int)
        self.dur = defaultdict(float)
        self.self_time = defaultdict(float)
        self.work = defaultdict(int)
        self.spans = spans
        for i, (name, t0, t1, parent, op, work, ok) in enumerate(spans):
            self.calls[name] += 1
            self.dur[name] += t1 - t0
            self.self_time[name] += t1 - t0 - cover[i]
            self.work[name] += work

    def outer_dur(self, group):
        """Time in spans named in ``group`` that have no ancestor in ``group``."""
        total = 0.0
        for name, t0, t1, parent, *_ in self.spans:
            if name not in group:
                continue
            while parent >= 0 and self.spans[parent][0] not in group:
                parent = self.spans[parent][3]
            if parent < 0:
                total += t1 - t0
        return total

    def failed_after_work(self):
        """Time in ``run`` calls that raised after a child other than validation ran."""
        setup = ("experiment_cli.validate", "experiment_cli.resolve_graph")
        worked = {p for name, _, _, p, *_ in self.spans if p >= 0 and name not in setup}
        return sum(t1 - t0 for i, (name, t0, t1, _, _, _, ok) in enumerate(self.spans)
                   if name == "experiment_cli.run" and not ok and i in worked)


def _per(stats, name, scale):
    return scale * stats.dur[name] / stats.work[name] if stats.work[name] else 0.0


# name, unit, workloads it is measured on, value from {workload: SpanStats},
# and the end-to-end metric it should move
PER_LAYER = [
    ("models.path_ns_per_walker_step", "ns", ("lattice_mc",),
     lambda s: _per(s, "models.PathLattice.advance", 1e9), "walker_steps_per_s"),
    ("models.grid_ns_per_walker_step", "ns", ("lattice_mc",),
     lambda s: _per(s, "models.GridLattice.advance", 1e9), "walker_steps_per_s"),
    ("models.comb_ns_per_walker_step", "ns", ("lattice_mc",),
     lambda s: _per(s, "models.CombLattice.advance", 1e9), "walker_steps_per_s"),
    ("models.gen_s", "s", ("network_mc",),
     lambda s: sum(s.self_time[n] for n in GEN_SPANS), "setup_s"),
    ("graph_core.network_build_s", "s", ("network_mc",),
     lambda s: s.outer_dur(BUILD_SPANS), "setup_s"),
    ("graph_core.dense_kernel_s", "s", ("exact_kernels",),
     lambda s: s.dur["graph_core.one_step_matrix"], "wall_s"),
    ("walk_engine.tables_s", "s", ("network_mc", "ct_voter"),
     lambda s: s.dur["walk_engine.sampling_tables"], "setup_s"),
    ("walk_engine.tables_bytes", "bytes", ("network_mc",),
     lambda s: s.work["walk_engine.sampling_tables"], "peak_rss_mb"),
    ("walk_engine.network_ns_per_walker_step", "ns", ("network_mc",),
     lambda s: _per(s, "walk_engine.NetworkStepper.advance", 1e9), "walker_steps_per_s"),
    ("walk_engine.continuous_us_per_jump", "us", ("ct_voter",),
     lambda s: _per(s, "walk_engine.walk_continuous", 1e6), "replicas_per_s"),
    ("walk_engine.jumps", "count", ("ct_voter",),
     lambda s: s.work["walk_engine.walk_continuous"], "replicas_per_s"),
    ("collision_stats.growth_self_s", "s", ("lattice_mc", "network_mc"),
     lambda s: (s.self_time["collision_stats.collision_growth"]
                + s.self_time["collision_stats.growth_chunk"]), "walker_steps_per_s"),
    ("collision_stats.q0_s", "s", ("exact_kernels",),
     lambda s: s.outer_dur(Q0_SPANS), "wall_s"),
    ("collision_stats.q0_calls", "count", ("exact_kernels",),
     lambda s: sum(s.calls[n] for n in Q0_SPANS), "wall_s"),
    ("mtp_check.transport_s", "s", ("exact_kernels",),
     lambda s: s.dur["mtp_check.transport_matrix"], "wall_s"),
    ("mtp_check.transport_builds", "count", ("exact_kernels",),
     lambda s: s.calls["mtp_check.transport_matrix"], "wall_s"),
    ("interacting.measure_us_per_segment", "us", ("ct_voter",),
     lambda s: _per(s, "interacting.collision_measure", 1e6), "replicas_per_s"),
    ("interacting.discretization_s", "s", ("ct_voter",),
     lambda s: s.dur["interacting.discretization_integral"], "replicas_per_s"),
    ("interacting.voter_s", "s", ("ct_voter",),
     lambda s: s.dur["interacting.voter_ensemble"], "replicas_per_s"),
    ("experiment_cli.validate_s", "s", None,
     lambda s: s.dur["experiment_cli.validate"], "wall_s"),
    ("experiment_cli.resolve_s", "s", None,
     lambda s: s.dur["experiment_cli.resolve_graph"], "wall_s"),
    ("experiment_cli.self_s", "s", None,
     lambda s: s.self_time["experiment_cli.run"], "wall_s"),
    ("experiment_cli.failed_after_work_s", "s", None,
     lambda s: s.failed_after_work(), "error_rate"),
]


def per_layer_metrics(stats_by_workload, workloads):
    """Each PER_LAYER metric summed over the workloads it is measured on.

    Returns a list of (name, unit, value, workloads, end-to-end metric);
    ``None`` as workloads means every workload.
    """
    out = []
    for name, unit, where, fn, moves in PER_LAYER:
        where = tuple(workloads) if where is None else where
        out.append((name, unit, sum(fn(stats_by_workload[w]) for w in where), where, moves))
    return out
