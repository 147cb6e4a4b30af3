"""Workload definitions: the fixed op lists, their seeds and generated inputs.

Every op is an ``experiment_cli`` config.  Ops come in four groups, each
loading its own layers; a workload runs one or more groups.  All seeds, and
the preferential-attachment tree file, are derived from the workload seed
given on the command line, so the program receives only generated configs
and files and the same seed always yields the same inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# Each op group states why it exists; the benchmark prints these lines.
WHY = {
    "lattice_mc": (
        "coordinate walkers on path, comb and grid load Lattice.advance, collision "
        "counting and chunk dispatch, bypassing graph_core, the sampler and exact "
        "kernels; the dump op fails"
    ),
    "network_mc": (
        "percolation, UST and a skewed-degree preferential-attachment tree load the "
        "generators, Network construction, sampling tables and NetworkStepper"
    ),
    "exact_kernels": (
        "identity and mtp load only the dense and taboo kernels, no sampling, with "
        "one op on each side of _BATCH_VERTEX_LIMIT"
    ),
    "ct_voter": (
        "the only group for interacting: one draw at a time in walk_continuous "
        "and voter batches over width-4 table rows"
    ),
}

GROUPS = tuple(WHY)

# The host's speed drifts by up to half over tens of seconds, so the
# benchmark has two workloads with long runs rather than one per group.
# lattice_mc bypasses every layer that graph_mix loads beyond models,
# collision_stats and _parallel, so a change to graph_core, walk_engine,
# mtp_check or interacting should leave it unchanged.
WORKLOADS = {
    "lattice_mc": ("lattice_mc",),
    "graph_mix": ("network_mc", "exact_kernels", "ct_voter"),
}
WORKLOAD_WHY = {
    "lattice_mc": WHY["lattice_mc"],
    "graph_mix": (
        "every op on a generated graph: network sampling, the dense and taboo kernels "
        "and the interacting systems, all layers that lattice_mc bypasses"
    ),
}

PA_TREE_VERTICES = 20_000
PA_CONDUCTANCE_RANGE = (0.5, 2.0)
PA_MAX_DEGREE = (240, 260)
# largest-cluster vertex counts kept, around the median, by box size n
PERCOLATION_BAND = {200: (14_000, 17_000), 300: (32_000, 37_000)}
VOTER_REPLICAS = 2048
# sum over replica chunks of the latest consensus time kept, around the median
VOTER_BAND = (430.0, 480.0)


@dataclass
class Op:
    """One ``run()`` call of a workload, with the work it is credited with.

    ``replicas`` and ``walker_steps`` are fixed by the input, not by the
    algorithm: a Monte Carlo op counts 2 x replicas x max horizon walker
    steps; an exact op propagates the pair law of every one of its V start
    vertices for N steps, so it counts V replicas and 2 x V x N walker steps;
    ``ctcollide`` counts the expected jumps 2 x replicas x t_max x c(start).
    The voter op's update count is random, so it is credited no walker steps.
    """

    name: str
    config: dict
    check: str
    replicas: int = 0
    walker_steps: int = 0
    sizes: dict = field(default_factory=dict)


def _seed(workload_seed, *path):
    """A 63-bit seed for the stream (workload seed, path)."""
    ss = np.random.SeedSequence((int(workload_seed),) + tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def _pa_tree(rng, n):
    """Preferential-attachment tree: vertex k >= 2 attaches to an endpoint drawn
    uniformly from all earlier edge endpoints, i.e. proportionally to degree."""
    draws = rng.random(n)
    ends = [1, 0]
    edges = [(1, 0)]
    for k in range(2, n):
        target = ends[int(draws[k] * len(ends))]
        edges.append((k, target))
        ends.append(k)
        ends.append(target)
    return edges, int(np.bincount(np.asarray(ends)).max())


def write_pa_tree(path, seed, n=PA_TREE_VERTICES):
    """Write a preferential-attachment tree with conductances in ``PA_CONDUCTANCE_RANGE``.

    The sampling tables are as wide as the maximum degree, which varies
    several-fold between seeds, so trees are drawn from successive streams
    until the maximum degree lies in ``PA_MAX_DEGREE``, around its median.
    Returns the maximum degree.
    """
    for attempt in range(10_000):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        edges, maxdeg = _pa_tree(rng, n)
        if PA_MAX_DEGREE[0] <= maxdeg <= PA_MAX_DEGREE[1]:
            break
    else:
        raise RuntimeError("no preferential-attachment tree in the degree band")
    lo, hi = PA_CONDUCTANCE_RANGE
    conductance = rng.uniform(lo, hi, len(edges))
    doc = {
        "vertices": n,
        "edges": [[a, b, float(c)] for (a, b), c in zip(edges, conductance)],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return maxdeg


def percolation_seed(n, seed, band):
    """First model seed, from the stream (seed, attempt), whose cluster size is in ``band``.

    The largest critical cluster varies about five-fold in size between
    seeds, and its generation and tables cost in proportion, so the
    benchmark keeps clusters within ``band`` around the median size.
    """
    from collisionlab.models import gen_percolation_cluster

    for attempt in range(1000):
        candidate = _seed(seed, attempt)
        size = gen_percolation_cluster(n, 0.5, candidate).network.vertex_count
        if band[0] <= size <= band[1]:
            return candidate
    raise RuntimeError(f"no percolation cluster of n={n} in the size band {band}")


def voter_seed(side, replicas, seed, band):
    """First master seed, from the stream (seed, attempt), whose voter cost is in ``band``.

    A batch of replicas runs until its last replica reaches consensus, so
    the op's cost follows the sum over chunks of the latest consensus time,
    which varies about 1.5-fold between seeds; the benchmark keeps it
    within ``band`` around its median.
    """
    from collisionlab._parallel import REPLICA_CHUNK
    from collisionlab.interacting import voter_ensemble
    from collisionlab.models import gen_torus

    net = gen_torus(side).network
    initial = np.zeros(net.vertex_count, dtype=np.int8)
    initial[0] = 1  # single:0
    t_max = 50.0 * net.vertex_count ** 2  # experiment_cli's default
    for attempt in range(1000):
        candidate = _seed(seed, attempt)
        times = voter_ensemble(net, initial, t_max, replicas, candidate).consensus_time
        cost = sum(np.nanmax(times[i:i + REPLICA_CHUNK])
                   for i in range(0, replicas, REPLICA_CHUNK))
        if band[0] <= cost <= band[1]:
            return candidate
    raise RuntimeError(f"no voter seed in the cost band {band}")


def _collide(name, model, horizons, replicas, seed, check, **extra):
    config = dict(kind="collide", model=model, horizons=list(horizons),
                  replicas=replicas, master_seed=seed, **extra)
    return Op(name, config, check, replicas=replicas,
              walker_steps=2 * replicas * max(horizons))


def _exact(name, kind, model, seed, check, vertices, window, **extra):
    config = dict(kind=kind, model=model, master_seed=seed, **extra)
    return Op(name, config, check, replicas=vertices, walker_steps=2 * vertices * window)


def build_ops(workload, seed, workdir):
    """The op list of ``workload`` for ``seed``: the ops of each of its groups."""
    return [op for group in WORKLOADS[workload] for op in build_group(group, seed, workdir)]


def build_group(group, seed, workdir):
    """The op list of ``group`` for ``seed``; generated files go in ``workdir``.

    Monte Carlo ops use 1024 replicas, two 512-replica chunks, so that
    rounds are short and a timed run holds many of them, while the untimed
    two-worker pass still splits each op between the workers.  The voter op
    uses more: its cost is set by the slowest replica of each chunk, and
    more chunks average that out.
    """
    s = lambda i: _seed(seed, GROUPS.index(group), i)  # noqa: E731
    if group == "lattice_mc":
        return [
            _collide("path_R5001", {"name": "path", "R": 5001},
                     (50, 500, 5000), 1024, s(0), "path"),
            _collide("comb_R1251", {"name": "comb", "R": 1251},
                     (125, 1250), 1024, s(1), "comb_growth"),
            _collide("grid_R1251", {"name": "grid", "R": 1251},
                     (125, 1250), 1024, s(2), "grid"),
            # ROADMAP item 4: this op samples, then fails to materialize the
            # comb for the dump; it is kept so error_rate shows the defect
            _collide("comb_R2001_dump", {"name": "comb", "R": 2001},
                     (2000,), 512, s(3), "dump",
                     dump_trajectories=os.path.join(workdir, "dump.csv")),
        ]
    if group == "network_mc":
        pa_path = os.path.join(workdir, "pa_tree.json")
        maxdeg = write_pa_tree(pa_path, s(10))
        pa = _collide("pa_tree_20000", None, (25, 250), 1024, s(3), "network",
                      network_file=pa_path)
        pa.config.pop("model")
        pa.sizes = {"max_degree": maxdeg}
        perc200 = {"name": "percolation", "n": 200,
                   "seed": percolation_seed(200, s(4), PERCOLATION_BAND[200])}
        perc300 = {"name": "percolation", "n": 300,
                   "seed": percolation_seed(300, s(6), PERCOLATION_BAND[300])}
        return [
            _collide("percolation_n200", perc200, (250, 1000), 1024, s(0), "network"),
            _collide("ust_torus_64", {"name": "ust_torus", "side": 64, "seed": s(5)},
                     (250, 1000), 1024, s(1), "network"),
            # set-up heavy: generation and tables cost more than the sampling
            _collide("percolation_n300_start0", perc300, (200,), 1024, s(2), "network",
                     start=0),
            pa,
        ]
    if group == "exact_kernels":
        # V=100 takes the batched V^3 branch of q0_profile_all, V=144 and
        # V=121 the per-start loop; the seeds only enter the config echo
        return [
            _exact("identity_torus10", "identity", {"name": "torus", "side": 10}, s(0),
                   "identity", 100, 20, n_steps=20),
            _exact("identity_torus12", "identity", {"name": "torus", "side": 12}, s(1),
                   "identity", 144, 20, n_steps=20),
            _exact("mtp_qlast_grid5", "mtp", {"name": "grid", "R": 5}, s(2),
                   "mtp", 121, 20, transport="qlast:10:20"),
        ]
    if group == "ct_voter":
        return [
            Op("ctcollide_torus8", dict(kind="ctcollide", model={"name": "torus", "side": 8},
                                        t_max=10.0, grid=16, replicas=1024,
                                        master_seed=s(0)), "ctcollide",
               replicas=1024, walker_steps=2 * 1024 * 10 * 4),  # c(start) = 4
            Op("voter_torus6", dict(kind="voter", model={"name": "torus", "side": 6},
                                    initial="single:0", replicas=VOTER_REPLICAS,
                                    master_seed=voter_seed(6, VOTER_REPLICAS, s(1),
                                                           VOTER_BAND)), "voter",
               replicas=VOTER_REPLICAS),
        ]
    raise ValueError(f"unknown op group {group!r}")
