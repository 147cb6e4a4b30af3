import ast
import csv
import hashlib
import itertools
import pickle
from pathlib import Path

import numpy as np
import pytest

import nets
import oracles
from conftest import chisquare_pvalue
from collisionlab import (
    build_network,
    gen_percolation_cluster,
    gen_torus,
    gen_wilson_ust,
    n_step_kernel,
    substream_rng,
    walk_continuous,
    walk_discrete,
    walk_pair,
)
from collisionlab._parallel import TAG_PAIR
from collisionlab.walk_engine import (
    GUIDE_SPLITS,
    CSRSampler,
    NetworkStepper,
    _sampling_tables,
    network_sampler,
    write_trajectory_csv,
)


class _FixedUniforms:
    """Stand-in generator whose ``random()`` replays a fixed list."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


_SAMPLER_NETS = [
    *((f"battery{i}", net) for i, net in enumerate(nets.battery())),
    *nets.small_named(),
    ("star4000", nets.star(4000)),
    ("single_vertex", build_network(1, [])),
    ("single_vertex_loop", build_network(1, [(0, 0, 2.5)])),
    ("parallel_and_loops", nets.parallel_and_loops()),
    ("skewed_hub", nets.skewed_hub()),
]


def _walk_draws(net, u, r):
    """The draw at each ``(u, r)`` by the one-vertex form: a walk of
    ``network_sampler(net)`` from ``u`` that takes the one uniform ``r``."""
    walk = network_sampler(net).walk
    return [v for a, b in zip(u.tolist(), r.tolist()) for v in walk(a, (b,))]


def _draw_cases(net, ref, seed):
    """(u, r) pairs: every interior cumulative value, both ends of [0, 1), each
    guide bucket's edge b/deg(u) with the floats on either side of it, and a
    few uniforms per vertex."""
    rng = np.random.default_rng(seed)
    degs = np.diff(ref.offsets)
    us, rs = [], []
    for u in range(net.vertex_count):
        _, cum = ref.row(u)
        interior = cum[: max(int(degs[u]) - 1, 0)]
        edges = np.arange(max(int(degs[u]), 1)) / max(int(degs[u]), 1)
        extra = np.concatenate(
            [interior, [0.0, np.nextafter(1.0, 0.0)], rng.random(3),
             edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0)]
        )
        us.extend([u] * extra.size)
        rs.extend(extra)
    return np.array(us, dtype=np.int64), np.array(rs)


class TestSampler:
    @pytest.mark.parametrize("name,net", _SAMPLER_NETS, ids=[n for n, _ in _SAMPLER_NETS])
    def test_matches_padded_rule(self, name, net):
        ref = oracles.PaddedSampler(net)
        u, r = _draw_cases(net, ref, seed=len(name))
        expected = np.array([ref.draw(a, b) for a, b in zip(u, r)])
        assert np.array_equal(CSRSampler(_sampling_tables(net)).draw(u, r), expected)
        assert _walk_draws(net, u, r) == expected.tolist()

    @pytest.mark.parametrize("name,net", _SAMPLER_NETS, ids=[n for n, _ in _SAMPLER_NETS])
    def test_ladder_no_longer_than_binary_search(self, name, net):
        # the guide never adds passes to the ceil(log2 maxdeg) of a full-row search
        tables = _sampling_tables(net)
        maxdeg = int(np.diff(tables[0]).max())
        assert len(CSRSampler(tables).steps) <= (maxdeg - 1).bit_length()

    @pytest.mark.parametrize("make", [
        lambda: gen_torus(6).network,
        lambda: gen_torus(64).network,
        lambda: gen_percolation_cluster(60, 0.5, seed=4).network,
        lambda: gen_percolation_cluster(200, 0.5, seed=9).network,
        lambda: gen_wilson_ust(gen_torus(16).network, seed=2),
    ], ids=["torus6", "torus64", "percolation60", "percolation200", "ust16"])
    def test_unit_conductance_draw_is_one_gather(self, make):
        # rows of at most 4 unit conductances: every bucket holds its answer alone
        assert CSRSampler(_sampling_tables(make())).steps == []

    @pytest.mark.parametrize("make,fast", [
        (lambda: gen_torus(6).network, True),
        (lambda: gen_percolation_cluster(30, 0.5, seed=4).network, True),
        (lambda: build_network(1, []), True),
        # every row two entries of conductance 2: loops and parallel edges, ladder 0
        (lambda: build_network(3, [(0, 0), (0, 1), (1, 2), (2, 2), (0, 0), (1, 0), (2, 1),
                                   (2, 2)]), True),
        (nets.skewed_hub, False),
        (lambda: nets.random_connected_network(1), False),
        (nets.parallel_and_loops, False),
    ], ids=["torus6", "percolation30", "single_vertex", "unit_multigraph", "skewed_hub",
            "random_conductances", "parallel_and_loops"])
    def test_draws_match_guide_range_search(self, make, fast):
        # ``first`` exists exactly on ladder-0 tables and gives the range search's draws
        net = make()
        tables = _sampling_tables(net)
        assert (tables.ladder == 0) == fast == hasattr(tables, "first")
        u, r = _draw_cases(net, oracles.PaddedSampler(net), seed=3)
        expected = [oracles.guide_range_step(net, a, _FixedUniforms([b]))
                    for a, b in zip(u.tolist(), r.tolist())]
        assert CSRSampler(tables).draw(u, r).tolist() == expected
        assert _walk_draws(net, u, r) == expected

    def test_single_vertex_stays_put(self):
        net = build_network(1, [])
        stepper = NetworkStepper(net, 0)
        state = stepper.new_state(5)
        stepper.advance(state, np.random.default_rng(0).random(5))
        assert state.tolist() == [0] * 5
        assert walk_discrete(net, 0, 3, seed=1).steps.tolist() == [0, 0, 0, 0]

    def test_star_tables_are_linear_in_edges(self):
        # padded (V x maxdeg) tables cost 256 MB on this 4,000-edge star
        net = nets.star(4000)
        assert sum(a.nbytes for a in _sampling_tables(net)) < 1_000_000
        assert len(pickle.dumps(NetworkStepper(net, 0))) < 1_000_000


class _Replay(np.random.Generator):
    """Generator whose ``random`` replays a fixed array, one value a draw."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values, self.used = values, 0

    def random(self, size=None):
        n = 1 if size is None else size
        out = self.values[self.used:self.used + n]
        self.used += n
        return float(out[0]) if size is None else out


def _boundary_cases(net):
    """(u, r) pairs: every cumulative value of u's row and every edge b /
    deg[u] of its buckets, as many as the tables give it after any split,
    each with the floats on either side."""
    tables = _sampling_tables(net)
    offsets, _, cum = tables
    us, rs = [], []
    for u in range(net.vertex_count):
        d = tables.deg[u]
        at = np.concatenate([cum[offsets[u]:offsets[u + 1]], np.arange(int(d)) / d])
        at = np.concatenate([at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)])
        at = at[at < 1.0]
        us.extend([u] * at.size)
        rs.extend(at)
    return np.array(us, dtype=np.int64), np.array(rs)


def _tables_digest(tables):
    h = hashlib.sha256(" ".join(sorted(vars(tables))).encode())
    for a in (*tables, *(getattr(tables, k) for k in ("deg", "lo", "hi", "first")
                         if hasattr(tables, k))):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


_SPLIT_NETS = [
    ("weighted_star", nets.weighted_star()),
    ("tiny_beside_unit", nets.tiny_beside_unit()),
    ("partly_split", nets.weighted_star(60, cycle=True)),
    ("skewed_hub", nets.skewed_hub()),
]

# bases with cycles, so that the trees depend on the draws
_WILSON_NETS = [*_SPLIT_NETS[1:], ("torus5", gen_torus(5).network)]


class TestSplitGuide:
    """Rows whose buckets hold two cumulative values get 2^s times as many."""

    @pytest.mark.parametrize("name,net", _SPLIT_NETS, ids=[n for n, _ in _SPLIT_NETS])
    def test_boundary_draws_match_padded_rule(self, name, net):
        ref = oracles.PaddedSampler(net)
        u, r = _boundary_cases(net)
        expected = [ref.draw(a, b) for a, b in zip(u, r)]
        assert CSRSampler(_sampling_tables(net)).draw(u, r).tolist() == expected
        assert _walk_draws(net, u, r) == expected

    @pytest.mark.parametrize("name,net", _WILSON_NETS, ids=[n for n, _ in _WILSON_NETS])
    def test_wilson_trees_match_padded_rule(self, name, net, monkeypatch):
        # the reference walk takes at each vertex the next of that row's own
        # boundary cases; the loop gets the same uniforms in the same order.
        # torus5 is on ladder-0 tables, which the loop reads as lists
        ref = oracles.PaddedSampler(net)
        u, r = _boundary_cases(net)
        cases = {a: itertools.cycle(r[u == a].tolist()) for a in range(net.vertex_count)}
        used = []

        def step(_, a, rng):
            assert len(used) < 100_000
            used.append(next(cases[a]))
            return ref.draw(a, used[-1])

        monkeypatch.setattr(oracles, "sample_step", step)
        tree = oracles.wilson_sample_step(net).edges
        assert gen_wilson_ust(net, _Replay(np.array(used + [0.5] * 4096))).edges == tree

    @pytest.mark.parametrize("name,row,splits,ladder", [
        ("weighted_star", 1, 1, 1),
        ("tiny_beside_unit", 3, GUIDE_SPLITS, 2),
        ("partly_split", 1, 1, 1),
        ("skewed_hub", 0, GUIDE_SPLITS, 6),
    ], ids=[n for n, _ in _SPLIT_NETS])
    def test_crowded_rows_split(self, name, row, splits, ladder):
        # the row's degree times 2^splits buckets; ladders past 1 stay at the cap
        tables = _sampling_tables(dict(_SPLIT_NETS)[name])
        offsets, _, cum = tables
        degs = np.diff(offsets)
        assert tables.deg[row] == degs[row] << splits
        assert tables.ladder == ladder
        # a row splits when one of its degree's buckets holds two cumulative
        # values: the bucket of each value that the float before it shares
        crowded = []
        for u, d in enumerate(degs.tolist()):
            held = [int(c * d) for c in cum[offsets[u]:offsets[u + 1]]
                    if int(c * d) == int(np.nextafter(c, 0.0) * d)]
            crowded.append(len(set(held)) < len(held))
        assert (tables.deg != degs).tolist() == crowded
        assert sum(crowded) < (degs > 2).sum() or name != "partly_split"
        assert np.array_equal(tables.buckets, np.concatenate(([0], np.cumsum(tables.deg))))

    @pytest.mark.parametrize("name,net", _SAMPLER_NETS + _SPLIT_NETS,
                             ids=[n for n, _ in _SAMPLER_NETS + _SPLIT_NETS])
    def test_bucket_count_bounded(self, name, net):
        tables = _sampling_tables(net)
        entries = int(tables[0][-1])
        assert tables.lo.size == tables.hi.size == int(tables.buckets[-1])
        assert tables.lo.size <= 2**GUIDE_SPLITS * entries
        assert tables.lo.dtype == tables.hi.dtype == np.int32

    @pytest.mark.parametrize("make,digest", [
        (lambda: gen_torus(6).network,
         "b435f3d3bae55da344d51d70062bbe8b0225141960aaadbc94ca031cbb96b99e"),
        (lambda: gen_percolation_cluster(30, 0.5, seed=4).network,
         "c37f7d92ee54a1b63d58c22b1f9fa2028ad048f6b70c0dc5072f88d682a0a273"),
        (nets.parallel_and_loops,
         "f82f241cef167ceb281fbbed56ce10239a16110a178a83eda4769639306627a0"),
    ], ids=["torus6", "percolation30", "parallel_and_loops_ladder1"])
    def test_unsplit_tables_unchanged(self, make, digest):
        # digests of the tables built before rows could split: the same arrays
        # and attributes, and no second array of row starts
        tables = _sampling_tables(make())
        assert tables.buckets is tables[0]
        assert _tables_digest(tables) == digest


def _pa_tree(n=3000, seed=24):
    """A preferential-attachment tree with conductances uniform in [0.5, 2]:
    its hubs' rows split, most leaves' rows do not."""
    rng = np.random.default_rng(seed)
    ends, edges = [1, 0], [(1, 0, 1.0)]
    for k in range(2, n):
        target = ends[int(rng.random() * len(ends))]
        edges.append((k, target, float(rng.uniform(0.5, 2.0))))
        ends += [k, target]
    return build_network(n, edges)


def _fresh(net):
    """A copy of ``net`` with no tables built yet."""
    return build_network(net.vertex_count, np.column_stack([net.ends, net.conductances]))


_TABLE_NETS = [
    *_SAMPLER_NETS, *_SPLIT_NETS[:-1], ("torus5", gen_torus(5).network),
    ("percolation30", gen_percolation_cluster(30, 0.5, seed=4).network),
    ("pa_tree", _pa_tree()),
    *((f"random{i}", net) for i, net in enumerate(nets.battery(30, min_vertices=20,
                                                               max_vertices=200))),
]

# ladder 0, ladder 1, ladder 2 at the split cap and ladder 6
_LADDER_NETS = [("torus6", gen_torus(6).network), ("parallel_and_loops", nets.parallel_and_loops()),
                ("tiny_beside_unit", nets.tiny_beside_unit()), ("skewed_hub", nets.skewed_hub())]


class TestOneSampler:
    """The tables' guide built in one pass, and one draw rule for batched and
    one-vertex draws, against the two-pass build and the loops they replaced."""

    @pytest.mark.parametrize("name,net", _TABLE_NETS, ids=[n for n, _ in _TABLE_NETS])
    def test_tables_match_two_pass_build(self, name, net):
        tables, ref = _sampling_tables(_fresh(net)), oracles.split_rows_tables(net)
        assert vars(tables).keys() == vars(ref).keys()
        assert (tables.buckets is tables[0]) == (ref.buckets is ref[0])
        assert tables.ladder == ref.ladder
        for a, b in zip((*tables, *vars(tables).values()), (*ref, *vars(ref).values())):
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_pa_tree_splits_some_rows(self):
        tables = _sampling_tables(_fresh(_pa_tree()))
        degs = np.diff(tables[0])
        assert "_buckets" in vars(tables) and 0 < (tables.deg != degs).sum() < degs.size // 10
        assert tables.ladder == 1

    @pytest.mark.parametrize("name,net", _LADDER_NETS, ids=[n for n, _ in _LADDER_NETS])
    def test_one_vertex_form_matches_draw(self, name, net):
        tables = _sampling_tables(net)
        u, r = _boundary_cases(net)
        u = np.concatenate([u, np.repeat(np.arange(net.vertex_count), 2)])
        r = np.concatenate([r, np.tile([0.0, np.nextafter(1.0, 0.0)], net.vertex_count)])
        expected = CSRSampler(tables).draw(u, r).tolist()
        assert _walk_draws(net, u, r) == expected
        replay = _FixedUniforms(r.tolist())
        assert [oracles.guide_range_step(net, a, replay) for a in u.tolist()] == expected
        ladder = {"torus6": 0, "parallel_and_loops": 1, "tiny_beside_unit": 2, "skewed_hub": 6}
        assert tables.ladder == ladder[name]

    @pytest.mark.parametrize("make", [
        lambda: gen_torus(8).network,
        lambda: gen_percolation_cluster(12, 0.5, seed=2).network,
        nets.skewed_hub, lambda: nets.skewed_hub(hub=1),
        lambda: nets.random_connected_network(5),
        nets.parallel_and_loops, nets.tiny_beside_unit,
        lambda: nets.weighted_star(60, cycle=True),
    ], ids=["torus8", "percolation12", "skewed_hub", "skewed_hub_at_1", "random_conductances",
            "parallel_and_loops", "tiny_beside_unit", "partly_split"])
    def test_wilson_trees_match_guide_loop(self, make):
        base = make()
        for seed in (1, 2, 3):
            assert gen_wilson_ust(base, seed).edges == oracles.wilson_guide_rows(base, seed).edges

    @pytest.mark.parametrize("name,net", _LADDER_NETS, ids=[n for n, _ in _LADDER_NETS])
    def test_one_vertex_draws_pickle_nothing_more(self, name, net):
        net = _fresh(net)
        stepper, network = len(pickle.dumps(NetworkStepper(net, 0))), len(pickle.dumps(net))
        walk_discrete(net, 0, 50, seed=1)
        assert "sampler" in vars(_sampling_tables(net))
        assert len(pickle.dumps(NetworkStepper(net, 0))) == stepper
        assert len(pickle.dumps(net)) == network
        again = pickle.loads(pickle.dumps(net))
        assert walk_discrete(again, 0, 50, seed=1).steps.tolist() == \
            walk_discrete(net, 0, 50, seed=1).steps.tolist()


_GUIDE_FIELDS = {"ladder", "lo", "hi", "first", "buckets", "_buckets"}


def guide_reads(source):
    """(line, name) of every read of a guide field of the sampling tables and
    every private ``walk_engine`` name used in ``source``, but
    ``_sampling_tables``, which builds the tables (and which the benchmark's
    tracer wraps where each module looks it up)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _GUIDE_FIELDS:
            hits.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "walk_engine" and node.attr.startswith("_")):
            hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("walk_engine"):
            hits += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return [(line, name) for line, name in hits if name != "_sampling_tables"]


def test_only_walk_engine_reads_the_guide():
    # other modules draw through CSRSampler and network_sampler, never the guide
    package = Path(__file__).resolve().parents[1] / "src" / "collisionlab"
    hits = {path.name: guide_reads(path.read_text()) for path in sorted(package.glob("*.py"))
            if path.name != "walk_engine.py"}
    assert {name: found for name, found in hits.items() if found} == {}


def test_guide_guard_finds_reads():
    source = ("from . import walk_engine\nfrom .walk_engine import _guide, _sampling_tables\n"
              "t = walk_engine._sampling_tables(net)\nf = walk_engine._guide_search\n"
              "x = t.ladder + t.lo[0] + t.hi[0] + t.first[0] + t.buckets[0] + t._buckets[0]\n")
    assert sorted(guide_reads(source)) == sorted([(2, "_guide"), (4, "_guide_search"), *(
        (5, name) for name in _GUIDE_FIELDS)])


# public names that no run kind, benchmark op or acceptance test calls, each
# kept for the reason given
_UNCALLED_KEPT = {
    "voter_simulate": "the one-replica voter; its law pins and the generator-state "
                      "test hold _voter_batch through it",
    "is_bipartite": "the model digests pin the colouring it gives",
    "JumpTrajectory.restrict": "the collision-measure additivity test cuts walks with it",
    "RootLaw.sample": "the draw of a root from its law, which the root-law tests check",
    "Network.conductance_between": "the one reader of c(u, v); the spanning-tree tests "
                                   "check tree edge weights with it",
}


def uncalled_api(package, callers):
    """The public top-level functions and methods (``Class.name``) defined in
    the sources ``package`` whose name no source of ``callers`` reads: a
    function as a name, an attribute or a string, a method as an attribute
    or a string, as the benchmark's tracer names what it wraps.  Names match
    alone, so a method shares its callers with every attribute of its name,
    but not with a local variable of that name."""
    names, attributes = set(), set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    anywhere, defined = names | attributes, []
    for source in package:
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                defined.append((node.name, node.name, anywhere))
            elif isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{f.name}", f.name, attributes) for f in node.body
                            if isinstance(f, ast.FunctionDef)]
    return sorted(full for full, name, read in defined
                  if not name.startswith("_") and name not in read)


def test_src_ships_only_called_api():
    root = Path(__file__).resolve().parents[1]
    package = [p.read_text() for p in sorted((root / "src" / "collisionlab").glob("*.py"))]
    callers = package + [p.read_text() for p in sorted((root / "perfbench").glob("*.py"))] + [
        (root / "tests" / "test_acceptance.py").read_text()]
    assert uncalled_api(package, callers) == sorted(_UNCALLED_KEPT)


def test_api_guard_finds_uncalled():
    package = ("def used():\n    pass\ndef traced():\n    pass\ndef unused():\n    pass\n"
               "def _private():\n    pass\nclass K:\n    def read(self):\n        pass\n"
               "    def dropped(self):\n        pass\n    def _own(self):\n        pass\n"
               "    def shadowed(self):\n        pass\n")
    callers = [package, "used()\nk.read()\nwrap(module, 'traced')\nshadowed = 1\n"]
    assert uncalled_api([package], callers) == ["K.dropped", "K.shadowed", "unused"]


class TestStartRange:
    @pytest.mark.parametrize("start", [-1, 5])
    def test_walkers_reject_out_of_range_start(self, start):
        net = nets.path_n(5)
        with pytest.raises(ValueError, match="start"):
            NetworkStepper(net, start)
        with pytest.raises(ValueError, match="start"):
            walk_discrete(net, start, 3, seed=1)
        with pytest.raises(ValueError, match="start"):
            walk_continuous(net, start, 1.0, seed=1)


class TestSubstreamRng:
    def test_streams_differ(self):
        assert substream_rng(42, 0).random() != substream_rng(42, 1).random()
        assert substream_rng(42, 1, 0).random() != substream_rng(42, 1, 1).random()

    def test_stream_derivation_stable(self):
        assert substream_rng(42, 3, 1).random(4).tolist() == substream_rng(42, 3, 1).random(4).tolist()

    def test_walk_pair_streams_per_replica_and_walker(self):
        net = nets.triangle()
        walks = {}
        for replica in range(3):
            tx, ty = walk_pair(net, 0, 0, 30, seed=42, replica=replica)
            again = walk_pair(net, 0, 0, 30, seed=42, replica=replica)
            assert np.array_equal(tx.steps, again[0].steps)
            assert np.array_equal(ty.steps, again[1].steps)
            for walker, traj in enumerate((tx, ty)):
                rng = substream_rng(42, TAG_PAIR, replica, walker)
                assert np.array_equal(traj.steps, walk_discrete(net, 0, 30, rng).steps)
                walks[replica, walker] = tuple(traj.steps.tolist())
        assert len(set(walks.values())) == len(walks)

    def test_int_seed_draws_pinned(self):
        # an int seed is the stream (seed, 0); the hash was taken when it was
        # SeedSpec(seed).generator(), the same SeedSequence((seed, 0))
        h = hashlib.sha256()
        for net in (nets.weighted_triangle(), nets.loop_triangle(), nets.random_connected_network(3)):
            for seed in (0, 5, 2**64 - 1):
                h.update(walk_discrete(net, 0, 200, seed).steps.astype("<i8").tobytes())
                j = walk_continuous(net, 0, 20.0, seed)
                h.update(j.vertices.astype("<i8").tobytes())
                h.update(j.entry_times.astype("<f8").tobytes())
        assert h.hexdigest() == "e7737da7eb6ed760462282f09821512d35e2ab7abc43bcdc9e84264de9cbca04"

    def test_trailing_zero_names_no_new_stream(self):
        # SeedSequence pads with zeros: chunk 0 of a family is the family's
        # own stream, and a run with int seed s shares the uniforms of
        # default_rng(s), the generator of a model built with seed s
        first = substream_rng(5, TAG_PAIR, 0).random(8)
        assert np.array_equal(first, substream_rng(5, TAG_PAIR).random(8))
        assert np.array_equal(substream_rng(5, 0).random(8), np.random.default_rng(5).random(8))
        assert substream_rng(5, 0).random() == 0.8050029237453802

    def test_rejects_out_of_range(self):
        net = nets.triangle()
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="master_seed"):
                substream_rng(seed, 0)
            with pytest.raises(ValueError, match="master_seed"):
                walk_discrete(net, 0, 3, seed)
            with pytest.raises(ValueError, match="master_seed"):
                walk_continuous(net, 0, 1.0, seed)
            with pytest.raises(ValueError, match="master_seed"):
                walk_pair(net, 0, 0, 3, seed)


class TestWalkDiscrete:
    def test_single_edge_deterministic(self):
        t = walk_discrete(nets.single_edge(), 0, 3, seed=5)
        assert t.steps.tolist() == [0, 1, 0, 1]

    def test_zero_horizon(self):
        t = walk_discrete(nets.triangle(), 2, 0, seed=5)
        assert t.steps.tolist() == [2]

    def test_reproducible(self):
        a = walk_discrete(nets.weighted_triangle(), 0, 50, seed=substream_rng(9, 4))
        b = walk_discrete(nets.weighted_triangle(), 0, 50, seed=substream_rng(9, 4))
        assert np.array_equal(a.steps, b.steps)

    def test_steps_follow_edges(self):
        net = nets.weighted_triangle()
        t = walk_discrete(net, 0, 200, seed=3)
        for a, b in zip(t.steps[:-1], t.steps[1:]):
            assert net.conductance_between(int(a), int(b)) > 0

    def test_p3_one_step_split(self):
        # MC frequency of the center's two exits vs the exact half-half law
        hits = 0
        runs = 100_000
        stepper = NetworkStepper(nets.p3(), 1)
        state = stepper.new_state(runs)
        stepper.advance(state, np.random.default_rng(12).random(runs))
        hits = (state == 0).sum()
        sigma = np.sqrt(0.25 / runs)
        assert abs(hits / runs - 0.5) < 3 * sigma

    @pytest.mark.parametrize("name,net", [("p3", nets.p3()), ("wtri", nets.weighted_triangle())])
    def test_marginals_match_kernel(self, name, net):
        # empirical n-step law over many replicas vs the exact kernel row
        replicas = 100_000
        stepper = NetworkStepper(net, 0)
        state = stepper.new_state(replicas)
        rng = np.random.default_rng(77)
        for n in range(1, 6):
            stepper.advance(state, rng.random(replicas))
            row = n_step_kernel(net, n).matrix[0]
            counts = np.bincount(state, minlength=net.vertex_count)
            assert chisquare_pvalue(counts, row, replicas) > 0.001


class TestWalkContinuous:
    def test_single_segment_when_no_jump(self):
        net = nets.two_vertex(1e-9)  # tiny rate: first holding exceeds t_max
        j = walk_continuous(net, 0, 1.0, seed=8)
        assert j.vertices.tolist() == [0]
        assert j.entry_times.tolist() == [0.0]
        assert j.exit_times().tolist() == [1.0]

    def test_mean_first_holding(self):
        # holding time at a vertex of total conductance 2 is Exponential(2)
        net = nets.two_vertex(2.0)
        rng = np.random.default_rng(21)
        runs = 100_000
        total = 0.0
        for _ in range(runs):
            j = walk_continuous(net, 0, 8.0, rng)
            exits = j.exit_times()
            total += exits[0]
        mean = total / runs
        sigma = 0.5 / np.sqrt(runs)  # exponential sd equals its mean
        assert abs(mean - 0.5) < 3 * sigma + 1e-4  # tiny censoring bias at t_max=8

    @pytest.mark.parametrize("name,net", [("single_vertex", build_network(1, [])),
                                          *(_LADDER_NETS[i] for i in (0, 1, 3))],
                             ids=["single_vertex", "torus6", "parallel_and_loops", "skewed_hub"])
    def test_generator_state_after_runs(self, name, net):
        # walks on one shared Generator leave it where the scalar loop of an
        # exponential, then a uniform a jump, does: no uniform after the last
        # exponential, and no draw at all at a vertex of rate 0
        got, want = np.random.default_rng(26), np.random.default_rng(26)
        got.random(3), want.random(3)
        for k in range(60):
            start, t_max = k % net.vertex_count, (0.05, 1.0, 7.5)[k % 3]
            j = walk_continuous(net, start, t_max, got)
            verts, times = oracles.continuous_walk_loop(net, start, t_max, want)
            assert j.vertices.tolist() == verts and j.entry_times.tolist() == times
            assert got.bit_generator.state == want.bit_generator.state

    def test_marginal_matches_matrix_exponential(self):
        net = nets.weighted_triangle()
        t = 0.6
        runs = 20_000
        rng = np.random.default_rng(4)
        counts = np.zeros(3)
        for _ in range(runs):
            j = walk_continuous(net, 0, t, rng)
            counts[int(j.vertices[-1])] += 1
        exact = oracles.continuous_walk_marginal(net, 0, t)
        assert chisquare_pvalue(counts, exact, runs) > 0.001

    def test_jump_chain_matches_discrete_kernel(self):
        # the sequence of visited vertices has the law of the discrete walk;
        # only two jumps are read, and fewer happen by t = 10 with probability
        # below 1e-12 per run
        net = nets.weighted_triangle()
        rng = np.random.default_rng(14)
        runs = 20_000
        pair_counts = {}
        for _ in range(runs):
            j = walk_continuous(net, 1, 10.0, rng)
            assert len(j.vertices) >= 3
            key = (int(j.vertices[1]), int(j.vertices[2]))
            pair_counts[key] = pair_counts.get(key, 0) + 1
        P = n_step_kernel(net, 1).matrix
        keys = sorted(
            (a, b) for a in range(3) for b in range(3) if P[1, a] * P[a, b] > 0
        )
        observed = [pair_counts.get(k, 0) for k in keys]
        expected = [P[1, a] * P[a, b] for a, b in keys]
        assert chisquare_pvalue(observed, expected, runs) > 0.001

    def test_segments_contiguous(self):
        j = walk_continuous(nets.weighted_triangle(), 0, 5.0, seed=2)
        entries, exits = j.entry_times, j.exit_times()
        assert entries[0] == 0.0
        assert np.array_equal(exits[:-1], entries[1:])
        assert exits[-1] == 5.0

    def test_restrict_preserves_occupation(self):
        j = walk_continuous(nets.weighted_triangle(), 0, 6.0, seed=13)
        sub = j.restrict(2.0, 5.0)
        assert sub.t_max == 3.0
        for t in np.linspace(0.0, 2.999, 40):
            assert sub.vertex_at(t) == j.vertex_at(t + 2.0)


class TestWalkPair:
    def test_deterministic_chain(self):
        tx, ty = walk_pair(nets.single_edge(), 0, 0, 2, seed=1)
        assert tx.steps.tolist() == [0, 1, 0]
        assert ty.steps.tolist() == [0, 1, 0]

    def test_walkers_independent_streams(self):
        tx, ty = walk_pair(nets.triangle(), 0, 0, 100, seed=3)
        assert not np.array_equal(tx.steps, ty.steps)

    def test_triangle_first_step_meeting(self):
        runs = 100_000
        rng_x = np.random.default_rng(100)
        rng_y = np.random.default_rng(200)
        sx = NetworkStepper(nets.triangle(), 0).new_state(runs)
        sy = NetworkStepper(nets.triangle(), 0).new_state(runs)
        NetworkStepper(nets.triangle(), 0).advance(sx, rng_x.random(runs))
        NetworkStepper(nets.triangle(), 0).advance(sy, rng_y.random(runs))
        rate = (sx == sy).mean()
        sigma = np.sqrt(0.25 / runs)
        assert abs(rate - 0.5) < 3 * sigma

    def test_independence_product_law(self):
        # indicator correlations vanish for independent walkers
        runs = 100_000
        net = nets.triangle()
        rng_x = np.random.default_rng(300)
        rng_y = np.random.default_rng(400)
        stepper = NetworkStepper(net, 0)
        sx = stepper.new_state(runs)
        sy = stepper.new_state(runs)
        stepper.advance(sx, rng_x.random(runs))
        stepper.advance(sy, rng_y.random(runs))
        for a in (1, 2):
            for b in (1, 2):
                joint = ((sx == a) & (sy == b)).mean()
                expect = (sx == a).mean() * (sy == b).mean()
                assert abs(joint - expect) < 3 * np.sqrt(0.25 * 0.75 / runs)

    def test_replica_streams_differ(self):
        a = walk_pair(nets.triangle(), 0, 0, 20, seed=3, replica=0)
        b = walk_pair(nets.triangle(), 0, 0, 20, seed=3, replica=1)
        assert not np.array_equal(a[0].steps, b[0].steps)


def test_trajectory_csv(tmp_path):
    path = tmp_path / "walks.csv"
    tx, ty = walk_pair(nets.p3(), 1, 1, 4, seed=6)
    write_trajectory_csv(path, [(0, 0, tx), (0, 1, ty)])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replica", "walker", "step_or_entry_time", "vertex"]
    assert rows[1] == ["0", "0", "0", "1"]
    assert len(rows) == 1 + 5 + 5
