"""Reproducible experiment runner and command-line interface.

An experiment is described by a single JSON config document; command-line
flags override config fields, and the environment variable
``COLLISIONLAB_SEED`` overrides the config's master seed (explicit ``--seed``
beats both).  The master seed defaults to a fixed constant so that bare
invocations are reproducible.

Models are described once, in :data:`MODELS`: each entry lists its
parameters (type, range, default), its builder ``(params, master_seed) ->
RootedModel`` and either its lattice coordinate walker class, which knows its
own vertex count and certificate, or its vertex count when that is known
before building.  Resolution, validation (parameter checks, certified
horizons, the memory cap) and the ``--model`` help all read that table.  The
numeric config fields are checked by the same :class:`Param` type, from
:data:`_FIELDS`, and a run uses the checked values.  Validation is the only
place that refuses a run, but for a network file that fails to load, which
only the run reads.  It refuses a run whose arrays would exceed
``graph_core.MEMORY_BUDGET``: the model's box, the dense kernels, the
per-replica results (a voter replica's opinion row), the per-replica CSV rows
when ``output`` is set (voter and ctcollide build them only then) and the
dump; a start or ``initial`` vertex outside [0, V); a voter ``t_max`` whose
V·t_max events are too many for one Poisson draw of a replica's event budget;
a network file that is not a file; and an output, envelope or dump path that
is a directory or whose directory does not exist, so no run fails at its
write after sampling.  The checks that read the vertex count V run when V is
known before building; when only the build gives it (a network file, a
percolation cluster), ``run`` repeats them with V right after the build,
before any sampler or kernel.  Flags are described once too: ``_FLAGS``
maps each flag to the config field it sets, ``_SUBCOMMANDS`` lists the
flags of each run subcommand, and ``validate`` takes all of them, so it
checks any run's command line.

Results are wrapped in a :class:`ResultEnvelope` whose deterministic body
(version, canonical config echo, payload) is byte-identical across runs and
across worker counts; wall-clock time and the worker count live in the
envelope's ``meta`` section, outside the deterministic body, and so do
the network build's time (``build_s``, absent when nothing was built),
collide's walker steps, the voter's events and rounds, their rates and
collide's chunk-group count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from . import __version__
from ._parallel import chunk_groups
from .collision_stats import GrowthStatistics, collision_growth, last_collision_identity
from .errors import (
    CertificateViolationError,
    CollisionLabError,
    ConfigError,
    ResourceLimitError,
)
from .graph_core import dense_bytes, network_from_json, require_memory
from .interacting import check_event_budget, continuous_collision_ensemble, voter_ensemble
from .models import (
    CRITICAL_BOND_P,
    SITE_BYTES,
    CombLattice,
    GridLattice,
    PathLattice,
    RootedModel,
    apply_root_law,
    gen_percolation_cluster,
    gen_torus,
    gen_wilson_ust,
    require_sites,
)
from .mtp_check import RootedDistribution, check_mtp, transport_by_name
from .walk_engine import walk_pair, write_trajectory_csv

DEFAULT_MASTER_SEED = 1729
SEED_ENV_VAR = "COLLISIONLAB_SEED"

# charge of a per-replica CSV row of voter and ctcollide.  The rows are built
# only when ``output`` is set, and written as they are built from columns
# turned into Python objects: with output, ru_maxrss rose 79 bytes a replica
# more than without on ctcollide (torus 4, 10**6 replicas) and 13 on voter
# (torus 3, 4 x 10**5 replicas)
CSV_ROW_BYTES = 80

# rows a block of the voter row hash, 1 MiB of float64 (value, time) rows
HASH_ROWS = 65_536

# fields that control execution only and are excluded from the deterministic echo
_EXECUTION_FIELDS = ("output", "envelope_path", "workers", "dump_trajectories", "dump_limit")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    model: Optional[dict] = None
    network_file: Optional[str] = None
    start: Optional[int] = None
    horizons: Optional[tuple] = None
    replicas: int = 1000
    n_steps: Optional[int] = None
    t_max: Optional[float] = None
    grid: int = 128
    transport: Optional[str] = None
    root_law: str = "uniform"
    initial: Optional[str] = None
    tolerance: float = 1e-9
    master_seed: int = DEFAULT_MASTER_SEED
    output: Optional[str] = None
    envelope_path: Optional[str] = None
    workers: int = 1
    dump_trajectories: Optional[str] = None
    dump_limit: int = 4

    def canonical(self):
        """Deterministic config echo: execution fields and unset fields dropped."""
        out = {}
        for f in fields(self):
            if f.name in _EXECUTION_FIELDS:
                continue
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = _echo(value)
        return out


def _echo(value):
    """An infinite limit (nan and -inf fail ``validate``) echoes as null: JSON has no inf."""
    return None if value == math.inf else value


def config_from_dict(doc):
    """Build a config from a plain dict, rejecting unknown fields."""
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    doc = dict(doc)
    if isinstance(doc.get("horizons"), list):
        doc["horizons"] = tuple(doc["horizons"])
    if "kind" not in doc:
        raise ConfigError("kind: missing experiment kind")
    return ExperimentConfig(**doc)


@dataclass(frozen=True)
class ResultEnvelope:
    """Experiment result with a deterministic body and run metadata."""

    version: str
    config: dict
    payload: dict
    meta: dict

    def deterministic_dict(self):
        return {"version": self.version, "config": self.config, "payload": self.payload}

    def deterministic_bytes(self):
        doc = json.dumps(
            self.deterministic_dict(), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        )
        return (doc + "\n").encode("utf-8")

    def to_json(self):
        doc = dict(self.deterministic_dict())
        doc["meta"] = self.meta
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Model registry and resolution
# ---------------------------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """A numeric model parameter: its type, its range and its default.

    A parameter with no default is required; a default of None leaves the
    value to the builder (the model seeds fall back to the master seed).
    """

    kind: type  # int or float
    minimum: float
    default: object = _REQUIRED
    maximum: float = math.inf

    def check(self, raw):
        """``raw`` as this parameter's type; ValueError says what is accepted."""
        number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
        # the range test also rejects nan
        if number and self.minimum <= raw <= self.maximum and (
            self.kind is float or isinstance(raw, int) or raw.is_integer()
        ):
            return self.kind(raw)
        kind = "an integer" if self.kind is int else "a number"
        raise ValueError(f"must be {kind} in [{self.minimum}, {self.maximum}], got {raw!r}")


@dataclass(frozen=True)
class Model:
    """One model: its parameters, how to build it and what is known beforehand."""

    params: dict  # name -> Param
    build: Callable  # (params, master_seed) -> RootedModel
    vertex_count: Optional[Callable] = None  # params -> int, when known before building
    walker: Optional[type] = None  # lattice coordinate walker, constructed from R; has the count
    sites: Optional[Callable] = None  # params -> sites of the box built, if not vertex_count
    gen_site_bytes: int = 2 * SITE_BYTES  # charge a site of a ``gen`` run, payload included


def _lattice(walker, gen_site_bytes=2 * SITE_BYTES):
    return Model({"R": Param(int, 1)}, lambda p, _: walker(p["R"]).materialize(),
                 walker=walker, gen_site_bytes=gen_site_bytes)


def _ust_torus(p, master_seed):
    tree = gen_wilson_ust(gen_torus(p["side"]).network, p.get("seed", master_seed))
    return RootedModel(tree, start=0)


# a model seed names the stream (seed, 0); None falls back to the master seed
_MODEL_SEED = Param(int, 0, None, 2**64 - 1)

# Builders look generators up as module globals at call time, so wrappers
# installed on this module (tracing, test doubles) see every call.
# A ``gen`` run also holds one Python list per edge, so its charge follows
# the edges a site.  Its ru_maxrss rise in a fresh process was 465 bytes a
# site on path and 498 on comb (about one edge a site), 845 on grid R=300 and
# torus side 601, 947 on a full percolation box (two edges a site) and 698
# on ust_torus side 300, which builds its torus first.
MODELS = {
    "path": _lattice(PathLattice, SITE_BYTES),
    "grid": _lattice(GridLattice),
    "comb": _lattice(CombLattice, SITE_BYTES),
    "percolation": Model(
        {"n": Param(int, 1), "p": Param(float, 0.0, CRITICAL_BOND_P, 1.0),
         "seed": _MODEL_SEED},
        lambda p, master_seed: gen_percolation_cluster(
            p["n"], p["p"], p.get("seed", master_seed)),
        sites=lambda p: (p["n"] + 1) ** 2,
    ),
    "torus": Model({"side": Param(int, 2)}, lambda p, _: gen_torus(p["side"]),
                   lambda p: p["side"] ** 2),
    "ust_torus": Model({"side": Param(int, 2), "seed": _MODEL_SEED}, _ust_torus,
                       lambda p: p["side"] ** 2),
}


@dataclass
class ResolvedGraph:
    walker: object = None  # the lattice walker that collide walks (no start), else None
    vertex_count: Optional[int] = None  # when known before building, or from the build
    sites: Optional[int] = None  # bound on the vertex count, when known before building
    gen_site_bytes: int = SITE_BYTES  # charge a site of a ``gen`` run
    _materialize: object = None
    _model: Optional[RootedModel] = None
    build_s: Optional[float] = field(default=None, init=False)  # the build's seconds, once built

    def model(self):
        if self._model is None:
            t0 = time.perf_counter()
            self._model = self._materialize()
            self.build_s = time.perf_counter() - t0
        return self._model


def _resolve(config):
    """(ResolvedGraph or None, violations) of the config's model or network file."""
    if config.model is None:
        if config.network_file is None:
            return None, [Violation("model", "a model or network file is required")]

        def load():
            try:
                with open(config.network_file) as fh:
                    return RootedModel(network_from_json(json.load(fh)), start=0)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"network_file: no network read ({type(exc).__name__}: {exc})")

        return ResolvedGraph(_materialize=load), []
    name = config.model.get("name")
    entry = MODELS.get(name)
    if entry is None:
        return None, [Violation("model.name", f"unknown model {name!r}")]
    params, problems = {}, []
    for key in sorted(config.model.keys() - entry.params.keys() - {"name"}):
        problems.append(Violation(f"model.{key}", f"unknown parameter of model {name!r}"))
    for key, param in entry.params.items():
        try:
            if key in config.model:
                params[key] = param.check(config.model[key])
            elif param.default is _REQUIRED:
                raise ValueError(f"required for model {name!r}")
            elif param.default is not None:
                params[key] = param.default
        except ValueError as exc:
            problems.append(Violation(f"model.{key}", str(exc)))
    if problems:
        return None, problems
    try:
        walker = entry.walker and entry.walker(params["R"])
    except ValueError as exc:
        return None, [Violation("model.R", str(exc))]
    vertices = walker.vertex_count if walker else entry.vertex_count and entry.vertex_count(params)
    # an explicit start makes the run a finite-network one, not a truncation
    walks = walker and config.kind == "collide" and config.start is None
    return ResolvedGraph(
        walker=walker if walks else None,
        vertex_count=vertices,
        sites=entry.sites(params) if entry.sites else vertices,
        gen_site_bytes=entry.gen_site_bytes,
        _materialize=lambda: entry.build(params, config.master_seed),
    ), []


def resolve_graph(config):
    """Turn the config's model spec or network file into a runnable graph."""
    resolved, problems = _resolve(config)
    if problems:
        raise ConfigError("; ".join(str(p) for p in problems))
    return resolved


def _network_and_start(config, resolved):
    """The built model's network and the run's start vertex."""
    model = resolved.model()
    start = model.start if config.start is None else config.start
    return model.network, start or 0


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    field: str
    message: str
    error: type = ConfigError  # what ``run`` raises when this is the first violation

    def __str__(self):
        return f"{self.field}: {self.message}"


# numeric config fields, checked whenever they are set
_FIELDS = {
    "start": Param(int, 0),
    "replicas": Param(int, 1),
    "n_steps": Param(int, 0),
    "t_max": Param(float, math.ulp(0.0)),
    "grid": Param(int, 1),
    "tolerance": Param(float, 0.0),
    "master_seed": Param(int, 0, maximum=2**64 - 1),
    "workers": Param(int, 1),
    "dump_limit": Param(int, 0),
}
_HORIZON = Param(int, 0)


def _check_fields(config):
    """(config with its numeric fields as checked, violations)."""
    values, out = {}, []

    def check(name, param, raw):
        try:
            return param.check(raw)
        except ValueError as exc:
            out.append(Violation(name, str(exc)))

    for name, param in _FIELDS.items():
        if getattr(config, name) is not None:
            values[name] = check(name, param, getattr(config, name))
    horizons = config.horizons
    if horizons is not None:
        horizons = horizons if isinstance(horizons, (list, tuple)) else (horizons,)
        values["horizons"] = tuple(
            check(f"horizons[{i}]", _HORIZON, h) for i, h in enumerate(horizons)
        )
    return replace(config, **values), out


def _violations(config, vertices=None):
    """(violations, the config with its numeric fields checked), without
    building; ``vertices`` is the built model's count when only a build gives it."""
    if config.kind not in _RUNNERS:
        return [Violation("kind", f"unknown experiment kind {config.kind!r}")], config
    config, out = _check_fields(config)
    if out:
        return out, config  # the checks below read these fields

    resolved, out = _resolve(config)
    if vertices is not None:
        resolved.vertex_count = vertices
    walker = resolved.walker if resolved else None
    V = resolved.vertex_count if resolved else None
    if V and config.start is not None and config.start >= V:
        out.append(Violation("start", f"vertex {config.start} is outside [0, {V})"))
    window = config.n_steps or 0
    if config.kind == "collide":
        if not config.horizons:
            out.append(Violation("horizons", "at least one horizon is required"))
        elif walker is not None:
            cert_horizon = walker.certificate.horizon
            for i, h in enumerate(config.horizons):
                if h > cert_horizon:
                    message = f"horizon {h} exceeds the certified horizon {cert_horizon}"
                    out.append(Violation(f"horizons[{i}]", message, CertificateViolationError))

    if config.kind == "identity" and config.n_steps is None:
        out.append(Violation("n_steps", "window N is required"))

    if config.kind == "mtp":
        if config.transport is None:
            out.append(Violation("transport", "a transport name is required"))
        else:
            try:
                window = transport_by_name(config.transport).window
            except ValueError as exc:
                out.append(Violation("transport", str(exc)))
        if config.root_law not in ("uniform", "biased", "conductance_biased"):
            out.append(Violation("root_law", f"unknown root law {config.root_law!r}"))

    if config.kind == "voter" and config.initial is not None:
        try:
            _initial_ones(config.initial, V)
        except ValueError as exc:
            out.append(Violation("initial", str(exc)))
    if config.kind == "voter" and V:
        try:
            check_event_budget(V, _voter_t_max(config, V))
        except ValueError as exc:
            out.append(Violation("t_max", str(exc)))

    # grid ticks are counted in float64, exact below 2**53
    if config.kind == "ctcollide" and config.grid * _ct_t_max(config) >= 2**53:
        out.append(Violation("grid", "grid * t_max must be below 2**53"))
    if resolved is not None:
        out.extend(_memory_violations(config, resolved, window))
    return out + _path_violations(config), config


def _path_violations(config):
    """Network and output paths that no run could read or write, refused before building."""
    out, file = [], config.network_file
    if config.model is None and file is not None and not (
            isinstance(file, (str, os.PathLike)) and os.path.isfile(file)):
        out.append(Violation("network_file", f"{file} is not a file"))
    paths = [(field, getattr(config, field)) for field in ("output", "envelope_path",
                                                           "dump_trajectories")]
    if config.kind == "gen" and config.output and isinstance(config.output, (str, os.PathLike)):
        paths.append(("output", _sidecar_path(config.output)))  # written after the network
    for field, path in paths:
        if not path:
            continue
        if not isinstance(path, (str, os.PathLike)):
            out.append(Violation(field, f"expected a file path, got {path!r}"))
        elif os.path.isdir(path):
            out.append(Violation(field, f"{path} is a directory"))
        elif not os.path.isdir(os.path.dirname(path) or "."):
            out.append(Violation(field, f"the directory of {path} does not exist"))
    return out


def _memory_violations(config, resolved, window):
    """The run's arrays against the memory cap, from the sizes known so far."""
    out = []

    def require(field, estimate, *args):
        try:
            estimate(*args)
        except ResourceLimitError as exc:
            out.append(Violation(field, str(exc), ResourceLimitError))

    V, sites = resolved.vertex_count, resolved.sites
    builds = resolved.walker is None
    if sites is not None and (builds or config.dump_trajectories):
        # the dump walks the materialized model: fail before sampling
        site_bytes = resolved.gen_site_bytes if config.kind == "gen" else SITE_BYTES
        require("model" if builds else "dump_trajectories", require_sites, sites, site_bytes)
    if config.kind in ("identity", "mtp") and V is not None:
        require("model", require_memory, dense_bytes(V, window),
                f"the dense kernels on {V} vertices")
    require("replicas", _require_results, config, V or sites)
    if config.kind == "collide" and config.dump_trajectories and config.horizons:
        walks = 2 * min(config.dump_limit, config.replicas)
        steps = walks * (max(config.horizons) + 1)
        require("dump_trajectories", require_memory, 8 * steps,
                f"the {walks} dumped walks of {steps} steps")
    return out


def _require_results(config, vertices):
    """Refuse the per-replica results above the memory cap; a voter replica
    keeps one opinion byte a vertex, of ``vertices`` (None when unknown), and
    its event budget and count."""
    per_replica = {"collide": 8 * len(config.horizons or ()), "voter": (vertices or 0) + 33,
                   "ctcollide": 16}.get(config.kind, 0)
    if config.output and config.kind in ("voter", "ctcollide"):
        per_replica += CSV_ROW_BYTES
    require_memory(per_replica * config.replicas, f"the results of {config.replicas} replicas")


def validate(config):
    """All certificate and cap checks, without running; returns message strings."""
    return [str(v) for v in _violations(config)[0]]


def _raise_violations(config, vertices=None):
    """The config with its numeric fields checked, or the typed error of its violations."""
    problems, config = _violations(config, vertices)
    if problems:
        raise problems[0].error("; ".join(str(p) for p in problems))
    return config


# ---------------------------------------------------------------------------
# Experiment payloads
# ---------------------------------------------------------------------------


def _sha256_array(arr):
    """sha256 of the array's bytes in C order, hashed in place when contiguous."""
    return hashlib.sha256(np.ascontiguousarray(arr).data).hexdigest()


def _sha256_voter_rows(ens):
    """sha256 of the float64 rows (consensus value, consensus time), built a block at a time."""
    digest = hashlib.sha256()
    for a in range(0, ens.replicas, HASH_ROWS):
        rows = slice(a, a + HASH_ROWS)
        digest.update(np.column_stack([ens.consensus_value[rows], ens.consensus_time[rows]]).data)
    return digest.hexdigest()


def _voter_rows(ens):
    times = ens.consensus_time.tolist()
    for i, v in enumerate(ens.consensus_value.tolist()):
        yield [i, v, repr(times[i])] if v >= 0 else [i, "", ""]


def _ct_rows(table, t_max):
    for i, (m, g) in enumerate(zip(table[:, 0].tolist(), table[:, 1].tolist())):
        yield [i, t_max, repr(m), repr(g)]


def _run_gen(config, resolved):
    model = resolved.model()
    net = model.network
    sidecar = {
        "model": config.model or {"name": "network"},
        "start": model.start,
        "root_law": model.root_law.kind if model.root_law else None,
        "certificate": asdict(model.certificate) if model.certificate else None,
    }
    return {"network": net.to_json_dict(), "sidecar": sidecar}, None, {}


def _run_collide(config, resolved):
    if resolved.walker is not None:
        graph, start = resolved.walker, None
    else:
        # an explicit start materializes the graph (the memory cap applies) and
        # makes this a finite-network experiment; the center-based certificate
        # no longer constrains the horizon
        graph, start = _network_and_start(config, resolved)
    result = collision_growth(
        graph,
        start,
        config.horizons,
        config.replicas,
        config.master_seed,
        workers=config.workers,
    )
    rows = ([f.name for f in fields(GrowthStatistics)], [astuple(s) for s in result.stats])
    payload = {
        "stats": [asdict(s) for s in result.stats],
        "counts_sha256": _sha256_array(result.counts.astype("<i8", copy=False)),
    }
    if config.dump_trajectories:
        _dump_sample_trajectories(config, resolved)
    return payload, rows, {"walker_steps": 2 * config.replicas * max(config.horizons)}


def _dump_sample_trajectories(config, resolved):
    net, start = _network_and_start(config, resolved)
    T = max(config.horizons)
    items = []
    for replica in range(min(config.dump_limit, config.replicas)):
        tx, ty = walk_pair(net, start, start, T, config.master_seed, replica=replica)
        items.append((replica, 0, tx))
        items.append((replica, 1, ty))
    write_trajectory_csv(config.dump_trajectories, items)


def _run_identity(config, resolved):
    net, u = _network_and_start(config, resolved)
    total = last_collision_identity(net, u, config.n_steps)
    return {"u": u, "N": config.n_steps, "total": total}, None, {}


def _run_mtp(config, resolved):
    net = resolved.model().network
    kind = "conductance_biased" if config.root_law == "biased" else config.root_law
    law = apply_root_law(net, kind)
    transport = transport_by_name(config.transport)
    result = check_mtp(
        RootedDistribution.single(net, law), transport, tolerance=config.tolerance
    )
    # an indeterminate check has no masses: null, as JSON has no NaN
    out, into = (None if math.isnan(m) else m for m in (result.mass_out, result.mass_in))
    return {"out": out, "in": into, "verdict": result.verdict.value}, None, {}


def _initial_ones(spec, V):
    """Index of the vertices that an ``initial`` spec starts at opinion 1.

    ValueError for a malformed spec, or for a vertex outside [0, V) when the
    vertex count ``V`` is known (not None).
    """
    if spec in ("zeros", "ones"):
        return slice(None) if spec == "ones" else []
    kind, _, listed = str(spec).partition(":")
    try:
        ones = [int(tok) for tok in listed.split(",")]
    except ValueError:
        ones = []
    if not ((kind == "vertices" and ones) or (kind == "single" and len(ones) == 1)):
        raise ValueError(f"cannot parse {spec!r}")
    for v in ones:
        if V is not None and not 0 <= v < V:
            raise ValueError(f"vertex {v} is outside [0, {V})")
    return ones


def _parse_initial(spec, net, start):
    ops = np.zeros(net.vertex_count, dtype=np.int8)
    ops[_initial_ones(f"single:{start}" if spec is None else spec, net.vertex_count)] = 1
    return ops


def _voter_t_max(config, vertices):
    """The voter's ``t_max``, 50·V² by default."""
    return config.t_max if config.t_max is not None else 50.0 * vertices**2


def _run_voter(config, resolved):
    net, start = _network_and_start(config, resolved)
    t_max = _voter_t_max(config, net.vertex_count)
    initial = _parse_initial(config.initial, net, start)
    ens = voter_ensemble(
        net, initial, t_max, config.replicas, config.master_seed, workers=config.workers
    )
    reached = ens.consensus_value >= 0
    payload = {
        "replicas": int(ens.replicas),
        "t_max": _echo(float(t_max)),
        "consensus_fraction": float(reached.mean()),
        "consensus_ones_fraction": float((ens.consensus_value == 1).mean()),
        "mean_consensus_time": (
            float(ens.consensus_time[reached].mean()) if reached.any() else None
        ),
        "rows_sha256": _sha256_voter_rows(ens),
    }
    rows = (["replica", "consensus_value", "consensus_time"], _voter_rows(ens))
    return payload, rows, {"events": ens.events, "rounds": ens.rounds}


def _ct_t_max(config):
    return config.t_max if config.t_max is not None else 5.0


def _run_ctcollide(config, resolved):
    net, start = _network_and_start(config, resolved)
    t_max = _ct_t_max(config)
    table = continuous_collision_ensemble(
        net,
        start,
        t_max,
        config.grid,
        config.replicas,
        config.master_seed,
        workers=config.workers,
    )
    payload = {
        "replicas": int(table.shape[0]),
        "t_max": float(t_max),
        "grid": int(config.grid),
        "mean_measure": float(table[:, 0].mean()),
        "mean_integral": float(table[:, 1].mean()),
        "rows_sha256": _sha256_array(table.astype("<f8", copy=False)),
    }
    header = ["replica", "T_max", "measure", "integral_grid_estimate"]
    return payload, (header, _ct_rows(table, t_max)), {}


_RUNNERS = {
    "gen": _run_gen,
    "collide": _run_collide,
    "identity": _run_identity,
    "mtp": _run_mtp,
    "voter": _run_voter,
    "ctcollide": _run_ctcollide,
}


def run(config):
    """Validate, dispatch, and wrap the named experiment in an envelope.

    The runner gets the checked numbers and returns (payload, rows table or
    None, work counts for ``meta``); the envelope echoes the config as given.
    """
    checked = _raise_violations(config)
    resolved = resolve_graph(checked)
    t0 = time.perf_counter()
    if resolved.vertex_count is None:  # only the build gives it: the same checks again
        _raise_violations(checked, resolved.model().network.vertex_count)
    payload, rows, work = _RUNNERS[config.kind](checked, resolved)
    wall = time.perf_counter() - t0
    meta = {"wall_clock_s": wall, "workers": checked.workers}
    if resolved.build_s is not None:  # lattice walkers build nothing
        meta["build_s"] = resolved.build_s
    for name, count in work.items():
        meta.update({name: count, f"{name}_per_s": count / wall})
    if config.kind == "collide":
        meta["chunk_groups"] = len(chunk_groups(checked.replicas, checked.workers))
    envelope = ResultEnvelope(
        version=__version__,
        config=config.canonical(),
        payload=payload,
        meta=meta,
    )
    _write_outputs(config, envelope, rows)
    return envelope


def _write_outputs(config, envelope, rows):
    """Write the output file and the envelope, as configured.

    ``rows`` is the runner's (header, rows) table or None; the rows may be
    a generator, which is read only here, while the CSV is written.
    """
    if config.output:
        if config.kind == "gen":
            with open(config.output, "w", newline="\n") as fh:
                fh.write(json.dumps(envelope.payload["network"]) + "\n")
            sidecar_path = _sidecar_path(config.output)
            with open(sidecar_path, "w", newline="\n") as fh:
                fh.write(json.dumps(envelope.payload["sidecar"], indent=2) + "\n")
        elif rows is not None:
            header, body = rows
            with open(config.output, "w", newline="\n") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(body)
        else:
            with open(config.output, "w", newline="\n") as fh:
                fh.write(json.dumps(envelope.payload, sort_keys=True, indent=2) + "\n")
    if config.envelope_path:
        with open(config.envelope_path, "w", newline="\n") as fh:
            fh.write(envelope.to_json())


def _sidecar_path(output):
    root, ext = os.path.splitext(output)
    return f"{root}.sidecar{ext or '.json'}"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


# flag: (config field it sets, add_argument keywords)
_FLAGS = {
    "--seed": ("master_seed", {"type": int, "help": "master seed"}),
    "--network": ("network_file", {"help": "network JSON file instead of a model"}),
    "--start": ("start", {"type": int, "help": "start/root vertex"}),
    "--output": ("output", {"help": "primary output file (CSV or JSON)"}),
    "--envelope": ("envelope_path", {"help": "write the result envelope here"}),
    "--workers": ("workers", {"type": int, "help": "parallel worker count"}),
    "--horizons": ("horizons", {"type": _int_list, "help": "comma-separated horizons"}),
    "--replicas": ("replicas", {"type": int}),
    "--dump-trajectories": ("dump_trajectories", {"help": "also write sample trajectories CSV"}),
    "--dump-limit": ("dump_limit", {"type": int, "help": "replicas to dump"}),
    "--N": ("n_steps", {"type": int, "help": "window length"}),
    "--transport": ("transport", {"help": "adjacency | leaf_adjacency | qlast:<n>:<N>"}),
    "--root-law": ("root_law", {"help": "uniform | biased"}),
    "--tolerance": ("tolerance", {"type": float}),
    "--t-max": ("t_max", {"type": float}),
    "--initial": ("initial", {"help": "zeros | ones | single:<v> | vertices:<v,..>"}),
    "--grid": ("grid", {"type": int, "help": "offsets for the discretization integral"}),
}

_COMMON_FLAGS = ("--seed", "--network", "--start", "--output", "--envelope", "--workers")

# run subcommand: (help, its flags beyond the common ones); validate takes them all
_SUBCOMMANDS = {
    "gen": ("materialize a model as network JSON plus sidecar", ()),
    "collide": ("Monte Carlo collision-count growth",
                ("--horizons", "--replicas", "--dump-trajectories", "--dump-limit")),
    "identity": ("exact last-collision partition total", ("--N",)),
    "mtp": ("mass-transport principle check", ("--transport", "--root-law", "--tolerance")),
    "voter": ("voter-model consensus runs", ("--replicas", "--t-max", "--initial")),
    "ctcollide": ("continuous-time collision measure runs", ("--replicas", "--t-max", "--grid")),
}


def _add_flags(sub, flags):
    sub.add_argument("--config", help="JSON config document; flags override its fields")
    models = "; ".join(f"{name} ({', '.join(m.params)})" for name, m in MODELS.items())
    sub.add_argument("--model", default=None, help=f"model name and its parameters: {models}")
    sub.add_argument(
        "--model-param",
        action="append",
        default=None,
        metavar="K=V",
        help="model parameter, repeatable (e.g. --model-param R=101)",
    )
    for flag in _COMMON_FLAGS + tuple(flags):
        field, options = _FLAGS[flag]
        sub.add_argument(flag, dest=field, default=None, **options)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="collisionlab",
        description="Collision experiments for random walks on finite conductance networks",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for kind, (help_text, flags) in _SUBCOMMANDS.items():
        _add_flags(subs.add_parser(kind, help=help_text), flags)
    p = subs.add_parser("validate", help="check a config without running it")
    _add_flags(p, dict.fromkeys(f for _, flags in _SUBCOMMANDS.values() for f in flags))
    p.add_argument("--kind", default=None, help="experiment kind when not in the config file")
    return parser


def _parse_model_flags(name, params):
    spec = {"name": name}
    for item in params or []:
        if "=" not in item:
            raise ConfigError(f"model-param: expected K=V, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        spec[key] = value
    return spec


def config_from_args(args):
    """Merge defaults, config file, environment seed, and flags (in that order)."""
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc.update(json.load(fh))
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"config: no config read ({type(exc).__name__}: {exc})") from None

    kind = args.command if args.command != "validate" else (args.kind or doc.get("kind"))
    if kind is None:
        raise ConfigError("kind: missing experiment kind (use --kind or the config file)")
    doc["kind"] = kind

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            doc["master_seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"master_seed: {SEED_ENV_VAR} must be an integer")

    if args.model is not None:
        doc["model"] = _parse_model_flags(args.model, args.model_param)
    elif args.model_param:
        base = dict(doc.get("model") or {})
        if "name" not in base:
            raise ConfigError("model: --model-param needs --model or a model in the config")
        doc["model"] = {**base, **_parse_model_flags(base["name"], args.model_param)}

    for field, _ in _FLAGS.values():
        value = getattr(args, field, None)
        if value is not None:
            doc[field] = value
    return config_from_dict(doc)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "validate":
            problems = validate(config)
            print(json.dumps(problems, indent=2))
            return 0 if not problems else 2
        envelope = run(config)
        if not config.envelope_path:
            sys.stdout.write(envelope.to_json())
        return 0
    except CollisionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
