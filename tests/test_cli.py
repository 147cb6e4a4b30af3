import argparse
import ast
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import nets
import oracles
import collisionlab
from collisionlab import (
    CertificateViolationError,
    build_network,
    ConfigError,
    ResourceLimitError,
    experiment_cli,
    interacting,
    mtp_check,
    network_from_json,
)
from collisionlab.experiment_cli import (
    CSV_ROW_BYTES,
    DEFAULT_MASTER_SEED,
    MODELS,
    ExperimentConfig,
    build_parser,
    config_from_args,
    config_from_dict,
    main,
    resolve_graph,
    run,
    validate,
)
from collisionlab.graph_core import dense_bytes
from collisionlab.models import SITE_BYTES, gen_torus


# peak resident growth a run may show beyond its charged arrays: allocator and
# interpreter overhead, independent of the run's size
INTERPRETER_ALLOWANCE = 32 * 2**20


def _cfg(**kwargs):
    return ExperimentConfig(**kwargs)


def _peak_rise(**fields):
    """Peak resident-set rise, in bytes, of ``run`` of the config in a fresh process.

    The peak is the process's VmHWM, not ru_maxrss: a child starts with its
    parent's resident size as its ru_maxrss, so from a large test process
    the rise of ru_maxrss reads too low, or 0.
    """
    script = (
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return int(next(ln for ln in fh if ln.startswith('VmHWM:')).split()[1])\n"
        "from collisionlab.experiment_cli import ExperimentConfig, run\n"
        "before = hwm()\n"
        f"run(ExperimentConfig(**{fields!r}))\n"
        "print(hwm() - before)\n"
    )
    src = str(Path(collisionlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return int(out.stdout) * 1024  # VmHWM is in KiB


class TestValidate:
    def test_valid_config_is_clean(self):
        cfg = _cfg(kind="collide", model={"name": "path", "R": 101},
                   horizons=(100,), replicas=10)
        assert validate(cfg) == []

    def test_zero_replicas_named(self):
        cfg = _cfg(kind="collide", model={"name": "path", "R": 101},
                   horizons=(100,), replicas=0)
        problems = validate(cfg)
        assert any(p.startswith("replicas") for p in problems)

    def test_certificate_violation_named(self):
        cfg = _cfg(kind="collide", model={"name": "path", "R": 2}, horizons=(10,))
        problems = validate(cfg)
        assert any("certified horizon" in p for p in problems)

    def test_dense_cap_violation_named(self):
        cfg = _cfg(kind="identity", model={"name": "grid", "R": 300}, n_steps=4)
        problems = validate(cfg)
        assert any("cap" in p for p in problems)

    @pytest.mark.parametrize("spec", ["qlast:25:20", "qlast:-1:4"])
    def test_qlast_time_outside_window_named(self, spec):
        cfg = _cfg(kind="mtp", model={"name": "grid", "R": 2}, transport=spec)
        problems = validate(cfg)
        assert any(p.startswith("transport") for p in problems)
        with pytest.raises(ConfigError):
            run(cfg)

    def test_mtp_qlast_pair_cap_named(self):
        # 6001 vertices fit the dense kernel, but not with the q0 and qlast
        # tables of a 2000-step window
        cfg = _cfg(kind="mtp", model={"name": "path", "R": 3000}, transport="qlast:1:2000")
        problems = validate(cfg)
        assert any("memory cap" in p for p in problems)
        with pytest.raises(ResourceLimitError):
            run(cfg)
        ok = _cfg(kind="mtp", model={"name": "path", "R": 3000}, transport="adjacency")
        assert validate(ok) == []

    @pytest.mark.parametrize("t_max,grid", [(3.0, 2**52), (None, 2**51), (float("inf"), 1)])
    def test_ctcollide_grid_beyond_exact_ticks_named(self, t_max, grid):
        # grid ticks are float64 counts, exact only while grid * t_max < 2**53
        cfg = _cfg(kind="ctcollide", model={"name": "torus", "side": 4}, t_max=t_max,
                   grid=grid, replicas=4)
        assert any(p.startswith("grid") for p in validate(cfg))
        with pytest.raises(ConfigError):
            run(cfg)
        ok = _cfg(kind="ctcollide", model={"name": "torus", "side": 4}, t_max=3.0,
                  grid=10**12, replicas=4)
        assert validate(ok) == []

    def test_nan_t_max_named(self):
        cfg = _cfg(kind="ctcollide", model={"name": "torus", "side": 4}, t_max=float("nan"))
        assert any(p.startswith("t_max") for p in validate(cfg))

    @pytest.mark.parametrize("initial,message", [
        ("single:abc", "cannot parse"),
        ("vertices:", "cannot parse"),
        ("vertices:1,,2", "cannot parse"),
        ("single:1,2", "cannot parse"),
        ("half", "cannot parse"),
        ("single:99", "vertex 99 is outside [0, 16)"),
        ("vertices:3,-1", "vertex -1 is outside [0, 16)"),
    ])
    def test_bad_initial_named(self, initial, message, capsys):
        cfg = _cfg(kind="voter", model={"name": "torus", "side": 4}, initial=initial,
                   replicas=2)
        assert any(p.startswith("initial:") and message in p for p in validate(cfg))
        with pytest.raises(ConfigError, match="^initial:"):
            run(cfg)
        rc = main(["voter", "--model", "torus", "--model-param", "side=4",
                   "--initial", initial, "--replicas", "2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: initial:")

    def test_initial_checked_after_build_when_vertex_count_unknown(self, tmp_path):
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(nets.p3().to_json_dict()))
        cfg = _cfg(kind="voter", network_file=str(path), initial="single:3", replicas=2)
        assert validate(cfg) == []
        with pytest.raises(ConfigError, match="^initial: vertex 3 is outside"):
            run(cfg)

    @pytest.mark.parametrize("initial", ["zeros", "ones", "single:15", "vertices:0,4,4"])
    def test_good_initial_accepted(self, initial):
        cfg = _cfg(kind="voter", model={"name": "torus", "side": 4}, initial=initial,
                   replicas=2, t_max=1.0)
        assert validate(cfg) == []
        assert run(cfg).payload["replicas"] == 2

    @pytest.mark.parametrize("tolerance", [float("nan"), -1e-9])
    def test_bad_tolerance_named(self, tolerance):
        cfg = _cfg(kind="mtp", model={"name": "torus", "side": 3}, transport="adjacency",
                   tolerance=tolerance)
        assert any(p.startswith("tolerance:") for p in validate(cfg))
        with pytest.raises(ConfigError, match="^tolerance:"):
            run(cfg)
        ok = _cfg(kind="mtp", model={"name": "torus", "side": 3}, transport="adjacency",
                  tolerance=0.0)
        assert validate(ok) == []

    def test_negative_dump_limit_named(self, tmp_path):
        dump = tmp_path / "walks.csv"
        cfg = _cfg(kind="collide", model={"name": "path", "R": 5}, horizons=(4,), replicas=4,
                   dump_trajectories=str(dump), dump_limit=-3)
        assert any(p.startswith("dump_limit:") for p in validate(cfg))
        with pytest.raises(ConfigError, match="^dump_limit:"):
            run(cfg)
        assert not dump.exists()

    @pytest.mark.parametrize("name", ["grid", "comb"])
    def test_radius_beyond_code_range_named(self, name):
        cfg = _cfg(kind="collide", model={"name": name, "R": 2**31}, horizons=(4,))
        assert any(p.startswith("model.R") and "2^31" in p for p in validate(cfg))
        ok = _cfg(kind="collide", model={"name": name, "R": 2**31 - 1}, horizons=(4,))
        assert validate(ok) == []

    def test_oversized_dump_fails_before_sampling(self, tmp_path, monkeypatch):
        # the dump materializes the comb: 40003 x 20002 vertices exceed the cap
        def sample(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr("collisionlab.experiment_cli.collision_growth", sample)
        cfg = _cfg(kind="collide", model={"name": "comb", "R": 20001}, horizons=(100,),
                   replicas=8, dump_trajectories=str(tmp_path / "walks.csv"))
        assert any(p.startswith("dump_trajectories") for p in validate(cfg))
        with pytest.raises(ResourceLimitError, match="800140006 lattice sites"):
            run(cfg)
        assert not (tmp_path / "walks.csv").exists()

    def test_ust_torus_dense_cap_fails_before_generating(self, monkeypatch):
        # side^2 = 22500 vertices are known before Wilson's algorithm runs
        def generate(*args, **kwargs):
            raise AssertionError("generation started")

        monkeypatch.setattr("collisionlab.experiment_cli.gen_wilson_ust", generate)
        cfg = _cfg(kind="identity", model={"name": "ust_torus", "side": 150}, n_steps=4)
        assert any("memory cap" in p for p in validate(cfg))
        with pytest.raises(ResourceLimitError, match="22500 vertices"):
            run(cfg)

    @pytest.mark.parametrize("kind,model,extra", [
        ("gen", {"name": "path", "R": 10**9}, {}),
        ("gen", {"name": "torus", "side": 10**5}, {}),
        ("gen", {"name": "ust_torus", "side": 5000}, {}),
        ("gen", {"name": "percolation", "n": 10**5}, {}),
        ("gen", {"name": "grid", "R": 1200}, {}),
        ("identity", {"name": "torus", "side": 4}, {"n_steps": 10**10}),
    ])
    def test_over_memory_cap_fails_before_generating(self, kind, model, extra, monkeypatch):
        def generate(*args, **kwargs):
            raise AssertionError("generation started")

        # every generator starts by laying out its box
        monkeypatch.setattr("collisionlab.models._box_bonds", generate)
        cfg = _cfg(kind=kind, model=model, **extra)
        assert any(p.startswith("model:") and "memory cap" in p for p in validate(cfg))
        with pytest.raises(ResourceLimitError, match="memory cap"):
            run(cfg)

    def test_gen_charged_its_payload(self):
        # 2,563,201 sites: the arrays fit the cap, arrays and payload do not
        grid = {"name": "grid", "R": 800}
        assert validate(_cfg(kind="collide", model=grid, start=0, horizons=(1,))) == []
        problems = validate(_cfg(kind="gen", model=grid))
        assert len(problems) == 1
        assert "2563201 lattice sites at 1024 bytes a site" in problems[0]

    @pytest.mark.parametrize("model,sites", [
        ({"name": "path", "R": 2_097_151}, 4_194_303),
        ({"name": "comb", "R": 1447}, 2895 * 1448),
    ])
    def test_gen_of_one_edge_a_site_keeps_the_array_charge(self, model, sites):
        # the largest path and comb a gen run was admitted for at 512 bytes a
        # site; one radius more is refused
        assert validate(_cfg(kind="gen", model=model)) == []
        bigger = {**model, "R": model["R"] + 1}
        problems = validate(_cfg(kind="gen", model=bigger))
        assert len(problems) == 1 and "at 512 bytes a site" in problems[0]

    @pytest.mark.parametrize("model", [
        {"name": "grid", "R": 300},
        {"name": "comb", "R": 400},
        {"name": "path", "R": 200_000},
    ])
    def test_gen_peak_within_charge(self, model):
        # the peak resident rise of gen in a fresh process, against the bytes
        # validate charges plus a fixed allowance for the interpreter
        rise = _peak_rise(kind="gen", model=model)
        resolved = resolve_graph(_cfg(kind="gen", model=model))
        assert rise <= resolved.gen_site_bytes * resolved.sites + INTERPRETER_ALLOWANCE

    @pytest.mark.parametrize("workers", [1, 2])
    def test_collide_peak_within_charge(self, workers):
        # the counts of 200,000 replicas at 100 horizons are charged 8 bytes
        # each, 153 MiB; the chunk groups' pieces held beside the merged
        # counts, and copies made for the hash, had tripled the rise
        horizons, replicas = tuple(range(1, 101)), 200_000
        rise = _peak_rise(kind="collide", model={"name": "path", "R": 5}, start=5,
                          horizons=horizons, replicas=replicas, workers=workers)
        assert rise <= 8 * len(horizons) * replicas + INTERPRETER_ALLOWANCE

    def test_ctcollide_peak_within_charge(self):
        # 16 bytes a replica; the pieces held beside the merged table had
        # doubled the rise
        replicas = 3_000_000
        rise = _peak_rise(kind="ctcollide", model={"name": "torus", "side": 4},
                          t_max=0.1, replicas=replicas)
        assert rise <= 16 * replicas + INTERPRETER_ALLOWANCE

    def test_voter_peak_within_charge(self):
        # V + 17 bytes a replica: the final opinions, the consensus value and
        # time; the pieces and a copy of the rows for the hash had doubled it.
        # The charge adds 16 for the event budget and count, which are held
        # one chunk group at a time, so the rise stays within V + 17
        replicas, side = 1_000_000, 10
        rise = _peak_rise(kind="voter", model={"name": "torus", "side": side},
                          t_max=0.01, replicas=replicas)
        assert rise <= (side * side + 17) * replicas + INTERPRETER_ALLOWANCE

    def test_network_collide_peak_within_charge(self):
        # a network run is charged SITE_BYTES a site for the network, its CSR
        # sampling tables and their guide: 78 MiB on this torus
        side = 400
        rise = _peak_rise(kind="collide", model={"name": "torus", "side": side}, start=0,
                          horizons=(10,), replicas=1024)
        assert rise <= SITE_BYTES * side * side + INTERPRETER_ALLOWANCE

    def test_percolation_peak_per_box_site(self):
        # a cluster build holds its inputs, its outputs and one pass's scratch:
        # from n = 300 to n = 600 the rise grows by about 70 bytes a site of
        # the box on this seed, against 142 when the generator and Network
        # held every stage's arrays at once.  The slope cancels the
        # interpreter's allowance; the bound is 70 plus a margin of 30
        sites = {n: (n + 1) ** 2 for n in (300, 600)}
        rise = {n: _peak_rise(kind="collide", model={"name": "percolation", "n": n, "seed": 0},
                              start=0, horizons=(10,), replicas=64) for n in sites}
        assert (rise[600] - rise[300]) / (sites[600] - sites[300]) <= 100

    def test_identity_peak_within_charge(self):
        # the dense kernels are charged dense_bytes(V, N): 43.4 MiB on this torus
        side, window = 30, 10
        rise = _peak_rise(kind="identity", model={"name": "torus", "side": side},
                          n_steps=window)
        assert rise <= dense_bytes(side * side, window) + INTERPRETER_ALLOWANCE

    def test_mtp_peak_within_charge(self):
        # the qlast transport's window is its horizon, 10
        side = 30
        rise = _peak_rise(kind="mtp", model={"name": "torus", "side": side},
                          transport="qlast:5:10")
        assert rise <= dense_bytes(side * side, 10) + INTERPRETER_ALLOWANCE

    @pytest.mark.parametrize("kind,sampler", [
        ("voter", "voter_ensemble"),
        ("ctcollide", "continuous_collision_ensemble"),
    ])
    def test_output_rows_over_memory_cap_fail_before_sampling(
            self, kind, sampler, tmp_path, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(f"collisionlab.experiment_cli.{sampler}", sample)
        # the results fit the cap; the rows of the output file do not
        cfg = _cfg(kind=kind, model={"name": "torus", "side": 3},
                   replicas=2**31 // CSV_ROW_BYTES)
        assert validate(cfg) == []
        cfg = replace(cfg, output=str(tmp_path / "rows.csv"))
        assert any(p.startswith("replicas:") and "memory cap" in p for p in validate(cfg))
        with pytest.raises(ResourceLimitError, match="replicas need"):
            run(cfg)

    @pytest.mark.parametrize("kind,fields,sampler", [
        ("voter", {"model": {"name": "torus", "side": 64}, "replicas": 10**7},
         "voter_ensemble"),
        ("collide", {"model": {"name": "path", "R": 10**6}, "replicas": 10**9,
                     "horizons": tuple(range(1, 101))}, "collision_growth"),
        ("ctcollide", {"model": {"name": "torus", "side": 4}, "replicas": 10**9},
         "continuous_collision_ensemble"),
    ])
    def test_replica_results_over_memory_cap_fail_before_sampling(
            self, kind, fields, sampler, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(f"collisionlab.experiment_cli.{sampler}", sample)
        cfg = _cfg(kind=kind, **fields)
        assert any(p.startswith("replicas:") and "memory cap" in p for p in validate(cfg))
        with pytest.raises(ResourceLimitError, match="replicas need"):
            run(cfg)

    def test_dumped_walks_over_memory_cap_named(self, tmp_path):
        # 2 x 2000 walks of 100001 steps need 3.2 GB, though the path fits
        cfg = _cfg(kind="collide", model={"name": "path", "R": 10**6}, horizons=(10**5,),
                   replicas=2000, dump_limit=2000, dump_trajectories=str(tmp_path / "w.csv"))
        assert [p.split(":")[0] for p in validate(cfg)] == ["dump_trajectories"]

    def test_percolation_dense_cap_checked_after_build(self):
        # the cluster's vertex count is unknown until it is built
        cfg = _cfg(kind="identity", model={"name": "percolation", "n": 200, "seed": 0},
                   n_steps=4)
        assert validate(cfg) == []
        with pytest.raises(ResourceLimitError, match="dense kernels on 13507 vertices"):
            run(cfg)

    @pytest.mark.parametrize("field,value,named", [
        ("replicas", "2", "replicas"), ("replicas", True, "replicas"),
        ("replicas", 2.5, "replicas"), ("tolerance", "1e-3", "tolerance"),
        ("dump_limit", "2", "dump_limit"), ("workers", 0, "workers"),
        ("master_seed", 2**64, "master_seed"), ("n_steps", 2.5, "n_steps"),
        ("grid", "8", "grid"), ("t_max", 0.0, "t_max"), ("start", "0", "start"),
        ("horizons", ["abc"], "horizons[0]"), ("horizons", [4, 2.7], "horizons[1]"),
        ("horizons", "4", "horizons[0]"),
    ])
    def test_mistyped_field_named(self, field, value, named, tmp_path):
        doc = {"kind": "collide", "model": {"name": "path", "R": 5}, "horizons": [4],
               "replicas": 4, field: value}
        cfg = config_from_dict(doc)
        assert [p.split(":")[0] for p in validate(cfg)] == [named]
        with pytest.raises(ConfigError, match="^" + re.escape(named + ":")):
            run(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == 2

    def test_integral_floats_run_as_integers(self):
        doc = {"kind": "collide", "model": {"name": "path", "R": 5}, "horizons": [4.0],
               "replicas": 4.0}
        env = run(config_from_dict(doc))
        assert env.payload["stats"][0]["horizon"] == 4
        assert env.payload["stats"][0]["replicas"] == 4
        assert env.config["horizons"] == [4.0]  # the echo is the config as given

    @pytest.mark.parametrize("model,field", [
        ({"name": "path", "R": "abc"}, "model.R"),
        ({"name": "percolation", "n": "abc"}, "model.n"),
        ({"name": "torus", "side": 2.7}, "model.side"),
        ({"name": "path", "R": 5, "Q": 3}, "model.Q"),
        ({"name": "percolation", "n": 4, "p": 1.5}, "model.p"),
        ({"name": "percolation", "n": 4, "seed": 2**64}, "model.seed"),
        ({"name": "ust_torus", "side": 3, "seed": 2**64}, "model.seed"),
    ])
    def test_malformed_model_param_named(self, model, field, capsys):
        cfg = _cfg(kind="identity", model=model, n_steps=2)
        assert any(p.startswith(field + ":") for p in validate(cfg))
        with pytest.raises(ConfigError, match=f"^{field}:"):
            run(cfg)
        argv = ["validate", "--kind", "identity", "--model", model["name"], "--N", "2"]
        for key, value in model.items():
            if key != "name":
                argv += ["--model-param", f"{key}={value}"]
        assert main(argv) == 2
        assert any(p.startswith(field + ":") for p in json.loads(capsys.readouterr().out))

    @pytest.mark.parametrize("model", [{"name": "percolation", "n": 4},
                                       {"name": "ust_torus", "side": 3}])
    def test_widest_model_seed_accepted(self, model):
        cfg = _cfg(kind="gen", model={**model, "seed": 2**64 - 1})
        assert validate(cfg) == []
        assert run(cfg).payload["network"]["vertices"] >= 1

    def test_voter_rows_of_a_network_file_charged_before_sampling(self, tmp_path, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr("collisionlab.experiment_cli.voter_ensemble", sample)
        monkeypatch.setattr("collisionlab.graph_core.MEMORY_BUDGET", 10**6)
        path = tmp_path / "path.json"
        path.write_text(json.dumps(nets.path_n(2000).to_json_dict()))
        # 1,000 rows of 2,000 opinions exceed the cap; a file's vertex count
        # is known only once it loads, so validate cannot charge them
        cfg = _cfg(kind="voter", network_file=str(path), replicas=1000, t_max=1.0)
        assert validate(cfg) == []
        with pytest.raises(ResourceLimitError, match="replicas need"):
            run(cfg)
        # a model of as many vertices is refused in validate
        torus = replace(cfg, network_file=None, model={"name": "torus", "side": 45})
        assert any(p.startswith("replicas:") for p in validate(torus))

    def test_voter_event_budget_past_numpy_refused(self, tmp_path, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr("collisionlab.experiment_cli.voter_ensemble", sample)
        # the default t_max of 50 V^2 asks for 50 V^3 events, 9.26e18 on torus
        # 755, past numpy's Poisson limit of 9.22e18
        torus = _cfg(kind="voter", model={"name": "torus", "side": 755}, replicas=1)
        assert [p.split(":")[0] for p in validate(torus)] == ["t_max"]
        assert validate(replace(torus, model={"name": "torus", "side": 754})) == []
        assert validate(replace(torus, t_max=float("inf"))) == []
        # a file's vertex count is known only once it loads
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(nets.p3().to_json_dict()))
        cfg = _cfg(kind="voter", network_file=str(path), t_max=4e18)
        assert validate(cfg) == []
        with pytest.raises(ConfigError, match="t_max: V . t_max"):
            run(cfg)

    def test_run_raises_typed_errors(self):
        with pytest.raises(CertificateViolationError):
            run(_cfg(kind="collide", model={"name": "path", "R": 2},
                     horizons=(10,), replicas=5))
        with pytest.raises(ResourceLimitError):
            run(_cfg(kind="identity", model={"name": "grid", "R": 300}, n_steps=4))
        with pytest.raises(ConfigError):
            run(_cfg(kind="collide", model={"name": "path", "R": 5},
                     horizons=(2,), replicas=0))
        with pytest.raises(ConfigError):
            run(_cfg(kind="identity", model={"name": "nosuch"}, n_steps=4))


# runs with an infinite float limit, which ``validate`` accepts
_NO_LIMIT = [
    ("voter", "t_max", {"replicas": 10}),
    ("identity", "tolerance", {"n_steps": 4}),
    ("mtp", "tolerance", {"transport": "adjacency"}),
]


def _strict_json(text):
    """``text`` parsed as standard JSON, which has no Infinity or NaN."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


class TestRun:
    def test_identity_payload(self):
        env = run(_cfg(kind="identity", model={"name": "path", "R": 2}, n_steps=4))
        assert env.payload["total"] == pytest.approx(1.0, abs=1e-9)
        assert env.payload["u"] == 2
        assert env.payload["N"] == 4

    def test_collide_envelope_shape(self):
        env = run(_cfg(kind="collide", model={"name": "comb", "R": 101},
                       horizons=(100,), replicas=10))
        assert len(env.payload["stats"]) == 1
        assert env.payload["stats"][0]["horizon"] == 100
        assert env.payload["stats"][0]["replicas"] == 10

    def test_mtp_payload(self, tmp_path):
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(nets.p3().to_json_dict()))
        env = run(_cfg(kind="mtp", network_file=str(path),
                       transport="leaf_adjacency", root_law="biased"))
        assert env.payload == {"out": 0.5, "in": 1.0, "verdict": "violated"}

    def test_indeterminate_mtp_writes_strict_json(self, tmp_path):
        # conductances of 1e13 put the qlast transport past its value cap: the
        # masses are undefined and echo as null in both files
        path = tmp_path / "star.json"
        star = build_network(5, [(0, v, 1e13) for v in range(1, 5)])
        path.write_text(json.dumps(star.to_json_dict()))
        out, envelope = tmp_path / "out.json", tmp_path / "env.json"
        assert main(["mtp", "--network", str(path), "--transport", "qlast:0:1",
                     "--output", str(out), "--envelope", str(envelope)]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        payload = {"out": None, "in": None, "verdict": "indeterminate"}
        assert json.loads(out.read_text(), parse_constant=reject) == payload
        assert json.loads(envelope.read_text(), parse_constant=reject)["payload"] == payload
        env = run(_cfg(kind="mtp", network_file=str(path), transport="qlast:0:1"))
        assert json.loads(env.deterministic_bytes())["payload"] == payload

    def test_gen_writes_network_and_sidecar(self, tmp_path):
        out = tmp_path / "net.json"
        env = run(_cfg(kind="gen", model={"name": "comb", "R": 2}, output=str(out)))
        net = network_from_json(json.loads(out.read_text()))
        assert net.vertex_count == 15
        sidecar = json.loads((tmp_path / "net.sidecar.json").read_text())
        assert sidecar["certificate"]["horizon"] == 1
        assert env.payload["sidecar"]["start"] == sidecar["start"]

    def test_voter_csv(self, tmp_path):
        out = tmp_path / "voter.csv"
        env = run(_cfg(kind="voter", model={"name": "path", "R": 1},
                       replicas=50, t_max=450.0, output=str(out)))
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replica", "consensus_value", "consensus_time"]
        assert len(rows) == 51
        assert env.payload["consensus_fraction"] == 1.0

    @pytest.mark.parametrize("kind,rows", [("voter", "_voter_rows"), ("ctcollide", "_ct_rows")])
    def test_rows_built_only_with_output(self, kind, rows, tmp_path, monkeypatch):
        built = []
        make_rows = getattr(experiment_cli, rows)

        def counted(*args):
            built.append(kind)
            yield from make_rows(*args)

        monkeypatch.setattr(experiment_cli, rows, counted)
        cfg = _cfg(kind=kind, model={"name": "torus", "side": 3}, replicas=30, t_max=5.0)
        run(cfg)
        assert built == []
        out = tmp_path / "rows.csv"
        run(replace(cfg, output=str(out)))
        assert built == [kind]
        assert len(out.read_text().splitlines()) == 31

    def test_ctcollide_csv(self, tmp_path):
        out = tmp_path / "ct.csv"
        env = run(_cfg(kind="ctcollide", model={"name": "path", "R": 1},
                       replicas=20, t_max=2.0, grid=50, output=str(out)))
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replica", "T_max", "measure", "integral_grid_estimate"]
        assert len(rows) == 21
        assert env.payload["replicas"] == 20

    def test_explicit_start_lifts_certificate(self):
        # a chosen start turns the truncation into a plain finite network,
        # so horizons beyond the certified range are legitimate
        env = run(_cfg(kind="collide", model={"name": "path", "R": 5}, start=0,
                       horizons=(20,), replicas=10))
        assert env.payload["stats"][0]["horizon"] == 20
        with pytest.raises(CertificateViolationError):
            run(_cfg(kind="collide", model={"name": "path", "R": 5},
                     horizons=(20,), replicas=10))

    def test_deterministic_bytes_across_workers(self):
        cfg = _cfg(kind="collide", model={"name": "path", "R": 51},
                   horizons=(50,), replicas=700, master_seed=5)
        a = run(cfg)
        b = run(_cfg(kind="collide", model={"name": "path", "R": 51},
                     horizons=(50,), replicas=700, master_seed=5, workers=2))
        assert a.deterministic_bytes() == b.deterministic_bytes()

    @pytest.mark.parametrize("kind,field,extra", _NO_LIMIT)
    def test_infinite_limit_echoes_null(self, kind, field, extra, tmp_path):
        # JSON has no infinity: "no limit" is null in both forms of the envelope
        env = run(_cfg(kind=kind, model={"name": "torus", "side": 3}, **{field: math.inf},
                       envelope_path=str(tmp_path / "env.json"), **extra))
        doc = json.loads(env.deterministic_bytes())
        assert doc["config"][field] is None
        assert _strict_json(env.to_json()) == _strict_json((tmp_path / "env.json").read_text())
        if kind == "voter":
            assert doc["payload"]["t_max"] is None
            assert doc["payload"]["consensus_fraction"] == 1.0

    def test_config_round_trip(self, tmp_path):
        cfg = _cfg(kind="identity", model={"name": "path", "R": 2}, n_steps=4,
                   workers=4, output=str(tmp_path / "identity.json"))
        env = run(cfg)
        again = config_from_dict(env.config)
        assert again.canonical() == env.config


_KIND_FIELDS = {
    "collide": {"horizons": (4,), "replicas": 5},
    "identity": {"n_steps": 3},
    "voter": {"replicas": 5, "t_max": 1.0},
    "ctcollide": {"replicas": 5, "t_max": 1.0},
}


def test_voter_row_hash_is_one_hash_of_the_rows(monkeypatch):
    # the blocks, the last one short, hash the whole (value, time) float64 table
    monkeypatch.setattr(experiment_cli, "HASH_ROWS", 7)
    ens = interacting.voter_ensemble(nets.cycle(5), [1, 0, 0, 0, 0], 3.0, 30, 8)
    table = np.column_stack([ens.consensus_value, ens.consensus_time]).astype("<f8")
    assert (ens.consensus_value == -1).any() and (ens.consensus_value >= 0).any()
    assert experiment_cli._sha256_voter_rows(ens) == hashlib.sha256(table.tobytes()).hexdigest()


class TestStartRange:
    @pytest.mark.parametrize("kind", sorted(_KIND_FIELDS))
    @pytest.mark.parametrize("start", [-1, 16, 10_000])
    def test_out_of_range_start_named(self, kind, start):
        # torus side 4 has vertices 0..15
        cfg = _cfg(kind=kind, model={"name": "torus", "side": 4}, start=start,
                   **_KIND_FIELDS[kind])
        with pytest.raises(ConfigError, match=r"^start: "):
            run(cfg)

    @pytest.mark.parametrize("kind", sorted(_KIND_FIELDS))
    @pytest.mark.parametrize("model,V", [({"name": "torus", "side": 4}, 16),
                                         ({"name": "ust_torus", "side": 4}, 16),
                                         ({"name": "path", "R": 7}, 15)])
    def test_out_of_range_start_refused_unbuilt(self, kind, model, V, monkeypatch):
        def build(*args):
            raise AssertionError("the model was built")

        # the vertex count of these models is known before building
        monkeypatch.setitem(MODELS, model["name"], replace(MODELS[model["name"]], build=build))
        cfg = _cfg(kind=kind, model=model, start=V, **_KIND_FIELDS[kind])
        message = f"start: vertex {V} is outside [0, {V})"
        assert validate(cfg) == [message]
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            run(cfg)

    @pytest.mark.parametrize("kind,fields", [("gen", []), ("mtp", ["--transport", "adjacency"])])
    def test_gen_and_mtp_refuse_out_of_range_start(self, kind, fields, capsys):
        # neither reads a start, but the config that a run echoes names it
        flags = [*fields, "--model", "torus", "--model-param", "side=4", "--start", "99"]
        message = "start: vertex 99 is outside [0, 16)"
        assert main(["validate", "--kind", kind, *flags]) == 2
        assert json.loads(capsys.readouterr().out) == [message]
        assert main([kind, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


# count-dependent refusals: (field, config fields, error, memory cap or None).
# On torus 4 (16 vertices, 8,192 bytes of sites) a cap of 10,000 bytes
# refuses 250 voter rows of 16 + 33 bytes and the dense kernels, but not
# 250 rows of an unknown count (33 bytes each).
_COUNT_REFUSALS = [
    ("start", {"kind": "identity", "n_steps": 3, "start": 16}, ConfigError, None),
    ("start", {"kind": "ctcollide", "replicas": 2, "start": 16}, ConfigError, None),
    ("initial", {"kind": "voter", "replicas": 2, "t_max": 1.0, "initial": "single:16"},
     ConfigError, None),
    ("t_max", {"kind": "voter", "replicas": 2, "t_max": 4e18}, ConfigError, None),
    ("replicas", {"kind": "voter", "replicas": 250, "t_max": 1.0}, ResourceLimitError, 10_000),
    ("model", {"kind": "identity", "n_steps": 4}, ResourceLimitError, 10_000),
    ("model", {"kind": "mtp", "transport": "adjacency"}, ResourceLimitError, 10_000),
]

# what a run calls after its model is built
_SAMPLERS = ("collision_growth", "walk_pair", "last_collision_identity", "check_mtp",
             "voter_ensemble", "continuous_collision_ensemble")


def runner_refusals(source):
    """(function, line) of every ``raise`` and every memory check in the
    runners, ``_network_and_start`` and ``_parse_initial`` of ``source``: a
    run is refused by ``_violations`` alone."""
    checks = {"require_memory", "require_sites", "_require_results"}
    hits = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or not (
                fn.name.startswith("_run_") or fn.name in ("_network_and_start", "_parse_initial")):
            continue
        for node in ast.walk(fn):
            called = isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) in checks
            if called or isinstance(node, ast.Raise):
                hits.append((fn.name, node.lineno))
    return hits


class TestOneCheckPass:
    @pytest.mark.parametrize("field,fields,error,cap", _COUNT_REFUSALS)
    def test_network_file_refused_as_the_same_torus(self, field, fields, error, cap, tmp_path,
                                                    monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("built or sampled")

        path = tmp_path / "torus4.json"
        path.write_text(json.dumps(gen_torus(4).network.to_json_dict()))
        for name in _SAMPLERS + ("gen_torus",):
            monkeypatch.setattr(experiment_cli, name, fail)
        if cap is not None:
            monkeypatch.setattr("collisionlab.graph_core.MEMORY_BUDGET", cap)
        torus = _cfg(model={"name": "torus", "side": 4}, **fields)
        named = validate(torus)
        assert [p.split(":")[0] for p in named] == [field]
        with pytest.raises(error) as refused:
            run(torus)
        assert str(refused.value) == named[0]
        # the file's vertex count is known once it loads, before any sampling
        file = replace(torus, model=None, network_file=str(path))
        assert validate(file) == []
        with pytest.raises(error) as refused:
            run(file)
        assert str(refused.value) == named[0]

    def test_percolation_start_refused_after_build(self, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(experiment_cli, "collision_growth", sample)
        # the cluster of 13,507 vertices is known only once it is built
        cfg = _cfg(kind="collide", model={"name": "percolation", "n": 200, "seed": 0},
                   horizons=(4,), replicas=5, start=13507)
        assert validate(cfg) == []
        with pytest.raises(ConfigError, match=r"^start: vertex 13507 is outside \[0, 13507\)$"):
            run(cfg)

    @pytest.mark.parametrize("name", ["absent.json", ""])
    def test_network_file_not_a_file_named(self, name, tmp_path, capsys):
        # "" names tmp_path itself, a directory
        path = os.path.join(tmp_path, name)
        assert validate(_cfg(kind="collide", network_file=path, horizons=(5,))) == [
            f"network_file: {path} is not a file"]
        assert main(["validate", "--kind", "collide", "--network", path, "--horizons", "5"]) == 2
        assert json.loads(capsys.readouterr().out) == [f"network_file: {path} is not a file"]

    def test_runners_refuse_nothing(self):
        source = Path(experiment_cli.__file__).read_text()
        assert runner_refusals(source) == []

    def test_refusal_guard_finds_checks(self):
        source = ("def _run_x(config):\n    require_memory(8, 'x')\n"
                  "    graph_core.require_memory(8, 'x')\n"
                  "def _network_and_start(config, resolved):\n    raise ConfigError('start')\n"
                  "def _parse_initial(spec, net, start):\n    _require_results(spec, 3)\n"
                  "def _violations(config):\n    raise ConfigError('kind')\n")
        assert runner_refusals(source) == [("_run_x", 2), ("_run_x", 3),
                                           ("_network_and_start", 5), ("_parse_initial", 7)]


def _weighted_hub():
    """14 vertices; the hub has 12 distinct neighbors (one through parallel
    edges) of uneven conductance, so its row splits into 48 guide buckets
    and a draw there takes one ladder pass."""
    edges = [(0, i, 0.3 * (1 + i % 5)) for i in range(1, 13)]
    edges += [(i, i + 1, 1.7) for i in range(1, 12)]
    edges += [(0, 3, 0.45), (5, 5, 0.8), (12, 13, 2.5)]
    return {"vertices": 14, "edges": [list(e) for e in edges]}


class TestPinnedEnvelopes:
    """sha256 of deterministic bytes, fixed before the padded-table sampler
    and the two-array lattice walkers were replaced: the CSR sampler and the
    integer-coded pair state must reproduce every draw."""

    def _sha(self, cfg):
        return hashlib.sha256(run(cfg).deterministic_bytes()).hexdigest()

    COLLIDE_LATTICE = [
        ("path", 21, "080824c3f297edab60011bc35c9fcb7640d1eb7ee62251b922ec18f5aba71181"),
        ("grid", 22, "ca70bef8a210b4390ced957972f59c885c9d1e36e1956279095c702d814af695"),
        ("comb", 23, "cf47663c2c72c3ef38cc2ebf21d5862d90fee15be561de43fcc0a10da6ac1181"),
    ]

    @pytest.mark.parametrize("name,seed,sha", COLLIDE_LATTICE)
    def test_collide_lattice(self, name, seed, sha):
        # 600 replicas span a full and a partial chunk
        cfg = _cfg(kind="collide", model={"name": name, "R": 41}, horizons=(10, 40),
                   replicas=600, master_seed=seed)
        assert self._sha(cfg) == sha

    @pytest.mark.parametrize("workers,groups", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("name,seed,sha", COLLIDE_LATTICE)
    def test_collide_meta_counts_walker_steps(self, name, seed, sha, workers, groups):
        # meta is outside the deterministic body, which keeps its pin
        env = run(_cfg(kind="collide", model={"name": name, "R": 41}, horizons=(10, 40),
                       replicas=600, master_seed=seed, workers=workers))
        meta = env.meta
        assert meta["walker_steps"] == 2 * 600 * 40
        assert meta["walker_steps_per_s"] == meta["walker_steps"] / meta["wall_clock_s"]
        assert meta["chunk_groups"] == groups
        assert "build_s" not in meta  # the lattice walkers build no network
        assert hashlib.sha256(env.deterministic_bytes()).hexdigest() == sha

    def test_collide_meta_times_the_build(self):
        cfg = _cfg(kind="collide", model={"name": "percolation", "n": 30, "seed": 0},
                   start=0, horizons=(10,), replicas=64)
        env = run(cfg)
        assert 0.0 < env.meta["build_s"] <= env.meta["wall_clock_s"]
        # the time is outside the deterministic body
        assert env.deterministic_bytes() == run(cfg).deterministic_bytes()

    def test_collide_weighted_network_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "hub.json").write_text(json.dumps(_weighted_hub()))
        cfg = _cfg(kind="collide", network_file="hub.json", horizons=(4, 16),
                   replicas=600, master_seed=11)
        assert self._sha(cfg) == (
            "e33db87feed35f86308c8ece1adb19019b68e67209320594ed6388504365faaf"
        )

    VOTER_TORUS = _cfg(kind="voter", model={"name": "torus", "side": 4}, replicas=600,
                       master_seed=12)

    def test_voter_torus(self):
        # re-pinned when the jump chain replaced the clock-driven rounds, and
        # again when it stepped in blocks of rounds; the next tests check the
        # old pins against the replaced laws
        assert self._sha(self.VOTER_TORUS) == (
            "85e33692e781dfccc73099a5a605906cf43311c4b64151678ab8581d451c705d"
        )

    def test_voter_torus_jump_law_keeps_old_pin(self, monkeypatch):
        # the jump chain of one draw a round, through the same chunking,
        # still gives the bytes pinned before the blocks of rounds
        monkeypatch.setattr(interacting, "_voter_chunk",
                            partial(oracles.voter_group_loop, loop=oracles.voter_jump_chunk_loop))
        assert self._sha(self.VOTER_TORUS) == (
            "7f0fb1bfe5b3fd53eb2656f21bf27b6f6cd50693197a239390db8a53a561fb41"
        )

    def test_voter_torus_clock_law_keeps_old_pin(self, monkeypatch):
        # the clock-driven chunk the jump chain replaced, through the same
        # chunking, still gives the bytes pinned before the jump chain
        monkeypatch.setattr(interacting, "_voter_chunk", oracles.voter_group_loop)
        assert self._sha(self.VOTER_TORUS) == (
            "91e54e59ffd36a7b7fea6ce1db42f858e78a5e7c74bec77fd3b538079934c37c"
        )

    def _voter_torus_chunks(self):
        """(events, rounds) of each chunk of ``VOTER_TORUS``, by the block oracle."""
        initial = np.zeros(16, dtype=np.int8)
        initial[0] = 1  # single:start, start 0
        return oracles.per_chunk(oracles.voter_block_chunk_loop,
                                 (gen_torus(4).network, initial, 50.0 * 16**2, 12), 600)[3:]

    def test_voter_meta_counts_events(self):
        # meta is outside the deterministic body, which keeps its pin
        env = run(self.VOTER_TORUS)
        events, rounds = self._voter_torus_chunks()
        assert env.meta["events"] == events.sum()
        assert env.meta["events_per_s"] == env.meta["events"] / env.meta["wall_clock_s"]
        # one chunk group: the round loop runs until its longer chunk ends
        assert env.meta["rounds"] == rounds.max() < events.sum()
        assert env.meta["rounds_per_s"] == env.meta["rounds"] / env.meta["wall_clock_s"]
        bare = replace(env, meta={"wall_clock_s": env.meta["wall_clock_s"], "workers": 1})
        assert bare.deterministic_bytes() == env.deterministic_bytes()
        assert hashlib.sha256(env.deterministic_bytes()).hexdigest() == (
            "85e33692e781dfccc73099a5a605906cf43311c4b64151678ab8581d451c705d"
        )

    def test_voter_meta_sums_rounds_over_groups(self):
        # at two workers each chunk is its own group
        env = run(replace(self.VOTER_TORUS, workers=2))
        events, rounds = self._voter_torus_chunks()
        assert env.meta["events"] == events.sum()
        assert env.meta["rounds"] == rounds.sum() == oracles.group_rounds(rounds, 600, 2)
        assert hashlib.sha256(env.deterministic_bytes()).hexdigest() == (
            "85e33692e781dfccc73099a5a605906cf43311c4b64151678ab8581d451c705d"
        )

    def test_identity_torus(self):
        cfg = _cfg(kind="identity", model={"name": "torus", "side": 10}, n_steps=20)
        assert self._sha(cfg) == (
            "453db4bf2077fd137a25c6b685c85e164b34f4ad6460c2a62cc95b34ee5e032d"
        )

    @pytest.mark.parametrize("transport,root_law,sha", [
        # re-pinned when n_step_kernel became the last power of kernel_powers
        # (P^5 and P^10 moved by 5.6e-17); the next test checks the old pin
        # against the replaced matrix power
        ("qlast:10:20", "uniform",
         "50f3d7b3d6131c9d4c4a9c0aba41d4322bce1177a80d2609c17989a63be04894"),
        ("adjacency", "biased",
         "5504ca1e04da80947a39df8ca2c76303794d19cbca42ed1366459de26e9ee894"),
    ])
    def test_mtp_grid(self, transport, root_law, sha):
        cfg = _cfg(kind="mtp", model={"name": "grid", "R": 5}, transport=transport,
                   root_law=root_law)
        assert self._sha(cfg) == sha

    def test_mtp_grid_matrix_power_keeps_old_pin(self, monkeypatch):
        # the binary matrix power that served n_step_kernel before still gives
        # the bytes pinned before every P^n came from kernel_powers
        monkeypatch.setattr(mtp_check, "n_step_kernel", oracles.matrix_power_kernel)
        cfg = _cfg(kind="mtp", model={"name": "grid", "R": 5}, transport="qlast:10:20",
                   root_law="uniform")
        assert self._sha(cfg) == (
            "9572dc694329365f6a47e014366e38ca12242e72a448821ebaf5a64e7df52c92"
        )

    def test_ctcollide_torus(self):
        # re-pinned when the pair chain replaced two walks per replica; the
        # next test checks the old pin against the replaced chunk
        cfg = _cfg(kind="ctcollide", model={"name": "torus", "side": 4},
                   replicas=40, t_max=4.0, grid=16, master_seed=13)
        assert self._sha(cfg) == (
            "5a9984ebc032b3708170066a61c0ecf8abc22292368d6705f613afaa997e3c7c"
        )

    def test_ctcollide_torus_scalar_chunk_keeps_old_pin(self, monkeypatch):
        # the per-replica chunk the pair chain replaced, through the same
        # chunking, still gives the bytes pinned before the pair chain
        monkeypatch.setattr(interacting, "_ct_chunk", oracles.ct_group_scalar)
        cfg = _cfg(kind="ctcollide", model={"name": "torus", "side": 4},
                   replicas=40, t_max=4.0, grid=16, master_seed=13)
        assert self._sha(cfg) == (
            "f8b2e980a5404f0ee7d9cae7d630932880282b817ac3705c3a710813c37e95f9"
        )


def _gen_of_smallest(name, extra=0):
    """A gen config of model ``name`` with its integer parameters at minimum + ``extra``."""
    params = {k: p.minimum + extra for k, p in MODELS[name].params.items() if p.kind is int}
    return _cfg(kind="gen", model={"name": name, **params})


class TestRegistry:
    @pytest.mark.parametrize(
        "name", [n for n in MODELS if resolve_graph(_gen_of_smallest(n)).vertex_count])
    @pytest.mark.parametrize("extra", [0, 3])
    def test_known_vertex_count_matches_built_model(self, name, extra):
        resolved = resolve_graph(_gen_of_smallest(name, extra))
        assert resolved.vertex_count == resolved.model().network.vertex_count

    @pytest.mark.parametrize("name", [n for n, m in MODELS.items() if m.walker])
    def test_lattice_walker_only_when_collide_walks_it(self, name):
        # collide without a start walks the lattice; any other run builds it
        model = {"name": name, "R": 3}
        walks = _cfg(kind="collide", model=model, horizons=(2,))
        assert resolve_graph(walks).walker.certificate.horizon == 2
        for cfg in (replace(walks, start=0), _cfg(kind="gen", model=model),
                    _cfg(kind="voter", model=model)):
            assert resolve_graph(cfg).walker is None

    def test_validate_parses_every_run_flag(self):
        parser = build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for kind, sub in subs.choices.items():
            for action in sub._actions:
                if kind == "validate" or not action.option_strings or action.nargs == 0:
                    continue
                flag = action.option_strings[0]
                expected = getattr(parser.parse_args([kind, flag, "1"]), action.dest)
                got = getattr(parser.parse_args(["validate", flag, "1"]), action.dest)
                assert got == expected, (kind, flag)


class TestConfigDict:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"kind": "identity", "bogus": 1})

    def test_missing_kind_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"replicas": 5})

    def test_horizons_normalized(self):
        cfg = config_from_dict({"kind": "collide", "horizons": [4, 2],
                                "model": {"name": "path", "R": 9}})
        assert cfg.horizons == (4, 2)


class TestOutputPaths:
    """An output path that no run could write is refused before sampling."""

    FIELDS = [("output", "--output"), ("envelope_path", "--envelope"),
              ("dump_trajectories", "--dump-trajectories")]

    @pytest.fixture(autouse=True)
    def _no_sampling(self, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr("collisionlab.experiment_cli.collision_growth", sample)

    @staticmethod
    def _path(tmp_path, where):
        return {"missing": str(tmp_path / "absent" / "x.csv"), "directory": str(tmp_path),
                "number": 5}[where]

    @pytest.mark.parametrize("where,message", [
        ("missing", "does not exist"), ("directory", "is a directory"),
        ("number", "expected a file path"),
    ])
    @pytest.mark.parametrize("field", [field for field, _ in FIELDS])
    def test_validate_and_run_name_field(self, field, where, message, tmp_path):
        cfg = _cfg(kind="collide", model={"name": "path", "R": 11}, horizons=(5,),
                   replicas=10, **{field: self._path(tmp_path, where)})
        problems = validate(cfg)
        assert len(problems) == 1
        assert problems[0].startswith(f"{field}:") and message in problems[0]
        with pytest.raises(ConfigError, match=f"^{field}:"):
            run(cfg)

    @pytest.mark.parametrize("where", ["missing", "directory"])
    @pytest.mark.parametrize("field,flag", FIELDS)
    def test_main_reports_field(self, field, flag, where, tmp_path, capsys):
        rc = main(["collide", "--model", "path", "--model-param", "R=11", "--horizons", "5",
                   "--replicas", "10", flag, self._path(tmp_path, where)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {field}:")
        assert not (tmp_path / "absent").exists()


    def test_gen_sidecar_directory_refused_before_build(self, tmp_path, monkeypatch):
        # the sidecar is written after the network: a directory in its place
        # is refused before the model is built and before either file is written
        out = tmp_path / "g.json"
        (tmp_path / "g.sidecar.json").mkdir()
        cfg = _cfg(kind="gen", model={"name": "path", "R": 3}, output=str(out))
        problems = validate(cfg)
        assert len(problems) == 1
        assert problems[0].startswith("output:") and "g.sidecar.json is a directory" in problems[0]

        def build(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr("collisionlab.models._box_bonds", build)
        with pytest.raises(ConfigError, match="^output:.*sidecar"):
            run(cfg)
        assert main(["gen", "--model", "path", "--model-param", "R=3",
                     "--output", str(out)]) == 1
        assert not out.exists()


class TestCommandLine:
    def _parse(self, argv):
        return config_from_args(build_parser().parse_args(argv))

    def test_flags_build_model(self):
        cfg = self._parse(["collide", "--model", "comb", "--model-param", "R=101",
                           "--horizons", "10,100", "--replicas", "7"])
        assert cfg.model == {"name": "comb", "R": 101}
        assert cfg.horizons == (10, 100)
        assert cfg.replicas == 7

    def test_config_file_with_flag_override(self, tmp_path):
        doc = {"kind": "identity", "model": {"name": "path", "R": 2},
               "n_steps": 2, "master_seed": 7}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = self._parse(["identity", "--config", str(path), "--N", "4"])
        assert cfg.n_steps == 4  # flag wins
        assert cfg.master_seed == 7  # file survives

    def test_env_seed_override(self, tmp_path, monkeypatch):
        doc = {"kind": "identity", "model": {"name": "path", "R": 2},
               "n_steps": 2, "master_seed": 7}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("COLLISIONLAB_SEED", "99")
        cfg = self._parse(["identity", "--config", str(path)])
        assert cfg.master_seed == 99
        # explicit flag beats the environment
        cfg = self._parse(["identity", "--config", str(path), "--seed", "123"])
        assert cfg.master_seed == 123

    def test_default_seed_constant(self):
        cfg = self._parse(["identity", "--model", "path", "--model-param", "R=2",
                           "--N", "2"])
        assert cfg.master_seed == DEFAULT_MASTER_SEED

    def test_main_validate_exit_codes(self, capsys):
        rc = main(["validate", "--kind", "collide", "--model", "path",
                   "--model-param", "R=101", "--horizons", "100", "--replicas", "5"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == []
        rc = main(["validate", "--kind", "collide", "--model", "path",
                   "--model-param", "R=2", "--horizons", "100"])
        assert rc == 2

    def test_main_validate_names_oversized_dump(self, tmp_path, capsys):
        dump = tmp_path / "x.csv"
        rc = main(["validate", "--kind", "collide", "--model", "comb",
                   "--model-param", "R=20001", "--horizons", "10",
                   "--dump-trajectories", str(dump), "--dump-limit", "2"])
        assert rc == 2
        problems = json.loads(capsys.readouterr().out)
        assert any(p.startswith("dump_trajectories:") for p in problems)
        assert not dump.exists()

    def test_main_validate_takes_tolerance(self, capsys):
        rc = main(["validate", "--kind", "mtp", "--model", "path", "--model-param", "R=2",
                   "--transport", "adjacency", "--tolerance", "1e-6"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_main_runs_identity(self, capsys):
        rc = main(["identity", "--model", "path", "--model-param", "R=2", "--N", "4"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["payload"]["total"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kind,field,extra", _NO_LIMIT)
    def test_main_echoes_infinite_limit_as_null(self, kind, field, extra, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"name": "torus", "side": 3}, field: math.inf,
                                    **extra}))
        assert "Infinity" in path.read_text()  # json writes and reads it
        assert main([kind, "--config", str(path)]) == 0
        assert _strict_json(capsys.readouterr().out)["config"][field] is None

    def test_main_reports_errors(self, capsys):
        rc = main(["collide", "--model", "path", "--model-param", "R=2",
                   "--horizons", "100"])
        assert rc == 1
        assert "certified horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        # json accepts Infinity; a non-finite conductance is refused by name
        ('{"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, Infinity]]}', "conductance inf"),
        ('{"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, NaN]]}', "conductance nan"),
        ('{"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0, 4]]}', "network_file"),
        ('{"vertices": 3, "edges": [[0, 1, 1.0], [1]]}', "network_file"),
        ('{"vertices": 3}', "network_file"),
        ('{"edges": [[0, 1, 1.0], [1, 2, 1.0]]}', "network_file"),
        ('{"vertices": 3, "edges": [[0, 1, 1.0], [1, 2', "network_file"),
        # a vertex count that is not an integer is not truncated to one
        ('{"vertices": 3.7, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}',
         "network_file: no network read (ValueError: vertex_count"),
        ('{"vertices": true, "edges": [[0, 0, 1.0]]}',
         "network_file: no network read (ValueError: vertex_count"),
        ('{"vertices": NaN, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}',
         "network_file: no network read (ValueError: vertex_count"),
    ])
    def test_main_rejects_malformed_network_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "net.json"
        path.write_text(text)
        rc = main(["identity", "--network", str(path), "--N", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_main_rejects_missing_config_file(self, tmp_path, capsys):
        rc = main(["identity", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "FileNotFoundError" in err

    @pytest.mark.parametrize("text,error", [
        ('{"kind": "identity", "n_steps": ', "JSONDecodeError"),
        ("[1, 2]", "TypeError"),  # JSON, but not an object of fields
    ])
    def test_main_rejects_malformed_config_file(self, tmp_path, capsys, text, error):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        rc = main(["identity", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and error in err

    def test_main_rejects_missing_network_file(self, tmp_path, capsys):
        rc = main(["identity", "--network", str(tmp_path / "absent.json"), "--N", "4"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: network_file:")

    def test_dump_trajectories(self, tmp_path):
        dump = tmp_path / "walks.csv"
        rc = main(["collide", "--model", "path", "--model-param", "R=21",
                   "--horizons", "20", "--replicas", "6",
                   "--dump-trajectories", str(dump), "--dump-limit", "2",
                   "--envelope", str(tmp_path / "env.json")])
        assert rc == 0
        with open(dump) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replica", "walker", "step_or_entry_time", "vertex"]
        assert len(rows) == 1 + 2 * 2 * 21
