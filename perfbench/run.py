"""Benchmark for collisionlab: two workloads of ``experiment_cli.run()`` calls.

Run from the repository root:

    python3 perfbench/run.py --workload lattice_mc --seed 1 --seconds 50 --trace 0

A workload runs the ops of one or more op groups (see ``workloads.py``).
``--trace 0`` measures the named workload with ``workers=1`` and prints the
end-to-end metrics.  Before the timed rounds it times, through the public
builders and several times over, the set-up that each op's ``run()``
performs.  It then repeats rounds of the workload's ops for ``--seconds``,
each round bracketed by a fixed calibration walk (``calibration_seconds``),
and reports per-op medians of the ``run()`` times scaled to the host speed
at which that walk takes ``CALIBRATION_REF_S``; the raw times are kept in
the report.  Set-up and import times are scaled the same way.  The throughputs divide each op's fixed work by its scaled
``run()`` time.  One untimed ``workers=2`` pass runs every op again:
its outputs feed the exact-reference checks and its deterministic bytes
must equal those of the timed runs.  The timed runs use one worker because
on a host with two shared vCPUs a second worker process makes the times
follow the neighbours' load rather than the program.

``--trace 1`` runs every op group three ways (untraced ``workers=2``,
untraced ``workers=1``, traced ``workers=1``) and prints the per-layer
metrics, the tracing overhead and the single-worker speed-up; the spans are
written to ``.perfbench/``.  Per-layer metrics are taken on the groups that
load their layer, so one traced run reports all of them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import tracing
import workloads as wl

WORKERS = 1  # timed runs
PARALLEL_WORKERS = 2  # the untimed pass whose outputs are checked; the speed-up
IMPORT_REPEATS = 7
SETUP_REPEATS = 3
# the calibration walk's time on the host the baseline was taken on, in its
# fast state; run() times are scaled to this speed
CALIBRATION_REF_S = 0.07
OUT_DIR = ".perfbench"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("walker_steps_per_s", "1/s"),
    ("replicas_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import collisionlab.experiment_cli; print(time.perf_counter() - t)"
)


def calibration_seconds():
    """Time of a fixed walk written in this file, not in the package.

    Two walkers of 1024 replicas take 2000 steps through a random 4-regular
    table, in numpy calls on small arrays in a Python loop, as the
    package's steppers do.  The shared host runs everything up to half
    slower for stretches of seconds to minutes, so each round of a timed
    run is bracketed by this walk and its ``run()`` times are scaled by the
    walk's speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.integers(0, 4096, size=(4096, 4))
    pos = np.zeros((2, 1024), dtype=np.int64)
    hits = 0
    t0 = time.perf_counter()
    for _ in range(2000):
        pos = table[pos, rng.integers(0, 4, size=pos.shape)]
        hits += int(np.count_nonzero(pos[0] == pos[1]))
    return time.perf_counter() - t0


def speed_scales(walks):
    """Factor to the reference speed for each block timed between two walks."""
    return [2 * CALIBRATION_REF_S / (a + b) for a, b in zip(walks, walks[1:])]


def _import_package(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "collisionlab", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import collisionlab
    from collisionlab import (_parallel, collision_stats, experiment_cli, graph_core,
                              interacting, models, mtp_check, walk_engine)

    if os.path.dirname(os.path.abspath(collisionlab.__file__)) != os.path.join(src, "collisionlab"):
        return None
    return {"experiment_cli": experiment_cli, "models": models, "graph_core": graph_core,
            "walk_engine": walk_engine, "collision_stats": collision_stats,
            "mtp_check": mtp_check, "interacting": interacting, "_parallel": _parallel}


def _import_seconds(root):
    """Median over fresh interpreters of the scaled time ``import collisionlab`` takes."""
    src = os.path.join(root, "src")
    times, walks = [], [calibration_seconds()]
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src], cwd=root,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.strip()))
        walks.append(calibration_seconds())
    return statistics.median(t * f for t, f in zip(times, speed_scales(walks)))


# ---------------------------------------------------------------------------
# stamps
# ---------------------------------------------------------------------------


def _git_sha(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _openblas_threads():
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return "unknown"


def _stamp(root, workers):
    import numpy

    return {"nproc": os.cpu_count(), "workers": workers,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "openblas_threads": _openblas_threads(), "git_sha": _git_sha(root)}


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def _run_op(mods, op, workers):
    """Time one ``run()``; returns (seconds, envelope or None, error or None)."""
    ec = mods["experiment_cli"]
    config = ec.config_from_dict(dict(op.config, workers=workers))
    t0 = time.perf_counter()
    try:
        envelope = ec.run(config)
    except Exception as exc:  # an op failure is counted, not fatal to the benchmark
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, envelope, None


def _setup(mods, op):
    """The set-up ``run()`` performs for ``op``, through the public builders.

    Returns (seconds, network or None, start vertex).  Lattice walkers are
    only constructed, never materialized.
    """
    ec, we = mods["experiment_cli"], mods["walk_engine"]
    config = ec.config_from_dict(dict(op.config, workers=WORKERS))
    t0 = time.perf_counter()
    resolved = ec.resolve_graph(config)
    if resolved.walker is not None and config.kind == "collide" and config.start is None:
        return time.perf_counter() - t0, None, None
    model = resolved.model()
    net = model.network
    start = config.start if config.start is not None else (model.start or 0)
    if config.kind in ("collide", "voter", "ctcollide"):
        we.NetworkStepper(net, start)
    return time.perf_counter() - t0, net, start


def _reference(op, net, start):
    """Exact reference for ``op``; also records the size of its network."""
    if net is not None:
        op.sizes.update(vertices=net.vertex_count, edges=net.edge_count)
    return checks.reference(op, net, start)


def _references(mods, ops):
    return [_reference(op, *_setup(mods, op)[1:]) for op in ops]


def _pass(mods, ops, workers):
    return [_run_op(mods, op, workers) for op in ops]


def _traced_pass(mods, ops, workers=1):
    """Run every op with the tracer installed.

    With ``workers > 1`` spans of code that runs in worker processes are
    lost, but the results captured at the layer boundaries in this process
    are complete.
    """
    tracer = tracing.Tracer(mods)
    results = []
    with tracer:
        for i, op in enumerate(ops):
            tracer.op = i
            results.append(_run_op(mods, op, workers))
            tracer.end_op()
    return tracer, results


def _judge(ops, refs, timed, traced, tracer):
    """Per-op problems: raised, differing bytes, or a failed output check.

    ``traced`` is the pass whose captures feed the checks; its deterministic
    bytes must equal those of every run in ``timed``.
    """
    verdicts = []
    for i, op in enumerate(ops):
        runs = [r[i] for r in timed] + [traced[i]]
        errors = sorted({r[2] for r in runs if r[2] is not None})
        if errors:
            verdicts.append(("raised", errors))
            continue
        blobs = {r[1].deterministic_bytes() for r in runs}
        if len(blobs) != 1:
            verdicts.append(("mismatch", ["deterministic bytes differ between the runs"]))
            continue
        problems = checks.check(op, traced[i][1].payload, tracer.captures.get(i, {}), refs[i])
        verdicts.append(("check", problems) if problems else ("ok", []))
    return verdicts


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(mods, root, workload, seed, seconds, workdir):
    import_s = _import_seconds(root)
    ops = wl.build_ops(workload, seed, workdir)

    # each op's set-up, timed through the public builders several times
    # before the timed rounds; the first build also gives the exact reference.
    # Every block of set-ups or of runs lies between two calibration walks.
    t_start = time.perf_counter()
    setup_rounds, refs, setup_walks = [], [], [calibration_seconds()]
    for k in range(SETUP_REPEATS):
        row = []
        for op in ops:
            seconds_setup, net, start = _setup(mods, op)
            if k == 0:
                refs.append(_reference(op, net, start))
            del net
            row.append(seconds_setup)
        setup_rounds.append(row)
        setup_walks.append(calibration_seconds())

    # rounds over all ops while another round fits in ``seconds``
    rounds, calibration = [], [setup_walks[-1]]
    t_rounds = time.perf_counter()
    while True:
        rounds.append([_run_op(mods, op, WORKERS) for op in ops])
        calibration.append(calibration_seconds())
        now = time.perf_counter()
        if now - t_start + (now - t_rounds) / len(rounds) > seconds:
            break
    peak_rss = _peak_rss_mb()

    tracer, checked = _traced_pass(mods, ops, PARALLEL_WORKERS)
    verdicts = _judge(ops, refs, rounds, checked, tracer)

    scale = speed_scales(calibration)
    op_times = [[r[i][0] for r in rounds] for i in range(len(ops))]
    op_wall = [statistics.median(t * f for t, f in zip(times, scale)) for times in op_times]
    setup_scale = speed_scales(setup_walks)
    setups = [statistics.median(r[i] * f for r, f in zip(setup_rounds, setup_scale))
              for i in range(len(ops))]
    wall = sum(op_wall)
    metrics = {
        "wall_s": wall,
        "setup_s": import_s + sum(setups),
        "walker_steps_per_s": sum(op.walker_steps for op in ops) / wall,
        "replicas_per_s": sum(op.replicas for op in ops) / wall,
        "peak_rss_mb": peak_rss,
    }
    executions = len(rounds) + 1
    failed_ops = sum(1 for v in verdicts if v[0] != "ok")
    report = {
        "workload": workload, "groups": wl.WORKLOADS[workload],
        "why": wl.WORKLOAD_WHY[workload], "seed": seed, "trace": 0,
        "stamp": _stamp(root, WORKERS), "rounds": len(rounds), "import_s": import_s,
        "calibration_s": calibration,
        "ops": [{"name": op.name, "config": op.config, "sizes": op.sizes,
                 "replicas": op.replicas, "walker_steps": op.walker_steps,
                 "setup_s": setups[i], "wall_s": op_times[i],
                 "median_raw_wall_s": statistics.median(op_times[i]),
                 "median_wall_s": op_wall[i], "verdict": verdicts[i][0],
                 "problems": verdicts[i][1]}
                for i, op in enumerate(ops)],
        "metrics": metrics,
        "error_rate": failed_ops / len(ops),
    }
    result = {
        "correct": all(v[0] in ("ok", "raised") for v in verdicts),
        "attempted": executions * len(ops),
        "failed": executions * failed_ops,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }
    return report, result


def trace_all(mods, root, seed, workdir):
    stats, overhead, speedup, chunks, payload = {}, {}, {}, {}, {}
    attempted = failed = 0
    correct = True
    workload_reports = {}
    for workload in wl.GROUPS:
        ops = wl.build_group(workload, seed, workdir)
        refs = _references(mods, ops)
        fast = _pass(mods, ops, PARALLEL_WORKERS)
        single = _pass(mods, ops, 1)
        tracer, traced = _traced_pass(mods, ops)
        verdicts = _judge(ops, refs, [fast, single], traced, tracer)
        wall = {k: sum(r[0] for r in res) for k, res in
                (("workers2", fast), ("workers1", single), ("traced", traced))}
        overhead[workload] = wall["traced"] / wall["workers1"]
        speedup[workload] = wall["workers1"] / wall["workers2"]
        stats[workload] = tracing.SpanStats(tracer.spans)
        chunks[workload] = stats[workload].work["_parallel.run_chunked"]
        payload[workload] = tracer.payload_bytes
        tracer.save(os.path.join(root, OUT_DIR, f"spans-{workload}-seed{seed}.npz"),
                    {"workload": workload, "seed": seed,
                     "ops": [op.name for op in ops]})
        attempted += len(ops)
        failed += sum(1 for v in verdicts if v[0] != "ok")
        correct = correct and all(v[0] in ("ok", "raised") for v in verdicts)
        workload_reports[workload] = {
            "wall_s": wall, "overhead": overhead[workload], "speedup": speedup[workload],
            "ops": [{"name": op.name, "sizes": op.sizes, "verdict": v[0], "problems": v[1]}
                    for op, v in zip(ops, verdicts)],
        }

    rows = tracing.per_layer_metrics(stats, wl.GROUPS)
    chunked = ("lattice_mc", "network_mc", "ct_voter")
    for w in chunked:
        rows.append((f"parallel.chunks.{w}", "count", chunks[w], (w,), "wall_s"))
        rows.append((f"parallel.payload_bytes.{w}", "bytes", payload[w], (w,), "wall_s"))
        rows.append((f"parallel.speedup.{w}", "ratio", speedup[w], (w,), "wall_s"))
    for w in wl.GROUPS:
        rows.append((f"trace.overhead.{w}", "ratio", overhead[w], (w,), "all"))
    report = {"seed": seed, "trace": 1, "stamp": _stamp(root, "1 traced, 1 and 2 untraced"),
              "workloads": workload_reports,
              "per_layer": [{"name": n, "unit": u, "value": v, "workloads": list(w),
                             "moves": m} for n, u, v, w, m in rows]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": u} for n, u, v, _, _ in rows}}
    return report, result


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _print_measure(report, result):
    st = report["stamp"]
    print(f"workload {report['workload']}  seed {report['seed']}  rounds {report['rounds']}")
    print(f"  why: {report['why']}")
    print("  stamp: " + "  ".join(f"{k}={v}" for k, v in st.items()))
    for op in report["ops"]:
        cfg = op["config"]
        model = cfg.get("model") or {"network_file": os.path.basename(cfg["network_file"])}
        shape = {k: cfg[k] for k in ("horizons", "n_steps", "t_max", "replicas") if k in cfg}
        sizes = " ".join(f"{k}={v}" for k, v in {**model, **shape, **op["sizes"]}.items()
                         if k not in ("seed", "name"))
        print(f"  op {op['name']:<24} median {op['median_wall_s']:7.3f} s (raw "
              f"{op['median_raw_wall_s']:6.3f} s)  set-up "
              f"{op['setup_s']:7.3f} s  {op['verdict']:<8} {sizes}")
        for problem in op["problems"]:
            print(f"      {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:<20} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':<20} {report['error_rate']:14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} op runs failed)")


def _print_trace(report):
    print(f"traced run  seed {report['seed']}")
    print("  stamp: " + "  ".join(f"{k}={v}" for k, v in report["stamp"].items()))
    for w, r in report["workloads"].items():
        walls = "  ".join(f"{k} {v:.3f} s" for k, v in r["wall_s"].items())
        print(f"  {w:<14} {walls}  tracing overhead {100 * (r['overhead'] - 1):+.1f}%")
        for op in r["ops"]:
            if op["verdict"] != "ok":
                print(f"      {op['name']}: {op['verdict']} {'; '.join(op['problems'])}")
    print(f"  {'per-layer metric':<42} {'value':>14} unit   measured on -> moves")
    for row in report["per_layer"]:
        print(f"  {row['name']:<42} {row['value']:14.6g} {row['unit']:<6} "
              f"{','.join(row['workloads'])} -> {row['moves']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = os.getcwd()
    mods = _import_package(root)
    if mods is None:
        print("perfbench: src/collisionlab was not found under the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=os.path.join(root, OUT_DIR))
    try:
        if args.trace:
            report, result = trace_all(mods, root, args.seed, workdir)
            _print_trace(report)
            name = f"trace-seed{args.seed}.json"
        else:
            report, result = measure(mods, root, args.workload, args.seed, args.seconds, workdir)
            _print_measure(report, result)
            name = f"result-{args.workload}-seed{args.seed}.json"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(root, OUT_DIR, name), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
