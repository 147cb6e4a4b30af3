"""Exact references and the output check of every op.

Monte Carlo means are compared with exact expected collision counts
E[#collisions in 1..T] = sum_{n<=T} sum_v p_n(o, v)^2 (Krishnapur-Peres):
in closed form on the line and the grid, and by sparse propagation of one
vector on networks.  Standard errors come from the raw per-replica results
seen at the layer boundary in the traced pass.  References are computed
outside every timed region.
"""

from __future__ import annotations

import os

import numpy as np

Z = 5.0  # tolerance in standard errors for every statistical check
IDENTITY_TOL = 1e-9


def _return_probabilities(T):
    """u_n = C(2n, n) / 4^n for n = 0..T, the chance a line walk is at 0 at time 2n."""
    ratios = (2 * np.arange(1, T + 1) - 1) / (2 * np.arange(1, T + 1))
    return np.concatenate([[1.0], np.cumprod(ratios)])


def lattice_reference(check, horizons):
    """Exact mean collision count at each horizon on the line or the grid."""
    u = _return_probabilities(max(horizons))
    if check == "grid":
        u = u * u  # the grid walk is two independent line walks after a rotation
    cum = np.cumsum(u) - 1.0  # time 0 is not counted
    return {h: float(cum[h]) for h in horizons}


def network_reference(net, start, horizons):
    """sum_{n=1..T} sum_v p_n(start, v)^2 at each horizon T, by sparse propagation."""
    offsets, targets, weights = net.adjacency_csr()
    V = net.vertex_count
    rows = np.repeat(np.arange(V), np.diff(offsets))
    step = weights / net.vertex_conductance[rows]
    p = np.zeros(V)
    p[start] = 1.0
    total = 0.0
    out = {}
    for n in range(1, max(horizons) + 1):
        p = np.bincount(targets, weights=p[rows] * step, minlength=V)
        total += float(p @ p)
        if n in horizons:
            out[n] = total
    return out


def measure_reference(net, start, t_max):
    """Integral over [0, t_max] of sum_v p_s(start, v)^2 for the rate-c(e) walk.

    The generator Q = C - diag(c) is symmetric, so p_s = U exp(s L) U^T and
    the integral is sum_k U[start, k]^2 (exp(2 t_max l_k) - 1) / (2 l_k).
    """
    offsets, targets, weights = net.adjacency_csr()
    V = net.vertex_count
    Q = np.zeros((V, V))
    rows = np.repeat(np.arange(V), np.diff(offsets))
    Q[rows, targets] = weights
    Q -= np.diag(net.vertex_conductance)
    lam, U = np.linalg.eigh(Q)
    w = U[start] ** 2
    small = np.abs(lam) < 1e-12
    integral = np.where(small, t_max, np.expm1(2 * t_max * lam) / np.where(small, 1.0, 2 * lam))
    return float(w @ integral)


def reference(op, net, start):
    """Exact reference for ``op`` given its built network (None for lattices)."""
    cfg = op.config
    if op.check in ("path", "grid"):
        return lattice_reference(op.check, cfg["horizons"])
    if op.check == "network":
        return network_reference(net, start, cfg["horizons"])
    if op.check == "ctcollide":
        return measure_reference(net, start, cfg["t_max"])
    if op.check == "voter":
        return 1.0 / net.vertex_count
    return None


def _se(values):
    return float(np.std(values, ddof=1) / np.sqrt(values.size))


def check(op, payload, capture, ref):
    """Problems found in ``op``'s payload; an empty list means it passed."""
    cfg, kind = op.config, op.check
    problems = []
    if kind in ("path", "grid", "network"):
        counts = capture.get("counts")
        if counts is None:
            return ["no per-replica counts were captured"]
        for i, s in enumerate(payload["stats"]):
            se = _se(counts[i])
            exact = ref[s["horizon"]]
            if not (se > 0 and abs(s["mean"] - exact) <= Z * se):
                problems.append(f"horizon {s['horizon']}: mean {s['mean']:.4f} vs exact "
                                f"{exact:.4f} (SE {se:.4f})")
    elif kind == "comb_growth":
        counts = capture.get("counts")
        if counts is None:
            return ["no per-replica counts were captured"]
        diff = counts[1] - counts[0]
        se = _se(diff)
        if not (se > 0 and diff.mean() > Z * se):
            problems.append(f"mean grew by {diff.mean():.3f} with SE {se:.3f}")
    elif kind == "dump":
        path = cfg["dump_trajectories"]
        limit = min(4, cfg["replicas"])  # the config's default dump_limit
        want = 1 + limit * 2 * (max(cfg["horizons"]) + 1)
        if not os.path.exists(path):
            problems.append("no trajectory dump was written")
        else:
            with open(path) as fh:
                got = sum(1 for _ in fh)
            if got != want:
                problems.append(f"trajectory dump has {got} lines, expected {want}")
    elif kind == "identity":
        if not abs(payload["total"] - 1.0) <= IDENTITY_TOL:
            problems.append(f"identity total {payload['total']!r} differs from 1")
    elif kind == "mtp":
        if payload["verdict"] != "holds":
            problems.append(f"mtp verdict {payload['verdict']!r}")
    elif kind == "ctcollide":
        table = capture.get("table")
        if table is None:
            return ["no per-replica measures were captured"]
        se = _se(table[:, 0])
        if not (se > 0 and abs(payload["mean_measure"] - ref) <= Z * se):
            problems.append(f"mean measure {payload['mean_measure']:.4f} vs exact "
                            f"{ref:.4f} (SE {se:.4f})")
    elif kind == "voter":
        n = payload["replicas"]
        se = np.sqrt(ref * (1 - ref) / n)
        if payload["consensus_fraction"] != 1.0:
            problems.append(f"consensus fraction {payload['consensus_fraction']}")
        if not abs(payload["consensus_ones_fraction"] - ref) <= Z * se:
            problems.append(f"P(all ones) {payload['consensus_ones_fraction']:.4f} vs "
                            f"1/V = {ref:.4f} (SE {se:.4f})")
    else:
        raise ValueError(f"unknown check {kind!r}")
    return problems
