"""Mass-transport bookkeeping and reversibility checks on rooted networks.

A mass transport assigns a nonnegative amount of mass sent from ``u`` to
``v`` on a given network.  For a random rooted network, "expected mass out"
is E[sum_v f(G, rho, v)] and "expected mass in" is E[sum_u f(G, u, rho)];
the uniform root law equates the two for every transport on a fixed finite
graph, while the conductance-biased root law instead makes the joint law of
(root, walk position) exchangeable.  Both certifications, and the exact
kernel identities connecting them, live here.

Transports are evaluated on labeled graphs (no isomorphism handling).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .collision_stats import q0_profile_all
from .errors import TransportCapExceededError
from .graph_core import Network, kernel_powers, n_step_kernel

TRANSPORT_VALUE_CAP = 1e12


@dataclass(frozen=True)
class MassTransport:
    """Nonnegative mass f(G, u, v) sent from u to v, as a matrix builder."""

    name: str
    builder: Callable[[Network], np.ndarray]
    window: int = 0  # window N of the q0 and qlast tables the builder needs

    def matrix(self, net):
        F = np.asarray(self.builder(net), dtype=float)
        if F.shape != (net.vertex_count, net.vertex_count):
            raise ValueError(f"transport {self.name} produced a matrix of shape {F.shape}")
        if (F < 0).any():
            raise ValueError(f"transport {self.name} produced negative mass")
        if (F > TRANSPORT_VALUE_CAP).any():
            raise TransportCapExceededError(
                f"transport {self.name} exceeds the value cap {TRANSPORT_VALUE_CAP:g}"
            )
        return F


def adjacency_transport():
    """f(u, v) = 1 when some edge joins u and v."""

    def build(net):
        n = net.vertex_count
        offsets, targets, _ = net.adjacency_csr()  # both directions of every edge
        F = np.zeros((n, n))
        F[np.repeat(np.arange(n), np.diff(offsets)), targets] = 1.0
        return F

    return MassTransport("adjacency", build)


def leaf_adjacency_transport():
    """f(u, v) = 1 when u has a single incident edge and it reaches v."""

    def build(net):
        base = adjacency_transport().builder(net)
        return base * (net.degrees == 1)[:, None]

    return MassTransport("leaf_adjacency", build)


def qlast_transport(n, N):
    """f(u, v) = c(u) * P(last meeting of two walks from u in [0, N] is at (n, v))."""
    if not 0 <= n <= N:
        raise ValueError(f"qlast transport needs 0 <= n <= N, got n={n}, N={N}")

    def build(net):
        Pn = n_step_kernel(net, n).matrix
        prof = q0_profile_all(net, N - n)[N - n]
        return net.vertex_conductance[:, None] * (Pn * Pn) * prof[None, :]

    return MassTransport(f"qlast:{n}:{N}", build, window=N)


def transport_by_name(name):
    """Resolve a CLI transport spec: adjacency | leaf_adjacency | qlast:<n>:<N>."""
    if name == "adjacency":
        return adjacency_transport()
    if name == "leaf_adjacency":
        return leaf_adjacency_transport()
    if name.startswith("qlast:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise ValueError("qlast transport spec must look like qlast:<n>:<N>")
        n, N = int(parts[1]), int(parts[2])
        return qlast_transport(n, N)
    raise ValueError(f"unknown transport {name!r}")


@dataclass(frozen=True)
class RootedDistribution:
    """Finite mixture of (network, root law) pairs with positive weights."""

    support: tuple  # of (Network, RootLaw, weight)

    def __post_init__(self):
        weights = [w for _, _, w in self.support]
        if not weights or min(weights) <= 0:
            raise ValueError("support weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("support weights must sum to 1")

    @classmethod
    def single(cls, net, root_law):
        return cls(((net, root_law, 1.0),))


def _masses(dist, transport):
    """(mass out, mass in), building the transport matrix once per network."""
    out = into = 0.0
    for net, law, weight in dist.support:
        F = transport.matrix(net)
        p = law.probabilities
        out += weight * float(p @ F.sum(axis=1))
        into += weight * float(p @ F.sum(axis=0))
    return out, into


class MtpVerdict(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class MtpCheck:
    verdict: MtpVerdict
    mass_out: float
    mass_in: float
    tolerance: float


def check_mtp(dist, transport, tolerance=1e-9):
    """Compare expected mass out and in; a transport cap hit is indeterminate."""
    try:
        out, into = _masses(dist, transport)
    except TransportCapExceededError:
        return MtpCheck(MtpVerdict.INDETERMINATE, float("nan"), float("nan"), tolerance)
    verdict = MtpVerdict.HOLDS if abs(out - into) <= tolerance else MtpVerdict.VIOLATED
    return MtpCheck(verdict, out, into, tolerance)


def _max_asymmetry(net, weights, n):
    """Max over (u, v) of |w(u) p_n(u, v) - w(v) p_n(v, u)|."""
    flow = weights[:, None] * n_step_kernel(net, n).matrix
    return float(np.abs(flow - flow.T).max())


def received_mass_identity_all(net, N):
    """Both sides of sum_u c(u) p_n(u, v)^2 = c(v) p_{2n}(v, v) for all v, n.

    Returns (lhs, rhs) arrays of shape (N + 1, V); the two agree because the
    conductance-weighted kernel is symmetric in its endpoints.
    """
    c = net.vertex_conductance
    lhs = np.empty((N + 1, net.vertex_count))
    rhs = np.empty_like(lhs)
    for n, Pn in enumerate(kernel_powers(net, N)):
        lhs[n] = c @ (Pn * Pn)
        rhs[n] = c * np.einsum("uv,vu->u", Pn, Pn)
    return lhs, rhs


def check_reversibility_labeled(net, root_law, n):
    """Max asymmetry of the joint law P(root = a, X_n = b) on a labeled graph.

    The conductance-biased root law makes the joint law exchangeable in
    (a, b); the uniform root law generally does not on irregular graphs.
    """
    return _max_asymmetry(net, root_law.probabilities, n)
