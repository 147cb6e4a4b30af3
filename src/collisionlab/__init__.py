"""Desk-scale laboratory for random-walk collision experiments on finite networks."""

__version__ = "0.1.0"

from .errors import (
    CertificateViolationError,
    CollisionLabError,
    ConfigError,
    DisconnectedGraphError,
    EndpointOutOfRangeError,
    HorizonMismatchError,
    NonpositiveConductanceError,
    ResourceLimitError,
    TransportCapExceededError,
)
from .graph_core import (
    Network,
    TransitionKernel,
    build_network,
    component_labels,
    is_bipartite,
    kernel_powers,
    n_step_kernel,
    network_from_json,
    stationary_distribution,
)
from .models import (
    CombLattice,
    GridLattice,
    PathLattice,
    RootLaw,
    RootedModel,
    TruncationCertificate,
    apply_root_law,
    gen_comb,
    gen_grid_box,
    gen_path_segment,
    gen_percolation_cluster,
    gen_torus,
    gen_wilson_ust,
)
from .walk_engine import (
    JumpTrajectory,
    Trajectory,
    substream_rng,
    walk_continuous,
    walk_discrete,
    walk_pair,
)
from .collision_stats import (
    GrowthResult,
    HorizonEstimates,
    collision_growth,
    horizon_estimates,
    last_collision_identity,
    last_collision_identity_all,
    q0_profile,
    q0_profile_all,
    qlast_horizon,
)
from .mtp_check import (
    MassTransport,
    MtpVerdict,
    RootedDistribution,
    adjacency_transport,
    check_mtp,
    check_reversibility_labeled,
    leaf_adjacency_transport,
    qlast_transport,
    received_mass_identity_all,
    transport_by_name,
)
from .interacting import (
    CollisionMeasure,
    VoterConfiguration,
    VoterEnsembleResult,
    collision_measure,
    continuous_collision_ensemble,
    discretization_integral,
    dual_walker_positions,
    voter_ensemble,
    voter_simulate,
)
