"""Signatures of squared-distance matrices of finite and sampled metric
measure spaces: inertia computation, limit-signature trajectories,
indefinite scaling embeddings, prescribed-signature constructions, and
seeded random-graph spectra."""

__version__ = "0.1.0"

from .errors import (
    EpsilonUnderflow,
    InvalidInput,
    MmsigError,
    MonotonicityViolation,
    NoConvergence,
    NumericalContractError,
    StrictnessViolated,
)
from .linalg import (
    EigenDecomposition,
    Inertia,
    as_sym_matrix,
    double_center,
    eig_sym,
    inertia,
    prefix_inertias,
    weighted_center,
)
from .spaces import (
    FiniteMetricSpace,
    Graph,
    PseudoEuclideanPointSet,
    from_distance_matrix,
    from_euclidean_points,
    from_graph,
    from_pseudo_euclidean,
    named_example,
    read_distance_csv,
    read_edge_list,
    s_matrix,
    squared_intervals,
    write_distance_csv,
)
from .sampling import (
    DiscreteMeasure,
    k_matrix,
    load_measure,
    parse_measure_spec,
    t_matrix,
    trial_seed,
)
from .signature import (
    EmbeddabilityVerdict,
    SignatureTrajectory,
    centered_signature,
    classify_embeddability,
    limit_signature_trajectory,
    mds_embed,
    sampled_signature_trajectory,
    space_signature,
    verify_isometry,
)
from .constructions import (
    CountableRadoModel,
    perturb_to_max_negative,
    prescribed_signature_space,
    union_r_matrix,
    union_space,
)
from .spectral import (
    ESD,
    RatioTrajectory,
    delta_ratio,
    ks_to_semicircle,
    rado_ratio_experiment,
    rado_ratio_trials,
    semicircle_cdf,
)
