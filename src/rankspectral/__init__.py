"""Distribution-free spectral tests for latent structure in symmetric matrices.

Rank-transform a hollow symmetric data matrix, then test for latent block
structure through the fluctuations of the leading eigenvalue and
eigenvector of the resulting normalized-rank matrix. The null distribution
of every statistic here is the same for all continuous entry distributions.
"""

from .symmetric import (
    AsymmetryError,
    FormatError,
    FORMATS,
    MatrixSource,
    SymmetricMatrix,
    load_matrix,
    pair_indices,
    save_matrix,
)
from .ranking import (
    Moments,
    RankMatrix,
    TieError,
    TiePolicy,
    moments,
    rank_transform,
    whiten,
)
from .spectra import (
    ConvergenceError,
    EigenPair,
    ESDSummary,
    esd_from_eigenvalues,
    full_spectrum,
    leading_eigenpair,
    semicircle_cdf,
    subspace_distance_sq,
)
from .inference import (
    TestResult,
    Z_0025,
    eigenvalue_statistic,
    eigenvector_statistic,
    run_test,
    std_normal_cdf,
)
from .models import (
    DistributionParseError,
    EntryDistribution,
    Exponential,
    Normal,
    Pareto,
    PlantedAssignment,
    TwoBlockAssignment,
    Uniform,
    parse_distribution,
    sample_homogeneous,
    sample_interpolated_rank,
    sample_planted_submatrix,
    sample_two_block,
)
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    eigen_relationship_experiment,
    fk_comparison_experiment,
    normal_qq_points,
    null_distribution_experiment,
    operator_norm_tail_experiment,
    rejection_rate_experiment,
    semicircle_experiment,
    subspace_recovery_ratio_experiment,
    variance_transition_experiment,
)
from .reproduce import TARGETS, reproduce_target
from .rng import derive_seed, make_generator

__version__ = "0.1.0"

__all__ = [
    "AsymmetryError",
    "ConvergenceError",
    "DistributionParseError",
    "EigenPair",
    "EntryDistribution",
    "ESDSummary",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentReport",
    "Exponential",
    "FormatError",
    "FORMATS",
    "MatrixSource",
    "Moments",
    "Normal",
    "Pareto",
    "PlantedAssignment",
    "RankMatrix",
    "SymmetricMatrix",
    "TARGETS",
    "TestResult",
    "TieError",
    "TiePolicy",
    "TwoBlockAssignment",
    "Uniform",
    "Z_0025",
    "derive_seed",
    "eigen_relationship_experiment",
    "eigenvalue_statistic",
    "eigenvector_statistic",
    "esd_from_eigenvalues",
    "fk_comparison_experiment",
    "full_spectrum",
    "leading_eigenpair",
    "load_matrix",
    "make_generator",
    "moments",
    "normal_qq_points",
    "null_distribution_experiment",
    "operator_norm_tail_experiment",
    "pair_indices",
    "parse_distribution",
    "rank_transform",
    "rejection_rate_experiment",
    "reproduce_target",
    "run_test",
    "sample_homogeneous",
    "sample_interpolated_rank",
    "sample_planted_submatrix",
    "sample_two_block",
    "save_matrix",
    "semicircle_cdf",
    "semicircle_experiment",
    "std_normal_cdf",
    "subspace_distance_sq",
    "subspace_recovery_ratio_experiment",
    "variance_transition_experiment",
    "whiten",
]
