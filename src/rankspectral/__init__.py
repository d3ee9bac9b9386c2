"""Distribution-free spectral tests for latent structure in symmetric matrices.

Rank-transform a hollow symmetric data matrix, then test for latent block
structure through the fluctuations of the leading eigenvalue and
eigenvector of the resulting normalized-rank matrix. The null distribution
of every statistic here is the same for all continuous entry distributions.
"""

import ctypes
import sys

from .symmetric import (
    AsymmetryError,
    FormatError,
    FORMATS,
    MatrixSource,
    SymmetricMatrix,
    load_matrix,
    pack_index,
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

# mallopt parameter numbers in <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _fix_malloc_thresholds() -> None:
    """Give every malloc block of 4 MiB or more its own mapping (glibc).

    glibc raises its mmap threshold to the size of each mapped block freed,
    up to 32 MiB, after which the N-entry arrays of a replicate come from
    heap arenas that keep what is freed; how the arrays of successive
    replicates interleave there (and, where replicates run in threads, the
    arrays of concurrent ones) then sets the peak RSS, which varies run to
    run. With the threshold fixed, such arrays go back to the system when
    freed and the peak is the live arrays. Forked replicate workers inherit
    the setting. A fixed threshold also stops glibc from raising
    the trim threshold with it, so that is set to twice the mmap threshold,
    as glibc would: at its default of 128 KiB, the heap would hand back and
    fault in again the pages of each block-sized temporary.
    """
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_MMAP_THRESHOLD, 4 << 20)
            mallopt(_M_TRIM_THRESHOLD, 8 << 20)


_fix_malloc_thresholds()

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
    "pack_index",
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
