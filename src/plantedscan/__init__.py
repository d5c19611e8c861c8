"""Detection of a planted community in an inhomogeneous random graph.

The package samples graphs whose pairs are independent Bernoulli edges,
optionally with a multiplicatively boosted community, runs scan tests for
that boost (with known or unknown edge probabilities), computes the
detection threshold and the most informative subgraph of a community,
estimates test risk by Monte Carlo, and provides an exact or sampled
likelihood-ratio oracle for small instances.
"""

from .errors import BudgetError, NumericError, PlantedScanError, ValidationError
from .seeding import derive_seed, generator
from .kernels import (
    KernelTolerance,
    bennett_upper_tail_bound,
    entropy_h,
    entropy_h_inverse,
    kl_bernoulli,
)
from .model import (
    MAX_VERTICES,
    EdgeProbabilityModel,
    GeneralMatrix,
    GraphSample,
    Homogeneous,
    PlantedAlternative,
    RankOne,
    expected_edges_across_null,
    expected_edges_null,
    expected_total_null,
    model_from_json,
    model_to_json,
    read_edge_list,
    sample_alternative,
    sample_null,
    write_edge_list,
)
from .scan import (
    Exhaustive,
    Explicit,
    ScanConfig,
    ScanOutcome,
    SubsetFamily,
    WeightPrefix,
    estimate_expected_edges,
    estimate_from_totals,
    estimate_expected_edges_thresholded,
    min_blind_size,
    scan_known,
    scan_unknown,
    stat_known,
    stat_unknown,
)
from .boundary import (
    STANDARD_DISTRIBUTIONS,
    BoundaryResult,
    Degenerate,
    Empirical,
    OptimalSubgraph,
    Regime,
    ShiftedBernoulli,
    ShiftedExponential,
    ShiftedUniform,
    SurfaceRow,
    WeightDistribution,
    boundary_surface,
    optimal_subgraph,
    quantile_boundary,
    standard_table,
    threshold_scaling,
    two_weight_regime,
    two_weight_threshold,
    write_surface_csv,
)
from .lr import (
    BayesRiskResult,
    LrAverage,
    LrProblem,
    bayes_risk,
    likelihood_ratio_average,
    likelihood_ratio_single,
)
from .audit import (
    AuditEntry,
    AuditReport,
    audit_assumption_1_1,
    audit_assumption_1_2,
    audit_assumption_2,
    audit_assumption_3,
)
from .harness import (
    TESTS,
    ExperimentConfig,
    RateWithError,
    RiskEstimate,
    estimate_risk,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PlantedScanError", "ValidationError", "BudgetError", "NumericError",
    # seeding
    "derive_seed", "generator",
    # kernels
    "KernelTolerance", "entropy_h", "entropy_h_inverse", "kl_bernoulli",
    "bennett_upper_tail_bound",
    # model
    "MAX_VERTICES", "Homogeneous", "RankOne", "GeneralMatrix",
    "EdgeProbabilityModel", "PlantedAlternative", "GraphSample",
    "sample_null", "sample_alternative",
    "expected_edges_null", "expected_edges_across_null", "expected_total_null",
    "write_edge_list", "read_edge_list", "model_to_json", "model_from_json",
    # scan
    "Exhaustive", "WeightPrefix", "Explicit", "SubsetFamily", "ScanConfig",
    "ScanOutcome", "min_blind_size", "stat_known", "scan_known",
    "estimate_from_totals", "estimate_expected_edges", "estimate_expected_edges_thresholded",
    "stat_unknown", "scan_unknown",
    # boundary
    "Degenerate", "ShiftedBernoulli", "ShiftedUniform", "ShiftedExponential",
    "Empirical", "WeightDistribution", "STANDARD_DISTRIBUTIONS",
    "BoundaryResult", "OptimalSubgraph", "Regime", "SurfaceRow",
    "optimal_subgraph", "threshold_scaling", "quantile_boundary",
    "standard_table", "two_weight_threshold", "two_weight_regime",
    "boundary_surface", "write_surface_csv",
    # lr
    "LrProblem", "LrAverage", "BayesRiskResult", "likelihood_ratio_single",
    "likelihood_ratio_average", "bayes_risk",
    # audit
    "AuditEntry", "AuditReport", "audit_assumption_1_1", "audit_assumption_1_2",
    "audit_assumption_2", "audit_assumption_3",
    # harness
    "ExperimentConfig", "RateWithError", "RiskEstimate", "estimate_risk",
    "run_sweep", "TESTS",
]
