"""Evaluation and comparison of probabilistic risk models for binary outcomes.

The library works on grouped model tables (assigned risk, mass, outcome
prevalence per group). It decomposes the Brier score into calibration bias
and precision loss, measures discrimination (outcome correlation, integrated
discrimination, concordance), compares nested models through their joint
cross-classification, converts annual rates to horizon risks under competing
mortality, and ships a synthetic covariate family with exactly known risks
for end-to-end validation.
"""

from .comparison import (
    CellBias,
    ComparisonReport,
    SubgroupGain,
    SubgroupGainReport,
    compare,
    cross_classified_bias,
    subgroup_precision_gain,
    transfer_calibration,
)
from .distributions import (
    RiskDistribution,
    constant_distribution,
    deterministic_distribution,
    make_distribution,
)
from .errors import (
    DegenerateBins,
    DegenerateOutcome,
    EmptyInput,
    GroupKeyMismatch,
    InternalInvariantError,
    InvariantViolation,
    MassSumOutOfTolerance,
    MeanMismatch,
    MissingAssignment,
    NegativeRate,
    NonFiniteValue,
    ParameterOutOfRange,
    ParseError,
    RiskEvalError,
    RiskOutOfRange,
    ValidationError,
    ZeroPersonYears,
)
from .ingestion import (
    CrossDecileCell,
    CrossDecileTable,
    IndividualRecord,
    IndividualRecords,
    bin_individuals,
    example_cross_decile_path,
    load_cross_decile,
    load_grouped,
    load_individuals,
    load_joint,
    read_cross_decile,
    ten_year_risk,
    write_grouped,
    write_joint,
)
from .metrics import (
    ConditionalRiskDistributions,
    MetricsReport,
    attributes_diagram,
    brier_score,
    calibration_bias_sq,
    concordance,
    conditional_distributions,
    evaluate,
    integrated_discrimination,
    precision_loss,
    prevalence_variance,
    ro_correlation,
)
from .synthetic import (
    CovariateCell,
    SyntheticPopulation,
    build_population,
    closed_form_prevalence_oracle,
    cross_classify,
    project_model,
    risk_distribution,
)
from .tables import (
    Group,
    GroupedModelTable,
    JointCell,
    JointModelTable,
    make_grouped_table,
    make_joint_table,
    perfect_model_table,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
