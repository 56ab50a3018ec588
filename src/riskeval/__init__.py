"""Evaluation and comparison of probabilistic risk models for binary outcomes.

The library works on grouped model tables (assigned risk, mass, outcome
prevalence per group). It decomposes the Brier score into calibration bias
and precision loss, measures discrimination (outcome correlation, integrated
discrimination, concordance), compares nested models through their joint
cross-classification, converts annual rates to horizon risks under competing
mortality, and ships a synthetic covariate family with exactly known risks
for end-to-end validation.

`import riskeval` loads no submodule and no numpy: each name below is
imported from its submodule on first access (PEP 562).
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "comparison": (
        "CellBias",
        "CellBiasTable",
        "ComparisonReport",
        "SubgroupGain",
        "SubgroupGainReport",
        "SubgroupGainTable",
        "compare",
        "cross_classified_bias",
        "subgroup_precision_gain",
        "transfer_calibration",
    ),
    "distributions": (
        "RiskDistribution",
        "constant_distribution",
        "deterministic_distribution",
        "make_distribution",
    ),
    "errors": (
        "DegenerateBins",
        "DegenerateOutcome",
        "EmptyInput",
        "GroupKeyMismatch",
        "InternalInvariantError",
        "InvariantViolation",
        "MassSumOutOfTolerance",
        "MeanMismatch",
        "MissingAssignment",
        "NegativeRate",
        "NonFiniteValue",
        "ParameterOutOfRange",
        "ParseError",
        "RiskEvalError",
        "RiskOutOfRange",
        "ValidationError",
        "ZeroPersonYears",
    ),
    "ingestion": (
        "CrossDecileCell",
        "CrossDecileTable",
        "IndividualRecord",
        "IndividualRecords",
        "bin_individuals",
        "example_cross_decile_path",
        "load_cross_decile",
        "load_grouped",
        "load_individuals",
        "load_joint",
        "read_cross_decile",
        "ten_year_risk",
        "write_grouped",
        "write_joint",
    ),
    "metrics": (
        "ConditionalRiskDistributions",
        "MetricsReport",
        "attributes_diagram",
        "brier_score",
        "calibration_bias_sq",
        "concordance",
        "conditional_distributions",
        "evaluate",
        "integrated_discrimination",
        "precision_loss",
        "prevalence_variance",
        "ro_correlation",
    ),
    "synthetic": (
        "CovariateCell",
        "SyntheticPopulation",
        "build_population",
        "cross_classify",
        "project_model",
        "risk_distribution",
    ),
    "tables": (
        "Group",
        "GroupedModelTable",
        "JointCell",
        "JointModelTable",
        "make_grouped_table",
        "make_joint_table",
        "perfect_model_table",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
