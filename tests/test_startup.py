"""Start-up: `import riskeval` is lazy, and the command line loads numpy with one BLAS thread."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import riskeval

# riskeval.__all__ as the eager package init listed it, submodule names included.
ALL = [
    "CellBias", "CellBiasTable", "ComparisonReport", "ConditionalRiskDistributions",
    "CovariateCell", "CrossDecileCell", "CrossDecileTable", "DegenerateBins",
    "DegenerateOutcome", "EmptyInput", "Group", "GroupKeyMismatch", "GroupedModelTable",
    "IndividualRecord", "IndividualRecords", "InternalInvariantError", "InvariantViolation",
    "JointCell", "JointModelTable", "MassSumOutOfTolerance", "MeanMismatch", "MetricsReport",
    "MissingAssignment", "NegativeRate", "NonFiniteValue", "ParameterOutOfRange", "ParseError",
    "RiskDistribution", "RiskEvalError", "RiskOutOfRange", "SubgroupGain",
    "SubgroupGainReport", "SubgroupGainTable", "SyntheticPopulation", "ValidationError",
    "ZeroPersonYears", "attributes_diagram", "bin_individuals", "brier_score",
    "build_population", "calibration_bias_sq", "compare",
    "comparison", "concordance", "conditional_distributions", "constant_distribution",
    "cross_classified_bias", "cross_classify", "deterministic_distribution", "distributions",
    "errors", "evaluate", "example_cross_decile_path", "ingestion",
    "integrated_discrimination", "load_cross_decile", "load_grouped", "load_individuals",
    "load_joint", "make_distribution", "make_grouped_table", "make_joint_table", "metrics",
    "perfect_model_table", "precision_loss", "prevalence_variance", "project_model",
    "read_cross_decile", "risk_distribution", "ro_correlation", "subgroup_precision_gain",
    "synthetic", "tables", "ten_year_risk", "transfer_calibration", "write_grouped",
    "write_joint",
]
SUBMODULES = {"comparison", "distributions", "errors", "ingestion", "metrics", "synthetic", "tables"}


def _child(code: str, **env_vars: str) -> str:
    """stdout of a fresh interpreter running code against this riskeval, without
    OPENBLAS_NUM_THREADS unless env_vars sets it."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(riskeval.__file__).parent.parent), env.get("PYTHONPATH")])
    )
    env.update(env_vars)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout.strip()


def test_import_loads_no_submodule_and_no_numpy():
    code = ("import sys, riskeval; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or "
            "m.startswith('riskeval.')))")
    assert _child(code) == "[]"


def test_library_imports_leave_the_environment_alone():
    code = ("import os; before = dict(os.environ); import riskeval; "
            "from riskeval import evaluate, load_grouped; from riskeval import *; "
            "print(dict(os.environ) == before, 'numpy' in __import__('sys').modules)")
    assert _child(code) == "True True"


def test_a_submodule_attribute_imports_the_submodule():
    code = "import sys, riskeval; print(riskeval.metrics is sys.modules['riskeval.metrics'])"
    assert _child(code) == "True"


def test_cli_loads_numpy_with_one_blas_thread():
    code = ("import os, riskeval.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')) "
            "if os.path.isdir('/proc/self/task') else '-')")
    limit, threads = _child(code).split()
    assert limit == "1"
    if threads == "-" or os.cpu_count() == 1:
        pytest.skip("thread count needs /proc and more than one core")
    assert threads == "1"


def test_cli_keeps_a_user_set_thread_count():
    code = "import os, riskeval.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _child(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_all_is_unchanged_and_every_name_resolves():
    assert riskeval.__all__ == ALL
    assert set(ALL) <= set(dir(riskeval))
    for name in ALL:
        value = getattr(riskeval, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"riskeval.{name}"]
        else:
            assert value.__module__.startswith("riskeval.")
            assert value is getattr(sys.modules[value.__module__], name)
    namespace = {}
    exec("from riskeval import *", namespace)
    assert all(namespace[name] is getattr(riskeval, name) for name in ALL)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        riskeval.no_such_name


def test_cli_import_freezes_the_collector_and_imports_the_library():
    # bench/run.py's load_riskeval takes these modules from sys.modules right
    # after `import riskeval.cli`, so the CLI must import every one of them.
    modules = ["cli", "comparison", "distributions", "ingestion", "metrics", "synthetic", "tables"]
    code = ("import gc, sys, riskeval.cli; print(gc.get_freeze_count() > 0, "
            f"all('riskeval.' + m in sys.modules for m in {modules}))")
    assert _child(code) == "True True"
