"""Value types: records of named values are NamedTuples, and column holders
own read-only arrays.

A row or report prints, compares and hashes as the tuple of its fields.
A holder of columns never freezes an array its caller passed in: it keeps
one that is already read-only and copies a writable one, and the library's
own builders hand over read-only arrays, so they are never copied.
"""

import dataclasses

import numpy as np
import pytest
from conftest import SUBSET_1, SUBSET_2

import riskeval as rv
from riskeval import comparison, distributions, ingestion, tables
from riskeval.tables import KeyColumn

# Each record type's fields, in order, as they were when the types were dataclasses.
RECORD_FIELDS = {
    "CellBias": ("key1", "key2", "mass", "prevalence", "risk1", "risk2", "bias1", "bias2"),
    "ComparisonReport": (
        "population_mean",
        "brier_difference",
        "bias_sq_difference",
        "precision_difference",
        "idi",
        "concordance_difference",
    ),
    "ConditionalRiskDistributions": ("cases", "noncases"),
    "CovariateCell": ("z0", "z1", "z2", "z3", "mass", "risk"),
    "CrossDecileCell": ("decile1", "decile2", "person_years", "cases"),
    "Group": ("key", "risk", "mass", "prevalence"),
    "JointCell": ("key1", "key2", "risk1", "risk2", "mass", "prevalence"),
    "MetricsReport": (
        "population_mean",
        "bias_sq",
        "precision_loss",
        "brier",
        "prevalence_variance",
        "ro_correlation",
        "integrated_discrimination",
        "concordance",
    ),
    "SubgroupGain": (
        "key", "risk", "mass", "prevalence_low", "prevalence_high", "variance", "sd"
    ),
    "SubgroupGainReport": ("population_mean", "rows", "total_gain"),
}


def test_repr_of_a_report_and_a_row_is_unchanged():
    table = rv.project_model(rv.build_population(0.8), ("z0", "z1"))
    assert repr(rv.evaluate(table)) == (
        "MetricsReport(population_mean=0.10000000000000002, bias_sq=0.0, "
        "precision_loss=0.06430187520000001, brier=0.06430187520000001, "
        "prevalence_variance=0.02569812480000001, ro_correlation=0.5343544890800488, "
        "integrated_discrimination=0.28553472, concordance=0.8058560000000001)"
    )
    assert repr(table.groups[0]) == (
        "Group(key='z0=-1,z1=1', risk=0.0352, mass=0.6400000000000001, prevalence=0.0352)"
    )


def _records(pop_b, model1_b, model2_b, joint_b):
    decile = rv.read_cross_decile(rv.example_cross_decile_path(), 0.0053, 10.0)
    gain = rv.subgroup_precision_gain(joint_b)
    return [
        rv.cross_classified_bias(joint_b, model1_b, model2_b)[0],
        rv.compare(model1_b, model2_b),
        rv.conditional_distributions(model1_b),
        pop_b.cells[0],
        decile.cells[0],
        model1_b.groups[0],
        joint_b.cells[0],
        rv.evaluate(model1_b),
        gain.rows[0],
        gain,
    ]


def test_records_are_named_tuples_hashed_as_their_fields(pop_b, model1_b, model2_b, joint_b):
    records = _records(pop_b, model1_b, model2_b, joint_b)
    assert sorted(type(x).__name__ for x in records) == sorted(RECORD_FIELDS)
    for x in records:
        assert type(x) is getattr(rv, type(x).__name__)
        assert isinstance(x, tuple) and not dataclasses.is_dataclass(x)
        assert x._fields == RECORD_FIELDS[type(x).__name__]
        assert tuple(x) == tuple(getattr(x, name) for name in x._fields)
        assert hash(x) == hash(tuple(x)) and x == tuple(x)
        with pytest.raises(AttributeError):
            setattr(x, x._fields[0], None)


def test_synth_table_hashes_as_its_rows_and_mean(model1_b):
    assert hash(model1_b) == hash((model1_b.groups, model1_b.population_mean))


def _f(*values) -> np.ndarray:
    return np.array(values, dtype=float)


def _keys() -> KeyColumn:
    return KeyColumn(np.array([0, 1]), np.array(["a", "b"], dtype=object))


def _holders():
    """Each holder built from fresh writable arrays, with those arrays."""
    args = [
        (distributions.RiskDistribution, (_f(0.1, 0.3), _f(0.5, 0.5))),
        (KeyColumn, (np.array([0, 1]), np.array(["a", "b"], dtype=object))),
        (tables.GroupedModelTable, (_keys(), _f(0.1, 0.3), _f(0.5, 0.5), _f(0.1, 0.3), 0.2)),
        (
            tables.JointModelTable,
            (_keys(), _keys(), _f(0.1, 0.3), _f(0.2, 0.4), _f(0.5, 0.5), _f(0.1, 0.3), 0.2),
        ),
        (comparison.CellBiasTable, (_keys(), _keys(), *(_f(0.5, 0.5) for _ in range(6)))),
        (comparison.SubgroupGainTable, (_keys(), *(_f(0.1, 0.3) for _ in range(6)))),
        (ingestion.IndividualRecords, (_f(0.1, 0.3), _f(0.2, 0.4), np.array([0, 1]))),
    ]
    return [(cls(*a), a) for cls, a in args]


@pytest.mark.parametrize("index", range(7))
def test_holders_copy_writable_arrays_and_never_freeze_them(index):
    holder, given = _holders()[index]
    for field, array in zip(dataclasses.fields(holder), given):
        if not isinstance(array, np.ndarray):
            continue
        own = getattr(holder, field.name)
        assert array.flags.writeable and not own.flags.writeable
        before = own.copy()
        array[0] = array[1]
        assert np.array_equal(own, before), field.name
        with pytest.raises(ValueError, match="read-only"):
            own[0] = own[1]


def test_holders_keep_read_only_arrays():
    risk, mass = np.array([0.1, 0.3]), np.array([0.5, 0.5])
    risk.flags.writeable = mass.flags.writeable = False
    d = distributions.RiskDistribution(risk, mass)
    assert d.risk is risk and d.mass is mass


def _write(path, header, rows):
    path.write_text(header + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    return path


@pytest.fixture
def no_copies(monkeypatch):
    """Make every holder fail on a writable array, which it would copy.

    The holder classes bind _own_arrays as their __post_init__ when they are
    created, so it is patched on each class that binds it; IndividualRecords
    calls it by its name in ingestion.
    """
    own = distributions._own_arrays

    def owned(holder):
        for name, value in vars(holder).items():
            assert not (isinstance(value, np.ndarray) and value.flags.writeable), name
        own(holder)

    for holder in (distributions._RowView, distributions._RowSequence, tables.KeyColumn):
        monkeypatch.setattr(holder, "__post_init__", owned)
    monkeypatch.setattr(ingestion, "_own_arrays", owned)


def test_builders_and_loaders_hand_over_arrays_without_copies(tmp_path, no_copies):
    rng = np.random.default_rng(3)
    n = 200
    r1, r2 = np.round(rng.random(n), 2), np.round(rng.random(n), 2)
    cells = zip(r1.tolist(), r2.tolist(), [1 / n] * n, np.round(rng.random(n), 3).tolist())
    joint = rv.load_joint(_write(tmp_path / "joint.csv", "r1,r2,mass,prevalence", cells))
    table1, table2 = joint.marginal(1), joint.marginal(2)
    rv.cross_classified_bias(joint, table1, table2)
    rv.subgroup_precision_gain(joint)
    grouped = zip(r1.tolist()[:4], [0.25] * 4, r2.tolist()[:4])
    rv.load_grouped(_write(tmp_path / "grouped.csv", "risk,mass,prevalence", grouped))
    outcome = (rng.random(n) < r1).astype(int).tolist()
    plain = _write(tmp_path / "plain.csv", "risk1,risk2,outcome", zip(r1, r2, outcome))
    quoted = _write(tmp_path / "quoted.csv", "risk1,risk2,outcome",
                    zip(r1, r2, [f'"{y}"' for y in outcome]))
    for path in (plain, quoted):
        records = rv.load_individuals(path)
        rv.bin_individuals(records, scheme="quantiles", k=10)
        rv.bin_individuals(dataclasses.replace(records, risk2=None))
    rv.bin_individuals(list(records))
    synth = rv.cross_classify(rv.build_population(0.8), SUBSET_1, SUBSET_2)
    rv.evaluate(synth.marginal(1))
    rv.risk_distribution(rv.build_population(0.8))


def test_report_columns_are_read_only(joint_b, model1_b, model2_b):
    bias = rv.cross_classified_bias(joint_b, model1_b, model2_b)
    gain = rv.subgroup_precision_gain(joint_b).rows
    for column in (bias.bias1, bias.risk2, gain.variance, gain.sd, gain.key_column.codes):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]


def test_report_tables_compare_and_hash_by_rows(joint_b, model1_b, model2_b):
    gains = [rv.subgroup_precision_gain(joint_b) for _ in range(2)]
    assert gains[0] == gains[1] and hash(gains[0]) == hash(gains[1])
    assert gains[0].rows == gains[1].rows and hash(gains[0].rows) == hash(tuple(gains[1].rows))
    biases = [rv.cross_classified_bias(joint_b, model1_b, model2_b) for _ in range(2)]
    assert biases[0] == biases[1] and hash(biases[0]) == hash(biases[1])
    assert biases[0] != dataclasses.replace(biases[0], mass=biases[0].mass / 2)
    assert biases[0] != list(biases[0])  # a table equals tables of its type only


def test_records_equal_their_list_and_stay_unhashable():
    records = ingestion.IndividualRecords(_f(0.1, 0.3), None, np.array([0, 1]))
    assert records == list(records) == ingestion.IndividualRecords.from_records(records)
    with pytest.raises(TypeError, match="unhashable"):
        hash(records)
