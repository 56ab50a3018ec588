"""Columnar tables: parity with the row builder, column-only CLI, bounded memory."""

import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tables as ref
import riskeval
from conftest import renamed, risk_mapping
from riskeval import (
    CellBias,
    SubgroupGain,
    compare,
    cross_classified_bias,
    evaluate,
    load_joint,
    make_grouped_table,
    make_joint_table,
    subgroup_precision_gain,
    transfer_calibration,
)
from riskeval.cli import main
from riskeval.distributions import _RowSequence

# Risks whose Python square differs in the last bit from their numpy square;
# with prevalence 0 the bias term squares exactly these values.
POW_CASES = [
    r for r in np.random.default_rng(7).random(20_000).tolist() if r**2 != r * r
][:3]
RISKS = [0.0, -0.0, 0.1, 0.1 + 4e-13, 0.25, 0.5, 1.0, *POW_CASES]
PREVALENCES = [0.0, -0.0, 0.125, 0.3, 0.5, 0.9, 1.0, *POW_CASES]
# Field values that fail a check, or that only float() accepts.
ODD_VALUES = [math.nan, math.inf, -math.inf, -0.5, 1.5, -0.0, "0.5", "x", None]
KEYS1 = ["a", "b", "a\x00", "é,", ""]
KEYS2 = ["x", "y", '"q"']


@st.composite
def _entries(draw, key_sets):
    """Rows of keys, risks, mass and prevalence; most sum to mass 1.

    Keys repeat, and distinct keys share risks. A key usually carries its
    own risk, so merges mostly succeed; one field may be replaced by an odd
    value, and the masses may be scaled so that they miss 1 or overflow.
    """
    base = {k: draw(st.sampled_from(RISKS)) for keys in key_sets for k in keys}
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        keys = [draw(st.sampled_from(keys)) for keys in key_sets]
        risks = [draw(st.sampled_from([base[k]] * 3 * len(RISKS) + RISKS)) for k in keys]
        rows.append([*keys, *risks, draw(st.integers(0, 4)), draw(st.sampled_from(PREVALENCES))])
    total = sum(row[-2] for row in rows) or 1
    scale = draw(st.sampled_from([1.0] * 8 + [0.5, 1e308]))
    for row in rows:
        row[-2] = row[-2] / total * scale
    if rows and draw(st.integers(0, 2)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(len(key_sets), len(row) - 1))] = draw(st.sampled_from(ODD_VALUES))
    return [tuple(row) for row in rows]


def _bits(value):
    """value with every float as (type name, float.hex), every row or report as
    (type name, fields), every table as rows plus repr, and every other
    sequence as a list."""
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    if value is None or isinstance(value, (str, int)):
        return value
    for rows in ("groups", "cells"):
        if hasattr(value, rows):
            return _bits(getattr(value, rows)), _bits(value.population_mean), repr(value)
    items = [_bits(v) for v in value]
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return type(value).__name__, items
    return items


def _outcome(fn, *args):
    """("raised", type, message) or ("value", bits of the result)."""
    try:
        return "value", _bits(fn(*args))
    except Exception as exc:
        return "raised", type(exc), str(exc)


def _same(new_fn, old_fn, new_args, old_args):
    """Assert both calls agree; return their results, or None when they raised."""
    got, want = _outcome(new_fn, *new_args), _outcome(old_fn, *old_args)
    assert got == want
    return (new_fn(*new_args), old_fn(*old_args)) if got[0] == "value" else None


@settings(max_examples=400, deadline=None)
@given(_entries([KEYS1]), _entries([KEYS1]))
def test_grouped_tables_match_row_builder(entries1, entries2):
    built = [
        _same(make_grouped_table, ref.make_grouped_table, (e,), (e,)) for e in (entries1, entries2)
    ]
    for pair in built:
        if pair is not None:
            _same(evaluate, ref.evaluate, pair[:1], pair[1:])
    if None not in built:
        (new1, old1), (new2, old2) = built
        _same(transfer_calibration, ref.transfer_calibration, (new1, new2), (old1, old2))
        _same(compare, ref.compare, (new1, new2), (old1, old2))


@settings(max_examples=400, deadline=None)
@given(_entries([KEYS1, KEYS2]), st.data())
def test_joint_tables_match_row_builder(cells, data):
    built = _same(make_joint_table, ref.make_joint_table, (cells,), (cells,))
    if built is None:
        return
    new, old = built
    _same(subgroup_precision_gain, ref.subgroup_precision_gain, (new,), (old,))
    margins = [_same(new.marginal, old.marginal, (axis,), (axis,)) for axis in (1, 2)]
    if None in margins:
        return
    (new1, old1), (new2, old2) = margins
    _same(compare, ref.compare, (new1, new2), (old1, old2))
    _same(transfer_calibration, ref.transfer_calibration, (new1, new1), (old1, old1))
    tables = [new1, new2]
    which = data.draw(st.sampled_from([None, 0, 1]))
    if which is not None:  # one group's key renamed off the joint table's
        key = data.draw(st.sampled_from(tables[which].key.tolist()))
        tables[which] = renamed(tables[which], key)
    risks = map(risk_mapping, tables)
    _same(cross_classified_bias, ref.cross_classified_bias, (new, *tables), (old, *risks))


class TestViews:
    def test_views_are_read_only_and_typed(self):
        table = make_grouped_table([("b", 0.2, 0.5, 0.1), ("a", 0.2, 0.5, 0.3)])
        assert table.key.tolist() == ["a", "b"] and table.risk.tolist() == [0.2, 0.2]
        assert all(type(x) is float for g in table.groups for x in (g.risk, g.mass, g.prevalence))
        with pytest.raises(ValueError):
            table.mass[0] = 1.0
        assert not hasattr(make_joint_table([("a", "x", 0.1, 0.2, 1.0, 0.5)]), "groups")

    def test_equality_and_hash_follow_the_rows(self):
        rows = [("a", 0.1, 0.25, 0.5), ("b", 0.3, 0.75, 0.5)]
        t1, t2 = make_grouped_table(rows), make_grouped_table(rows[::-1])
        assert t1 == t2 and hash(t1) == hash(t2)
        assert t1 != make_grouped_table([("a", 0.1, 0.25, 0.5), ("b", 0.3, 0.75, 0.25)])

    def test_cell_bias_table_is_a_sequence_of_rows(self, joint_b, model1_b, model2_b):
        table = cross_classified_bias(joint_b, model1_b, model2_b)
        rows = list(table)
        assert len(table) == len(rows) == 9 and all(isinstance(r, CellBias) for r in rows)
        assert [table[0], table[-1]] == [rows[0], rows[-1]] and table[2:5] == rows[2:5]
        assert all(type(x) is float for x in tuple(table[-1])[2:])

    def test_subgroup_gain_rows_are_a_sequence_of_rows(self, joint_b):
        table = subgroup_precision_gain(joint_b).rows
        rows = list(table)
        assert len(table) == len(rows) == 5 and all(isinstance(r, SubgroupGain) for r in rows)
        assert [table[0], table[-1]] == [rows[0], rows[-1]] and table[1:4] == rows[1:4]
        assert table.key.tolist() == [r.key for r in rows]
        assert table.sd.tolist() == [r.sd for r in rows]
        assert all(type(x) is float for x in tuple(table[-1])[1:])
        assert table == subgroup_precision_gain(joint_b).rows  # compared by rows


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_equal_extremes_keep_the_first_in_cell_order(first):
    # numpy's minimum/maximum reductions keep the last of equal values.
    second = -first
    joint = make_joint_table([("a", "x", 0.5, 0.1, 0.5, first), ("a", "y", 0.5, 0.2, 0.5, second)])
    (row,) = subgroup_precision_gain(joint).rows
    for extreme in (row.prevalence_low, row.prevalence_high):
        assert math.copysign(1.0, extreme) == math.copysign(1.0, first)


def _raise(self):
    raise AssertionError("the CLI read a row view")


@pytest.fixture
def column_only(monkeypatch):
    """Make every row view raise: the model tables' rows, and iteration and
    indexing of the report tables and of person-level records."""
    monkeypatch.setattr(riskeval.GroupedModelTable, "groups", property(_raise))
    monkeypatch.setattr(riskeval.JointModelTable, "cells", property(_raise))
    for name in ("__iter__", "__getitem__"):
        monkeypatch.setattr(_RowSequence, name, lambda self, *args: _raise(self))


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_cli_reads_no_row_view(column_only, tmp_path):
    pop = riskeval.build_population(0.8)
    g1, g2, joint = (tmp_path / n for n in ("g1.csv", "g2.csv", "joint.csv"))
    riskeval.write_grouped(riskeval.project_model(pop, ("z0", "z1")), g1)
    riskeval.write_grouped(riskeval.project_model(pop, ("z0", "z1", "z2")), g2)
    riskeval.write_joint(riskeval.cross_classify(pop, ("z0", "z1"), ("z0", "z1", "z2")), joint)
    records = tmp_path / "records.csv"
    records.write_text(
        "risk1,risk2,outcome\n"
        + "".join(f"0.{i % 37 + 10},0.{i % 23 + 10},{i % 3 == 0:d}\n" for i in range(200))
    )
    xdec = str(riskeval.example_cross_decile_path())
    out = ["--out", str(tmp_path / "out")]
    for argv in (
        ["compare", str(joint)],
        ["compare", str(g1), str(g2), str(joint)],
        ["compare", xdec, "--mortality", "0.0053", "--horizon", "10"],
        ["eval", str(g1)],
        ["eval", str(records), "--bins", "deciles"],
        ["eval", str(records), "--bins", "unique"],
        ["synth"],
        ["synth", "--format", "json", "--percent"],
    ):
        assert _run(argv + out) == 0, argv


# Peak traced allocation of the compare path's table work on 50k cells: 15.8
# MiB, the CSV read's own peak (Python 3.11, numpy 2.4). The tables of row
# objects that the columns replaced peaked at 46 MiB.
COMPARE_PEAK_BOUND = 32 * 2**20


def _nested_joint_file(path, fine_first=False):
    """A 50k-cell joint table whose model 1 rounds model 2's risks to 0.01;
    fine_first writes model 2 as model 1, so model 1 has 50k groups."""
    rng = np.random.default_rng(3)
    n = 50_000
    r2 = (np.arange(n) + rng.random(n)) / n
    r1 = np.round(r2, 2)
    mass = rng.random(n)
    mass /= mass.sum()
    prev = rng.random(n)
    risks = (r2, r1) if fine_first else (r1, r2)
    path.write_text(
        "r1,r2,mass,prevalence\n"
        + "".join(map("{!r},{!r},{!r},{!r}\n".format, *(x.tolist() for x in (*risks, mass, prev))))
    )
    return path


def test_compare_tables_memory_is_bounded(tmp_path):
    path = _nested_joint_file(tmp_path / "joint.csv")
    tracemalloc.start()
    try:
        joint = load_joint(path)
        cross_classified_bias(joint, joint.marginal(1), joint.marginal(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < COMPARE_PEAK_BOUND


def test_compare_with_the_fine_model_first_is_bounded(tmp_path):
    """The whole compare run, reports written, with one subgroup per cell.

    It peaks at 20.4 MiB (Python 3.11, numpy 2.4). Building the subgroup-gain
    report as one object per group, and its CSV from a dict per row, peaked
    at 58.4 MiB.
    """
    path = _nested_joint_file(tmp_path / "joint.csv", fine_first=True)
    tracemalloc.start()
    try:
        code = _run(["compare", str(path), "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < COMPARE_PEAK_BOUND
