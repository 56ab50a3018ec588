"""Behaviours at the edges of the input checks: bad flags, malformed rows,
bad axes, record equality and unreadable files."""

import re

import pytest

from riskeval import (
    IndividualRecord,
    IndividualRecords,
    ParseError,
    load_individuals,
    make_grouped_table,
)
from riskeval.cli import main


def test_unparsable_quantile_count_exits_2(tmp_path, capsys):
    src = tmp_path / "records.csv"
    src.write_text("risk1,risk2,outcome\n0.1,,0\n0.3,,1\n")
    assert main(["eval", str(src), "--bins", "quantiles:x", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", "error: cannot parse bin count in 'quantiles:x'\n")
    assert not (tmp_path / "out").exists()


def test_rows_of_the_wrong_width_are_rejected():
    with pytest.raises(ValueError, match=r"^entries need 4 fields, got 3$"):
        make_grouped_table([("a", 0.1, 1.0)])


def test_marginal_axis_is_1_or_2(joint_b):
    with pytest.raises(ValueError, match=r"^axis must be 1 or 2$"):
        joint_b.marginal(3)


def test_records_compare_equal_by_their_columns():
    rows = [IndividualRecord(0.1, 0.2, 0), IndividualRecord(0.3, 0.4, 1)]
    records = IndividualRecords.from_records(rows)
    assert (records == IndividualRecords.from_records(rows)) is True
    assert (records == IndividualRecords.from_records(rows[:1])) is False
    assert (records == IndividualRecords.from_records([rows[0], rows[0]])) is False


def test_a_missing_records_file_cannot_be_read(tmp_path):
    path = tmp_path / "gone.csv"
    with pytest.raises(ParseError, match=f"^cannot read {re.escape(str(path))}"):
        load_individuals(path)
