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


RECORDS = "risk1,risk2,outcome\n0.1,,0\n0.3,,1\n"
GROUPED = "risk,mass,prevalence\n0.1,0.5,0.1\n0.3,0.5,0.3\n"


def test_unparsable_quantile_count_exits_2(tmp_path, capsys):
    # The bin count is checked before the file is read, whatever the file holds:
    # a grouped file, or records whose line 3 has a bad outcome.
    cases = [
        (RECORDS, "x", "cannot parse bin count in 'quantiles:x'"),
        (RECORDS, "1", "quantile bin count 1 must be at least 2"),
        (RECORDS, "0", "quantile bin count 0 must be at least 2"),
        (RECORDS, "-3", "quantile bin count -3 must be at least 2"),
        (GROUPED, "1", "quantile bin count 1 must be at least 2"),
        (RECORDS.replace(",,1", ",,x"), "1", "quantile bin count 1 must be at least 2"),
    ]
    for body, k, message in cases:
        src = tmp_path / "input.csv"
        src.write_text(body)
        argv = ["eval", str(src), "--bins", f"quantiles:{k}", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
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
