"""Columnar record ingestion: contract, memory, and parity with row loaders
and with sort-based quantile binning."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loaders as ref
from riskeval import (
    DegenerateBins,
    IndividualRecord,
    IndividualRecords,
    InvariantViolation,
    RiskOutOfRange,
    bin_individuals,
    load_grouped,
    load_individuals,
    load_joint,
    read_cross_decile,
)
from riskeval import ingestion
from riskeval.ingestion import (
    CROSS_DECILE_HEADER,
    GROUPED_HEADER,
    INDIVIDUALS_HEADER,
    JOINT_HEADER,
)


def _records_file(path, n, seed, risk2=True):
    rng = np.random.default_rng(seed)
    risk1 = np.round(rng.beta(2.0, 8.0, size=n), 6)
    second = np.round(np.clip(risk1 + rng.normal(0.0, 0.05, size=n), 0.0, 1.0), 6)
    outcome = (rng.random(n) < risk1).astype(int)
    lines = ["risk1,risk2,outcome"]
    if risk2:
        lines += [f"{a!r},{b!r},{y}" for a, b, y in zip(risk1.tolist(), second.tolist(), outcome)]
    else:
        lines += [f"{a!r},,{y}" for a, y in zip(risk1.tolist(), outcome)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestIndividualRecordsContract:
    def test_len_equality_and_iteration_types(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("risk1,risk2,outcome\n0.1,0.2,0\n0.3,0.4,1\n1,0,1\n")
        records = load_individuals(path)
        assert isinstance(records, IndividualRecords)
        assert len(records) == 3
        want = [
            IndividualRecord(0.1, 0.2, 0),
            IndividualRecord(0.3, 0.4, 1),
            IndividualRecord(1.0, 0.0, 1),
        ]
        assert records == want and want == records
        assert records != want[:2]
        for r in records:
            assert isinstance(r, IndividualRecord)
            assert type(r.risk1) is float and type(r.risk2) is float and type(r.outcome) is int

    def test_absent_risk2_iterates_as_none(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("risk1,risk2,outcome\n0.1,,0\n0.3, ,1\n")
        records = load_individuals(path)
        assert records.risk2 is None
        assert [tuple(r) for r in records] == [(0.1, None, 0), (0.3, None, 1)]
        assert all(type(r.outcome) is int for r in records)

    def test_from_records_round_trips(self):
        rows = [IndividualRecord(0.25, 0.5, 1), IndividualRecord(0.75, 0.125, 0)]
        records = IndividualRecords.from_records(rows)
        assert len(records) == 2 and records == rows
        assert records.risk1.dtype == np.float64 and records.risk2.dtype == np.float64

    @pytest.mark.parametrize("outcome", [2, 0.5, -1])
    def test_outcome_other_than_0_or_1_is_rejected(self, outcome):
        rows = [IndividualRecord(0.1, None, outcome), IndividualRecord(0.1, None, 0),
                IndividualRecord(0.3, None, 1)]
        for build in (IndividualRecords.from_records, bin_individuals):
            with pytest.raises(InvariantViolation) as info:
                build(rows)
            assert type(info.value) is InvariantViolation
            assert str(info.value) == f"record 0: outcome {outcome} must be 0 or 1"

    def test_risk_outside_unit_interval_is_rejected(self):
        rows = [IndividualRecord(r, None, y) for r, y in [(-0.1, 0), (0.3, 1), (0.5, 1), (0.7, 0)]]
        with pytest.raises(RiskOutOfRange, match=r"^record 0: risk1 -0.1 outside \[0, 1\]$"):
            bin_individuals(rows, scheme="quantiles", k=2)

    @pytest.mark.parametrize(
        "last, error, message",
        [
            ((1.5, 2.0, 3), InvariantViolation, "record 1: outcome 3 must be 0 or 1"),
            ((1.5, 2.0, 1), RiskOutOfRange, "record 1: risk1 1.5 outside [0, 1]"),
            ((0.5, float("nan"), 1), RiskOutOfRange, "record 1: risk2 nan outside [0, 1]"),
        ],
    )
    def test_first_faulty_record_raises_its_first_check(self, last, error, message):
        # The file loader's order: outcome, then risk1, then risk2.
        rows = [IndividualRecord(0.2, 0.3, 0), IndividualRecord(*last), IndividualRecord(2.0, 0.1, 5)]
        with pytest.raises(error) as info:
            IndividualRecords.from_records(rows)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("risk2", [(0.2, None), (None, 0.3)], ids=["first", "second"])
    def test_risk2_on_some_records_only_is_rejected(self, risk2):
        # As load_individuals rejects a risk2 column filled on some rows only.
        rows = [IndividualRecord(0.1, risk2[0], 0), IndividualRecord(0.2, risk2[1], 1)]
        for build in (IndividualRecords.from_records, bin_individuals):
            with pytest.raises(InvariantViolation, match="^risk2 must be present on all records"):
                build(rows)


class TestBinningParity:
    @pytest.mark.parametrize(
        "scheme,k", [("unique-values", 10), ("quantiles", 10), ("quantiles", 7)]
    )
    @pytest.mark.parametrize("risk2", [True, False])
    def test_list_and_columns_bin_identically(self, tmp_path, scheme, k, risk2):
        records = load_individuals(_records_file(tmp_path / "r.csv", 2000, 5, risk2=risk2))
        from_columns = bin_individuals(records, scheme=scheme, k=k)
        from_list = bin_individuals(list(records), scheme=scheme, k=k)
        assert from_columns == from_list
        assert (from_columns[1] is None) == (not risk2)


class TestRecordMemory:
    # numpy's reader takes a risk2 column filled on every row and one blank on every row.
    @pytest.mark.parametrize("risk2", [True, False])
    def test_load_and_bin_100k_records_stay_small(self, tmp_path, risk2):
        path = _records_file(tmp_path / "big.csv", 100_000, 11, risk2=risk2)
        tracemalloc.start()
        try:
            records = load_individuals(path)
            grouped, joint = bin_individuals(records, scheme="quantiles", k=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 100_000
        assert len(grouped.groups) == 10 and (joint is not None) == risk2
        assert peak < 32 * 2**20

    def test_more_bins_than_records_fail_before_cutting(self):
        records = IndividualRecords.from_records(
            [IndividualRecord(0.1, None, 0), IndividualRecord(0.2, None, 1),
             IndividualRecord(0.2, None, 0)]
        )
        # A warm-up call: the first np.unique of a process imports modules.
        with pytest.raises(DegenerateBins):
            bin_individuals(records, scheme="quantiles", k=4)
        tracemalloc.start()
        try:
            with pytest.raises(DegenerateBins, match="^2 distinct risks cannot fill 1000000 bins$"):
                bin_individuals(records, scheme="quantiles", k=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# Field tokens that exercise stripping, quoting, Python-only float syntax and
# the range checks; rows drawn from them hit every per-row error path.
TOKENS = [
    "", " ", '"0.3"', '"a,b"', "1_0", "0x1", "nan", "inf", "-0", "1.5", " 1", "2",
    "0", "1", "0.5", "0.25", '" 0.75 "',
]
VALID_FIELDS = {
    "grouped": [["0.1", "0.4", "0.9"], ["0.5", "0.25", "1"], ["0.2", "", "0.5"]],
    "grouped_required": [["0.1", "0.4", "0.9"], ["0.5", "0.25", "1"]],
    "joint": [["0.1", "0.9"], ["0.2", "0.8"], ["0.5", "0.25"], ["0.3", "0.5"]],
    "individuals": [["0.1", "0.9", " 1"], ["0.2", "", "0.8"], ["0", "1"]],
    "cross_decile": [["1", "2"], ["1", "2", " 3"], ["1000", "250.5", "0"], ["0", "3", "10"]],
}
HEADERS = {
    "grouped": GROUPED_HEADER,
    "grouped_required": GROUPED_HEADER[:2],
    "joint": JOINT_HEADER,
    "individuals": INDIVIDUALS_HEADER,
    "cross_decile": CROSS_DECILE_HEADER,
}
LOADERS = {
    "grouped": (load_grouped, ref.load_grouped),
    "grouped_required": (load_grouped, ref.load_grouped),
    "joint": (load_joint, ref.load_joint),
    "individuals": (load_individuals, ref.load_individuals),
    "cross_decile": (
        lambda p: read_cross_decile(p, 0.0053, 10),
        lambda p: ref.read_cross_decile(p, 0.0053, 10),
    ),
}


# Plain rows: one unquoted line each, every field filled, so that numpy's
# reader runs. Most files then get one change: a field swapped for one that
# only float() or the stripped-text check accepts, that neither accepts, or
# that csv.reader rejects (over its 128 KiB size limit); one column left
# blank on every row; or a blank or whitespace-only line.
PLAIN_NUMBERS = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from([
        "0", "1", "-0", "0.0", ".5", "5e-1", "1e-300",
        "\t0.5", "0.25\t", "\xa00.75\xa0", " 0.125 ",
    ]),
)
ODD_NUMBERS = [
    "nan", "inf", "2", "1_0", "\u0663", "#0.5", "0.5#", "#", "0." + "0" * (128 * 1024) + "5",
]
ODD_OUTCOMES = ["1.0", "01", "10", "+1", " 1 ", "1\t", "1\x00", "#"]


@st.composite
def _plain_rows(draw, kind):
    width = len(HEADERS[kind])
    outcome = st.sampled_from(["0", "1"])
    row = (
        st.tuples(PLAIN_NUMBERS, PLAIN_NUMBERS, outcome)
        if kind == "individuals"
        else st.tuples(*[PLAIN_NUMBERS] * width)
    )
    rows = [list(r) for r in draw(st.lists(row, min_size=1, max_size=6))]
    change = draw(st.sampled_from(["none", "number", "outcome", "blank column", "blank line"]))
    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
    if change == "outcome" and kind == "individuals":
        rows[i][2] = draw(st.sampled_from(ODD_OUTCOMES))
    elif change in ("number", "outcome"):
        rows[i][j] = draw(st.sampled_from(ODD_NUMBERS))
    elif change == "blank column":
        rows = [r[:j] + [""] + r[j + 1 :] for r in rows]
    elif change == "blank line":
        rows.insert(i, [draw(st.sampled_from(["", " ", "\t"]))])
    return rows


def _row(kind):
    valid = st.tuples(*(st.sampled_from(choices) for choices in VALID_FIELDS[kind]))
    untidy = st.lists(st.sampled_from(TOKENS), min_size=0, max_size=4)
    return st.one_of(valid.map(list), untidy)


def _outcome(loader, path):
    """("raised", type, message) or ("value", repr); unlike ==, repr matches NaN fields."""
    try:
        value = loader(path)
    except Exception as exc:  # every exception type must match, not only ours
        return ("raised", type(exc), str(exc))
    return ("value", repr(list(value) if isinstance(value, IndividualRecords) else value))


@pytest.mark.parametrize("kind", sorted(HEADERS))
def test_columnar_loaders_match_row_loaders(kind, tmp_path_factory):
    path = tmp_path_factory.mktemp(kind) / "input.csv"
    new, old = LOADERS[kind]

    @settings(max_examples=250, deadline=None)
    @given(
        rows=st.one_of(st.lists(_row(kind), min_size=0, max_size=8), _plain_rows(kind)),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        reversed_header=st.sampled_from([False, False, False, True]),
    )
    def check(rows, newline, reversed_header):
        header = HEADERS[kind][::-1] if reversed_header else HEADERS[kind]
        lines = [",".join(header)] + [",".join(row) for row in rows]
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no reader may warn, even on an empty body
            assert _outcome(new, path) == _outcome(old, path)

    check()


@pytest.mark.parametrize(
    "body",
    [
        "0.1,0.2,0\n0.3,0.4\n0.5,{huge},1\n",  # the short row is reported first
        "0.1,0.2,0\n\n0.5,{huge},1\n0.3,0.4\n",  # the csv error stops the read
        "\n \n , , \n",
        "0.1,0.2,0\n0.3,0.4,1,\n",
        "0.1,0.2,2\n0.3,x,1\n",  # an earlier row's outcome before a later row's parse
        "0.1,,0\n0.3,0.4,1\nx,,1\n",  # a parse fault before the partly blank risk2
        "0.1,,0\n0.3,0.4,1\n",  # risk2 on some rows only, after every row passes
        "0.1,0.2,0\nnan,0.4,1\n",  # nan parses, then fails the range check
        "0.1,0.2,0\n0.3,nan,1\n",
        "0.1,0.2,0\n0.3,0.4,1\x00\n",  # the NUL is kept: not the outcome 1
    ],
)
def test_reader_error_order_matches_row_loader(tmp_path, body):
    path = tmp_path / "i.csv"
    path.write_text("risk1,risk2,outcome\n" + body.replace("{huge}", "9" * 200_000))
    got = _outcome(load_individuals, path)
    assert got[0] == "raised"
    assert got == _outcome(ref.load_individuals, path)


@pytest.mark.parametrize(
    "kind, body",
    [
        # A literal nan on an earlier row than a non-number: the non-number is reported.
        ("grouped", "0.1,0.5,nan\n0.2,x,0.1\n"),
        ("grouped", "nan,0.5,\n0.2,0.5,0.1\n0.3,,0.2\n"),
        ("joint", "0.1,0.2,nan,0.1\n0.3,0.4,0.5,x\n"),
        ("joint", "0.1,nan,0.5,0.1\n\"0.3\",y,0.5,0.2\n"),
        # The only NaNs are literals: they pass the parse and fail the table checks.
        ("grouped", "0.1,nan,\n0.2,0.5,0.1\n"),
        ("grouped", "\"0.1\",0.5,nan\n0.2,0.5,0.1\n"),
        ("joint", "\"0.1\",0.2,0.5,nan\n0.3,0.4,0.5,0.2\n"),
        ("joint", "nan,0.2,0.5,0.1\n\"0.3\",nan,0.5,0.2\n"),
    ],
)
def test_float_columns_error_order_matches_row_loader(tmp_path, kind, body):
    path = tmp_path / f"{kind}.csv"
    header = HEADERS[kind]
    path.write_text(",".join(header) + "\n" + body)
    # Each body goes to csv.reader, so _float_columns parses it.
    assert ingestion._plain_columns(path, header, ("f8",) * len(header)) is None
    new, old = LOADERS[kind]
    got = _outcome(new, path)
    assert got[0] == "raised"
    assert got == _outcome(old, path)


def _no_csv_reader(*args, **kwargs):
    raise AssertionError("a plain file went to csv.reader")


@pytest.mark.parametrize("risk2", [True, False])
def test_plain_records_skip_csv_reader(tmp_path, monkeypatch, risk2):
    # risk2 filled on every row or blank on every row: both files are plain.
    path = _records_file(tmp_path / "r.csv", 1000, 3, risk2=risk2)
    lines = path.read_text().splitlines(keepends=True)
    risk1, rest = lines[500].split(",", 1)
    quoted = tmp_path / "q.csv"  # one quoted field sends the same records to csv.reader
    quoted.write_text("".join(lines[:500] + [f'"{risk1}",{rest}'] + lines[501:]))
    by_csv = load_individuals(quoted)
    monkeypatch.setattr(ingestion, "_read_columns", _no_csv_reader)
    with pytest.raises(AssertionError, match="csv.reader"):
        load_individuals(quoted)
    plain = load_individuals(path)
    assert plain == ref.load_individuals(path)
    assert (plain.risk2 is None) == (by_csv.risk2 is None) == (not risk2)
    for name in ("risk1", "risk2", "outcome") if risk2 else ("risk1", "outcome"):
        got, want = getattr(plain, name), getattr(by_csv, name)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["grouped", "individuals"])
@pytest.mark.parametrize("bad_byte_first", [False, True])
def test_undecodable_byte_is_reported_before_a_short_row(tmp_path, kind, bad_byte_first):
    # The byte lies far more than one decode chunk past the short row, so
    # the reader meets the short row first and must still report the byte.
    path = tmp_path / f"{kind}.csv"
    valid, short, bad = b"0.1,0.5,1\n", b"0.1,0.5\n", b"0.1,0.5,\xff\n"
    head = [bad, short] if bad_byte_first else [short]
    tail = [] if bad_byte_first else [bad]
    body = b"".join(head + [valid] * 20_000 + tail)
    path.write_bytes(",".join(HEADERS[kind]).encode() + b"\n" + body)
    new, old = LOADERS[kind]
    # The decoder counts the position from the start of its chunk, not of the file.
    got, want = (_outcome(f, path) for f in (new, old))
    assert got[:2] == ("raised", ingestion.ParseError) and got[2].startswith(f"cannot read {path}:")
    assert got[:2] == want[:2]
    assert re.sub(r"position \d+", "", got[2]) == re.sub(r"position \d+", "", want[2])


def test_plain_tables_skip_csv_reader(tmp_path, monkeypatch):
    joint = tmp_path / "j.csv"
    joint.write_text("r1,r2,mass,prevalence\n0.1,0.2,0.5,0.15\n0.3,-0,0.25,0.3\n0.3,0,0.25,0.2\n")
    grouped = tmp_path / "g.csv"
    grouped.write_text("risk,mass,prevalence\r\n0.1,0.5,0.15\r\n\r\n 0.3 ,0.5,\t0.3\r\n")
    want = ref.load_joint(joint), ref.load_grouped(grouped)
    monkeypatch.setattr(ingestion, "_read_columns", _no_csv_reader)
    assert (load_joint(joint), load_grouped(grouped)) == want
    assert repr(load_joint(joint)) == repr(want[0])


# Tie-heavy risks: few distinct values, -0.0 beside 0.0, and values one ulp
# apart, so tie runs straddle one or several cuts and empty some bins.
TIE_VALUES = [-0.0, 0.0, 0.1, 0.25, 0.5, 0.5000000000000001, 0.75, 1.0]


@st.composite
def _tied_risks(draw):
    k = draw(st.integers(2, 12))
    values = st.sampled_from(TIE_VALUES) | st.floats(0.0, 1.0)
    # A value drawn into the pool more than once is drawn more often below.
    pool = draw(st.lists(values, min_size=k - 1, max_size=2 * k + 2))
    risks = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=200))
    return np.array(risks, dtype=float), k


def _binned(bin_ids, risks, k):
    try:
        return bin_ids(risks, k)
    except DegenerateBins as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(case=_tied_risks())
def test_quantile_bins_match_sort_and_walk(case):
    risks, k = case
    got = _binned(lambda r, k: ingestion._bin_ids(r, "quantiles", k)[:2], risks, k)
    want = _binned(ref.bin_ids, risks, k)
    if isinstance(want, str):
        assert got == want
        return
    (ids, labels), (want_ids, want_labels) = got, want
    assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)
    assert labels.tolist() == want_labels
