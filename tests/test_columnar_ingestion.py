"""Columnar record ingestion: contract, memory, and parity with row loaders
and with sort-based quantile binning."""

import csv
import dataclasses
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


def _records_file(path, n, seed, risk2=True, digits=6):
    rng = np.random.default_rng(seed)
    risk1 = np.round(rng.beta(2.0, 8.0, size=n), digits)
    second = np.round(np.clip(risk1 + rng.normal(0.0, 0.05, size=n), 0.0, 1.0), digits)
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
            bin_individuals(rows, k=2)

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

    def test_records_built_from_arrays_are_checked(self):
        with pytest.raises(InvariantViolation) as info:
            IndividualRecords(risk1=np.array([0.1, 0.1, 0.3]), risk2=None,
                              outcome=np.array([2, 0, 1]))
        assert str(info.value) == "record 0: outcome 2 must be 0 or 1"
        records = IndividualRecords(risk1=np.array([0.1, 0.3]), risk2=np.array([0.2, 0.4]),
                                    outcome=np.array([0, 1], dtype=np.uint8))
        with pytest.raises(RiskOutOfRange, match=r"^record 1: risk2 1.5 outside \[0, 1\]$"):
            dataclasses.replace(records, risk2=np.array([0.2, 1.5]))
        assert dataclasses.replace(records, risk2=None) == [(0.1, None, 0), (0.3, None, 1)]

    @pytest.mark.parametrize("risk2", [True, False])
    def test_indexing_matches_iteration(self, tmp_path, risk2):
        records = load_individuals(_records_file(tmp_path / "i.csv", 20, 5, risk2=risk2))
        rows = list(records)
        assert (records.risk2 is not None) == risk2 and len(rows) == 20
        for i in (0, 7, 19, -1, -8, -20):
            assert records[i] == rows[i] and type(records[i]) is IndividualRecord
            assert [type(x) for x in records[i]] == [type(x) for x in rows[i]]
        for at in (slice(0, 20), slice(3, 9), slice(-5, None), slice(None, -3), slice(8, 8),
                   slice(15, 40), slice(None, None, 3), slice(None, None, -2)):
            assert records[at] == rows[at] and type(records[at]) is list
        for i in (20, -21):
            with pytest.raises(IndexError):
                records[i]

    @pytest.mark.parametrize(
        "column, value, error, message",
        [
            ("risk1", 1.5, RiskOutOfRange, "risk1 1.5 outside [0, 1]"),
            ("risk2", -0.5, RiskOutOfRange, "risk2 -0.5 outside [0, 1]"),
            ("outcome", 2, InvariantViolation, "outcome 2 must be 0 or 1"),
        ],
    )
    def test_record_check_looks_up_the_faulty_record(self, monkeypatch, column, value, error,
                                                     message):
        """The check reads the first faulty record by index: with iteration
        raising, a fault in the last record still gives its own message."""
        n = 10_000
        columns = {"risk1": np.full(n, 0.5), "risk2": np.full(n, 0.25), "outcome": np.zeros(n, int)}
        columns[column][-1] = value

        def walk(self):
            raise AssertionError("the record check walked the records")

        monkeypatch.setattr(IndividualRecords, "__iter__", walk)
        with pytest.raises(error) as info:
            IndividualRecords(**columns)
        assert str(info.value) == f"record {n - 1}: {message}"

    @pytest.mark.parametrize("risk2", [(0.2, None), (None, 0.3)], ids=["first", "second"])
    def test_risk2_on_some_records_only_is_rejected(self, risk2):
        # As load_individuals rejects a risk2 column filled on some rows only.
        rows = [IndividualRecord(0.1, risk2[0], 0), IndividualRecord(0.2, risk2[1], 1)]
        for build in (IndividualRecords.from_records, bin_individuals):
            with pytest.raises(InvariantViolation, match="^risk2 must be present on all records"):
                build(rows)


class TestBinningParity:
    @pytest.mark.parametrize(
        "k", [None, 10, 7], ids=["unique-values", "quantiles-10", "quantiles-7"]
    )
    @pytest.mark.parametrize("risk2", [True, False])
    def test_list_and_columns_bin_identically(self, tmp_path, k, risk2):
        records = load_individuals(_records_file(tmp_path / "r.csv", 2000, 5, risk2=risk2))
        from_columns = bin_individuals(records, k=k)
        from_list = bin_individuals(list(records), k=k)
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
            grouped, joint = bin_individuals(records, k=10)
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
            bin_individuals(records, k=4)
        tracemalloc.start()
        try:
            with pytest.raises(DegenerateBins, match="^2 distinct risks cannot fill 1000000 bins$"):
                bin_individuals(records, k=10**6)
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


@pytest.mark.parametrize("digits", [6, 12])  # 12 as in the benchmark's records inputs
@pytest.mark.parametrize("risk2", [True, False])
def test_plain_records_skip_csv_reader(tmp_path, monkeypatch, risk2, digits):
    # risk2 filled on every row or blank on every row: both files are plain.
    path = _records_file(tmp_path / "r.csv", 1000, 3, risk2=risk2, digits=digits)
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
    # The byte lies far more than one decode chunk past the earlier fault (a
    # short row, or a field over csv.reader's size limit), so the reader meets
    # that fault first and must still report the byte, at its place in the file.
    path = tmp_path / f"{kind}.csv"
    valid, bad = b"0.1,0.5,1\n", b"0.1,0.5,\xff\n"
    new, old = LOADERS[kind]
    for fault in (b"0.1,0.5\n", b"0.1," + b"1" * 200_000 + b",1\n"):
        head = [bad, fault] if bad_byte_first else [fault]
        tail = [] if bad_byte_first else [bad]
        body = b"".join(head + [valid] * 20_000 + tail)
        path.write_bytes(",".join(HEADERS[kind]).encode() + b"\n" + body)
        got, want = (_outcome(f, path) for f in (new, old))
        assert got[:2] == ("raised", ingestion.ParseError)
        assert got[2].startswith(f"cannot read {path}:")
        assert got == want


def test_records_file_is_read_by_numpy_once(tmp_path, monkeypatch):
    filled = _records_file(tmp_path / "f.csv", 1000, 5)
    blank = _records_file(tmp_path / "b.csv", 1000, 5, risk2=False)
    lines = filled.read_text().splitlines(keepends=True)
    risk1, rest = lines[-1].split(",", 1)
    quoted = tmp_path / "q.csv"  # numpy's reader rejects it on its last row
    quoted.write_text("".join(lines[:-1] + [f'"{risk1}",{rest}']))
    calls = []
    plain_columns = ingestion._plain_columns

    def counted(*args):
        calls.append(args)
        return plain_columns(*args)

    monkeypatch.setattr(ingestion, "_plain_columns", counted)
    for path in (filled, blank, quoted):
        calls.clear()
        assert load_individuals(path) == ref.load_individuals(path)
        assert len(calls) == 1, path.name


def test_plain_tables_skip_csv_reader(tmp_path, monkeypatch):
    joint = tmp_path / "j.csv"
    joint.write_text("r1,r2,mass,prevalence\n0.1,0.2,0.5,0.15\n0.3,-0,0.25,0.3\n0.3,0,0.25,0.2\n")
    grouped = tmp_path / "g.csv"
    grouped.write_text("risk,mass,prevalence\r\n0.1,0.5,0.15\r\n\r\n 0.3 ,0.5,\t0.3\r\n")
    want = ref.load_joint(joint), ref.load_grouped(grouped)
    monkeypatch.setattr(ingestion, "_read_columns", _no_csv_reader)
    assert (load_joint(joint), load_grouped(grouped)) == want
    assert repr(load_joint(joint)) == repr(want[0])


def _loadable_bytes(data: bytes) -> bool:
    """The rule that _loadable keeps, applied to a whole file's bytes at once."""
    limit, start = csv.field_size_limit(), 0
    while len(data) - start > limit:
        start = data.rfind(b"\n", start, start + limit + 1) + 1
        if not start:
            return False
    return b"\0" not in data


LIMIT = 16  # the field size limit while the chunked scan is compared
LINE = b"x" * LIMIT
SCAN_CASES = [
    b"",
    LINE,  # a final line at the limit, with no line feed
    LINE + b"x",  # a final line over it
    LINE + b"\n" + LINE + b"\n",  # lines exactly at the limit
    b"\n" + LINE + b"x\n",
    b"ab\n" * 5 + LINE + b"\n",  # a line at the limit across chunk boundaries
    b"ab\n" * 5 + LINE + b"x\n",
    b"ab\n" * 20 + b"\0",  # a NUL in the last chunk
    b"\n" * 40,
]


@pytest.fixture
def field_limit():
    """csv's field size limit lowered to LIMIT, and restored afterwards."""
    old = csv.field_size_limit(LIMIT)
    yield
    csv.field_size_limit(old)


@pytest.mark.parametrize("chunk", [1, 7, LIMIT - 1, LIMIT, LIMIT + 1, 3 * LIMIT + 5, 1 << 20])
def test_loadable_in_chunks_keeps_the_whole_file_rule(tmp_path, monkeypatch, field_limit, chunk):
    monkeypatch.setattr(ingestion, "_SCAN_BYTES", chunk)
    rng = np.random.default_rng(chunk)
    files = list(SCAN_CASES)
    for _ in range(400):  # lines of random length around the limit, now and then a NUL
        p_lf = rng.uniform(0.03, 0.2)
        draws = rng.choice(3, size=rng.integers(0, 150), p=[0.998 - p_lf, p_lf, 0.002])
        files.append(np.array([b"a", b"\n", b"\0"])[draws].tobytes())
    path = tmp_path / "p.csv"
    seen = set()
    for data in files:
        path.write_bytes(data)
        want = _loadable_bytes(data)
        assert ingestion._loadable(path) == want, data
        seen.add(want)
    assert seen == {False, True}


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
    got = _binned(lambda r, k: ingestion._bin_ids(r, k)[:2], risks, k)
    want = _binned(ref.bin_ids, risks, k)
    if isinstance(want, str):
        assert got == want
        return
    (ids, labels), (want_ids, want_labels) = got, want
    assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)
    assert labels.tolist() == want_labels


def _partition_cut_ids(risks, k):
    """Quantile ids and labels as np.partition cuts and np.searchsorted gave them."""
    n = len(risks)
    if k <= n:
        at = [n * j // k - 1 for j in range(1, k)]
        ids = np.searchsorted(np.partition(risks, at)[at], risks, side="left")
        filled = np.bincount(ids, minlength=k) > 0
    distinct = k if k <= n and filled.all() else len(np.unique(risks))
    if distinct < k:
        raise DegenerateBins(f"{distinct} distinct risks cannot fill {k} bins")
    width = len(str(k))
    labels = [f"q{int(old) + 1:0{width}d}" for old in np.flatnonzero(filled)]
    return (np.cumsum(filled) - 1)[ids], labels


@st.composite
def _grid_risks(draw, k_low, k_high):
    # Few grid values (and -0.0 beside 0.0), so tie runs straddle cuts.
    n = draw(st.integers(max(2, k_low), 500))
    k = draw(st.integers(k_low, min(n, k_high)))
    steps = draw(st.integers(1, 12))
    grid = st.sampled_from([i / steps for i in range(steps + 1)]) | st.just(-0.0)
    return np.array(draw(st.lists(grid, min_size=n, max_size=n)), dtype=float), k


CUTS = ingestion._COMPARED_CUTS


@pytest.mark.parametrize("k_low, k_high", [(2, CUTS + 1), (CUTS + 2, 40)],
                         ids=["counted-cuts", "searched-cuts"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quantile_ids_match_partition_cuts(k_low, k_high, data):
    risks, k = data.draw(_grid_risks(k_low, k_high))
    want = _binned(_partition_cut_ids, risks, k)
    got = _binned(lambda r, k: ingestion._bin_ids(r, k), risks, k)
    if isinstance(want, str):
        assert got == want
        return
    (ids, labels, counts, exact), (want_ids, want_labels) = got, want
    assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)
    assert labels.tolist() == want_labels and exact is None
    assert counts.tolist() == np.bincount(want_ids).tolist()


# Outcome and single-model risk2 fields, each in the last of two records, with
# the records or the message that loading gave when numpy's reader took these
# columns as unicode text; "plain" when numpy's reader alone read the file.
TEXT_FIELDS = [
    ("outcome", "0", "plain", [(0.1, 0.2, 0), (0.3, 0.4, 0)]),
    ("outcome", "1", "plain", [(0.1, 0.2, 0), (0.3, 0.4, 1)]),
    ("outcome", "2", "csv", "{path}:3: outcome '2' must be 0 or 1"),
    ("outcome", "10", "csv", "{path}:3: outcome '10' must be 0 or 1"),
    ("outcome", "1.0", "csv", "{path}:3: outcome '1.0' must be 0 or 1"),
    ("outcome", " 1", "csv", [(0.1, 0.2, 0), (0.3, 0.4, 1)]),
    ("outcome", "é", "csv", "{path}:3: outcome 'é' must be 0 or 1"),
    ("outcome", "", "csv", "{path}:3: outcome '' must be 0 or 1"),
    ("risk2", "", "plain", [(0.1, None, 0), (0.3, None, 1)]),
    ("risk2", "0.5", "csv", "{path}: risk2 must be present on all rows or none"),
    ("risk2", " ", "csv", [(0.1, None, 0), (0.3, None, 1)]),
]


@pytest.mark.parametrize("column, field, reader, want", TEXT_FIELDS)
def test_text_fields_keep_their_records_and_messages(tmp_path, monkeypatch, column, field,
                                                      reader, want):
    path = tmp_path / "r.csv"
    body = "0.1,0.2,0\n0.3,0.4,{}\n" if column == "outcome" else "0.1,,0\n0.3,{},1\n"
    path.write_text("risk1,risk2,outcome\n" + body.format(field), encoding="utf-8")
    calls = []
    read_columns = ingestion._read_columns
    monkeypatch.setattr(ingestion, "_read_columns", lambda *a: calls.append(a) or read_columns(*a))
    if isinstance(want, str):
        with pytest.raises(ingestion.ParseError) as raised:
            load_individuals(path)
        assert str(raised.value) == want.format(path=path)
    else:
        assert load_individuals(path) == [IndividualRecord(*r) for r in want]
    assert bool(calls) == (reader == "csv")

