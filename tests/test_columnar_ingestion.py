"""Columnar record ingestion: contract, memory, and parity with row loaders."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loaders as ref
from riskeval import (
    IndividualRecord,
    IndividualRecords,
    bin_individuals,
    load_grouped,
    load_individuals,
    load_joint,
    read_cross_decile,
)
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
    def test_load_and_bin_100k_records_stay_small(self, tmp_path):
        path = _records_file(tmp_path / "big.csv", 100_000, 11)
        tracemalloc.start()
        try:
            records = load_individuals(path)
            grouped, joint = bin_individuals(records, scheme="quantiles", k=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 100_000
        assert len(grouped.groups) == 10 and joint is not None
        assert peak < 32 * 2**20


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
        rows=st.lists(_row(kind), min_size=0, max_size=8),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def check(rows, newline):
        lines = [",".join(HEADERS[kind])] + [",".join(row) for row in rows]
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        assert _outcome(new, path) == _outcome(old, path)

    check()


@pytest.mark.parametrize(
    "body",
    [
        "0.1,0.2,0\n0.3,0.4\n0.5,{huge},1\n",  # the short row is reported first
        "0.1,0.2,0\n\n0.5,{huge},1\n0.3,0.4\n",  # the csv error stops the read
        "\n \n , , \n",
        "0.1,0.2,0\n0.3,0.4,1,\n",
    ],
)
def test_reader_error_order_matches_row_loader(tmp_path, body):
    path = tmp_path / "i.csv"
    path.write_text("risk1,risk2,outcome\n" + body.replace("{huge}", "9" * 200_000))
    got = _outcome(load_individuals, path)
    assert got[0] == "raised"
    assert got == _outcome(ref.load_individuals, path)
