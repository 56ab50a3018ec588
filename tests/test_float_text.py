"""Float text: the vectorized 12-digit formatter against `format(x, ".12g")`.

Every float that the CSV writer and the group labels print must be the text
`format(x, ".12g")` gives. The properties draw the values where a scaled
significand is hardest to round: arbitrary bit patterns (NaN payloads, +-0,
+-inf, subnormals), the doubles nearest a 12th-digit half-way point and their
neighbours, and powers of ten and their neighbours, over the whole double
range. `reference_csv` keeps the row-join writer that the formatter replaced.
"""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_csv
from riskeval import cross_classified_bias, load_joint
from riskeval.ingestion import _BLOCK_ROWS, _labels, format_csv
from riskeval.tables import coded


def _formatted(values: np.ndarray) -> list[str]:
    """The writer's text of each value, one CSV line each."""
    return format_csv(("x",), columns=[values]).split("\n")[1:-1]


def _expected(values: np.ndarray) -> list[str]:
    return [format(v, ".12g") for v in values.tolist()]


def _stepped(value: float, ulps: int) -> float:
    """value moved by ulps units in the last place, away from zero for ulps > 0."""
    bits = max(int(np.float64(abs(value)).view(np.int64)) + ulps, 0)
    return float(np.int64(bits).view(np.float64)) * (-1.0 if value < 0 else 1.0)


def _half_way(significand: int, exponent: int) -> float:
    """The double nearest (significand + 0.5) * 10**(exponent - 11)."""
    return float(f"{significand}5e{exponent - 12}")


bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.uint64(b).view(np.float64))
)
near_ties = st.builds(
    lambda d, e, k, neg: _stepped(_half_way(d, e), k) * (-1.0 if neg else 1.0),
    st.integers(10**11, 10**12 - 1),
    st.integers(-330, 310),
    st.integers(-3, 3),
    st.booleans(),
)
near_powers = st.builds(
    lambda m, k, neg: _stepped(float(f"1e{m}"), k) * (-1.0 if neg else 1.0),
    st.integers(-330, 310),
    st.integers(-3, 3),
    st.booleans(),
)


@given(st.lists(st.one_of(bit_patterns, near_ties, near_powers), min_size=1, max_size=40))
def test_float_text_is_format_12g(values):
    values = np.array(values, dtype=np.float64)
    assert _formatted(values) == _expected(values)


def test_float_text_sweeps_the_double_range():
    """Every decimal exponent of the double range, in one call per family."""
    rng = np.random.default_rng(11)
    exponents = range(-330, 311)
    ties = [
        _half_way(int(d), e)
        for e in exponents
        for d in rng.integers(10**11, 10**12, 12)
    ]
    powers = [float(f"1e{m}") for m in exponents]
    base = np.array(ties + powers, dtype=np.float64)
    bits = np.abs(base).view(np.int64)
    stepped = [np.maximum(bits + k, 0).view(np.float64) for k in range(-3, 4)]
    values = np.concatenate(stepped + [-s for s in stepped])
    assert _formatted(values) == _expected(values)
    patterns = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    assert _formatted(patterns) == _expected(patterns)


def test_float_text_edge_values():
    values = np.array([
        0.0, -0.0, 1.0, -1.0, 10.0, 100.0, 1e11, 1e12, 123456789012.0, 0.5, 1e-4,
        9.99999999999e-05, 0.000099999999999996, 0.1000000000005, 0.9999999999995,
        1e-11, 9.99999999999e-12, 1e33, 9.99999999999e33, 1e34, 1e300, 5e-324,
        2.2250738585072014e-308, np.inf, -np.inf, np.nan, -np.nan,
    ])
    assert _formatted(values) == _expected(values)


def test_labels_are_format_12g_per_bit_pattern():
    values = np.array([0.1, -0.0, 0.0, 0.1, 1e-4, 0.000099999999999996, -0.0])
    labels = _labels(values)
    assert labels.tolist() == ["0.1", "-0", "0", "0.1", "0.0001", "0.0001", "-0"]
    # One code per label, numbered in str order.
    assert labels.labels.tolist() == ["-0", "0", "0.0001", "0.1"]
    assert labels.codes.tolist() == [3, 0, 1, 3, 2, 2, 0]


# Values whose labels sort as their bits do (non-negative, fixed notation),
# values that do not (negatives, scientific notation, -0.0), and runs of
# 12-digit neighbours that print one label.
def _neighbours(base):
    return st.builds(lambda x, steps: [_stepped(x, k) for k in steps], base,
                     st.lists(st.integers(-2, 2), min_size=1, max_size=4))


fixed = st.floats(1e-4, 1.0) | st.sampled_from([0.0, -0.0, 0.5, 1.0])
ordered_values = st.lists(fixed.map(lambda x: [x]) | _neighbours(fixed), max_size=20)
unordered_values = st.lists(
    st.sampled_from([-0.5, 1e-5, 1e12, 5e-324, math.nan]).map(lambda x: [x])
    | st.floats().map(lambda x: [x])
    | _neighbours(st.floats(-1.0, -1e-4)),
    max_size=3,
)


@given(ordered_values, unordered_values)
def test_labels_code_as_the_sorted_label_set(ordered, unordered):
    """Either path, run-coding ordered labels or sorting them, gives the
    codes and vocabulary of np.unique over the labels, and each value formats
    to its label. 1e-5 before 0.5 in bit order, and after it in str order,
    sends the second call down the sorting path."""
    for runs in (ordered, ordered + unordered + [[1e-5, 0.5]]):
        values = np.array([x for run in runs for x in run], dtype=np.float64)
        keys = _labels(values)
        vocab, codes = np.unique(np.array(_expected(values), dtype=object), return_inverse=True)
        assert keys.labels.tolist() == vocab.tolist()
        assert keys.codes.tolist() == codes.tolist()
        assert _expected(keys.values) == vocab.tolist()
        assert not keys.values.flags.writeable


# ---------------------------------------------------------------------------
# the writer against the row-join reference

TEXTS = ["a", "", "a,b", 'say "hi"', "a\nb", "c\r\nd", "é,ü", "x\x00", "\x00", " pad "]
FLOATS = [0.0, -0.0, 0.3, 1 / 3, -2.5e-7, 1e300, 5e-324, np.inf, np.nan, 0.1000000000005]


def _columns(rng, n: int):
    keys = np.array([f"k{i % 97}" for i in range(n)], dtype=object)
    quoted = [TEXTS[i] for i in rng.integers(0, len(TEXTS), n)]
    floats = rng.random(n) ** 9 * np.where(rng.random(n) < 0.3, -1.0, 1.0)
    special = rng.random(n) < 0.05
    floats[special] = rng.choice(FLOATS, special.sum())
    counts = rng.integers(0, 10**6, n)
    # Mostly +-0, as the variances of one-cell subgroups are.
    zeros = np.where(rng.random(n) < 0.9, 0.0, floats) * np.where(rng.random(n) < 0.3, -1.0, 1.0)
    runs = np.repeat([0.0, -0.0], [n // 2, n - n // 2])  # a run of 0.0, then one of -0.0
    return [keys, floats, quoted, rng.random(n), counts, floats.tolist(), zeros, runs]


@given(
    st.lists(st.tuples(st.sampled_from(TEXTS) | st.text(max_size=6), bit_patterns), max_size=30)
)
def test_writer_matches_the_row_join(entries):
    texts = [t for t, _ in entries]
    floats = np.array([x for _, x in entries], dtype=np.float64)
    with np.errstate(over="ignore"):
        single = floats.astype(np.float32)
    columns = [texts, floats, single, np.arange(len(entries)), texts]  # one column twice
    header = ("text", "value", "single", "index", "text")
    want = reference_csv.format_csv(header, columns=columns)
    assert format_csv(header, columns=columns) == want


@pytest.mark.parametrize(
    "n",
    [0, 1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2**16 - 1, 2**16, 2**16 + 1],
)
def test_writer_matches_the_row_join_across_blocks(n):
    columns = _columns(np.random.default_rng(n), n)
    header = ("key", "float", "text", "uniform", "count", "float_list", "zeros", "zero_runs")
    assert format_csv(header, columns=columns) == reference_csv.format_csv(header, columns=columns)


@pytest.mark.parametrize("how", ["columns", "key_column"])
def test_line_breaks_are_quoted_and_read_back(how):
    keys = ["a\nb", "c\r\nd", "e\rf", 'g"\nh', "i,j", "plain"]
    values = [0.5, 0.25, 1.0, 2.0, 1e-20, -0.0]
    column = keys if how == "columns" else coded(keys)
    text = format_csv(("key", "value"), columns=[column, np.array(values)])
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows == [["key", "value"]] + [[k, format(v, ".12g")] for k, v in zip(keys, values)]


# Peak traced allocation while writing the cell_bias.csv text of 50k cells
# (4.95 MiB of text; Python 3.11, numpy 2.4): 17.7 MiB through the row-join
# reference, 11.0 MiB through the vectorized writer.
def test_cell_bias_text_peaks_no_higher_than_the_row_join(tmp_path):
    rng = np.random.default_rng(3)
    n = 50_000
    r2 = (np.arange(n) + rng.random(n)) / n
    mass = rng.random(n)
    mass /= mass.sum()
    path = tmp_path / "joint.csv"
    columns = (np.round(r2, 2), r2, mass, rng.random(n))
    path.write_text(
        "r1,r2,mass,prevalence\n"
        + "".join(map("{!r},{!r},{!r},{!r}\n".format, *(x.tolist() for x in columns)))
    )
    joint = load_joint(path)
    cells = cross_classified_bias(joint, joint.marginal(1), joint.marginal(2)).columns()
    header = ("group1", "group2", "mass", "prevalence", "risk1", "risk2", "bias1", "bias2")
    peaks, texts = [], []
    for write in (reference_csv.format_csv, format_csv):
        tracemalloc.start()
        try:
            texts.append(write(header, columns=cells))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert texts[0] == texts[1]
    assert peaks[1] <= peaks[0]
