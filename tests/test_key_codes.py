"""Group keys held as integer codes into a label vocabulary.

Loaders and the rows API code keys once; merging, sorting, marginals and
matching between tables then read the codes. These properties check that
coding keeps key identity exactly as the row-at-a-time reference builder
in `reference_tables` does, and that matching a table's keys against a
joint table's gives the bits of a plain mapping lookup.
"""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tables as ref
from riskeval import (
    MissingAssignment,
    RiskEvalError,
    cross_classified_bias,
    load_grouped,
    load_joint,
    make_joint_table,
)
from riskeval.cli import main
from riskeval.ingestion import _labels, format_csv
from riskeval.tables import format_label

TIE = 0.123456789012
# Values whose 12-digit labels collide (x and its neighbours), signed zeros
# that keep the labels "-0" and "0", and the ends of the float range in [0, 1].
NEAR = [
    0.1, float(np.nextafter(0.1, 1.0)), TIE, float(np.nextafter(TIE, 0.0)),
    float(np.nextafter(TIE, 1.0)), 1 / 3, 0.0, -0.0, 1.0, 5e-324, 1e-5, 0.5,
]
NANS = [math.nan, -math.nan]
# Row-API keys that CSV must quote, or that hold NUL or non-ASCII text.
ODD_KEYS = ["a,b", 'say "hi"', "a", "a\x00", "\x00", "", "é", "日本", " pad ", 7]
CELL_BIAS_HEADER = ("group1", "group2", "mass", "prevalence", "risk1", "risk2", "bias1", "bias2")


def _text(x: float) -> str:
    """x as CSV text that parses back to its bits, NaN sign included."""
    return "-nan" if math.isnan(x) and math.copysign(1.0, x) < 0 else repr(x)


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text(header + "\n" + "".join(",".join(map(_text, row)) + "\n" for row in rows))


def _hex(x) -> str:
    return x.hex() if isinstance(x, float) else x


def _table_bits(table):
    """Rows (and keys) of a grouped or joint table, floats as hex."""
    rows = table.groups if hasattr(table, "groups") else table.cells
    return [tuple(map(_hex, r)) for r in rows], table.population_mean.hex()


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except RiskEvalError as exc:
        return "raised", type(exc), str(exc)


def _assert_same_joint(got, want):
    """Library and reference joint tables agree on keys, cells and both marginals."""
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
        return
    new, old = got[1], want[1]
    assert new.key1.tolist() == [c.key1 for c in old.cells]
    assert new.key2.tolist() == [c.key2 for c in old.cells]
    assert _table_bits(new) == _table_bits(old)
    for axis in (1, 2):
        margins = _outcome(new.marginal, axis), _outcome(old.marginal, axis)
        assert margins[0][0] == margins[1][0]
        if margins[0][0] == "raised":
            assert margins[0] == margins[1]
            continue
        assert margins[0][1].key.tolist() == [g.key for g in margins[1][1].groups]
        assert _table_bits(margins[0][1]) == _table_bits(margins[1][1])


def _normalized(rows):
    total = sum(row[-2] for row in rows) or 1
    return [(*row[:-2], row[-2] / total, row[-1]) for row in rows]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(NEAR + NANS),
            st.sampled_from(NEAR + NANS) | st.floats(0.0, 1.0),
            st.sampled_from([0, 0, 1, 2, 3]),
            st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
        ),
        min_size=1,  # a file with no rows is a parse error
        max_size=8,
    )
)
def test_loaded_float_keys_match_the_reference(rows):
    """A joint file's labels key cells as format_label does, one key per label."""
    rows = _normalized(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "joint.csv"
        _write_csv(path, "r1,r2,mass,prevalence", rows)
        got = _outcome(load_joint, path)
    labelled = [(format_label(r1), format_label(r2), r1, r2, m, p) for r1, r2, m, p in rows]
    _assert_same_joint(got, _outcome(ref.make_joint_table, labelled))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(ODD_KEYS),
            st.sampled_from(ODD_KEYS),
            st.integers(1, 3),
            st.sampled_from([0, 1, 2]),
            st.sampled_from([0.0, 0.25, 1.0]),
        ),
        max_size=8,
    )
)
def test_row_api_keys_match_the_reference(entries):
    """Keys with commas, quotes, NUL or non-ASCII text stay distinct and sort as str."""
    # A key usually carries one risk, so merges mostly succeed.
    rows = _normalized(
        [(k1, k2, len(str(k1)) / 10 + 0.05 * s, 0.5, m, p) for k1, k2, s, m, p in entries]
    )
    _assert_same_joint(_outcome(make_joint_table, rows), _outcome(ref.make_joint_table, rows))


def test_signed_zero_keys_stay_apart(tmp_path):
    path = tmp_path / "grouped.csv"
    path.write_text("risk,mass,prevalence\n0.0,0.5,0.25\n-0.0,0.25,0.5\n0,0.25,0.75\n")
    table = load_grouped(path)
    assert table.key.tolist() == ["-0", "0"] and table.mass.tolist() == [0.25, 0.75]


def test_labels_across_blocks_in_bounded_memory():
    """200k distinct floats: labels match format_label across block edges, peak under 32 MiB."""
    specials = [*NEAR, *NANS, math.inf, -math.inf, 1e300]
    values = np.concatenate([specials, np.random.default_rng(7).random(200_000), specials])
    _labels(values[:8])  # builds the formatter's cached digit tables
    tracemalloc.start()
    try:
        keys = _labels(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    labels = [format_label(v).encode() for v in values.tolist()]
    assert keys.vocab.tolist() == sorted(set(labels))
    assert keys.vocab[keys.codes].tolist() == labels
    assert peak < 32 * 2**20


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_three_file_compare_matches_the_mappings(seed, data):
    """Grouped files in another order, with groups the joint table lacks.

    Their vocabularies differ from the joint table's, so keys are matched
    between vocabularies; the biases equal the reference's, given each
    table's key-to-risk mapping, bit for bit, and the first bad cell raises
    the reference's error.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 40))
    r2 = np.sort(rng.choice(np.arange(1, 10_000), size=k, replace=False)) / 10_000
    r1 = np.round(r2, 1)  # model 2 refines model 1
    mass, prev = rng.dirichlet(np.ones(k)), rng.uniform(0.01, 0.99, size=k)
    r1, r2, mass, prev = (x.tolist() for x in (r1, r2, mass, prev))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = [tmp / name for name in ("g1.csv", "g2.csv", "joint.csv")]
        _write_csv(paths[2], "r1,r2,mass,prevalence", zip(r1, r2, mass, prev))
        joint = load_joint(paths[2])
        mean = joint.population_mean
        for path, margin, extra in zip(paths, (joint.marginal(1), joint.marginal(2)), (0.05, 5e-5)):
            masses = (margin.mass * 0.875).tolist()  # room for a group the joint table lacks
            rows = list(zip(margin.risk.tolist(), masses, margin.prevalence.tolist()))
            _write_csv(path, "risk,mass,prevalence", rows[::-1] + [(extra, 0.125, mean)])
        tables = [load_grouped(p) for p in paths[:2]]
        mappings = [dict(zip(t.key.tolist(), t.risk.tolist())) for t in tables]
        assert all(len(m) > len(set(keys)) for m, keys in zip(mappings, (joint.key1, joint.key2)))
        got = cross_classified_bias(joint, *tables)
        assert repr(list(got)) == repr(ref.cross_classified_bias(joint, *mappings))
        out = tmp / "out"
        assert main(["compare", *map(str, paths), "--out", str(out)]) == 0
        assert (out / "cell_bias.csv").read_text() == format_csv(
            CELL_BIAS_HEADER, columns=got.columns()
        )

        # One joint group of each grouped file renamed (moved off the joint's labels).
        renamed = []
        for path, table, keys in zip(paths, tables, (joint.key1, joint.key2)):
            used = [i for i, key in enumerate(table.key.tolist()) if key in set(keys.tolist())]
            at = data.draw(st.sampled_from(used))
            rows = list(zip(table.risk.tolist(), table.mass.tolist(), table.prevalence.tolist()))
            r, m, p = rows[at]
            rows[at] = (r + 3e-5 if r < 0.5 else r - 3e-5, m, p)
            _write_csv(path, "risk,mass,prevalence", rows)
            renamed.append(load_grouped(path))
        for table1, table2 in (
            (renamed[0], renamed[1]),
            (renamed[0], tables[1]),
            (tables[0], renamed[1]),
        ):
            as_mapping = [dict(zip(t.key.tolist(), t.risk.tolist())) for t in (table1, table2)]
            want_error = _outcome(ref.cross_classified_bias, joint, *as_mapping)
            assert want_error[:2] == ("raised", MissingAssignment)
            assert _outcome(cross_classified_bias, joint, table1, table2) == want_error
        assert main(["compare", *map(str, paths), "--out", str(out)]) == 2
