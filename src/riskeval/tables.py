"""Model tables: assigned risks, group masses, and outcome prevalences.

A grouped table describes one risk model applied to a population: each group
carries the model's assigned risk, the fraction of the population in the
group, and the group's observed (or exactly computed) outcome prevalence.
A joint table cross-classifies two models over the same population.

Tables hold read-only numpy columns of their own, one entry per group or
cell: keys (a KeyColumn: integer codes into a vocabulary of labels, coded once
when a table is built or loaded), assigned risks, masses and prevalences. The
`key`/`key1`/`key2` object arrays of str and the `groups` and `cells` rows
(NamedTuples) are views built on demand; every computation, merging and
matching keys included, reads the columns.

Group keys are identity. Entries that share a key are one group; distinct
keys stay distinct groups even when their assigned risks are equal, so a
shared risk value never merges two groups. Matching between tables
(calibration transfer, risk assignment to joint cells) is by key, never by
risk value.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .distributions import (
    RISK_MERGE_TOL,
    RiskDistribution,
    _RowView,
    _check_mass,
    _check_total_mass,
    _check_unit_interval,
    _exact_sum,
    _merge,
    _own_arrays,
    _rows,
    _sealed,
)
from .errors import EmptyInput, InternalInvariantError, InvariantViolation


def format_label(x: float) -> str:
    """Canonical 12-significant-digit label for a numeric group key."""
    return format(float(x), ".12g")


def _float_or_nan(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _floats(values) -> np.ndarray:
    """values converted by float(), as float64; NaN where float() raises.

    A NaN fails every range check, so the entry's own check later re-raises
    the conversion error at its place in entry order.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values
    try:
        return np.fromiter(map(float, values), dtype=float, count=len(values))
    except (TypeError, ValueError, OverflowError):
        return np.array([_float_or_nan(v) for v in values], dtype=float)


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry, or len(mask) when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def _raise_first(mask: np.ndarray, name: str, check) -> None:
    """check(i), the own check of the first entry i that mask flags, must raise."""
    i = _first(mask)
    if i < len(mask):
        check(i)
        raise InternalInvariantError(f"{name} {i} failed a column check but passes its own")


def _outside_unit(x: np.ndarray) -> np.ndarray:
    """True where x is not a number in [0, 1] (NaN included)."""
    return ~((x >= 0.0) & (x <= 1.0))


def _as_str(labels: np.ndarray) -> np.ndarray:
    return labels if labels.dtype == object else labels.astype(str).astype(object)


@dataclass(frozen=True, eq=False)
class KeyColumn:
    """Group keys: codes[i] indexes entry i's label in vocab.

    vocab holds distinct labels in str order, so codes compare as their keys
    do: an object array of str or, for float labels (ASCII that CSV need not
    quote), NUL-padded bytes, which sort alike. It may hold unused labels;
    indexing takes entries and shares the vocabulary. Float labels may carry
    values: values[c] is a float whose format_label is vocab[c], so a float
    column equal to values[codes] bit for bit prints as the keys. Keys coded
    from text have none.
    """

    codes: np.ndarray
    vocab: np.ndarray
    values: np.ndarray | None = None

    __post_init__ = _own_arrays

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows) -> "KeyColumn":
        return KeyColumn(_sealed(self.codes[rows]), self.vocab, self.values)

    def __iter__(self):
        return iter(self.tolist())

    @property
    def labels(self) -> np.ndarray:
        """The vocabulary as an object array of str."""
        return _as_str(self.vocab)

    def array(self) -> np.ndarray:
        """Each entry's key, as an object array of str."""
        return _as_str(self.vocab[self.codes])

    def tolist(self) -> list[str]:
        return self.array().tolist()


def coded(keys) -> KeyColumn:
    """KeyColumn of str() of each key."""
    vocab, codes = np.unique(np.array(list(map(str, keys)), dtype=object), return_inverse=True)
    return KeyColumn(_sealed(codes), _sealed(vocab))


def rows_of(table: "GroupedModelTable", keys: KeyColumn) -> np.ndarray:
    """Row of table holding each entry's key in keys; -1 where no row does.

    Two vocabularies are matched by one stable sort of both: a label in
    both lands right after its equal from the table's vocabulary.
    """
    own = table.key_column
    row = np.full(len(own.vocab) + 1, -1)  # the last slot stands for a missing label
    row[own.codes] = np.arange(len(own))
    if keys.vocab is own.vocab:
        return row[keys.codes]
    same = own.vocab.dtype.kind == keys.vocab.dtype.kind
    both = np.concatenate([own.vocab, keys.vocab] if same else [own.labels, keys.labels])
    order = np.argsort(both, kind="stable")
    hit = np.flatnonzero(both[order[1:]] == both[order[:-1]])
    at = np.full(len(keys.vocab), len(own.vocab))
    at[order[hit + 1] - len(own.vocab)] = order[hit]
    return row[at[keys.codes]]


def _check_entry(columns, i: int, risk_names) -> None:
    """The per-entry checks, in order: mass, then (positive mass only) risks and prevalence."""
    if _check_mass(columns.mass[i]) != 0.0:
        for name, risks in zip(risk_names, columns.risks):
            _check_unit_interval(name, risks[i])
        _check_unit_interval("prevalence", columns.prevalence[i])


@dataclass(frozen=True)
class Columns:
    """Table entries held as columns, accepted by the table builders.

    keys and risks hold one column per model (one for a grouped table, two
    for a joint table); key columns are KeyColumns or sequences coded by
    str(), value columns anything that float() takes. Its length is the
    number of entries.
    """

    keys: tuple
    risks: tuple
    mass: object
    prevalence: object

    def __len__(self) -> int:
        return len(self.mass)


def _build(entries, risk_names, empty_message):
    """Build path shared by grouped and joint tables: validate, merge, sort.

    entries is a Columns or an iterable of (keys..., risks..., mass,
    prevalence) rows. Zero-mass entries are dropped, entries sharing a key
    merge, and the groups are sorted by (risks, keys); masses must sum to 1
    within 1e-9. Errors are raised in entry order, each entry checked as
    _check_entry does and then against the first entry of its key. Returns
    (KeyColumns, risk columns, mass, prevalence).
    """
    width = len(risk_names)
    if not isinstance(entries, Columns):
        cols = list(zip(*entries, strict=True)) or [()] * (2 * width + 2)
        if len(cols) != 2 * width + 2:
            raise ValueError(f"entries need {2 * width + 2} fields, got {len(cols)}")
        entries = Columns(cols[:width], cols[width:-2], *cols[-2:])
    keys = [k if isinstance(k, KeyColumn) else coded(k) for k in entries.keys]
    risks = [_floats(r) for r in entries.risks]
    mass, prev = _floats(entries.mass), _floats(entries.prevalence)
    live = mass > 0.0
    bad = ~np.isfinite(mass) | (mass < 0.0)
    for x in (*risks, prev):
        bad |= live & _outside_unit(x)
    stop = _first(bad)
    rows = np.flatnonzero(live[:stop])
    code = np.zeros(len(rows), dtype=np.int64)
    for k in keys:
        code = code * len(k.vocab) + k.codes[rows]
    groups, codes = np.unique(code, return_inverse=True)
    distinct = len(groups) == len(rows)
    first = np.full(len(groups), len(rows))  # each group's first entry
    np.minimum.at(first, codes, np.arange(len(rows)))
    conflict = np.zeros(len(rows), dtype=bool)
    for r in () if distinct else risks:  # distinct keys cannot conflict
        kept = r[rows]
        conflict |= np.abs(kept - kept[first][codes]) > RISK_MERGE_TOL
    at = _first(conflict)
    if at < len(rows):
        i, j = rows[at], rows[first[codes[at]]]
        key = tuple(k.labels[k.codes[i]] for k in keys)
        key = key[0] if width == 1 else key
        raise InvariantViolation(
            f"group {key!r} carries conflicting assigned risks "
            f"{tuple(float(r[j]) for r in risks)!r} and {tuple(float(r[i]) for r in risks)!r}"
        )
    _raise_first(bad, "entry", lambda i: _check_entry(entries, i, risk_names))
    if not len(rows):
        raise EmptyInput(empty_message)
    heads = rows[first]  # a merged group keeps the risks of its first entry
    if distinct:  # a lone entry's mean is (m p) / m, as _merge gives it, -0.0 included
        total = mass[heads]
        prevalence = total * prev[heads] / total
    else:
        total, prevalence = _merge(codes, mass[rows], prev[rows])
    # heads come in code order, which is key order; the stable lexsort keeps it at equal risks.
    order = np.lexsort([r[heads] for r in risks[::-1]])
    total, prevalence, heads = _sealed(total[order]), _sealed(prevalence[order]), heads[order]
    _check_total_mass(total)
    return [k[heads] for k in keys], [_sealed(r[heads]) for r in risks], total, prevalence


class Group(NamedTuple):
    """One risk group: assigned risk, population mass, outcome prevalence."""

    key: str
    risk: float
    mass: float
    prevalence: float


@dataclass(frozen=True, eq=False, repr=False)
class GroupedModelTable(_RowView):
    """One model's risk groups over a population, sorted by (risk, key).

    Columns key_column, risk, mass and prevalence hold one entry per group.
    Keys are identity and unique. Groups are never merged for sharing an
    assigned risk: several groups may carry the same risk. declared_calibrated
    marks tables whose prevalences were defaulted to the assigned risks at
    load time. population_mean (the mass-weighted prevalence, summed once),
    key (str) and groups (Group rows, built on each access) are column views.
    """

    key_column: KeyColumn
    risk: np.ndarray
    mass: np.ndarray
    prevalence: np.ndarray
    declared_calibrated: bool = False

    _repr_fields = ("groups", "population_mean", "declared_calibrated")
    _compare_fields = ("groups", "population_mean")
    _row = Group

    population_mean = cached_property(lambda self: _exact_sum(self.mass * self.prevalence))
    key = property(lambda self: self.key_column.array())
    groups = property(lambda self: tuple(_rows(self)))


def make_grouped_table(
    entries, *, declared_calibrated: bool = False
) -> GroupedModelTable:
    """Build a GroupedModelTable from (key, risk, mass, prevalence) entries.

    entries is an iterable of rows or a Columns. Keys are identity:
    zero-mass entries are dropped, and entries sharing a key merge into one
    group with mass-weighted prevalence (their risks must agree within
    1e-12). Distinct keys are never merged, even at equal risk; groups are
    sorted by (risk, key).
    """
    (key,), (risk,), mass, prev = _build(
        entries, ("risk",), "table needs at least one group with positive mass"
    )
    return GroupedModelTable(key, risk, mass, prev, declared_calibrated)


def perfect_model_table(dist: RiskDistribution) -> GroupedModelTable:
    """Table of a model that assigns everyone their true risk.

    Groups are the support points of the risk distribution; assigned risk and
    prevalence both equal the true risk.
    """
    return make_grouped_table(
        Columns((coded(map(format_label, dist.risk.tolist())),), (dist.risk,), dist.mass, dist.risk)
    )


class JointCell(NamedTuple):
    """One cell of a two-model cross-classification."""

    key1: str
    key2: str
    risk1: float
    risk2: float
    mass: float
    prevalence: float


@dataclass(frozen=True, eq=False, repr=False)
class JointModelTable(_RowView):
    """Cross-classification of two models over one population.

    Columns key1_column, key2_column, risk1, risk2, mass and prevalence hold
    one entry per cell. Cells are keyed by (first-model group, second-model
    group) pairs and sorted by (risk1, risk2, key1, key2). Marginalizing
    over either model reproduces the other model's grouped table.
    population_mean, key1, key2 and cells are column views, as in GroupedModelTable.
    """

    key1_column: KeyColumn
    key2_column: KeyColumn
    risk1: np.ndarray
    risk2: np.ndarray
    mass: np.ndarray
    prevalence: np.ndarray

    _repr_fields = _compare_fields = ("cells", "population_mean")
    _row = JointCell
    population_mean = cached_property(lambda self: _exact_sum(self.mass * self.prevalence))
    key1 = property(lambda self: self.key1_column.array())
    key2 = property(lambda self: self.key2_column.array())
    cells = property(lambda self: tuple(_rows(self)))

    def marginal(self, axis: int) -> GroupedModelTable:
        """Grouped table of model 1 (axis=1) or model 2 (axis=2).

        Within each group the assigned risk is constant by construction; the
        prevalence is the mass-weighted mean over the group's cells.
        """
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        key, risk = (self.key1_column, self.risk1) if axis == 1 else (self.key2_column, self.risk2)
        return make_grouped_table(Columns((key,), (risk,), self.mass, self.prevalence))


def make_joint_table(cells) -> JointModelTable:
    """Build a JointModelTable from (key1, key2, risk1, risk2, mass, prevalence).

    cells is an iterable of rows or a Columns. Zero-mass cells are dropped;
    duplicate (key1, key2) cells are merged with mass-weighted prevalence
    and must agree on both assigned risks.
    """
    (key1, key2), (risk1, risk2), mass, prev = _build(
        cells, ("risk1", "risk2"), "joint table needs at least one cell with positive mass"
    )
    return JointModelTable(key1, key2, risk1, risk2, mass, prev)
