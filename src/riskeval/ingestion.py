"""File formats, record binning, and rate-to-risk conversion.

CSV dialects are fixed: comma separator, dot decimal point, required header
row, UTF-8. Float text, in CSV columns and group labels, equals format(x,
".12g"), from one exact vectorized formatter that falls back to format per
value, so write/load round trips agree within 1e-12. numpy's C reader takes
plain grouped, joint and records files (one unquoted row per line, every
field filled, except a records file's risk2, which may be blank on every
row); csv.reader takes every other file, and cross-decile tables, in one
pass, and reports the first fault in file order.
"""

import array
import csv
import functools
import itertools
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .distributions import _merge, _nonnegative_sum
from .errors import (
    DegenerateBins,
    EmptyInput,
    InvariantViolation,
    NegativeRate,
    NonFiniteValue,
    ParameterOutOfRange,
    ParseError,
    RiskOutOfRange,
    ZeroPersonYears,
)
from .tables import (
    Columns,
    GroupedModelTable,
    JointModelTable,
    KeyColumn,
    _floats,
    _outside_unit,
    _raise_first,
    coded,
    make_grouped_table,
    make_joint_table,
)

GROUPED_HEADER = ["risk", "mass", "prevalence"]
JOINT_HEADER = ["r1", "r2", "mass", "prevalence"]
INDIVIDUALS_HEADER = ["risk1", "risk2", "outcome"]
CROSS_DECILE_HEADER = ["decile1", "decile2", "person_years", "cases"]


def ten_year_risk(incidence: float, mortality: float, horizon: float) -> float:
    """Absolute outcome risk over a horizon under competing mortality.

    Constant hazards: outcome incidence and death compete exponentially, so
    the cumulative outcome probability is lam/(lam+mu) * (1 - exp(-(lam+mu)T)).
    expm1 keeps the small-rate limit lam*T accurate down to (lam+mu)*T ~ 0;
    lam + mu = 0 returns 0 by convention. When lam + mu overflows, the ratio
    is taken of the halved rates, which is the same ratio.
    """
    lam, mu, t = float(incidence), float(mortality), float(horizon)
    for name, x in (("incidence", lam), ("mortality", mu), ("horizon", t)):
        if not math.isfinite(x):
            raise NonFiniteValue(f"non-finite {name} {x}")
    if lam < 0.0 or mu < 0.0:
        raise NegativeRate(f"rates must be nonnegative, got incidence {lam}, mortality {mu}")
    if t <= 0.0:
        raise ParameterOutOfRange(f"horizon {t} must be positive")
    if lam == 0.0:
        return 0.0
    total = lam + mu
    ratio = lam / total if math.isfinite(total) else 0.5 * lam / (0.5 * lam + 0.5 * mu)
    return -ratio * math.expm1(-total * t)


def read_header(path) -> list[str]:
    """Stripped fields of a CSV file's first line (empty for an empty file)."""
    try:
        with open(path, encoding="utf-8") as fh:
            fields = next(csv.reader([fh.readline()]))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return [h.strip() for h in fields]


def _read_columns(path, expected_header: list[str], optional: set[str] = frozenset()):
    """Read a CSV file into one list of stripped field strings per column.

    Returns (path, line numbers of the data rows, {column name: fields}),
    columns in header order. Rows whose fields are all blank are skipped.
    The file is streamed through csv.reader in one pass, so a quoted field
    keeps its line breaks; the kept rows' fields go into one flat list,
    stripped once at the end, and their start lines into an int64 array.
    """
    path = Path(path)
    header = read_header(path)
    required = [h for h in expected_header if h not in optional]
    width = len(header)
    linenos = array.array("q")
    fields: list[str] = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            if not fh.readline():
                raise ParseError(
                    f"{path}: empty file, expected header {','.join(expected_header)}"
                )
            if header != expected_header and header != required:
                raise ParseError(
                    f"{path}: header {','.join(header)!r} does not match "
                    f"{','.join(expected_header)!r}"
                )
            reader = csv.reader(fh)
            lineno = 2
            try:
                for row in reader:
                    if "".join(row).strip():
                        if len(row) != width:
                            fh.read()  # an undecodable byte anywhere is reported first
                            raise ParseError(
                                f"{path}:{lineno}: expected {width} fields, got {len(row)}"
                            )
                        linenos.append(lineno)
                        fields += row
                    lineno = reader.line_num + 2
            except csv.Error as exc:
                raise ParseError(f"{path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not linenos:
        raise ParseError(f"{path}: no data rows")
    for start in range(0, len(fields), _BLOCK_ROWS):  # in place: temporaries stay small
        fields[start : start + _BLOCK_ROWS] = map(str.strip, fields[start : start + _BLOCK_ROWS])
    return path, linenos, {name: fields[j::width] for j, name in enumerate(header)}


def _loadable(data: bytes) -> bool:
    """No NUL, which would end a numpy text field, and no LF-ended line
    longer than the field size limit that csv.reader enforces."""
    limit, start = csv.field_size_limit(), 0
    while len(data) - start > limit:
        start = data.rfind(b"\n", start, start + limit + 1) + 1
        if not start:
            return False
    return b"\0" not in data


def _plain_columns(path, header: list[str], formats: tuple[str, ...]) -> list[np.ndarray] | None:
    """Columns of a plain file (this header, then rows whose fields all parse
    by their formats) read by numpy's C reader, else None. numpy's float
    grammar is a subset of float()'s and gives the same bits."""
    if read_header(path) != header:
        return None
    try:
        if not _loadable(Path(path).read_bytes()):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns when the body is empty
            rows = np.loadtxt(path, list(zip(header, formats)), comments=None, delimiter=",",
                              skiprows=1, ndmin=1, encoding="utf-8")
    except (OSError, ValueError):
        return None
    return [np.ascontiguousarray(rows[name]) for name in header] if len(rows) else None


def _parse_float(path, lineno: int, name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: {name} {text!r} is not a number") from None


def _float_columns(path, linenos, columns: dict[str, list[str]]) -> list[np.ndarray]:
    """Each column parsed with float, NaN where it raises; the rows holding a
    NaN are parsed again field by field in file order, so the first field
    that is not a number raises. A literal nan is left for the table checks."""
    floats = [_floats(texts) for texts in columns.values()]
    for i in np.flatnonzero(np.any([np.isnan(c) for c in floats], axis=0)).tolist():
        for name, texts in columns.items():
            _parse_float(path, linenos[i], name, texts[i])
    return floats


def _labels(values: np.ndarray) -> KeyColumn:
    """Key column of format_label of each value, its vocabulary as bytes.

    Each distinct bit pattern is formatted once, so -0.0 and 0.0 keep their
    own labels "-0" and "0"; bit patterns that print one label (x and its
    neighbour at 12 digits, NaNs of either sign) share its code.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    floats = bits.view(np.float64)
    labels = np.empty(len(bits), "S33")
    for start in range(0, len(bits), _BLOCK_ROWS):  # blocks keep the field rows bounded
        block = _lines([floats[start : start + _BLOCK_ROWS]])
        labels[start : start + _BLOCK_ROWS] = block.encode().split(b"\n")[:-1]
    labels = labels.astype(f"S{np.char.str_len(labels).max(initial=1)}")  # narrow before sorting
    vocab, codes = np.unique(labels, return_inverse=True)
    return KeyColumn(codes[inverse], vocab)


def load_grouped(path) -> GroupedModelTable:
    """Load `risk,mass,prevalence` CSV into a grouped table.

    The prevalence column (or individual prevalence fields) may be omitted;
    omitted prevalences default to the assigned risk and the returned table is
    flagged declared_calibrated. numpy's reader takes only three full columns.
    """
    declared = False
    columns = _plain_columns(path, GROUPED_HEADER, ("f8",) * 3)
    if columns is None:
        path, linenos, texts = _read_columns(path, GROUPED_HEADER, optional={"prevalence"})
        prevalences = texts.get("prevalence", [""] * len(linenos))
        declared = "" in prevalences
        texts["prevalence"] = [p or r for r, p in zip(texts["risk"], prevalences)]
        columns = _float_columns(path, linenos, texts)
    risk, mass, prev = columns
    return make_grouped_table(
        Columns((_labels(risk),), (risk,), mass, prev), declared_calibrated=declared
    )


def load_joint(path) -> JointModelTable:
    """Load `r1,r2,mass,prevalence` CSV into a joint table.

    Cells are keyed by their formatted risk pair; duplicate keys merge with
    mass-weighted prevalence. A plain file is read by numpy's reader.
    """
    # The field strings are freed before the table is built.
    columns = _plain_columns(path, JOINT_HEADER, ("f8",) * 4)
    r1, r2, mass, prev = columns or _float_columns(*_read_columns(path, JOINT_HEADER))
    return make_joint_table(Columns((_labels(r1), _labels(r2)), (r1, r2), mass, prev))


class IndividualRecord(NamedTuple):
    """One person: model assignments and the binary outcome."""

    risk1: float
    risk2: float | None
    outcome: int


@dataclass(frozen=True, eq=False)
class IndividualRecords:
    """Person-level records held as columns, one array per field.

    risk1 is float64; risk2 is float64, or None when no record carries a
    second risk; outcome holds 0/1. Iteration yields IndividualRecord tuples
    of Python floats and ints (risk2 None when absent), and the records
    compare equal to the list of those tuples.
    """

    risk1: np.ndarray
    risk2: np.ndarray | None
    outcome: np.ndarray

    @classmethod
    def from_records(cls, records) -> "IndividualRecords":
        """Columns of an IndividualRecord sequence; risk2 must be present on
        all records or none, and the first faulty record raises through the
        checks load_individuals makes: outcome, risk1 range, risk2 range."""
        records = list(records)
        risk2 = [r.risk2 for r in records]
        blank = risk2.count(None)
        if 0 < blank < len(records):
            raise InvariantViolation("risk2 must be present on all records or none")
        columns = cls(
            risk1=np.array([r.risk1 for r in records], dtype=float),
            risk2=np.array(risk2, dtype=float) if risk2 and not blank else None,
            outcome=np.array([r.outcome for r in records]),
        )

        def check(i: int) -> None:
            risk1, risk2, outcome = next(itertools.islice(columns, i, None))  # as _faults saw them
            if outcome not in (0, 1):
                raise InvariantViolation(f"record {i}: outcome {outcome!r} must be 0 or 1")
            _check_risks(f"record {i}", risk1, risk2)

        _raise_first(_faults(columns.risk1, columns.risk2, columns.outcome), "record", check)
        return columns

    def __len__(self) -> int:
        return len(self.risk1)

    def __iter__(self):
        risk2 = itertools.repeat(None) if self.risk2 is None else self.risk2.tolist()
        return map(IndividualRecord, self.risk1.tolist(), risk2, self.outcome.tolist())

    def __eq__(self, other):
        if isinstance(other, IndividualRecords):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented


def _faults(risk1: np.ndarray, risk2: np.ndarray | None, outcome: np.ndarray) -> np.ndarray:
    """True on each record with a risk that is not a number in [0, 1] (NaN
    where a field did not parse) or an outcome other than 0 or 1."""
    faults = _outside_unit(risk1) | ((outcome != 0) & (outcome != 1))
    return faults if risk2 is None else faults | _outside_unit(risk2)


def _check_risks(where: str, risk1: float, risk2: float | None) -> None:
    for name, r in (("risk1", risk1), ("risk2", risk2)):
        if r is not None and not 0.0 <= r <= 1.0:
            raise RiskOutOfRange(f"{where}: {name} {r} outside [0, 1]")


def _check_record(path, linenos, columns: dict[str, list[str]], i: int) -> None:
    """Record i's checks in order: risk1 parse, risk2 parse (when filled),
    outcome, risk1 range, risk2 range."""
    lineno = linenos[i]
    risk1_text, risk2_text, outcome_text = (c[i] for c in columns.values())
    risk1 = _parse_float(path, lineno, "risk1", risk1_text)
    risk2 = _parse_float(path, lineno, "risk2", risk2_text) if risk2_text else None
    if outcome_text not in ("0", "1"):
        raise ParseError(f"{path}:{lineno}: outcome {outcome_text!r} must be 0 or 1")
    _check_risks(f"{path}:{lineno}", risk1, risk2)


def load_individuals(path) -> IndividualRecords:
    """Load `risk1,risk2,outcome` CSV into columns; risk2 may be empty throughout.

    numpy's reader takes a plain file, with risk2 filled on every row or
    blank on every row; csv.reader takes every other one. Both readers'
    columns go through one fault mask (_faults). A plain file with a fault is
    read again by csv.reader; then the first faulty record in file order
    raises through its own checks (_check_record). A risk2 column filled on
    some rows only raises after that.
    """
    plain = _plain_columns(path, INDIVIDUALS_HEADER, ("f8", "f8", "U2"))
    if plain is None:  # risk2 as text: a filled field keeps its first character, never blank
        single = _plain_columns(path, INDIVIDUALS_HEADER, ("f8", "U1", "U2"))
        if single is not None and (single[1] == "").all():
            plain = [single[0], None, single[2]]
    if plain is not None:
        risk1, risk2, outcome_text = plain
        ones = outcome_text == "1"
        outcome = np.where(ones | (outcome_text == "0"), ones.view(np.uint8), np.uint8(2))
        if not _faults(risk1, risk2, outcome).any():
            return IndividualRecords(risk1=risk1, risk2=risk2, outcome=outcome)
    path, linenos, columns = _read_columns(path, INDIVIDUALS_HEADER)
    risk1_texts, risk2_texts, outcome_texts = columns.values()
    blank = risk2_texts.count("")
    if not set(outcome_texts) <= {"0", "1"}:  # other outcomes code as 2, a fault
        outcome_texts = [t if t in ("0", "1") else "2" for t in outcome_texts]
    outcome = np.frombuffer("".join(outcome_texts).encode("ascii"), dtype=np.uint8) - ord("0")
    risk1 = _floats(risk1_texts)
    risk2 = None
    if blank < len(linenos):  # a blank risk2 passes its record's checks
        risk2 = _floats([t or "0" for t in risk2_texts] if blank else risk2_texts)
    faults = _faults(risk1, risk2, outcome)
    _raise_first(faults, "record", lambda i: _check_record(path, linenos, columns, i))
    if blank and risk2 is not None:
        raise ParseError(f"{path}: risk2 must be present on all rows or none")
    return IndividualRecords(risk1=risk1, risk2=risk2, outcome=outcome)


def _bin_ids(
    risks: np.ndarray, scheme: str, k: int
) -> tuple[np.ndarray, KeyColumn, np.ndarray | None]:
    """Assign each record a bin id; returns ids, the bin keys (entry i keys
    bin id i), and the exact bin risks when the scheme fixes them."""
    if scheme == "unique-values":
        values, ids = np.unique(risks, return_inverse=True)
        return ids, _labels(values), values
    if scheme != "quantiles":
        raise ParameterOutOfRange(f"unknown binning scheme {scheme!r}")
    if k < 2:
        raise ParameterOutOfRange(f"quantile bin count {k} must be at least 2")
    n = len(risks)
    if k <= n:  # more bins than records are refused before k - 1 cuts are made
        # A cut is the last risk of a bin in sorted order; a record's bin counts the cuts
        # below its risk, so a tie run straddling a cut falls in the lower bin.
        at = [n * j // k - 1 for j in range(1, k)]
        ids = np.searchsorted(np.partition(risks, at)[at], risks, side="left")
        filled = np.bincount(ids, minlength=k) > 0
    # k filled bins hold k distinct risks
    distinct = k if k <= n and filled.all() else len(np.unique(risks))
    if distinct < k:
        raise DegenerateBins(f"{distinct} distinct risks cannot fill {k} bins")
    width = len(str(k))
    labels = coded(f"q{int(old) + 1:0{width}d}" for old in np.flatnonzero(filled))
    return (np.cumsum(filled) - 1)[ids], labels, None


def _bin_model(risks: np.ndarray, outcomes: np.ndarray, scheme: str, k: int):
    """One model's bins: record bin ids, bin keys, counts, risks and prevalences.

    A bin's risk is its exact value when the scheme fixes it, else the mean
    member risk.
    """
    ids, labels, risk_of = _bin_ids(risks, scheme, k)
    counts = np.bincount(ids, minlength=len(labels))
    if risk_of is None:
        risk_of = np.bincount(ids, weights=risks, minlength=len(labels)) / counts
    prev = np.bincount(ids, weights=outcomes, minlength=len(labels)) / counts
    return ids, labels, counts, risk_of, prev


def bin_individuals(
    records: IndividualRecords | list[IndividualRecord],
    scheme: str = "unique-values",
    k: int = 10,
) -> tuple[GroupedModelTable, JointModelTable | None]:
    """Group individual records into a model table.

    scheme is "unique-values" (one group per distinct risk) or "quantiles"
    (k mass-balanced bins, ties to the lower bin; bins emptied by tie pushing
    are dropped). Groups carry the mean member risk (the distinct value itself
    under unique-values), the count share as mass, and the outcome share as
    prevalence. When records carry a second risk, the same scheme bins it and
    the joint table of both models is returned too. A list of
    IndividualRecord is converted to columns first.
    """
    if not isinstance(records, IndividualRecords):
        records = IndividualRecords.from_records(records)
    n = len(records)
    if not n:
        raise EmptyInput("no records to bin")
    outcomes = records.outcome
    ids1, labels1, counts1, risk1_of, prev1 = _bin_model(records.risk1, outcomes, scheme, k)
    grouped = make_grouped_table(Columns((labels1,), (risk1_of,), counts1 / n, prev1))
    if records.risk2 is None:
        return grouped, None
    ids2, labels2, _, risk2_of, _ = _bin_model(records.risk2, outcomes, scheme, k)
    # Sparse pair ids: only occupied (group1, group2) pairs get a slot.
    pair_ids, pair_of = np.unique(ids1 * len(labels2) + ids2, return_inverse=True)
    pair_counts = np.bincount(pair_of)
    pair_cases = np.bincount(pair_of, weights=outcomes)
    i, j = np.divmod(pair_ids, len(labels2))
    keys = (labels1[i], labels2[j])
    cells = Columns(keys, (risk1_of[i], risk2_of[j]), pair_counts / n, pair_cases / pair_counts)
    return grouped, make_joint_table(cells)


@dataclass(frozen=True)
class CrossDecileCell:
    decile1: int
    decile2: int
    person_years: float
    cases: int


@dataclass(frozen=True)
class CrossDecileTable:
    """Case counts and follow-up person-years cross-classified by two deciles."""

    cells: tuple[CrossDecileCell, ...]
    mortality: float
    horizon: float

    def to_joint(self) -> JointModelTable:
        """Convert counts to a joint model table of absolute risks.

        Within each first-model decile, mass follows the person-years
        proportions; each decile row then gets equal total mass so that
        decile-level reports weight deciles equally. Cell prevalence converts
        the cell incidence cases/person_years; decile risks are the
        mass-weighted marginal prevalences (well-calibrated convention).
        """
        rows: dict[int, list[CrossDecileCell]] = {}
        for c in self.cells:
            rows.setdefault(c.decile1, []).append(c)
        n_rows = len(rows)
        raw = []
        for d1, cells in rows.items():
            row_py = _nonnegative_sum(c.person_years for c in cells)
            if row_py == math.inf:
                raise NonFiniteValue(f"person_years of decile1 {d1} sum to {row_py}")
            for c in cells:
                prev = ten_year_risk(c.cases / c.person_years, self.mortality, self.horizon)
                raw.append((c.decile1, c.decile2, c.person_years / row_py / n_rows, prev))
        d1, d2, mass, prev = zip(*raw)
        width = max(len(str(d)) for d in d1 + d2)
        mass, prev = np.array(mass), np.array(prev)
        keys, risks = [], []
        for deciles in (d1, d2):
            keys.append(coded(f"d{d:0{width}d}" for d in deciles))
            risks.append(_merge(keys[-1].codes, mass, prev)[1][keys[-1].codes])
        return make_joint_table(Columns(tuple(keys), tuple(risks), mass, prev))


def read_cross_decile(path, mortality: float, horizon: float) -> CrossDecileTable:
    """Parse `decile1,decile2,person_years,cases` CSV without converting."""
    mortality, horizon = float(mortality), float(horizon)
    if mortality < 0.0:
        raise NegativeRate(f"mortality {mortality} must be nonnegative")
    if horizon <= 0.0:
        raise ParameterOutOfRange(f"horizon {horizon} must be positive")
    path, linenos, columns = _read_columns(path, CROSS_DECILE_HEADER)
    cells = []
    seen = set()
    for lineno, d1_text, d2_text, py_text, cases_text in zip(linenos, *columns.values()):
        try:
            d1, d2 = int(d1_text), int(d2_text)
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: decile indices {d1_text!r},{d2_text!r} must be integers"
            ) from None
        py = _parse_float(path, lineno, "person_years", py_text)
        cases_f = _parse_float(path, lineno, "cases", cases_text)
        if not math.isfinite(cases_f) or cases_f < 0 or cases_f != int(cases_f):
            raise ParseError(f"{path}:{lineno}: cases {cases_text!r} must be a nonnegative integer")
        cases = int(cases_f)
        if not math.isfinite(py) or py < 0.0:
            raise ParseError(
                f"{path}:{lineno}: person_years {py_text!r} must be a finite nonnegative number"
            )
        if py == 0.0:
            if cases == 0:
                continue
            raise ZeroPersonYears(f"{path}:{lineno}: {cases} cases with no person-years")
        if cases > py / horizon:
            raise InvariantViolation(
                f"{path}:{lineno}: {cases} cases exceed the population implied by "
                f"{py} person-years over {horizon} years"
            )
        if (d1, d2) in seen:
            raise ParseError(f"{path}:{lineno}: duplicate cell ({d1}, {d2})")
        seen.add((d1, d2))
        cells.append(CrossDecileCell(decile1=d1, decile2=d2, person_years=py, cases=cases))
    if not cells:
        raise EmptyInput(f"{path}: no nonempty cells")
    return CrossDecileTable(cells=tuple(cells), mortality=mortality, horizon=horizon)


def load_cross_decile(path, mortality: float, horizon: float) -> JointModelTable:
    """Load a cross-decile count table and convert it to a joint risk table."""
    return read_cross_decile(path, mortality, horizon).to_joint()


def example_cross_decile_path() -> Path:
    """Path of the bundled 40-cell synthetic cross-decile example."""
    return Path(__file__).parent / "data" / "example_crossdecile.csv"


_QUOTED = re.compile('[,"\r\n]')  # a CSV text field holding one of these is quoted
_PAD = 0xFF  # fills field rows; never a byte of UTF-8 text
_BLOCK_ROWS = 1 << 13  # rows formatted at a time, so temporaries stay bounded


def _csv_text(v) -> str:
    text = str(v)
    return '"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ASCII digits of 0..9999 packed in uint32s, 10**0..10**22, and the field of
    each exponent -11..34 and digit count kept: sign, the `0.000` below 1, digit
    j at 6 + 2j (0, to be OR-ed) and an optional point after it, then `e+XX`."""
    quads = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
    rows = np.full((46, 33), _PAD, dtype=np.uint8)
    rows[:, 6:29:2] = 0
    for e, row in enumerate(rows, -11):
        if e < -4 or e >= 12:
            row[7] = ord(".")
            row[29:] = np.frombuffer(b"e%+03d" % e, np.uint8)
        elif e < 0:
            row[1 : 2 - e] = np.frombuffer(b"0.000"[: 1 - e], np.uint8)
        elif e < 11:
            row[7 + 2 * e] = ord(".")
    slot = np.arange(33)  # k digits kept: the point after the last and all up to `e` go
    strip = (slot >= 5 + 2 * np.arange(13)[:, None]) & (slot < 29)
    templates = np.where(strip, _PAD, rows[:, None])
    powers = np.array([10**k for k in range(23)], dtype=np.float64)
    return np.ascontiguousarray(quads).view(np.uint32).ravel(), powers, templates.reshape(-1, 33)


def _float_fields(values) -> np.ndarray:
    """`format(v, ".12g")` of each value, one row of ASCII bytes each, padded with _PAD.

    y = |v| * 10**(11 - floor(log10|v|)) is one correctly rounded multiply or
    divide by an exact power of ten; rounding is monotonic and half-integers
    below 2**52 are doubles, so where 1e11 <= y < 1e12 and y is no half-integer,
    rint(y) is the significand format prints (1e12 carries). Zeros are 0 or
    -0; other values (subnormals, inf, nan, |v| outside [1e-11, 1e34), ties)
    go to format.
    """
    quads, powers, templates = _digit_tables()
    x = np.asarray(values, dtype=np.float64)
    a = np.where(np.isfinite(x), np.abs(x), 0.0)
    e = np.clip(np.floor(np.log10(a, out=np.zeros_like(a), where=a > 0.0)), -11, 33).astype(np.intp)
    scale = np.take(powers, np.abs(11 - e))
    y = np.multiply(a, scale, out=a / scale, where=e <= 11)
    d = np.rint(y)
    exact = (y >= 1e11) & (y < 1e12) & (np.abs(y - d) != 0.5)
    e += d == 1e12
    d = np.where(exact & (d < 1e12), d, 1e11).astype(np.int64)  # a zero: e = 0, one digit
    digits = np.take(quads, np.stack([d // 10**8, d // 10**4 % 10**4, d % 10**4], axis=1))
    digits = digits.view(np.uint8)
    nd = 12 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)  # significant digits
    keep = np.where((e >= 0) & (e < 12), np.maximum(nd, e + 1), nd)  # fixed keeps integer digits
    fields = np.take(templates, (e + 11) * 13 + keep, axis=0)
    fields[:, 0] = np.where(np.signbit(x), ord("-"), _PAD)
    fields[:, 6:29:2] |= digits
    zero = x == 0.0
    fields[zero, 6] = ord("0")
    rest = ~(exact | zero)
    text = np.array([format(v, ".12g") for v in x[rest].tolist()], "S33").view(np.uint8)
    fields[rest] = np.where(text == 0, _PAD, text).reshape(-1, 33)
    return fields


def _text_fields(column) -> np.ndarray:
    """UTF-8 bytes of each text field, quoted as CSV needs, one row each, padded with _PAD.

    A key column with a bytes vocabulary takes its rows from the vocabulary's.
    """
    if isinstance(column, KeyColumn) and column.vocab.dtype != object:
        fields = column.vocab.view(np.uint8).reshape(len(column.vocab), -1)[column.codes]
        return np.where(fields == 0, _PAD, fields)
    texts = list(map(str, column))
    data = list(map(str.encode, map(_csv_text, texts) if _QUOTED.search("".join(texts)) else texts))
    lengths = np.fromiter(map(len, data), np.int64, len(data))
    fields = np.array(data, dtype="S").view(np.uint8).reshape(len(data), -1)
    np.copyto(fields, _PAD, where=np.arange(fields.shape[1]) >= lengths[:, None])
    return fields


def _lines(columns) -> str:
    """CSV lines of columns (float arrays, key columns, text sequences), one per entry."""
    kinds = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    floats = [c for c, f in zip(columns, kinds) if f]  # formatted in one call
    packed = iter(np.split(_float_fields(np.concatenate(floats)), len(floats)) if floats else ())
    fields = [next(packed) if f else _text_fields(c) for c, f in zip(columns, kinds)]
    comma = np.full((len(fields[0]), 1), ord(","), dtype=np.uint8)
    block = np.concatenate([m for f in fields for m in (f, comma)], axis=1)
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, bytes([_PAD])).decode("utf-8")


def csv_chunks(header, *, columns):
    """The text of format_csv in pieces: the header line, then blocks of lines."""
    yield ",".join(header) + "\n"
    n = min(map(len, columns), default=0)
    for start in range(0, n, _BLOCK_ROWS):
        yield _lines([column[start : min(n, start + _BLOCK_ROWS)] for column in columns])


def format_csv(header, *, columns) -> str:
    """CSV text: the header line, then one line per entry of the columns.

    columns are float arrays, key columns and text sequences (any other
    value is written as str() gives it). Floats are written as format(x,
    ".12g") does, by one exact vectorized formatter with a per-value
    fallback; text holding a comma, a double quote or a line break is quoted.
    """
    return "".join(csv_chunks(header, columns=columns))


def grouped_csv(table: GroupedModelTable) -> str:
    """`risk,mass,prevalence` CSV text of a grouped table."""
    return format_csv(GROUPED_HEADER, columns=(table.risk, table.mass, table.prevalence))


def write_grouped(table: GroupedModelTable, path) -> None:
    """Write `risk,mass,prevalence` CSV at 12 significant digits."""
    Path(path).write_text(grouped_csv(table), encoding="utf-8")


def write_joint(table: JointModelTable, path) -> None:
    """Write `r1,r2,mass,prevalence` CSV at 12 significant digits."""
    columns = (table.risk1, table.risk2, table.mass, table.prevalence)
    Path(path).write_text(format_csv(JOINT_HEADER, columns=columns), encoding="utf-8")
